//! The `bsor-serve` plan service: a long-lived, line-delimited JSON
//! request/response protocol over the [`Planner`]/[`PlanCache`] split.
//!
//! The paper's BSOR flow is offline — solve once per application, then
//! route obliviously at runtime — which makes the production shape a
//! *plan server*: many tenants concurrently requesting plans and
//! evaluations for overlapping `(topology, workload, algorithm, vcs)`
//! keys, with link-failure deltas arriving as incremental
//! [`PlanCache::invalidate`] calls instead of cache flushes.
//!
//! # Protocol
//!
//! One JSON object per line, on stdin/stdout or a TCP connection
//! (blank lines are ignored). Every request carries an `op` and an
//! optional `id` the response echoes verbatim:
//!
//! ```text
//! request    = { "id"?: any, "op": "plan" | "evaluate" | "invalidate" | "stats", ... }
//! response   = { "id": any, "ok": true,  "result": object }
//!            | { "id": any, "ok": false, "error": { "code": string, "message": string } }
//!
//! plan       = { "op": "plan", "topology"?: name | spec, "width"?: int, "height"?: int,
//!                "workload": spec, "algorithm": name, "vcs"?: int }
//! evaluate   = plan fields + { "op": "evaluate", "rate": number,
//!                "backend"?: "static" | "sim", "warmup"?: int, "measurement"?: int,
//!                "packet_len"?: int, "seed"?: int }
//! invalidate = { "op": "invalidate", "links": [[src, dst], ...] }
//! stats      = { "op": "stats" }
//! ```
//!
//! Topology names, workload specs and algorithm names resolve through
//! the same [`SweepRegistries`] the sweep CLI uses (`bsor-sweep
//! --list-*` enumerates them). A `topology` value containing `:` is a
//! full registry spec (`dragonfly:2,3,2`, `fattree:4`, `fullmesh:8`,
//! `file:<path>`) resolved through `TopologyRegistry::build_spec`,
//! ignoring `width`/`height`; a bare name keeps the historical
//! name + dims path. Malformed input of any kind — bad JSON,
//! missing fields, unknown names — produces a typed [`ServeError`]
//! response on the same line, never a panic and never a dropped
//! connection.
//!
//! # Determinism contract
//!
//! With timings disabled ([`ServeConfig::timings`] off, `--no-timings`
//! on the binary), responses are a pure function of the request stream:
//! same requests + same seeds ⇒ byte-identical response stream, across
//! thread counts and machines. Wall-clock fields (`elapsed_ms`,
//! `solve_ms_*`) are reported as `0.0` in that mode rather than
//! omitted, so the schema never shifts.
//!
//! # Error codes
//!
//! Protocol-level failures use `bad-json`, `bad-request` and
//! `unknown-op`; pipeline failures carry the stable
//! [`bsor_sim::Error::code`] vocabulary (`select-failed`, `deadlock`,
//! `unknown-workload`, …).

use crate::json::{Json, JsonParseError};
use crate::sweep::SweepRegistries;
use bsor_sim::{
    EvalPoint, Evaluation, Evaluator, PlanCache, PlanCacheConfig, Planner, RoutePlan, Scenario,
    SimConfig, SimEvaluator, StaticMclEvaluator,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a [`PlanService`] is sized and reported.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Plan-cache LRU budgets (plan count and approximate bytes).
    pub cache: PlanCacheConfig,
    /// Report wall-clock fields. Off, every timing field is `0.0` and
    /// the response stream is byte-deterministic for a fixed request
    /// stream (the serve determinism contract).
    pub timings: bool,
    /// Log a one-line cache/stats summary to stderr every N requests
    /// (`0` disables the periodic line).
    pub stats_every: u64,
    /// Compile served plans' router tables into the interval-compressed
    /// representation (`bsor_routing::CompactTables`). Responses are
    /// behaviorally identical either way; the per-plan `table_bytes`
    /// figure (and the cache's byte accounting) shrinks.
    pub compact_tables: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache: PlanCacheConfig::new(),
            timings: true,
            stats_every: 0,
            compact_tables: false,
        }
    }
}

/// Why a request could not be served.
///
/// [`ServeError::code`] is the stable `error.code` of the response:
/// protocol-level failures map to `bad-json` / `bad-request` /
/// `unknown-op`, pipeline failures defer to the unified
/// [`bsor_sim::Error::code`] vocabulary.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The line was not valid JSON.
    BadJson(JsonParseError),
    /// The request was structurally wrong (not an object, missing or
    /// mistyped fields, unbuildable topology).
    BadRequest(String),
    /// The `op` is not one of `plan`/`evaluate`/`invalidate`/`stats`.
    UnknownOp(String),
    /// The scenario → plan → evaluate pipeline failed.
    Pipeline(bsor_sim::Error),
}

impl ServeError {
    /// The stable machine-readable code for the JSON `error.code`
    /// field.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadJson(_) => "bad-json",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::UnknownOp(_) => "unknown-op",
            ServeError::Pipeline(e) => e.code(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadJson(e) => write!(f, "{e}"),
            ServeError::BadRequest(msg) => write!(f, "{msg}"),
            ServeError::UnknownOp(op) => write!(
                f,
                "unknown op '{op}' (expected plan, evaluate, invalidate or stats)"
            ),
            ServeError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<JsonParseError> for ServeError {
    fn from(e: JsonParseError) -> Self {
        ServeError::BadJson(e)
    }
}

impl From<bsor_sim::Error> for ServeError {
    fn from(e: bsor_sim::Error) -> Self {
        ServeError::Pipeline(e)
    }
}

impl From<bsor_sim::PlanError> for ServeError {
    fn from(e: bsor_sim::PlanError) -> Self {
        ServeError::Pipeline(e.into())
    }
}

impl From<bsor_sim::SimError> for ServeError {
    fn from(e: bsor_sim::SimError) -> Self {
        ServeError::Pipeline(e.into())
    }
}

impl From<bsor_sim::ScenarioError> for ServeError {
    fn from(e: bsor_sim::ScenarioError) -> Self {
        ServeError::Pipeline(e.into())
    }
}

impl From<bsor_workloads::WorkloadError> for ServeError {
    fn from(e: bsor_workloads::WorkloadError) -> Self {
        ServeError::Pipeline(e.into())
    }
}

/// Scenario memo key: the request fields that determine a scenario.
type ScenarioKey = (String, u16, u16, String, u8);

/// Scenarios the service keeps before evicting the memo wholesale (the
/// memo only avoids re-deriving CDGs for hot keys; correctness never
/// depends on it).
const SCENARIO_MEMO_CAP: usize = 1024;

/// The serve-side state: registries, a [`Planner`] over one
/// single-flight [`PlanCache`] (one lock, exact LRU budgets), and a
/// scenario memo.
///
/// One `PlanService` is shared (via [`Arc`]) by every connection of a
/// server; [`PlanService::handle_line`] is safe to call concurrently.
pub struct PlanService {
    regs: SweepRegistries,
    planner: Planner,
    cache: Arc<PlanCache>,
    timings: bool,
    stats_every: u64,
    requests: AtomicU64,
    scenarios: Mutex<HashMap<ScenarioKey, Arc<Scenario>>>,
}

impl PlanService {
    /// A service over the standard registries.
    pub fn new(config: ServeConfig) -> PlanService {
        PlanService::with_registries(config, SweepRegistries::standard())
    }

    /// A service over custom registries.
    pub fn with_registries(config: ServeConfig, regs: SweepRegistries) -> PlanService {
        let cache = PlanCache::shared_with(config.cache);
        PlanService {
            regs,
            planner: Planner::new()
                .with_cache(cache.clone())
                .with_compact_tables(config.compact_tables),
            cache,
            timings: config.timings,
            stats_every: config.stats_every,
            requests: AtomicU64::new(0),
            scenarios: Mutex::new(HashMap::new()),
        }
    }

    /// The shared plan cache behind the service.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The planner behind the service.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Requests handled so far (any op, including failed ones).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Handles one protocol line and renders the one-line response.
    /// Never panics: malformed input becomes a typed error response.
    pub fn handle_line(&self, line: &str) -> String {
        let served = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let parsed = Json::parse(line.trim());
        let id = parsed
            .as_ref()
            .ok()
            .and_then(|req| req.get("id").cloned())
            .unwrap_or(Json::Null);
        let outcome = parsed
            .map_err(ServeError::from)
            .and_then(|req| self.handle(&req));
        let response = match outcome {
            Ok(result) => Json::object(vec![
                ("id", id),
                ("ok", Json::Bool(true)),
                ("result", result),
            ]),
            Err(e) => Json::object(vec![
                ("id", id),
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::object(vec![
                        ("code", Json::from(e.code())),
                        ("message", Json::from(e.to_string())),
                    ]),
                ),
            ]),
        };
        if self.stats_every > 0 && served % self.stats_every == 0 {
            let s = self.cache.stats();
            eprintln!(
                "bsor-serve: {served} requests, {} plans ({} bytes), {} hits / {} misses / {} \
                 dedup waits, {} solves, {} lru + {} invalidated evictions",
                s.plans,
                s.bytes,
                s.hits,
                s.misses,
                s.dedup_waits,
                s.solves,
                s.evicted_lru,
                s.evicted_invalidated
            );
        }
        response.compact()
    }

    /// Dispatches a parsed request to its op handler and returns the
    /// `result` payload.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; the caller renders it into the error
    /// response envelope.
    pub fn handle(&self, request: &Json) -> Result<Json, ServeError> {
        if !matches!(request, Json::Object(_)) {
            return Err(ServeError::BadRequest(
                "request must be a JSON object".to_owned(),
            ));
        }
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::BadRequest("missing string field 'op'".to_owned()))?;
        match op {
            "plan" => self.op_plan(request),
            "evaluate" => self.op_evaluate(request),
            "invalidate" => self.op_invalidate(request),
            "stats" => Ok(self.op_stats()),
            other => Err(ServeError::UnknownOp(other.to_owned())),
        }
    }

    /// Resolves the scenario a plan/evaluate request names, through the
    /// memo.
    fn scenario(&self, request: &Json) -> Result<Arc<Scenario>, ServeError> {
        let topology = opt_str(request, "topology")?.unwrap_or("mesh").to_owned();
        let width = opt_dim(request, "width")?.unwrap_or(8);
        let height = opt_dim(request, "height")?.unwrap_or(8);
        let workload = req_str(request, "workload")?.to_owned();
        let vcs = opt_u8(request, "vcs")?.unwrap_or(2);
        if !(1..=8).contains(&vcs) {
            return Err(ServeError::BadRequest(format!(
                "field 'vcs' must be 1..=8, got {vcs}"
            )));
        }
        let key: ScenarioKey = (topology, width, height, workload, vcs);
        if let Some(hit) = self.scenarios.lock().expect("memo poisoned").get(&key) {
            return Ok(hit.clone());
        }
        let topo = if key.0.contains(':') {
            self.regs.topologies.build_spec(&key.0)
        } else {
            self.regs.topologies.build(&key.0, key.1, key.2)
        }
        .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let workload = self.regs.workloads.build(&topo, &key.3)?;
        let scenario = Arc::new(
            Scenario::builder(topo, workload.flows)
                .named(&key.3)
                .vcs(key.4)
                .build()?,
        );
        let mut memo = self.scenarios.lock().expect("memo poisoned");
        if memo.len() >= SCENARIO_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, scenario.clone());
        Ok(scenario)
    }

    /// Plans the request's scenario/algorithm pair (single-flight
    /// through the shared cache).
    fn plan(&self, request: &Json) -> Result<(Arc<RoutePlan>, Arc<Scenario>), ServeError> {
        let scenario = self.scenario(request)?;
        let name = req_str(request, "algorithm")?;
        let algorithm = self
            .regs
            .algorithms
            .get(name)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown algorithm '{name}'")))?;
        let plan = self.planner.plan(&scenario, algorithm)?;
        Ok((plan, scenario))
    }

    fn op_plan(&self, request: &Json) -> Result<Json, ServeError> {
        let started = Instant::now();
        let (plan, _scenario) = self.plan(request)?;
        Ok(Json::object(vec![
            ("plan", Json::from(plan.id().to_string())),
            ("algorithm", Json::from(plan.algorithm())),
            ("predicted_mcl", Json::from(plan.predicted_mcl())),
            ("flows", Json::from(plan.flows().len())),
            ("links", Json::from(plan.topology().num_links())),
            ("vcs", Json::from(u64::from(plan.vcs()))),
            ("table_bytes", Json::from(plan.table_bytes() as u64)),
            ("certified", Json::Bool(true)),
            ("elapsed_ms", self.elapsed_ms(started)),
        ]))
    }

    fn op_evaluate(&self, request: &Json) -> Result<Json, ServeError> {
        let started = Instant::now();
        let rate = request
            .get("rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| ServeError::BadRequest("missing number field 'rate'".to_owned()))?;
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(ServeError::BadRequest(format!(
                "'rate' must be a finite number >= 0, got {rate}"
            )));
        }
        let backend = opt_str(request, "backend")?.unwrap_or("static");
        let (plan, _scenario) = self.plan(request)?;
        let mut config = SimConfig::new(plan.vcs())
            .with_warmup(opt_u64(request, "warmup")?.unwrap_or(200))
            .with_measurement(opt_u64(request, "measurement")?.unwrap_or(1_000));
        if let Some(packet_len) = opt_u64(request, "packet_len")? {
            let packet_len = usize::try_from(packet_len)
                .map_err(|_| ServeError::BadRequest("'packet_len' out of range".to_owned()))?;
            if packet_len == 0 {
                return Err(ServeError::BadRequest(
                    "'packet_len' must be at least 1 flit".to_owned(),
                ));
            }
            config = config.with_packet_len(packet_len);
        }
        if let Some(seed) = opt_u64(request, "seed")? {
            config = config.with_seed(seed);
        }
        let point = EvalPoint::new(rate, config);
        let evaluation = match backend {
            "static" => StaticMclEvaluator::new().evaluate(&plan, &point)?,
            "sim" => SimEvaluator::new().evaluate(&plan, &point)?,
            other => {
                return Err(ServeError::BadRequest(format!(
                    "unknown backend '{other}' (expected 'static' or 'sim')"
                )))
            }
        };
        Ok(self.evaluation_json(&plan, &evaluation, started))
    }

    fn evaluation_json(&self, plan: &RoutePlan, ev: &Evaluation, started: Instant) -> Json {
        let opt_u = |v: Option<u64>| v.map(Json::UInt).unwrap_or(Json::Null);
        let opt_f = |v: Option<f64>| v.map(Json::Float).unwrap_or(Json::Null);
        Json::object(vec![
            ("plan", Json::from(plan.id().to_string())),
            ("backend", Json::from(ev.backend)),
            ("rate", Json::from(ev.rate)),
            ("offered", Json::from(ev.offered)),
            ("throughput", Json::from(ev.throughput)),
            ("mean_latency", opt_f(ev.mean_latency)),
            ("p50_latency", opt_u(ev.p50_latency)),
            ("p95_latency", opt_u(ev.p95_latency)),
            ("p99_latency", opt_u(ev.p99_latency)),
            ("max_latency", Json::from(ev.max_latency)),
            ("max_channel_load", Json::from(ev.max_channel_load)),
            ("predicted_mcl", Json::from(ev.predicted_mcl)),
            ("generated", Json::from(ev.generated)),
            ("delivered", Json::from(ev.delivered)),
            ("deadlocked", Json::Bool(ev.deadlocked)),
            ("cycles", Json::from(ev.cycles)),
            ("elapsed_ms", self.elapsed_ms(started)),
        ])
    }

    fn op_invalidate(&self, request: &Json) -> Result<Json, ServeError> {
        let links = request
            .get("links")
            .and_then(Json::as_array)
            .ok_or_else(|| {
                ServeError::BadRequest("missing array field 'links' of [src, dst] pairs".to_owned())
            })?;
        let mut delta = Vec::with_capacity(links.len());
        for pair in links {
            let parsed = pair.as_array().and_then(|p| match p {
                [a, b] => Some((a.as_u64()?, b.as_u64()?)),
                _ => None,
            });
            let (a, b) = parsed.ok_or_else(|| {
                ServeError::BadRequest(
                    "'links' entries must be [src, dst] node-id pairs".to_owned(),
                )
            })?;
            let narrow = |v: u64| {
                u32::try_from(v).map_err(|_| {
                    ServeError::BadRequest(format!("link [{a}, {b}] has a node id over u32::MAX"))
                })
            };
            delta.push((narrow(a)?, narrow(b)?));
        }
        // Ids past every cached topology's node count cannot name a
        // real link, so the delta is a client error, not a no-op.
        if let Some(nodes) = self.cache.max_node_count() {
            for &(a, b) in &delta {
                if a as usize >= nodes || b as usize >= nodes {
                    return Err(ServeError::BadRequest(format!(
                        "link [{a}, {b}] is out of range: cached topologies have at most \
                         {nodes} nodes (ids 0..={})",
                        nodes - 1
                    )));
                }
            }
        }
        let outcome = self.cache.invalidate(&delta);
        Ok(Json::object(vec![
            ("examined", Json::from(outcome.examined)),
            ("evicted", Json::from(outcome.evicted)),
            ("recertified", Json::from(outcome.recertified)),
        ]))
    }

    fn op_stats(&self) -> Json {
        let s = self.cache.stats();
        let ms = |ns: u64| {
            if self.timings {
                Json::Float(ns as f64 / 1e6)
            } else {
                Json::Float(0.0)
            }
        };
        Json::object(vec![
            ("requests", Json::from(self.requests())),
            ("hits", Json::from(s.hits)),
            ("misses", Json::from(s.misses)),
            ("dedup_waits", Json::from(s.dedup_waits)),
            ("inserts", Json::from(s.inserts)),
            ("evicted_lru", Json::from(s.evicted_lru)),
            ("evicted_invalidated", Json::from(s.evicted_invalidated)),
            ("recertified", Json::from(s.recertified)),
            ("in_flight", Json::from(s.in_flight)),
            ("solves", Json::from(s.solves)),
            ("plans", Json::from(s.plans)),
            ("bytes", Json::from(s.bytes)),
            ("table_bytes", Json::from(s.table_bytes)),
            ("solve_ms_total", ms(s.solve_ns_total)),
            ("solve_ms_max", ms(s.solve_ns_max)),
        ])
    }

    fn elapsed_ms(&self, started: Instant) -> Json {
        if self.timings {
            Json::Float(started.elapsed().as_secs_f64() * 1e3)
        } else {
            Json::Float(0.0)
        }
    }
}

/// Serves line-delimited requests from `reader` to `writer` until EOF
/// (the stdin/stdout mode of `bsor-serve`; blank lines are skipped).
/// Responses are flushed per line so a pipe can converse.
///
/// # Errors
///
/// Only I/O errors on the transport — protocol problems are answered
/// in-band.
pub fn serve_lines<R: BufRead, W: Write>(
    service: &PlanService,
    reader: R,
    mut writer: W,
) -> std::io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(writer, "{}", service.handle_line(&line))?;
        writer.flush()?;
    }
    Ok(())
}

/// Accepts TCP connections forever, one thread per connection, each
/// speaking the same line protocol over one shared service. Per-
/// connection I/O errors drop that connection only.
///
/// # Errors
///
/// Only fatal accept-loop errors.
pub fn serve_tcp(service: Arc<PlanService>, listener: TcpListener) -> std::io::Result<()> {
    loop {
        let (stream, _addr) = listener.accept()?;
        let service = service.clone();
        std::thread::spawn(move || {
            let _ = serve_connection(&service, stream);
        });
    }
}

fn serve_connection(service: &PlanService, stream: TcpStream) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    serve_lines(service, reader, stream)
}

fn req_str<'a>(request: &'a Json, field: &str) -> Result<&'a str, ServeError> {
    opt_str(request, field)?
        .ok_or_else(|| ServeError::BadRequest(format!("missing string field '{field}'")))
}

fn opt_str<'a>(request: &'a Json, field: &str) -> Result<Option<&'a str>, ServeError> {
    match request.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ServeError::BadRequest(format!("field '{field}' must be a string"))),
    }
}

fn opt_u64(request: &Json, field: &str) -> Result<Option<u64>, ServeError> {
    match request.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ServeError::BadRequest(format!("field '{field}' must be a non-negative integer"))
        }),
    }
}

fn opt_dim(request: &Json, field: &str) -> Result<Option<u16>, ServeError> {
    match opt_u64(request, field)? {
        None => Ok(None),
        Some(v) => u16::try_from(v)
            .map(Some)
            .map_err(|_| ServeError::BadRequest(format!("field '{field}' out of range"))),
    }
}

fn opt_u8(request: &Json, field: &str) -> Result<Option<u8>, ServeError> {
    match opt_u64(request, field)? {
        None => Ok(None),
        Some(v) => u8::try_from(v)
            .map(Some)
            .map_err(|_| ServeError::BadRequest(format!("field '{field}' out of range"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> PlanService {
        PlanService::new(ServeConfig {
            timings: false,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn plan_op_round_trips_and_caches() {
        let svc = service();
        let req =
            r#"{"id":1,"op":"plan","workload":"transpose","algorithm":"xy","width":4,"height":4}"#;
        let a = svc.handle_line(req);
        let b = svc.handle_line(req);
        assert_eq!(a, b, "a cache hit answers identically");
        let parsed = Json::parse(&a).expect("valid response");
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        let result = parsed.get("result").expect("result");
        assert_eq!(
            result.get("plan").and_then(Json::as_str).map(str::len),
            Some(16),
            "content address is 16 hex digits"
        );
        assert_eq!(svc.cache().stats().solves, 1, "one solve, one hit");
        assert_eq!(svc.cache().stats().hits, 1);
    }

    #[test]
    fn malformed_lines_answer_typed_errors_not_panics() {
        let svc = service();
        for (line, code) in [
            ("{not json", "bad-json"),
            ("[1,2,3]", "bad-request"),
            (r#"{"op":"warp"}"#, "unknown-op"),
            (r#"{"op":"plan","workload":"transpose"}"#, "bad-request"),
            (
                r#"{"op":"plan","workload":"nope","algorithm":"xy"}"#,
                "unknown-workload",
            ),
            (
                r#"{"op":"plan","workload":"hotspot:lots","algorithm":"xy"}"#,
                "bad-workload-spec",
            ),
            (
                r#"{"op":"plan","workload":"transpose","algorithm":"zigzag"}"#,
                "bad-request",
            ),
            (
                r#"{"op":"plan","topology":"hypercube","width":4,"height":2,"workload":"uniform-random","algorithm":"xy"}"#,
                "unsupported-topology",
            ),
            (
                r#"{"op":"evaluate","workload":"transpose","algorithm":"xy"}"#,
                "bad-request",
            ),
            (
                r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","rate":-1,"backend":"sim"}"#,
                "bad-request",
            ),
            (
                r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","rate":-1}"#,
                "bad-request",
            ),
            (
                r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","rate":0.1,"packet_len":0,"backend":"sim"}"#,
                "bad-request",
            ),
            (
                r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","rate":0.1,"packet_len":0}"#,
                "bad-request",
            ),
            (
                r#"{"op":"plan","workload":"transpose","algorithm":"xy","vcs":0}"#,
                "bad-request",
            ),
            (
                r#"{"op":"plan","workload":"transpose","algorithm":"xy","vcs":255}"#,
                "bad-request",
            ),
            // Runs the generator could not finish are refused before
            // the first cycle: a finite rate of 1e300, and a cycle count
            // that wraps u64.
            (
                r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","rate":1e300,"backend":"sim"}"#,
                "sim-rejected",
            ),
            (
                r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","rate":0.1,"backend":"sim","warmup":18446744073709551615,"measurement":1}"#,
                "sim-rejected",
            ),
            (r#"{"op":"invalidate"}"#, "bad-request"),
            (r#"{"op":"invalidate","links":[[0]]}"#, "bad-request"),
            (
                r#"{"op":"invalidate","links":[[0,4294967296]]}"#,
                "bad-request",
            ),
        ] {
            let response = Json::parse(&svc.handle_line(line)).expect("valid response JSON");
            assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert_eq!(
                response
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some(code),
                "{line}"
            );
        }
    }

    #[test]
    fn evaluate_backends_share_the_plan() {
        let svc = service();
        let static_req = r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","width":4,"height":4,"rate":0.1}"#;
        let sim_req = r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","width":4,"height":4,"rate":0.1,"backend":"sim","warmup":100,"measurement":500}"#;
        let st = Json::parse(&svc.handle_line(static_req)).expect("valid");
        let sim = Json::parse(&svc.handle_line(sim_req)).expect("valid");
        assert_eq!(st.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(sim.get("ok"), Some(&Json::Bool(true)));
        let (st, sim) = (st.get("result").unwrap(), sim.get("result").unwrap());
        assert_eq!(st.get("backend").and_then(Json::as_str), Some("static-mcl"));
        assert_eq!(sim.get("backend").and_then(Json::as_str), Some("sim"));
        assert_eq!(st.get("plan"), sim.get("plan"), "one plan id serves both");
        assert_eq!(st.get("predicted_mcl"), sim.get("predicted_mcl"));
        assert!(sim.get("delivered").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(
            svc.cache().stats().solves,
            1,
            "second backend reused the plan"
        );
    }

    #[test]
    fn invalidate_evicts_only_overlapping_plans() {
        let svc = service();
        // transpose on 4x4 routes demand broadly; neighbor stays local.
        for (workload, algo) in [("transpose", "xy"), ("transpose", "yx"), ("neighbor", "xy")] {
            let line = format!(
                r#"{{"op":"plan","workload":"{workload}","algorithm":"{algo}","width":4,"height":4}}"#
            );
            let response = Json::parse(&svc.handle_line(&line)).expect("valid");
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        }
        assert_eq!(svc.cache().len(), 3);
        // Node 0 -> node 1 is the mesh's first horizontal hop, so all
        // three plans contain it. A delta matches both directions, and
        // a plan routing no demand over either is kept and counted in
        // `recertified`.
        let response =
            Json::parse(&svc.handle_line(r#"{"op":"invalidate","links":[[0,1]]}"#)).expect("ok");
        let result = response.get("result").expect("result");
        let evicted = result.get("evicted").and_then(Json::as_u64).unwrap();
        let recertified = result.get("recertified").and_then(Json::as_u64).unwrap();
        let examined = result.get("examined").and_then(Json::as_u64).unwrap();
        assert_eq!(examined, 3, "all three plans contain the link");
        assert!(evicted >= 1, "at least the users of 0->1 go");
        assert_eq!(evicted + recertified, examined);
        assert_eq!(svc.cache().len(), 3 - evicted as usize);
    }

    #[test]
    fn stats_op_reports_solves_and_determinism_zeroes_timings() {
        let svc = service();
        let plan = r#"{"op":"plan","workload":"transpose","algorithm":"xy","width":4,"height":4}"#;
        svc.handle_line(plan);
        svc.handle_line(plan);
        let response = Json::parse(&svc.handle_line(r#"{"id":"s","op":"stats"}"#)).expect("ok");
        assert_eq!(response.get("id").and_then(Json::as_str), Some("s"));
        let result = response.get("result").expect("result");
        assert_eq!(result.get("solves").and_then(Json::as_u64), Some(1));
        assert_eq!(result.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(result.get("plans").and_then(Json::as_u64), Some(1));
        assert_eq!(result.get("requests").and_then(Json::as_u64), Some(3));
        assert_eq!(result.get("solve_ms_total"), Some(&Json::Float(0.0)));
        assert_eq!(result.get("solve_ms_max"), Some(&Json::Float(0.0)));
    }

    #[test]
    fn compact_service_shrinks_table_bytes_without_changing_answers() {
        let dense = service();
        let compact = PlanService::new(ServeConfig {
            timings: false,
            compact_tables: true,
            ..ServeConfig::default()
        });
        let plan_req =
            r#"{"op":"plan","workload":"transpose","algorithm":"xy","width":4,"height":4}"#;
        let d = Json::parse(&dense.handle_line(plan_req)).expect("valid");
        let c = Json::parse(&compact.handle_line(plan_req)).expect("valid");
        let bytes = |r: &Json| {
            r.get("result")
                .and_then(|res| res.get("table_bytes"))
                .and_then(Json::as_u64)
                .expect("plan result carries table_bytes")
        };
        assert!(
            bytes(&c) < bytes(&d),
            "compact {} vs dense {}",
            bytes(&c),
            bytes(&d)
        );
        // Representation never enters the plan identity: both services
        // hand back the same content address.
        assert_eq!(
            d.get("result").unwrap().get("plan"),
            c.get("result").unwrap().get("plan")
        );
        // Evaluation through the compact tables is byte-identical.
        let eval_req = r#"{"op":"evaluate","workload":"transpose","algorithm":"xy","width":4,"height":4,"rate":0.2,"backend":"sim","warmup":100,"measurement":500}"#;
        assert_eq!(dense.handle_line(eval_req), compact.handle_line(eval_req));
        // And the cache's measured footprint reflects the compression.
        let stats = |svc: &PlanService| {
            Json::parse(&svc.handle_line(r#"{"op":"stats"}"#))
                .expect("valid")
                .get("result")
                .and_then(|r| r.get("table_bytes"))
                .and_then(Json::as_u64)
                .expect("stats carry table_bytes")
        };
        assert!(stats(&compact) < stats(&dense));
    }

    #[test]
    fn serve_lines_skips_blanks_and_answers_in_order() {
        let svc = service();
        let input = "\n{\"id\":1,\"op\":\"stats\"}\n   \n{\"id\":2,\"op\":\"stats\"}\n";
        let mut out = Vec::new();
        serve_lines(&svc, input.as_bytes(), &mut out).expect("io");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":1,"));
        assert!(lines[1].starts_with("{\"id\":2,"));
    }
}
