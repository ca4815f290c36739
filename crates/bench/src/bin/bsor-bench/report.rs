//! The run context workloads report into, and the metric sets they are
//! reduced to.

use crate::stats::{median, percentile, tail_quantile};
use crate::trace::{self_times, Span, Tracer};
use bsor_bench::json::Json;
use bsor_sim::CacheStats;
use std::time::Instant;

/// One named measurement with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// What one workload run is asked to do, and the tally of its checks.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    epoch: Instant,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Failure messages kept for the record (the count is always exact).
const KEPT_FAILURES: usize = 20;

impl Run {
    pub fn new(seed: u64, seconds: f64, trace: bool, quick: bool) -> Run {
        Run {
            seed,
            seconds,
            trace,
            quick,
            epoch: Instant::now(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// A tracer for this run (recording only in the traced run).
    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.trace, self.epoch)
    }

    /// Runs `setup` at least three times, and until half a second has
    /// passed, recording each duration in `times`, so the median of a
    /// sub-millisecond set-up spans as much of the machine's time as a
    /// slow one's does. The traced run sets up once.
    pub fn repeat_setup<S>(
        &self,
        times: &mut Vec<f64>,
        mut setup: impl FnMut() -> Result<S, String>,
    ) -> Result<S, String> {
        let mut total = 0.0;
        loop {
            let started = Instant::now();
            let state = setup()?;
            times.push(started.elapsed().as_secs_f64());
            total += times[times.len() - 1];
            if self.trace || (times.len() >= 3 && total >= 0.5) {
                return Ok(state);
            }
        }
    }

    /// Counts one attempted operation or check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                let what = what();
                eprintln!("bsor-bench: check failed: {what}");
                self.failures.push(what);
            }
        }
    }

    /// Folds in checks counted elsewhere (another thread).
    pub fn merge(&mut self, attempted: u64, failed: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for what in failures {
            if self.failures.len() < KEPT_FAILURES {
                eprintln!("bsor-bench: check failed: {what}");
                self.failures.push(what);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Raw timings of an untraced run.
#[derive(Default)]
pub struct Timings {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Workloads making passes over a key set: milliseconds per
    /// operation, by key.
    pub per_key_ms: Vec<Vec<f64>>,
    /// The request-stream workload: milliseconds per request, by time
    /// slice of the window.
    pub per_slice_ms: Vec<Vec<f64>>,
    /// Length of one time slice, in seconds.
    pub slice_s: f64,
    /// Peak resident set size over set-up and the window, read as the
    /// window ends (before the samples are reduced).
    pub peak_rss_mb: Option<f64>,
}

/// The smallest of `values` (infinite for none).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics of an untraced run.
///
/// The shared benchmark machine slows whole stretches of a run by 10 to
/// 50% at times, so each metric is read where the run was least
/// disturbed. For a pass over a key set, each operation is
/// deterministic, so rounds of one key differ only by that
/// interference: a key's cost is its fastest round. Throughput is one
/// pass's keys over the sum of those costs, and the latency percentiles
/// are taken over the keys, so their sample count is the number of
/// keys. A request stream is cut into time slices that each hold the
/// same mix (and one link failure): throughput and the latency
/// percentiles are those of the best slice, each over its requests.
pub fn end_to_end(t: &Timings) -> Vec<Metric> {
    let ((ops_per_s, ops), (p50, p90, latencies)) = if t.per_key_ms.is_empty() {
        let slices = t.per_slice_ms.iter().filter(|ms| !ms.is_empty());
        let best = |q: f64| {
            fastest(
                &slices
                    .clone()
                    .map(|ms| percentile(ms, q))
                    .collect::<Vec<_>>(),
            )
        };
        let requests = t.per_slice_ms.iter().map(Vec::len).sum();
        (
            (
                slices.clone().map(|ms| ms.len()).max().unwrap_or(0) as f64 / t.slice_s,
                requests,
            ),
            (best(0.5), best(0.9), requests),
        )
    } else {
        let costs: Vec<f64> = t.per_key_ms.iter().map(|ms| fastest(ms)).collect();
        let pass_ms: f64 = costs.iter().sum();
        (
            (
                costs.len() as f64 / (pass_ms / 1e3),
                t.per_key_ms.iter().map(Vec::len).sum(),
            ),
            (median(&costs), percentile(&costs, 0.9), costs.len()),
        )
    };
    vec![
        Metric::new("setup_s", median(&t.setup_s), "s", t.setup_s.len()),
        Metric::new("ops_per_s", ops_per_s, "1/s", ops),
        Metric::new("op_p50_ms", p50, "ms", latencies),
        Metric::new("op_p90_ms", p90, "ms", latencies),
        Metric::new("peak_rss_mb", t.peak_rss_mb.unwrap_or(f64::NAN), "MB", 1),
    ]
}

/// Tracing overhead: one pass's traced cost over its untraced cost,
/// minus one, each the sum of the keys' median latencies.
pub fn overhead(traced_ms: &[Vec<f64>], untraced_ms: &[Vec<f64>]) -> f64 {
    let (mut traced, mut untraced) = (0.0, 0.0);
    for (t, u) in traced_ms.iter().zip(untraced_ms) {
        if !t.is_empty() && !u.is_empty() {
            traced += median(t);
            untraced += median(u);
        }
    }
    traced / untraced - 1.0
}

/// The median and the highest percentile with at least ten samples
/// beyond it, of one group of latencies (record detail; nothing for an
/// empty group).
pub fn latency_summary(prefix: &str, ms: &[f64]) -> Vec<Metric> {
    if ms.is_empty() {
        return Vec::new();
    }
    let median = Metric::new(format!("{prefix}_p50_ms"), median(ms), "ms", ms.len());
    std::iter::once(median).chain(tail(prefix, ms)).collect()
}

/// The highest percentile of `ms` with at least ten samples beyond it.
fn tail(prefix: &str, ms: &[f64]) -> Option<Metric> {
    let q = tail_quantile(ms.len())?;
    let pct = (q * 100.0).round();
    Some(Metric::new(
        format!("{prefix}_p{pct}_ms"),
        percentile(ms, q),
        "ms",
        ms.len(),
    ))
}

/// Per-pass counts of the planning pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanCounts {
    pub flows: u64,
    pub hops: u64,
    pub table_bytes: u64,
    pub approx_bytes: u64,
}

/// Per-pass counts of the simulation engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounts {
    pub cycles: u64,
    pub flit_hops: u64,
    pub delivered: u64,
}

/// Everything the per-layer metrics are derived from. Layer times are
/// reported per pass over the workload's keys (or points), so a faster
/// layer shows as a smaller number instead of as more rounds.
pub struct LayerInputs<'a> {
    pub spans: &'a [Span],
    pub setup_passes: f64,
    pub plan_passes: f64,
    pub sim_passes: f64,
    pub plan: PlanCounts,
    pub engine: EngineCounts,
    pub cache: CacheStats,
    pub overhead_frac: f64,
}

/// Families whose selection time is reported separately.
pub const FAMILIES: [&str; 5] = [
    "bsor-dijkstra",
    "bsor-milp",
    "ac-oblivious",
    "random-walk",
    "baselines",
];

/// The span name of one family's route selection.
pub fn select_span(family: &str) -> &'static str {
    match family {
        "bsor-dijkstra" => "plan.select.bsor-dijkstra",
        "bsor-milp" => "plan.select.bsor-milp",
        "ac-oblivious" => "plan.select.ac-oblivious",
        "random-walk" => "plan.select.random-walk",
        _ => "plan.select.baselines",
    }
}

/// The family an algorithm name belongs to.
pub fn family_of(algorithm: &str) -> &'static str {
    match algorithm {
        "bsor-dijkstra" => "bsor-dijkstra",
        "bsor-milp" => "bsor-milp",
        "ac-oblivious" => "ac-oblivious",
        "random-walk" => "random-walk",
        _ => "baselines",
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run (the `per_layer` list of
/// `BENCHMARK.json`, in its order).
pub fn per_layer(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let selfs = self_times(inp.spans);
    let ns = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
    let count = |name: &str| inp.spans.iter().filter(|s| s.name == name).count();
    let mut out = Vec::new();
    let mut ms_per_pass = |name: &'static str, total_ns: f64, passes: f64, n: usize| {
        out.push(Metric::new(
            format!("{name}_ms"),
            ratio(total_ns, passes) / 1e6,
            "ms",
            n,
        ));
    };
    for name in ["topology.build", "workloads.build", "scenario.build"] {
        ms_per_pass(name, ns(name), inp.setup_passes, count(name));
    }
    let select_ns: f64 = FAMILIES.iter().map(|f| ns(select_span(f))).sum();
    let select_n: usize = FAMILIES.iter().map(|f| count(select_span(f))).sum();
    for name in [
        "plan.key",
        "plan.select",
        "plan.validate",
        "plan.certify",
        "plan.tables",
        "plan.link_loads",
    ] {
        if name == "plan.select" {
            ms_per_pass(name, select_ns, inp.plan_passes, select_n);
        } else {
            ms_per_pass(name, ns(name), inp.plan_passes, count(name));
        }
    }
    for name in [
        "traffic.build",
        "engine.assemble",
        "engine.run",
        "stats.histogram",
    ] {
        ms_per_pass(name, ns(name), inp.sim_passes, count(name));
    }
    let plan_pass = |name: &str| ratio(ns(name), inp.plan_passes);
    let sim_pass = |name: &str| ratio(ns(name), inp.sim_passes);
    let p = inp.plan;
    let e = inp.engine;
    let derived = [
        (
            "select.ns_per_flow",
            ratio(ratio(select_ns, inp.plan_passes), p.flows as f64),
            "ns",
        ),
        (
            "certify.ns_per_hop",
            ratio(plan_pass("plan.certify"), p.hops as f64),
            "ns",
        ),
        (
            "tables.ns_per_hop",
            ratio(plan_pass("plan.tables"), p.hops as f64),
            "ns",
        ),
        (
            "engine.ns_per_cycle",
            ratio(sim_pass("engine.run"), e.cycles as f64),
            "ns",
        ),
        (
            "engine.ns_per_flit_hop",
            ratio(sim_pass("engine.run"), e.flit_hops as f64),
            "ns",
        ),
    ];
    for (name, value, unit) in derived {
        out.push(Metric::new(name, value, unit, 1));
    }
    for family in FAMILIES {
        out.push(Metric::new(
            format!("select.share.{family}"),
            ratio(ns(select_span(family)), select_ns),
            "ratio",
            count(select_span(family)),
        ));
    }
    let c = inp.cache;
    let lookups = c.hits + c.misses + c.dedup_waits;
    let counts = [
        ("plan.flows", p.flows, "count"),
        ("plan.hops", p.hops, "count"),
        ("plan.table_bytes", p.table_bytes, "bytes"),
        ("plan.approx_bytes", p.approx_bytes, "bytes"),
        ("engine.cycles", e.cycles, "count"),
        ("engine.flit_hops", e.flit_hops, "count"),
        ("engine.delivered_packets", e.delivered, "count"),
        ("cache.hits", c.hits, "count"),
        ("cache.misses", c.misses, "count"),
        ("cache.dedup_waits", c.dedup_waits, "count"),
        ("cache.solves", c.solves, "count"),
        ("cache.evicted_invalidated", c.evicted_invalidated, "count"),
        ("cache.recertified", c.recertified, "count"),
        ("cache.bytes", c.bytes, "bytes"),
    ];
    for (name, value, unit) in counts {
        out.push(Metric::new(name, value as f64, unit, 1));
    }
    out.push(Metric::new(
        "cache.hit_rate",
        ratio(c.hits as f64, lookups as f64),
        "ratio",
        lookups as usize,
    ));
    out.push(Metric::new(
        "trace.overhead_frac",
        inp.overhead_frac,
        "ratio",
        1,
    ));
    out
}

/// Counter deltas of a plan cache over a window.
pub fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    let mut d = *after;
    d.hits -= before.hits;
    d.misses -= before.misses;
    d.dedup_waits -= before.dedup_waits;
    d.inserts -= before.inserts;
    d.evicted_lru -= before.evicted_lru;
    d.evicted_invalidated -= before.evicted_invalidated;
    d.recertified -= before.recertified;
    d.solves -= before.solves;
    d.solve_ns_total -= before.solve_ns_total;
    d
}

/// Metric lists as a JSON object `{name: {value, unit}}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object(vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Metric lists as record stats `{name: {value, unit, n}}`.
pub fn stats_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object(vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit)),
                        ("n", Json::from(m.n)),
                    ]),
                )
            })
            .collect(),
    )
}
