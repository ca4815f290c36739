//! Planning vs. evaluating: the cached [`RoutePlan`] API.
//!
//! BSOR's cost is front-loaded. Building the CDG and solving for
//! minimum maximum channel load (the MILP of paper §3.5, or the
//! Dijkstra heuristic of §3.6) is expensive, while replaying the
//! resulting routes under different rates, bursts or phases is cheap.
//! This module makes that split first-class:
//!
//! * a [`Planner`] turns `(topology, workload, algorithm, vcs)` — i.e. a
//!   [`Scenario`] plus a [`RouteAlgorithm`] — into an immutable,
//!   content-addressed [`RoutePlan`] artifact: the scenario's CDG,
//!   validated routes, a checkable Lemma-1
//!   [`DeadlockCertificate`], compiled routing tables ([`AnyTables`],
//!   dense or interval-compressed), the static
//!   per-channel loads and the predicted MCL. [`Planner::plan`] is the
//!   only way a scenario and an algorithm become routes, and
//!   [`PlanError`] is its one error type;
//! * an [`Evaluator`] judges a plan at an [`EvalPoint`] and returns a
//!   common typed [`Evaluation`] report, or the [`SimError`] that
//!   rejected the point. Two backends ship:
//!   [`StaticMclEvaluator`] (analytical channel-load/MCL estimate
//!   straight from the plan, no simulation) and [`SimEvaluator`] (the
//!   cycle-accurate arena engine);
//! * a [`PlanCache`] keyed by a canonical hash of the plan inputs lets
//!   many requests for the same inputs (the clients of a plan server)
//!   share one plan instead of re-solving the same selection per
//!   request. A caller that holds its plan, as a sweep case does for
//!   all its load points, needs no cache.
//!
//! ```
//! use bsor_routing::Baseline;
//! use bsor_sim::{EvalPoint, Evaluator, Planner, Scenario, SimConfig, SimEvaluator,
//!                StaticMclEvaluator};
//! use bsor_flow::FlowSet;
//! use bsor_topology::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mesh = Topology::mesh2d(4, 4);
//! let mut flows = FlowSet::new();
//! flows.push(mesh.node_at(0, 0).unwrap(), mesh.node_at(3, 3).unwrap(), 25.0);
//! let scenario = Scenario::builder(mesh, flows).vcs(2).build()?;
//!
//! // Plan once: routes + Lemma-1 certificate + compiled tables + MCL.
//! let planner = Planner::new();
//! let plan = planner.plan(&scenario, &Baseline::XY)?;
//! assert!(plan.certificate().verify(plan.routes()));
//! assert_eq!(plan.predicted_mcl(), 25.0);
//!
//! // Evaluate many times: analytically, or in the cycle-accurate engine.
//! let config = SimConfig::new(2).with_warmup(100).with_measurement(1_000);
//! let analytical = StaticMclEvaluator::new()
//!     .evaluate(&plan, &EvalPoint::new(0.05, config.clone()))?;
//! let simulated = SimEvaluator::new()
//!     .evaluate(&plan, &EvalPoint::new(0.05, config))?;
//! assert_eq!(analytical.predicted_mcl, simulated.predicted_mcl);
//! assert!(simulated.delivered > 0);
//! # Ok(())
//! # }
//! ```

use crate::config::{SimConfig, SimError};
use crate::scenario::{AlgorithmError, RouteAlgorithm, Scenario};
use crate::stats::{RunTiming, SimReport};
use crate::traffic::{BurstyOnOff, MarkovVariation, PhaseSchedule, TrafficSpec};
use crate::Simulator;
use bsor_cdg::AcyclicCdg;
use bsor_flow::FlowSet;
use bsor_routing::deadlock::{self, DeadlockCertificate};
use bsor_routing::tables::RouteTables;
use bsor_routing::{AnyTables, RouteError, RouteSet};
use bsor_topology::Topology;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The canonical encoding of everything a plan's content depends on:
/// topology family, dimensions, links (endpoints and capacities), the
/// local-bandwidth factor, the flow set (endpoints and demands), the VC
/// count, the CDG's name *and dependence-edge structure*, and the
/// algorithm's [`RouteAlgorithm::cache_key`] (which folds in seeds,
/// selector budgets and exploration strategies — not just the display
/// name).
///
/// Two scenarios with equal keys produce identical plans (every
/// algorithm in the workspace is deterministic over these inputs), so
/// the key doubles as the [`PlanCache`] lookup key — exact, not
/// hash-truncated — while its 64-bit FNV-1a digest is the displayed
/// [`PlanId`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    bytes: Vec<u8>,
}

impl PlanKey {
    /// Encodes the plan inputs of `scenario` under `algorithm` (an
    /// algorithm *cache key*, from [`RouteAlgorithm::cache_key`] — the
    /// bare display name under-identifies configured algorithms).
    pub fn new(scenario: &Scenario, algorithm: &str) -> PlanKey {
        let mut bytes = Vec::new();
        let push_u64 = |bytes: &mut Vec<u8>, v: u64| bytes.extend_from_slice(&v.to_le_bytes());
        let push_f64 =
            |bytes: &mut Vec<u8>, v: f64| bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        let push_str = |bytes: &mut Vec<u8>, s: &str| {
            push_u64(bytes, s.len() as u64);
            bytes.extend_from_slice(s.as_bytes());
        };
        let topo = scenario.topology();
        bytes.push(topo.kind() as u8);
        bytes.extend_from_slice(&topo.width().to_le_bytes());
        bytes.extend_from_slice(&topo.height().to_le_bytes());
        push_u64(&mut bytes, topo.num_nodes() as u64);
        push_u64(&mut bytes, topo.num_links() as u64);
        for l in topo.link_ids() {
            let link = topo.link(l);
            push_u64(&mut bytes, u64::from(link.src.0));
            push_u64(&mut bytes, u64::from(link.dst.0));
            push_f64(&mut bytes, link.capacity);
        }
        push_f64(&mut bytes, topo.local_bandwidth_factor());
        push_u64(&mut bytes, scenario.flows().len() as u64);
        for f in scenario.flows().iter() {
            push_u64(&mut bytes, u64::from(f.src.0));
            push_u64(&mut bytes, u64::from(f.dst.0));
            push_f64(&mut bytes, f.demand);
        }
        bytes.push(scenario.vcs());
        // The CDG by *content*, not just name: CDG-conforming selectors
        // route inside its dependence edges, and `ScenarioBuilder::cdg`
        // accepts arbitrary same-named derivations. Vertices are laid
        // out canonically per (topology, vcs) — both encoded above — so
        // the edge list pins the structure.
        let cdg = scenario.cdg();
        push_str(&mut bytes, cdg.name());
        let graph = cdg.graph();
        push_u64(&mut bytes, graph.node_count() as u64);
        push_u64(&mut bytes, graph.edge_count() as u64);
        for (_, src, dst, _) in graph.edges() {
            push_u64(&mut bytes, src.index() as u64);
            push_u64(&mut bytes, dst.index() as u64);
        }
        push_str(&mut bytes, algorithm);
        PlanKey { bytes }
    }

    /// The key's 64-bit FNV-1a digest.
    pub fn id(&self) -> PlanId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        PlanId(h)
    }
}

/// Content address of a [`RoutePlan`] (FNV-1a digest of its
/// [`PlanKey`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanId(pub u64);

impl fmt::Display for PlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// An immutable, content-addressed routing plan: everything the
/// expensive planning phase produces, ready to be evaluated any number
/// of times.
///
/// A plan bundles the scenario it was planned on (topology, flows, VCs,
/// CDG) with the validated [`RouteSet`], a checkable Lemma-1
/// [`DeadlockCertificate`], the compiled routing tables the router
/// hardware would be programmed with, the static per-channel bandwidth
/// loads and their maximum (the paper's MCL metric, what the MILP
/// objective minimizes).
///
/// Plans compare structurally ([`PartialEq`]): a cache hit is required
/// to be indistinguishable from a fresh plan of the same inputs.
///
/// ```
/// use bsor_routing::Baseline;
/// use bsor_sim::{Planner, Scenario};
/// use bsor_flow::FlowSet;
/// use bsor_topology::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mesh = Topology::mesh2d(4, 4);
/// let mut flows = FlowSet::new();
/// flows.push(mesh.node_at(0, 0).unwrap(), mesh.node_at(3, 0).unwrap(), 50.0);
/// let scenario = Scenario::builder(mesh, flows).vcs(2).build()?;
/// let plan = Planner::new().plan(&scenario, &Baseline::XY)?;
/// assert_eq!(plan.algorithm(), "XY");
/// assert_eq!(plan.predicted_mcl(), 50.0);
/// assert_eq!(plan.link_demands().len(), plan.topology().num_links());
/// assert!(plan.certificate().verify(plan.routes()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RoutePlan {
    id: PlanId,
    algorithm: String,
    scenario: Scenario,
    routes: RouteSet,
    certificate: DeadlockCertificate,
    tables: AnyTables,
    link_demands: Vec<f64>,
    predicted_mcl: f64,
}

impl RoutePlan {
    /// The content address: the FNV-1a digest of the full [`PlanKey`]
    /// encoding — topology (links and capacities), flows, VCs, the
    /// CDG's name *and* dependence-edge structure, and the algorithm's
    /// [`RouteAlgorithm::cache_key`] (seeds and budgets included, not
    /// just the display name).
    pub fn id(&self) -> PlanId {
        self.id
    }

    /// Display name of the algorithm that produced the routes.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The scenario the plan was computed for.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The interconnect.
    pub fn topology(&self) -> &Topology {
        self.scenario.topology()
    }

    /// The application's flows.
    pub fn flows(&self) -> &FlowSet {
        self.scenario.flows()
    }

    /// Virtual channels per physical channel.
    pub fn vcs(&self) -> u8 {
        self.scenario.vcs()
    }

    /// The acyclic CDG the scenario carried into planning.
    pub fn cdg(&self) -> &AcyclicCdg {
        self.scenario.cdg()
    }

    /// The validated, deadlock-free routes (one per flow).
    pub fn routes(&self) -> &RouteSet {
        &self.routes
    }

    /// The Lemma-1 witness: a topological order of the induced channel
    /// dependence graph, re-checkable against the routes.
    pub fn certificate(&self) -> &DeadlockCertificate {
        &self.certificate
    }

    /// The compiled routing tables (paper §4.2.1) the routes program —
    /// dense [`bsor_routing::NodeTables`] by default, or the interval-
    /// compressed representation under [`Planner::with_compact_tables`].
    pub fn tables(&self) -> &AnyTables {
        &self.tables
    }

    /// Measured heap footprint of the compiled tables in bytes (the
    /// representation actually stored, so compact plans report their
    /// compressed size). This is the `table_bytes` figure surfaced by
    /// sweeps and `bsor-serve`.
    pub fn table_bytes(&self) -> usize {
        self.tables.table_bytes()
    }

    /// Static bandwidth load per channel in MB/s: each flow's demand
    /// summed over the channels its route crosses.
    pub fn link_demands(&self) -> &[f64] {
        &self.link_demands
    }

    /// The maximum of [`RoutePlan::link_demands`] — the paper's MCL
    /// metric in MB/s, equal to the LP objective when the MILP selector
    /// produced the routes.
    pub fn predicted_mcl(&self) -> f64 {
        self.predicted_mcl
    }

    /// A deliberately rough estimate of the plan's heap footprint, used
    /// by the [`PlanCache`] byte budget. It counts the dominant
    /// variable-size pieces (route hops, per-channel demand and
    /// certificate ranks, flows) at fixed per-item costs plus a flat
    /// overhead — stable across platforms, not exact — except for the
    /// routing tables, which are **measured** from the representation
    /// the plan actually holds, so a compact plan's LRU charge matches
    /// its compressed footprint instead of the dense estimate.
    pub fn approx_bytes(&self) -> usize {
        let topo = self.topology();
        let hop_bytes: usize = self.routes.iter().map(|r| 48 + r.len() * 16).sum();
        let channel_slots = topo.num_links() * usize::from(self.vcs());
        hop_bytes
            + self.link_demands.len() * 8
            + channel_slots * 8 // certificate ranks
            + self.tables.table_bytes() // measured, dense or compact
            + self.flows().len() * 32
            + self.cdg().graph().edge_count() * 16
            + 1024
    }
}

impl PartialEq for RoutePlan {
    /// Structural equality over everything planning computed (the
    /// embedded scenario is covered by the content address, which
    /// encodes its topology with link capacities, flows, VCs, the
    /// CDG's name and dependence-edge structure, and the algorithm's
    /// full cache key).
    fn eq(&self, other: &RoutePlan) -> bool {
        self.id == other.id
            && self.algorithm == other.algorithm
            && self.routes == other.routes
            && self.certificate == other.certificate
            && self.tables == other.tables
            && self.link_demands == other.link_demands
            && self.predicted_mcl == other.predicted_mcl
    }
}

/// Why a [`Planner`] could not produce a [`RoutePlan`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// The routing algorithm failed.
    Algorithm(AlgorithmError),
    /// The algorithm produced malformed routes (wrong endpoints,
    /// non-adjacent hops, …).
    InvalidRoutes(RouteError),
    /// The routes' induced channel dependence graph is cyclic — running
    /// them could deadlock (paper Lemma 1), so no plan is produced.
    Deadlock {
        /// The offending algorithm's display name.
        algorithm: String,
        /// Length of the dependence cycle found.
        cycle_len: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Algorithm(e) => write!(f, "{e}"),
            PlanError::InvalidRoutes(e) => write!(f, "invalid routes: {e}"),
            PlanError::Deadlock {
                algorithm,
                cycle_len,
            } => write!(
                f,
                "{algorithm} produced routes with a {cycle_len}-long channel dependence \
                 cycle (not deadlock-free, refusing to plan)"
            ),
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Algorithm(e) => Some(e),
            PlanError::InvalidRoutes(e) => Some(e),
            PlanError::Deadlock { .. } => None,
        }
    }
}

impl From<AlgorithmError> for PlanError {
    fn from(e: AlgorithmError) -> Self {
        PlanError::Algorithm(e)
    }
}

impl From<RouteError> for PlanError {
    fn from(e: RouteError) -> Self {
        PlanError::InvalidRoutes(e)
    }
}

/// Independently locked shards of a [`PlanCache`].
const SHARDS: usize = 8;

/// LRU budgets for a [`PlanCache`].
///
/// The defaults are an unbounded cache. The cache always spreads its
/// plans over 8 independently locked shards. Capacities are totals
/// across shards; enforcement is per shard (each shard gets an equal
/// slice), so a bounded cache's occupancy can transiently sit below the
/// total while one hot shard evicts. When `max_plans` is smaller than
/// the shard count the cache collapses to `max_plans` shards, so tiny
/// caches (capacity 1) behave as a strict global LRU.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanCacheConfig {
    max_plans: Option<usize>,
    max_bytes: Option<usize>,
}

impl PlanCacheConfig {
    /// An unbounded cache.
    pub fn new() -> PlanCacheConfig {
        PlanCacheConfig::default()
    }

    /// Caps the total number of cached plans; least-recently-used
    /// entries are evicted past the cap. `0` means unbounded.
    #[must_use]
    pub fn max_plans(mut self, max_plans: usize) -> PlanCacheConfig {
        self.max_plans = (max_plans > 0).then_some(max_plans);
        self
    }

    /// Caps the total [`RoutePlan::approx_bytes`] held; least-recently-
    /// used entries are evicted past the cap (a lone oversized plan is
    /// retained rather than thrashed). `0` means unbounded.
    #[must_use]
    pub fn max_bytes(mut self, max_bytes: usize) -> PlanCacheConfig {
        self.max_bytes = (max_bytes > 0).then_some(max_bytes);
        self
    }
}

/// A point-in-time snapshot of a [`PlanCache`]'s counters
/// ([`PlanCache::stats`]).
///
/// `hits`/`misses`/`dedup_waits` partition lookups: a *hit* was served
/// from the store, a *miss* started a solve, a *dedup wait* blocked on
/// another request's in-flight solve for the same key instead of
/// re-solving. `solve_ns_*` are wall-clock and therefore
/// non-deterministic; everything else is a pure function of the request
/// history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that found nothing and became the solving leader.
    pub misses: u64,
    /// Lookups that blocked on an identical in-flight solve.
    pub dedup_waits: u64,
    /// Plans stored: one per successful solve through the single-flight
    /// path.
    pub inserts: u64,
    /// Entries evicted by the LRU capacity/byte budget.
    pub evicted_lru: u64,
    /// Entries evicted by [`PlanCache::invalidate`] (demand on an
    /// affected link, or a certificate that no longer verifies).
    pub evicted_invalidated: u64,
    /// Surviving plans whose [`DeadlockCertificate`] was re-verified by
    /// an invalidation delta.
    pub recertified: u64,
    /// Solves currently in flight behind this cache.
    pub in_flight: u64,
    /// Solves performed through the cache's single-flight path.
    pub solves: u64,
    /// Total wall-clock nanoseconds spent in those solves.
    pub solve_ns_total: u64,
    /// The slowest single solve, nanoseconds.
    pub solve_ns_max: u64,
    /// Plans currently cached.
    pub plans: u64,
    /// Approximate bytes currently cached ([`RoutePlan::approx_bytes`]).
    pub bytes: u64,
    /// Measured routing-table bytes across the cached plans
    /// ([`RoutePlan::table_bytes`] — the representation each plan
    /// actually holds, compact or dense).
    pub table_bytes: u64,
}

/// What a [`PlanCache::invalidate`] delta did
/// ([`InvalidateOutcome::examined`] plans touched the affected links;
/// the rest of the cache was never visited).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct InvalidateOutcome {
    /// Cached plans whose topology contains an affected link.
    pub examined: u64,
    /// Of those, evicted: the plan routed demand over an affected link,
    /// or its certificate failed re-verification.
    pub evicted: u64,
    /// Of those, kept after their [`DeadlockCertificate`] re-verified.
    pub recertified: u64,
}

#[derive(Debug)]
struct CacheEntry {
    plan: Arc<RoutePlan>,
    last_used: u64,
    bytes: usize,
    /// The `(src, dst)` endpoint pairs this entry is indexed under in
    /// [`Shard::link_index`] (every topology link), so removal can
    /// clean the index without a scan.
    indexed: Vec<(u32, u32)>,
}

/// A single-flight slot: the leader publishes the solve's result here
/// and wakes every follower blocked in [`Flight::wait`].
#[derive(Debug, Default)]
struct Flight {
    result: Mutex<Option<Result<Arc<RoutePlan>, PlanError>>>,
    done: Condvar,
}

impl Flight {
    fn wait(&self) -> Result<Arc<RoutePlan>, PlanError> {
        let mut slot = self.result.lock().expect("flight poisoned");
        while slot.is_none() {
            slot = self.done.wait(slot).expect("flight poisoned");
        }
        slot.as_ref().expect("flight published").clone()
    }

    fn publish(&self, result: Result<Arc<RoutePlan>, PlanError>) {
        *self.result.lock().expect("flight poisoned") = Some(result);
        self.done.notify_all();
    }
}

#[derive(Debug, Default)]
struct Shard {
    /// Keys are shared with [`Shard::link_index`] via `Arc`: a
    /// [`PlanKey`] is O(links + flows) bytes, so cloning it per indexed
    /// link would make one insert quadratic in topology size (at 64x64
    /// that is gigabytes of key copies per plan — the scale sweep's
    /// first finding).
    entries: HashMap<Arc<PlanKey>, CacheEntry>,
    flights: HashMap<PlanKey, Arc<Flight>>,
    link_index: HashMap<(u32, u32), Vec<Arc<PlanKey>>>,
    tick: u64,
    bytes: usize,
}

impl Shard {
    fn touch(&mut self, key: &PlanKey) -> Option<Arc<RoutePlan>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            e.plan.clone()
        })
    }

    fn remove(&mut self, key: &PlanKey) -> Option<CacheEntry> {
        // remove_entry recovers the stored Arc, so the index scrub
        // below compares pointers, not O(key-size) byte strings.
        let (stored, entry) = self.entries.remove_entry(key)?;
        self.bytes -= entry.bytes;
        for pair in &entry.indexed {
            if let Some(keys) = self.link_index.get_mut(pair) {
                keys.retain(|k| !Arc::ptr_eq(k, &stored));
                if keys.is_empty() {
                    self.link_index.remove(pair);
                }
            }
        }
        Some(entry)
    }

    fn lru_key(&self) -> Option<Arc<PlanKey>> {
        self.entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
    }
}

/// How a [`PlanCache::join`] resolved a lookup.
enum Joined {
    /// Served from the store.
    Hit(Arc<RoutePlan>),
    /// An identical solve is in flight; block on it.
    Follower(Arc<Flight>),
    /// Nothing cached or in flight: the caller must solve and
    /// [`PlanCache::complete`] this flight.
    Leader(Arc<Flight>),
}

/// A thread-safe plan store keyed by the canonical [`PlanKey`], sharded
/// by [`PlanId`] so concurrent tenants contend per shard, not globally.
///
/// Share one cache (wrapped in an [`Arc`]) across every client of a
/// plan server and each `(topology, workload, algorithm, vcs)` key is
/// solved once and reused by every request that asks for it. Three
/// behaviours beyond a plain map:
///
/// * **single flight** — concurrent first requests for the same key
///   block on one solver ([`Planner::plan`] routes through it); errors
///   are broadcast to the waiting followers but never cached, so the
///   next request retries;
/// * **LRU bounds** — optional plan-count and approximate-byte budgets
///   ([`PlanCacheConfig`]) evict the least-recently-used entries;
/// * **incremental invalidation** — [`PlanCache::invalidate`] takes a
///   link delta and, via a link→plans index, visits only the plans
///   whose topology contains an affected link: plans routing demand
///   over it are evicted, survivors keep their entry only if their
///   Lemma-1 [`DeadlockCertificate`] still verifies.
///
/// Counters for all of the above are snapshotted by
/// [`PlanCache::stats`].
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    max_plans_per_shard: Option<usize>,
    max_bytes_per_shard: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    dedup_waits: AtomicU64,
    inserts: AtomicU64,
    evicted_lru: AtomicU64,
    evicted_invalidated: AtomicU64,
    recertified: AtomicU64,
    in_flight: AtomicU64,
    solves: AtomicU64,
    solve_ns_total: AtomicU64,
    solve_ns_max: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty, unbounded cache.
    pub fn new() -> PlanCache {
        PlanCache::with_config(PlanCacheConfig::new())
    }

    /// An empty cache sized by `config`.
    pub fn with_config(config: PlanCacheConfig) -> PlanCache {
        // A capacity smaller than the shard count would starve shards
        // (per-shard cap 1 each but only `max_plans` total ever live):
        // collapse to `max_plans` shards so tiny caches are strict LRU.
        let shards = config.max_plans.map_or(SHARDS, |n| n.clamp(1, SHARDS));
        let per = |total: Option<usize>| total.map(|t| t.div_ceil(shards).max(1));
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            max_plans_per_shard: per(config.max_plans),
            max_bytes_per_shard: per(config.max_bytes),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evicted_lru: AtomicU64::new(0),
            evicted_invalidated: AtomicU64::new(0),
            recertified: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            solve_ns_total: AtomicU64::new(0),
            solve_ns_max: AtomicU64::new(0),
        }
    }

    /// An empty cache ready to share across threads.
    pub fn shared() -> Arc<PlanCache> {
        Arc::new(PlanCache::new())
    }

    /// An empty cache sized by `config`, ready to share across threads.
    pub fn shared_with(config: PlanCacheConfig) -> Arc<PlanCache> {
        Arc::new(PlanCache::with_config(config))
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<Shard> {
        &self.shards[key.id().0 as usize % self.shards.len()]
    }

    fn insert_locked(&self, shard: &mut Shard, key: PlanKey, plan: Arc<RoutePlan>) {
        shard.remove(&key); // replace, don't double-count bytes/index
        let key = Arc::new(key);
        let topo = plan.topology();
        let indexed: Vec<(u32, u32)> = topo
            .link_ids()
            .map(|l| {
                let link = topo.link(l);
                (link.src.0, link.dst.0)
            })
            .collect();
        for pair in &indexed {
            shard.link_index.entry(*pair).or_default().push(key.clone());
        }
        let bytes = plan.approx_bytes();
        shard.tick += 1;
        let entry = CacheEntry {
            plan,
            last_used: shard.tick,
            bytes,
            indexed,
        };
        shard.bytes += bytes;
        shard.entries.insert(key, entry);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let over = |shard: &Shard| {
            self.max_plans_per_shard
                .is_some_and(|cap| shard.entries.len() > cap)
                || self
                    .max_bytes_per_shard
                    .is_some_and(|cap| shard.bytes > cap)
        };
        while over(shard) && shard.entries.len() > 1 {
            let victim = shard.lru_key().expect("non-empty shard has an LRU key");
            shard.remove(&victim);
            self.evicted_lru.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up `key`, joining or opening a single-flight solve on a
    /// miss.
    fn join(&self, key: &PlanKey) -> Joined {
        let mut shard = self.shard(key).lock().expect("plan cache poisoned");
        if let Some(plan) = shard.touch(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Joined::Hit(plan);
        }
        if let Some(flight) = shard.flights.get(key) {
            self.dedup_waits.fetch_add(1, Ordering::Relaxed);
            return Joined::Follower(flight.clone());
        }
        let flight = Arc::new(Flight::default());
        shard.flights.insert(key.clone(), flight.clone());
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        Joined::Leader(flight)
    }

    /// Publishes a leader's solve result: stores successes (LRU
    /// budgets applied), broadcasts to followers, and retires the
    /// flight. Errors are broadcast but never cached.
    fn complete(
        &self,
        key: &PlanKey,
        flight: &Arc<Flight>,
        result: Result<Arc<RoutePlan>, PlanError>,
        elapsed: std::time::Duration,
    ) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.solve_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.solve_ns_max.fetch_max(ns, Ordering::Relaxed);
        {
            let mut shard = self.shard(key).lock().expect("plan cache poisoned");
            shard.flights.remove(key);
            if let Ok(plan) = &result {
                self.insert_locked(&mut shard, key.clone(), plan.clone());
            }
        }
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        flight.publish(result);
    }

    /// Applies a link delta — failures or capacity changes, given as
    /// `(src, dst)` node-id endpoint pairs, matched in either direction
    /// — to the cached plans.
    ///
    /// Via the link→plans index this visits **only** plans whose
    /// topology contains an affected link (O(affected), not a cache
    /// scan, and never a cold cache): a plan routing nonzero
    /// [`RoutePlan::link_demands`] over an affected link is evicted;
    /// survivors are kept only while their [`DeadlockCertificate`]
    /// still [`DeadlockCertificate::verify`]s. In-flight solves are
    /// untouched (they land after the delta and re-solve on the next
    /// request if affected).
    pub fn invalidate(&self, links: &[(u32, u32)]) -> InvalidateOutcome {
        let mut outcome = InvalidateOutcome::default();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan cache poisoned");
            let mut affected: Vec<Arc<PlanKey>> = Vec::new();
            for &(a, b) in links {
                for pair in [(a, b), (b, a)] {
                    if let Some(keys) = shard.link_index.get(&pair) {
                        for key in keys {
                            if !affected.iter().any(|a| Arc::ptr_eq(a, key)) {
                                affected.push(key.clone());
                            }
                        }
                    }
                }
            }
            for key in affected {
                let Some(entry) = shard.entries.get(&key) else {
                    continue;
                };
                outcome.examined += 1;
                let plan = &entry.plan;
                let topo = plan.topology();
                let demands_affected = links.iter().any(|&(a, b)| {
                    [(a, b), (b, a)].iter().any(|&(src, dst)| {
                        topo.find_link(bsor_topology::NodeId(src), bsor_topology::NodeId(dst))
                            .is_some_and(|l| plan.link_demands[l.index()] > 0.0)
                    })
                });
                let keep = !demands_affected && plan.certificate().verify(plan.routes());
                if keep {
                    outcome.recertified += 1;
                    self.recertified.fetch_add(1, Ordering::Relaxed);
                } else {
                    shard.remove(&key);
                    outcome.evicted += 1;
                    self.evicted_invalidated.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        outcome
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache poisoned").entries.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The largest node count among the cached plans' topologies, or
    /// `None` when the cache is empty. `bsor-serve` uses this to
    /// range-check the node ids of an `invalidate` delta: an id at or
    /// past every cached topology's node count cannot name a real link,
    /// so the request is a client error rather than a silent no-op.
    pub fn max_node_count(&self) -> Option<usize> {
        self.shards
            .iter()
            .filter_map(|s| {
                let shard = s.lock().expect("plan cache poisoned");
                shard
                    .entries
                    .values()
                    .map(|e| e.plan.topology().num_nodes())
                    .max()
            })
            .max()
    }

    /// Drops every cached plan (in-flight solves finish and re-insert).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan cache poisoned");
            shard.entries.clear();
            shard.link_index.clear();
            shard.bytes = 0;
        }
    }

    /// A snapshot of the cache's counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let (mut plans, mut bytes, mut table_bytes) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock().expect("plan cache poisoned");
            plans += shard.entries.len() as u64;
            bytes += shard.bytes as u64;
            table_bytes += shard
                .entries
                .values()
                .map(|e| e.plan.table_bytes() as u64)
                .sum::<u64>();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evicted_lru: self.evicted_lru.load(Ordering::Relaxed),
            evicted_invalidated: self.evicted_invalidated.load(Ordering::Relaxed),
            recertified: self.recertified.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
            solve_ns_total: self.solve_ns_total.load(Ordering::Relaxed),
            solve_ns_max: self.solve_ns_max.load(Ordering::Relaxed),
            plans,
            bytes,
            table_bytes,
        }
    }
}

/// Turns scenarios + algorithms into cached, validated [`RoutePlan`]s.
///
/// Planning runs the algorithm, validates the routes (one per flow,
/// correct endpoints and VCs), **certifies** deadlock freedom (paper
/// Lemma 1, as a re-checkable [`DeadlockCertificate`]), compiles the
/// node tables and precomputes the static channel loads. With a
/// [`PlanCache`] attached, repeated requests for the same canonical
/// inputs return the same [`Arc`]ed artifact instead of re-solving, and
/// the cache counts them in its [`CacheStats`].
#[derive(Debug, Default)]
pub struct Planner {
    cache: Option<Arc<PlanCache>>,
    compact_tables: bool,
}

impl Planner {
    /// A planner with no cache: every call solves.
    pub fn new() -> Planner {
        Planner::default()
    }

    /// Attaches a (shareable) plan cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<PlanCache>) -> Planner {
        self.cache = Some(cache);
        self
    }

    /// Compiles plans with interval-compressed routing tables
    /// ([`bsor_routing::CompactTables`]) instead of the dense arena.
    /// Routing behavior is hop-identical either way; only the memory
    /// representation (and so [`RoutePlan::table_bytes`] and the cache's
    /// LRU charge) changes. Note the [`PlanKey`] deliberately does *not*
    /// encode the representation — it addresses plan *content* — so
    /// planners with different settings sharing one cache may serve each
    /// other's (behaviorally identical) plans.
    #[must_use]
    pub fn with_compact_tables(mut self, compact: bool) -> Planner {
        self.compact_tables = compact;
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<PlanCache>> {
        self.cache.as_ref()
    }

    /// Plans `algorithm` on `scenario`: cache lookup first, then the
    /// full select → validate → certify (Lemma 1) → compile pipeline.
    ///
    /// With a cache attached the lookup is *single-flight*: concurrent
    /// first requests for the same [`PlanKey`] block on one solver
    /// instead of re-solving, and count as [`CacheStats::dedup_waits`].
    /// A leader's error is broadcast to its followers but never cached,
    /// so the next request retries.
    ///
    /// # Errors
    ///
    /// Any [`PlanError`]: selection failure, malformed routes, or a
    /// cyclic induced CDG.
    pub fn plan(
        &self,
        scenario: &Scenario,
        algorithm: &dyn RouteAlgorithm,
    ) -> Result<Arc<RoutePlan>, PlanError> {
        let key = PlanKey::new(scenario, &algorithm.cache_key());
        let Some(cache) = &self.cache else {
            return Ok(Arc::new(build_plan(
                scenario,
                algorithm,
                key.id(),
                self.compact_tables,
            )?));
        };
        match cache.join(&key) {
            Joined::Hit(plan) => Ok(plan),
            Joined::Follower(flight) => flight.wait(),
            Joined::Leader(flight) => {
                let start = Instant::now();
                let result =
                    build_plan(scenario, algorithm, key.id(), self.compact_tables).map(Arc::new);
                cache.complete(&key, &flight, result.clone(), start.elapsed());
                result
            }
        }
    }
}

/// The uncached planning pipeline.
fn build_plan(
    scenario: &Scenario,
    algorithm: &dyn RouteAlgorithm,
    id: PlanId,
    compact_tables: bool,
) -> Result<RoutePlan, PlanError> {
    let routes = algorithm.routes(&scenario.ctx())?;
    routes.validate(scenario.topology(), scenario.flows(), scenario.vcs())?;
    let certificate =
        deadlock::certify(scenario.topology(), &routes, scenario.vcs()).map_err(|cycle| {
            PlanError::Deadlock {
                algorithm: algorithm.name().to_owned(),
                cycle_len: cycle.len(),
            }
        })?;
    let tables = AnyTables::build(scenario.topology(), &routes, compact_tables);
    let link_demands = routes.link_loads(scenario.topology(), scenario.flows());
    let predicted_mcl = link_demands.iter().copied().fold(0.0, f64::max);
    Ok(RoutePlan {
        id,
        algorithm: algorithm.name().to_owned(),
        scenario: scenario.clone(),
        routes,
        certificate,
        tables,
        link_demands,
        predicted_mcl,
    })
}

/// One load point to evaluate a plan at: the offered aggregate rate
/// plus the simulation knobs ([`SimEvaluator`] uses all of them;
/// [`StaticMclEvaluator`] reads only the rate and the packet length).
#[derive(Clone, Debug)]
pub struct EvalPoint {
    /// Offered aggregate injection rate, packets/cycle (split across
    /// flows proportionally to their demands).
    pub rate: f64,
    /// Simulator configuration (`vcs` is overridden with the plan's).
    pub config: SimConfig,
    /// Optional on/off bursty injection.
    pub burst: Option<BurstyOnOff>,
    /// Optional multi-phase rate schedule.
    pub phases: Option<PhaseSchedule>,
    /// Optional Markov-modulated bandwidth variation (paper §5.3).
    pub variation: Option<MarkovVariation>,
}

impl EvalPoint {
    /// A flat-Bernoulli point at `rate` under `config`.
    pub fn new(rate: f64, config: SimConfig) -> EvalPoint {
        EvalPoint {
            rate,
            config,
            burst: None,
            phases: None,
            variation: None,
        }
    }

    /// Switches injection to the on/off bursty arrival process.
    #[must_use]
    pub fn with_burst(mut self, burst: BurstyOnOff) -> EvalPoint {
        self.burst = Some(burst);
        self
    }

    /// Adds a multi-phase rate schedule.
    #[must_use]
    pub fn with_phases(mut self, phases: PhaseSchedule) -> EvalPoint {
        self.phases = Some(phases);
        self
    }

    /// Adds run-time bandwidth variation.
    #[must_use]
    pub fn with_variation(mut self, variation: MarkovVariation) -> EvalPoint {
        self.variation = Some(variation);
        self
    }
}

/// The common typed report every [`Evaluator`] backend returns.
///
/// Fields an analytical backend cannot measure are `None`/zero and
/// documented on the backend; everything both backends produce
/// (throughput, channel load, the plan's predicted MCL) is directly
/// comparable across them.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Which backend produced the report (`"sim"`, `"static-mcl"`, …).
    pub backend: &'static str,
    /// The requested rate, packets/cycle.
    pub rate: f64,
    /// Offered load actually generated (simulated backends) or assumed
    /// (analytical), packets/cycle.
    pub offered: f64,
    /// Delivered (or predicted deliverable) throughput, packets/cycle.
    pub throughput: f64,
    /// Mean packet latency, cycles (analytical backends report a
    /// zero-load bound).
    pub mean_latency: Option<f64>,
    /// Median packet latency, cycles (`None` without a distribution).
    pub p50_latency: Option<u64>,
    /// 95th-percentile packet latency, cycles.
    pub p95_latency: Option<u64>,
    /// 99th-percentile packet latency, cycles.
    pub p99_latency: Option<u64>,
    /// Worst packet latency observed, cycles (0 without a simulation).
    pub max_latency: u64,
    /// Busiest channel's load in flits/cycle (observed or predicted).
    pub max_channel_load: f64,
    /// The plan's static MCL in MB/s (identical across backends).
    pub predicted_mcl: f64,
    /// Packets generated in the measurement window (0 analytical).
    pub generated: u64,
    /// Packets delivered in the measurement window (0 analytical).
    pub delivered: u64,
    /// Whether a deadlock was observed (always `false` analytical — the
    /// plan carries a deadlock-freedom certificate).
    pub deadlocked: bool,
    /// Cycles actually simulated (0 analytical).
    pub cycles: u64,
    /// Wall-clock timing, when the backend measured one.
    pub timing: Option<RunTiming>,
}

/// Judges a [`RoutePlan`] at an [`EvalPoint`].
///
/// Backends are interchangeable: both ship [`Evaluation`] with the same
/// schema, so a driver can answer "is the analytical estimate good
/// enough here, or do I need the engine?" by swapping one value.
pub trait Evaluator {
    /// Display name (`"sim"`, `"static-mcl"`).
    fn name(&self) -> &str;

    /// Evaluates `plan` at `point`.
    ///
    /// # Errors
    ///
    /// A [`SimError`] when the point is rejected (bad rate,
    /// inconsistent traffic, …).
    fn evaluate(&self, plan: &RoutePlan, point: &EvalPoint) -> Result<Evaluation, SimError>;
}

/// The analytical backend: channel-load / MCL arithmetic straight from
/// the plan's static per-channel loads — no simulation, microseconds
/// per point.
///
/// With proportional injection, flow *i* offers `rate ·
/// demandᵢ/Σdemand` packets/cycle, so a channel's load in flits/cycle is
/// `rate · packet_len · load_MB/s / Σdemand`. The reported throughput
/// caps the offered rate once the busiest channel would exceed 1
/// flit/cycle (uniform-scaling assumption), and the latency is the
/// zero-load bound `demand-weighted mean hops · pipeline_latency +
/// packet_len − 1` — hops are weighted by each flow's injection share
/// (a high-demand short flow dominates the packet mix exactly as it
/// does in the engine), at the configured per-hop pipeline cost, plus
/// tail serialization. Burst/phase/variation knobs are ignored: they
/// preserve the mean load this backend reasons about.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticMclEvaluator;

impl StaticMclEvaluator {
    /// The analytical evaluator.
    pub fn new() -> StaticMclEvaluator {
        StaticMclEvaluator
    }
}

impl Evaluator for StaticMclEvaluator {
    fn name(&self) -> &str {
        "static-mcl"
    }

    fn evaluate(&self, plan: &RoutePlan, point: &EvalPoint) -> Result<Evaluation, SimError> {
        let total_demand = plan.flows().total_demand();
        let packet_len = point.config.packet_len as f64;
        // MB/s → flits/cycle at this offered rate.
        let scale = if total_demand > 0.0 {
            point.rate * packet_len / total_demand
        } else {
            0.0
        };
        let max_channel_load = plan.predicted_mcl * scale;
        let throughput = if max_channel_load > 1.0 {
            point.rate / max_channel_load
        } else {
            point.rate
        };
        // Zero-load packet mix: injection is demand-proportional, so a
        // flow's hop count is weighted by its demand share.
        let weighted_hops = if total_demand > 0.0 {
            plan.flows()
                .iter()
                .zip(plan.routes.iter())
                .map(|(f, r)| f.demand * r.len() as f64)
                .sum::<f64>()
                / total_demand
        } else {
            0.0
        };
        let per_hop = f64::from(point.config.pipeline_latency);
        Ok(Evaluation {
            backend: "static-mcl",
            rate: point.rate,
            offered: point.rate,
            throughput,
            mean_latency: Some(weighted_hops * per_hop + packet_len - 1.0),
            p50_latency: None,
            p95_latency: None,
            p99_latency: None,
            max_latency: 0,
            max_channel_load,
            predicted_mcl: plan.predicted_mcl,
            generated: 0,
            delivered: 0,
            deadlocked: false,
            cycles: 0,
            timing: None,
        })
    }
}

/// The cycle-accurate backend: the arena engine of [`crate::engine`],
/// fed the plan's precompiled node tables (no per-point recompilation).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimEvaluator;

impl SimEvaluator {
    /// The simulating evaluator.
    pub fn new() -> SimEvaluator {
        SimEvaluator
    }

    /// Runs the engine on `plan` at `point` and returns the raw
    /// [`SimReport`] plus wall-clock timing (what [`Evaluator::evaluate`]
    /// summarizes into an [`Evaluation`]).
    ///
    /// `point.config.vcs` is overridden with the plan's VC count so the
    /// two can never diverge.
    ///
    /// # Errors
    ///
    /// A [`SimError`] when the simulator rejects the inputs.
    pub fn simulate(
        &self,
        plan: &RoutePlan,
        point: &EvalPoint,
    ) -> Result<(SimReport, RunTiming), SimError> {
        let mut config = point.config.clone();
        config.vcs = plan.vcs();
        let mut traffic = TrafficSpec::proportional(plan.flows(), point.rate);
        if let Some(v) = point.variation {
            traffic = traffic.with_variation(v);
        }
        if let Some(b) = point.burst {
            traffic = traffic.with_burst(b);
        }
        if let Some(p) = &point.phases {
            traffic = traffic.with_phases(p.clone());
        }
        let mut sim = Simulator::with_tables(
            plan.topology(),
            plan.flows(),
            &plan.routes,
            &plan.tables,
            traffic,
            config,
        )?;
        Ok(sim.run_timed())
    }
}

impl Evaluator for SimEvaluator {
    fn name(&self) -> &str {
        "sim"
    }

    fn evaluate(&self, plan: &RoutePlan, point: &EvalPoint) -> Result<Evaluation, SimError> {
        let (report, timing) = self.simulate(plan, point)?;
        // One per-flow histogram merge serves all three percentiles.
        let hist = report.latency_histogram();
        Ok(Evaluation {
            backend: "sim",
            rate: point.rate,
            offered: report.offered(),
            throughput: report.throughput(),
            mean_latency: report.mean_latency(),
            p50_latency: hist.p50(),
            p95_latency: hist.p95(),
            p99_latency: hist.p99(),
            max_latency: report.max_latency(),
            max_channel_load: report.max_channel_load(),
            predicted_mcl: plan.predicted_mcl,
            generated: report.generated_packets,
            delivered: report.delivered_packets,
            deadlocked: report.deadlocked,
            cycles: report.cycles,
            timing: Some(timing),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_routing::Baseline;
    use bsor_topology::NodeId;

    fn scenario(vcs: u8) -> Scenario {
        let topo = Topology::mesh2d(4, 4);
        let mut flows = FlowSet::new();
        let n = topo.num_nodes() as u32;
        for i in 0..n {
            let j = (i + n / 2) % n;
            if i != j {
                flows.push(NodeId(i), NodeId(j), 10.0);
            }
        }
        Scenario::builder(topo, flows).vcs(vcs).build().expect("ok")
    }

    #[test]
    fn plan_matches_direct_selection_and_certifies() {
        let s = scenario(2);
        let plan = Planner::new().plan(&s, &Baseline::XY).expect("plans");
        let direct = Baseline::XY.routes(&s.ctx()).expect("selects");
        assert_eq!(plan.routes(), &direct);
        assert_eq!(plan.predicted_mcl(), direct.mcl(s.topology(), s.flows()));
        assert!(plan.certificate().verify(plan.routes()));
        assert!(plan.certificate().dependencies() > 0);
        assert_eq!(plan.link_demands().len(), s.topology().num_links());
        // The tables are the ones the simulator would have compiled.
        assert_eq!(
            plan.tables(),
            &AnyTables::build(s.topology(), plan.routes(), false)
        );
        assert_eq!(plan.tables().mode(), "dense");
        assert_eq!(plan.table_bytes(), plan.tables().table_bytes());
    }

    #[test]
    fn compact_planner_is_behaviorally_identical_and_smaller() {
        let s = scenario(2);
        let dense = Planner::new().plan(&s, &Baseline::XY).expect("plans");
        let compact = Planner::new()
            .with_compact_tables(true)
            .plan(&s, &Baseline::XY)
            .expect("plans");
        assert!(compact.tables().is_compact());
        assert_eq!(compact.routes(), dense.routes());
        assert!(
            compact.table_bytes() < dense.table_bytes(),
            "compact {} vs dense {}",
            compact.table_bytes(),
            dense.table_bytes()
        );
        assert!(compact.approx_bytes() < dense.approx_bytes());
        // The cycle-accurate evaluation is byte-identical across
        // representations at a fixed seed.
        let config = SimConfig::new(2).with_warmup(100).with_measurement(1_000);
        let point = EvalPoint::new(0.2, config);
        let (dense_report, _) = SimEvaluator::new().simulate(&dense, &point).expect("sims");
        let (compact_report, _) = SimEvaluator::new()
            .simulate(&compact, &point)
            .expect("sims");
        assert_eq!(dense_report, compact_report);
    }

    #[test]
    fn cache_stats_report_measured_table_bytes() {
        let s = scenario(2);
        let cache = PlanCache::shared();
        let planner = Planner::new()
            .with_compact_tables(true)
            .with_cache(cache.clone());
        let plan = planner.plan(&s, &Baseline::XY).expect("plans");
        let stats = cache.stats();
        assert_eq!(stats.table_bytes, plan.table_bytes() as u64);
    }

    #[test]
    fn cache_hit_returns_the_same_artifact_and_counts() {
        let s = scenario(2);
        let planner = Planner::new().with_cache(PlanCache::shared());
        let a = planner.plan(&s, &Baseline::XY).expect("plans");
        let b = planner.plan(&s, &Baseline::XY).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached Arc");
        let cache = planner.cache().expect("attached");
        assert_eq!((cache.stats().solves, cache.stats().hits), (1, 1));
        // A different algorithm is a different key.
        let c = planner.plan(&s, &Baseline::YX).expect("plans");
        assert_ne!(a.id(), c.id());
        assert_eq!(cache.stats().solves, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn static_latency_is_demand_weighted_and_pipeline_scaled() {
        // One dominant 1-hop flow and one rare 3-hop flow: the packet
        // mix is demand-proportional, so the zero-load estimate must
        // sit near the short flow, not the unweighted hop mean.
        let topo = Topology::mesh2d(4, 1);
        let mut flows = FlowSet::new();
        flows.push(NodeId(0), NodeId(1), 900.0); // 1 hop
        flows.push(NodeId(0), NodeId(3), 100.0); // 3 hops
        let s = Scenario::builder(topo, flows).vcs(1).build().expect("ok");
        let plan = Planner::new().plan(&s, &Baseline::XY).expect("plans");
        let weighted = (900.0 * 1.0 + 100.0 * 3.0) / 1000.0; // 1.2 hops
        let config = SimConfig::new(1).with_packet_len(8);
        let ev = StaticMclEvaluator::new()
            .evaluate(&plan, &EvalPoint::new(0.1, config.clone()))
            .expect("static");
        assert!((ev.mean_latency.unwrap() - (weighted + 7.0)).abs() < 1e-12);
        // Doubling the per-hop pipeline cost doubles the hop term only.
        let ev2 = StaticMclEvaluator::new()
            .evaluate(&plan, &EvalPoint::new(0.1, config.with_pipeline_latency(2)))
            .expect("static");
        assert!((ev2.mean_latency.unwrap() - (2.0 * weighted + 7.0)).abs() < 1e-12);
    }

    #[test]
    fn cache_hit_is_structurally_identical_to_fresh_plan() {
        let s = scenario(2);
        let cached = Planner::new().with_cache(PlanCache::shared());
        cached.plan(&s, &Baseline::XY).expect("warm");
        let hit = cached.plan(&s, &Baseline::XY).expect("hit");
        let fresh = Planner::new().plan(&s, &Baseline::XY).expect("fresh");
        assert_eq!(*hit, *fresh);
    }

    #[test]
    fn same_name_different_config_algorithms_do_not_collide() {
        use bsor_cdg::{AcyclicCdg, TurnModel};
        let s = scenario(2);
        let planner = Planner::new().with_cache(PlanCache::shared());
        // ROMM's display name hides its seed; the cache key must not.
        let a = planner
            .plan(&s, &bsor_routing::Baseline::Romm { seed: 3 })
            .expect("plans");
        let b = planner
            .plan(&s, &bsor_routing::Baseline::Romm { seed: 9 })
            .expect("plans");
        let stats = planner.cache().expect("attached").stats();
        assert_eq!(stats.solves, 2, "different seeds, different plans");
        assert_eq!(stats.hits, 0);
        assert_ne!(a.id(), b.id());
        // Same-named CDGs with different dependence edges are different
        // plan inputs too: the key encodes the edge structure.
        let topo = Topology::mesh2d(4, 4);
        let wf = AcyclicCdg::turn_model(&topo, 2, &TurnModel::west_first()).expect("valid");
        let nl = AcyclicCdg::turn_model(&topo, 2, &TurnModel::north_last()).expect("valid");
        let sc = |cdg: AcyclicCdg| {
            Scenario::builder(topo.clone(), scenario(2).flows().clone())
                .cdg(cdg)
                .vcs(2)
                .build()
                .expect("ok")
        };
        let k1 = PlanKey::new(&sc(wf), "dijkstra");
        let k2 = PlanKey::new(&sc(nl), "dijkstra");
        assert_ne!(
            k1, k2,
            "CDG content must separate keys even if names differed"
        );
    }

    #[test]
    fn keys_separate_every_input_axis() {
        let s2 = scenario(2);
        let s4 = scenario(4);
        let xy2 = PlanKey::new(&s2, "xy");
        assert_eq!(xy2, PlanKey::new(&scenario(2), "xy"));
        assert_ne!(xy2, PlanKey::new(&s2, "yx"));
        assert_ne!(xy2, PlanKey::new(&s4, "xy"));
        let torus = Scenario::builder(Topology::torus2d(4, 4), s2.flows().clone())
            .vcs(2)
            .build()
            .expect("ok");
        assert_ne!(xy2, PlanKey::new(&torus, "xy"));
        assert_eq!(xy2.id(), PlanKey::new(&s2, "xy").id());
    }

    #[test]
    fn static_evaluator_is_consistent_with_the_plan() {
        let s = scenario(2);
        let plan = Planner::new().plan(&s, &Baseline::XY).expect("plans");
        let config = SimConfig::new(2).with_warmup(100).with_measurement(500);
        let low = StaticMclEvaluator::new()
            .evaluate(&plan, &EvalPoint::new(0.1, config.clone()))
            .expect("static");
        assert_eq!(low.backend, "static-mcl");
        assert_eq!(low.predicted_mcl, plan.predicted_mcl());
        assert_eq!(low.throughput, 0.1, "below saturation the rate passes");
        assert!(low.max_channel_load > 0.0);
        // Load scales linearly with rate; throughput caps at saturation.
        let high = StaticMclEvaluator::new()
            .evaluate(&plan, &EvalPoint::new(10.0, config))
            .expect("static");
        assert!((high.max_channel_load - 100.0 * low.max_channel_load).abs() < 1e-9);
        assert!(high.throughput < high.rate);
        assert!(!high.deadlocked);
    }

    #[test]
    fn sim_evaluator_matches_scenario_simulation() {
        let s = scenario(2);
        let plan = Planner::new().plan(&s, &Baseline::XY).expect("plans");
        let config = SimConfig::new(2).with_warmup(100).with_measurement(1_000);
        let point = EvalPoint::new(0.2, config.clone());
        let ev = SimEvaluator::new().evaluate(&plan, &point).expect("sims");
        assert_eq!(ev.backend, "sim");
        assert!(ev.delivered > 0);
        // Byte-identical to a simulator that recompiles the tables.
        let report = crate::Simulator::new(
            s.topology(),
            s.flows(),
            plan.routes(),
            TrafficSpec::proportional(s.flows(), 0.2),
            config,
        )
        .expect("valid")
        .run();
        assert_eq!(ev.generated, report.generated_packets);
        assert_eq!(ev.delivered, report.delivered_packets);
        assert_eq!(ev.mean_latency, report.mean_latency());
        assert_eq!(ev.max_channel_load, report.max_channel_load());
    }

    #[test]
    fn plan_error_display_and_sources() {
        let e = PlanError::Deadlock {
            algorithm: "x".into(),
            cycle_len: 4,
        };
        assert!(e.to_string().contains("refusing to plan"));
        assert!(Error::source(&e).is_none());
        let e: PlanError = AlgorithmError::Failed("boom".into()).into();
        assert_eq!(e.to_string(), "boom");
        assert!(Error::source(&e).is_some());
    }
}
