//! The parallel scenario-sweep core behind the `bsor-sweep` CLI.
//!
//! The paper's evaluation is a grid — topology × workload × routing
//! algorithm × VC count × injection rate — and oblivious routing's
//! selling point is that the expensive part (route selection) happens
//! once per case while evaluation amortizes it over many load points.
//! This module mirrors that structure with the plan/evaluate split: a
//! [`GridSpec`] expands into *cases* (everything but the rate), cases
//! fan out across `std::thread::scope` workers, and each case is
//! planned once by one shared [`Planner`]. Every load point of the case
//! — the rate axis and each saturation-bisection probe alike — then
//! evaluates that one [`RoutePlan`] with [`SimEvaluator`], so a case
//! costs exactly one route selection however many points it runs.
//!
//! Every axis is registry-driven ([`SweepRegistries`]): topologies come
//! from [`TopologyRegistry`], workloads from [`WorkloadRegistry`] and
//! algorithms from [`AlgorithmRegistry`], so registering a new entry
//! makes it sweepable with no sweep-code changes. Each case builds a
//! [`Scenario`] and plans it, and planning certifies deadlock freedom
//! (paper Lemma 1) before anything simulates; algorithms whose routes
//! would deadlock surface as per-case errors instead of silently
//! jamming the simulator.
//!
//! Output is a schema-stable [`Json`] document. Every field is present
//! in every run; wall-clock fields are zeroed when
//! [`GridSpec::record_timings`] is off so CI can diff two sweeps
//! byte-for-byte to prove determinism.

use crate::json::Json;
use bsor::AlgorithmRegistry;
use bsor_sim::{
    BurstyOnOff, EvalPoint, Evaluation, Evaluator, MarkovVariation, Planner, RoutePlan, Scenario,
    SimConfig, SimEvaluator,
};
use bsor_topology::TopologyRegistry;
use bsor_workloads::WorkloadRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The pluggable name spaces a sweep draws its axes from.
///
/// [`SweepRegistries::standard`] carries the built-in families (four
/// topologies, six workloads, seven algorithms); extend any member
/// before running to sweep custom entries.
#[derive(Default)]
pub struct SweepRegistries {
    /// Topology families (`mesh`, `torus`, `ring`, `hypercube`, …).
    pub topologies: TopologyRegistry,
    /// Workload generators (`transpose`, `h264`, …).
    pub workloads: WorkloadRegistry,
    /// Routing algorithms (`xy`, `bsor-dijkstra`, …).
    pub algorithms: AlgorithmRegistry,
}

impl SweepRegistries {
    /// The built-in name spaces.
    pub fn standard() -> SweepRegistries {
        SweepRegistries {
            topologies: TopologyRegistry::standard(),
            workloads: WorkloadRegistry::standard(),
            algorithms: AlgorithmRegistry::standard(),
        }
    }
}

/// One topology axis entry: a registry name plus grid dimensions, or a
/// full registry spec string (`dragonfly:2,3,2`, `file:assets/...`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoSpec {
    /// Registry name (`mesh`, `torus`, `ring`, `hypercube`, …).
    pub name: String,
    /// Grid dimensions handed to the factory (non-grid families
    /// reinterpret them; see `bsor_topology::registry`).
    pub dims: (u16, u16),
    /// When set, the full spec string resolved through
    /// `TopologyRegistry::build_spec` instead of `name`/`dims` — the
    /// family-generator and file-loader path.
    pub spec: Option<String>,
}

impl TopoSpec {
    /// A mesh entry (the historical default axis).
    pub fn mesh(width: u16, height: u16) -> TopoSpec {
        TopoSpec {
            name: "mesh".to_owned(),
            dims: (width, height),
            spec: None,
        }
    }

    /// A named entry.
    pub fn new(name: impl Into<String>, width: u16, height: u16) -> TopoSpec {
        TopoSpec {
            name: name.into(),
            dims: (width, height),
            spec: None,
        }
    }

    /// A full-spec entry (`dragonfly:2,3,2`, `fattree:4`, `fullmesh:8`,
    /// `file:<path>`), resolved through `TopologyRegistry::build_spec`.
    pub fn from_spec(spec: impl Into<String>) -> TopoSpec {
        TopoSpec {
            name: String::new(),
            dims: (0, 0),
            spec: Some(spec.into()),
        }
    }

    /// Display label: bare `WxH` for meshes (schema compatibility with
    /// the original mesh-only grid), `name:WxH` for named grid entries,
    /// and the raw spec string for full-spec entries.
    pub fn label(&self) -> String {
        if let Some(spec) = &self.spec {
            return spec.clone();
        }
        let (w, h) = self.dims;
        if self.name == "mesh" {
            format!("{w}x{h}")
        } else {
            format!("{}:{w}x{h}", self.name)
        }
    }
}

/// Saturation-point search configuration: bisect the offered injection
/// rate until the latency knee.
///
/// A case is *saturated* at a rate when its mean latency exceeds
/// `knee ×` the latency measured at `lo`, or delivery collapses
/// (fewer than [`SATURATION_DELIVERY_FLOOR`] of the packets generated
/// in the window are delivered in it — latency is only tracked for
/// delivered packets, so the survivor-biased mean alone can miss deep
/// saturation in short windows), or the run deadlocks or delivers
/// nothing. The search measures the baseline at `lo`, probes `hi`,
/// then bisects `iterations` times; the reported saturation rate is
/// the highest rate observed unsaturated. Fully seeded and
/// thread-count independent, like every other sweep measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SaturationSpec {
    /// Baseline (assumed unsaturated) rate, packets/cycle.
    pub lo: f64,
    /// Upper probe rate, packets/cycle.
    pub hi: f64,
    /// Bisection steps after the two endpoint probes.
    pub iterations: u32,
    /// Latency-knee multiplier over the baseline mean latency.
    pub knee: f64,
}

impl Default for SaturationSpec {
    fn default() -> SaturationSpec {
        SaturationSpec {
            lo: 0.05,
            hi: 4.0,
            iterations: 10,
            knee: 4.0,
        }
    }
}

impl SaturationSpec {
    /// Rejects degenerate search ranges: both bounds must be finite and
    /// `0 < lo < hi`. The sweep JSON echoes the bounds verbatim, so an
    /// inverted or non-finite range would otherwise flow into the
    /// artifact (and into every bisection) unchallenged.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.lo.is_finite() && self.hi.is_finite() && self.lo > 0.0 && self.hi > self.lo) {
            return Err(format!(
                "saturation range must satisfy 0 < lo < hi with finite bounds, got lo={} hi={}",
                self.lo, self.hi
            ));
        }
        Ok(())
    }
}

/// Minimum delivered/generated ratio below which a saturation-search
/// probe counts as saturated regardless of its (survivor-biased)
/// latency.
pub const SATURATION_DELIVERY_FLOOR: f64 = 0.9;

/// A declarative scenario grid.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Topology axis, e.g. `[TopoSpec::mesh(8, 8)]`.
    pub topologies: Vec<TopoSpec>,
    /// Workload specs: exact registry names or parameterized spec
    /// strings such as `hotspot:4` / `rand-perm:42` (see
    /// [`WorkloadRegistry::build`]).
    pub workloads: Vec<String>,
    /// Algorithm names (see [`AlgorithmRegistry::names`]).
    pub algorithms: Vec<String>,
    /// VC counts.
    pub vcs: Vec<u8>,
    /// Offered aggregate injection rates, packets/cycle.
    pub rates: Vec<f64>,
    /// Warmup cycles per run.
    pub warmup: u64,
    /// Measured cycles per run.
    pub measurement: u64,
    /// Flits per packet.
    pub packet_len: usize,
    /// RNG seed for the injection processes.
    pub seed: u64,
    /// When false, every wall-clock field in the JSON is zeroed so two
    /// runs of the same grid diff byte-identically.
    pub record_timings: bool,
    /// Optional on/off bursty injection applied to every run.
    pub burst: Option<BurstyOnOff>,
    /// Optional run-time bandwidth variation (paper §5.3) applied to
    /// every run, as in Figs. 6-8 to 6-10. The JSON echoes it only when
    /// set, so documents of grids without it keep their bytes.
    pub variation: Option<MarkovVariation>,
    /// Optional saturation-point search appended to every case.
    pub saturation: Option<SaturationSpec>,
    /// Compile each case's router tables into the interval-compressed
    /// representation (see `bsor_routing::CompactTables`). Routing
    /// behavior — and therefore every measurement — is byte-identical
    /// either way; only the per-case `table_bytes` figure (and the
    /// echoed knob) changes.
    pub compact_tables: bool,
}

impl GridSpec {
    /// The full evaluation grid on the paper's 8×8 mesh.
    ///
    /// The workload axis stays pinned to the paper's six (the registry
    /// also carries the adversarial patterns and parameterized
    /// families; ask for them with `--workloads` or by editing the
    /// spec) so the default artifact remains comparable with the
    /// paper's tables run to run.
    pub fn standard() -> GridSpec {
        GridSpec {
            topologies: vec![TopoSpec::mesh(8, 8)],
            workloads: [
                "transpose",
                "bit-complement",
                "shuffle",
                "h264",
                "perf-model",
                "wifi",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            algorithms: vec![
                "xy".into(),
                "yx".into(),
                "romm".into(),
                "valiant".into(),
                "bsor-dijkstra".into(),
            ],
            vcs: vec![2],
            rates: crate::standard_rates(),
            warmup: 2_000,
            measurement: 10_000,
            packet_len: 8,
            seed: 0xB50B,
            record_timings: true,
            burst: None,
            variation: None,
            saturation: None,
            compact_tables: false,
        }
    }

    /// A reduced grid for CI smoke runs: one mesh, two workloads, three
    /// algorithms, three rates, short windows.
    pub fn smoke() -> GridSpec {
        GridSpec {
            topologies: vec![TopoSpec::mesh(8, 8)],
            workloads: vec!["transpose".into(), "h264".into()],
            algorithms: vec!["xy".into(), "yx".into(), "bsor-dijkstra".into()],
            vcs: vec![2],
            rates: vec![0.1, 0.8, 1.6],
            warmup: 500,
            measurement: 2_000,
            packet_len: 8,
            seed: 0xB50B,
            record_timings: true,
            burst: None,
            variation: None,
            saturation: None,
            compact_tables: false,
        }
    }

    /// Number of cases (route computations) the grid expands to.
    pub fn num_cases(&self) -> usize {
        self.topologies.len() * self.workloads.len() * self.algorithms.len() * self.vcs.len()
    }

    /// Number of simulation runs the grid expands to.
    pub fn num_runs(&self) -> usize {
        self.num_cases() * self.rates.len()
    }
}

/// One case: everything but the injection rate.
#[derive(Clone, Debug)]
pub struct Case {
    /// Topology axis entry.
    pub topo: TopoSpec,
    /// Workload name.
    pub workload: String,
    /// Algorithm name.
    pub algorithm: String,
    /// VC count.
    pub vcs: u8,
}

/// Expands the grid into cases, topology-major then workload, algorithm,
/// VC — a deterministic order the output preserves.
pub fn expand(spec: &GridSpec) -> Vec<Case> {
    let mut cases = Vec::with_capacity(spec.num_cases());
    for topo in &spec.topologies {
        for workload in &spec.workloads {
            for algorithm in &spec.algorithms {
                for &vcs in &spec.vcs {
                    cases.push(Case {
                        topo: topo.clone(),
                        workload: workload.clone(),
                        algorithm: algorithm.clone(),
                        vcs,
                    });
                }
            }
        }
    }
    cases
}

/// How a saturation-point search concluded.
///
/// The bisection itself cannot distinguish "found the knee" from two
/// degenerate brackets, so the search classifies them explicitly
/// instead of silently reporting a rate:
///
/// * [`Knee`](SaturationOutcome::Knee) — a rate above the baseline was
///   observed unsaturated and a higher one saturated; the reported rate
///   is a real knee estimate.
/// * [`Censored`](SaturationOutcome::Censored) — even the upper probe
///   stayed unsaturated; the reported rate is a lower bound, not a
///   knee.
/// * [`BaselineSaturated`](SaturationOutcome::BaselineSaturated) — the
///   baseline at `lo` was itself already saturated (deadlock, delivery
///   collapse, or nothing delivered), or no probe above `lo` was ever
///   observed unsaturated, so the "knee" would rest entirely on the
///   unverified assumption that `lo` is below it. The reported rate is
///   meaningless as a knee and callers must not treat it as one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaturationOutcome {
    /// The bracket closed on a genuine latency knee.
    Knee,
    /// The upper probe never saturated; the result is a lower bound.
    Censored,
    /// The baseline itself was saturated (or never confirmed
    /// unsaturated above `lo`); no knee exists in the probed range.
    BaselineSaturated,
}

impl SaturationOutcome {
    /// The stable JSON label (`knee` / `censored` /
    /// `baseline-saturated`).
    pub fn label(self) -> &'static str {
        match self {
            SaturationOutcome::Knee => "knee",
            SaturationOutcome::Censored => "censored",
            SaturationOutcome::BaselineSaturated => "baseline-saturated",
        }
    }
}

/// Outcome of a per-case saturation-point search.
#[derive(Clone, Debug)]
pub struct SaturationResult {
    /// Highest rate observed unsaturated, packets/cycle.
    pub rate: f64,
    /// Baseline mean latency at the search's `lo` rate, cycles.
    pub base_latency: f64,
    /// Latency threshold defining the knee, cycles.
    pub threshold: f64,
    /// True when even the upper probe stayed below the knee (the
    /// reported rate is then a lower bound, not a knee).
    pub censored: bool,
    /// Simulation runs the search consumed.
    pub runs: u32,
    /// Highest rate the search actually observed unsaturated — the
    /// lower edge of the final bisection bracket, packets/cycle. Unlike
    /// the CLI-level `--sat-range` echo in `grid`, this records where
    /// the search *ended up*, so truncated or censored searches are
    /// auditable per case.
    pub lo: f64,
    /// Lowest rate the search actually observed saturated — the upper
    /// edge of the final bracket (the knee lies in `[lo, hi]`). Equals
    /// the configured upper bound when censored: no saturated probe was
    /// seen and the bracket never closed.
    pub hi: f64,
    /// Bisection steps actually executed (0 when the search censored at
    /// the upper probe and never bisected).
    pub iterations: u32,
    /// How the search concluded (see [`SaturationOutcome`]). `censored`
    /// is kept alongside for schema stability; it is `true` exactly
    /// when the outcome is [`SaturationOutcome::Censored`].
    pub outcome: SaturationOutcome,
}

/// One completed case: its route-set summary plus all load points.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// The case parameters.
    pub case: Case,
    /// Maximum channel load of the routes in MB/s (the paper's MCL
    /// metric), when routing succeeded.
    pub mcl: Option<f64>,
    /// Route-computation, workload or validation error, when the case
    /// failed. Deadlock-capable route sets rejected by the planner
    /// (`PlanError::Deadlock`) land here too.
    pub error: Option<String>,
    /// The simulator's evaluation at each rate, in grid order (empty
    /// when `error` is set).
    pub points: Vec<Evaluation>,
    /// Saturation-point search outcome, when the grid requested one.
    /// Degenerate searches (baseline already saturated, upper probe
    /// never saturated) are classified via
    /// [`SaturationResult::outcome`], not dropped.
    pub saturation: Option<SaturationResult>,
    /// Measured size of the case's compiled routing tables in bytes —
    /// dense or interval-compressed per [`GridSpec::compact_tables`] —
    /// when routing succeeded.
    pub table_bytes: Option<u64>,
    /// Wall-clock milliseconds for the whole case (0 when timings off).
    pub wall_ms: f64,
}

fn failed_case(case: &Case, error: String) -> CaseResult {
    CaseResult {
        case: case.clone(),
        mcl: None,
        error: Some(error),
        points: Vec::new(),
        saturation: None,
        table_bytes: None,
        wall_ms: 0.0,
    }
}

fn run_case(spec: &GridSpec, case: &Case, regs: &SweepRegistries, planner: &Planner) -> CaseResult {
    let started = Instant::now();
    let built = match &case.topo.spec {
        Some(spec) => regs.topologies.build_spec(spec),
        None => {
            let (w, h) = case.topo.dims;
            regs.topologies.build(&case.topo.name, w, h)
        }
    };
    let topo = match built {
        Ok(t) => t,
        Err(e) => return failed_case(case, e.to_string()),
    };
    let workload = match regs.workloads.build(&topo, &case.workload) {
        Ok(w) => w,
        Err(e) => return failed_case(case, e.to_string()),
    };
    let Some(algorithm) = regs.algorithms.get(&case.algorithm) else {
        return failed_case(case, format!("unknown algorithm '{}'", case.algorithm));
    };
    let scenario = match Scenario::builder(topo, workload.flows)
        .named(&case.workload)
        .vcs(case.vcs)
        .build()
    {
        Ok(s) => s,
        Err(e) => return failed_case(case, e.to_string()),
    };
    // Plan once: route selection, Lemma-1 certification and table
    // compilation happen here; a failure becomes the case error.
    let plan = match planner.plan(&scenario, algorithm) {
        Ok(p) => p,
        Err(e) => return failed_case(case, e.to_string()),
    };
    let mcl = plan.predicted_mcl();
    let table_bytes = plan.table_bytes() as u64;
    let point_for = |rate: f64| {
        let config = SimConfig::new(case.vcs)
            .with_warmup(spec.warmup)
            .with_measurement(spec.measurement)
            .with_packet_len(spec.packet_len)
            .with_seed(spec.seed);
        let mut point = EvalPoint::new(rate, config);
        if let Some(burst) = spec.burst {
            point = point.with_burst(burst);
        }
        if let Some(variation) = spec.variation {
            point = point.with_variation(variation);
        }
        point
    };
    // Every rate evaluates the one plan on its precompiled tables. A
    // rate the simulator rejects is a recorded case error, never a
    // panic.
    let evaluator = SimEvaluator::new();
    let points = spec
        .rates
        .iter()
        .map(|&rate| {
            evaluator
                .evaluate(&plan, &point_for(rate))
                .map_err(|e| format!("rate {rate}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>();
    let points = match points {
        Ok(points) => points,
        Err(e) => return failed_case(case, e),
    };
    let saturation = match spec.saturation {
        None => None,
        Some(sat) => match saturation_search(&sat, &plan, &point_for) {
            Ok(s) => Some(s),
            Err(e) => return failed_case(case, e),
        },
    };
    CaseResult {
        case: case.clone(),
        mcl: Some(mcl),
        error: None,
        points,
        saturation,
        table_bytes: Some(table_bytes),
        wall_ms: if spec.record_timings {
            started.elapsed().as_secs_f64() * 1e3
        } else {
            0.0
        },
    }
}

/// Bisects the offered rate to the latency knee (see [`SaturationSpec`]).
/// Every requested search produces a result; degenerate brackets are
/// classified by [`SaturationOutcome`] instead of being silently
/// dropped or — worse — reported as knees. `Err` carries a probe
/// failure (e.g. a rate the simulator rejects) for the caller to record
/// as the case error.
///
/// Every probe evaluates the case's one `plan`, like the rate axis.
fn saturation_search(
    sat: &SaturationSpec,
    plan: &RoutePlan,
    point_for: &dyn Fn(f64) -> EvalPoint,
) -> Result<SaturationResult, String> {
    let evaluator = SimEvaluator::new();
    let mut runs = 0u32;
    // `None` means unconditionally saturated (deadlock, nothing
    // delivered, or delivery collapse); `Some(l)` defers to the knee.
    let mut mean_latency_at = |rate: f64| -> Result<Option<f64>, String> {
        runs += 1;
        let ev = evaluator
            .evaluate(plan, &point_for(rate))
            .map_err(|e| format!("saturation probe at rate {rate}: {e}"))?;
        let delivery_ok = ev.generated == 0
            || ev.delivered as f64 >= SATURATION_DELIVERY_FLOOR * ev.generated as f64;
        if ev.deadlocked || !delivery_ok {
            Ok(None)
        } else {
            Ok(ev.mean_latency)
        }
    };
    let Some(base_latency) = mean_latency_at(sat.lo)? else {
        // The baseline itself deadlocked or collapsed: there is no
        // latency to anchor a knee on, and silently reporting one (or
        // nothing) would hide that the whole probed range is saturated.
        return Ok(SaturationResult {
            rate: 0.0,
            base_latency: 0.0,
            threshold: 0.0,
            censored: false,
            runs,
            lo: 0.0,
            hi: sat.lo,
            iterations: 0,
            outcome: SaturationOutcome::BaselineSaturated,
        });
    };
    let threshold = base_latency * sat.knee;
    let mut saturated = |rate: f64| -> Result<bool, String> {
        Ok(mean_latency_at(rate)?.is_none_or(|l| l > threshold))
    };
    if !saturated(sat.hi)? {
        // Censored: even the upper probe stayed unsaturated, so the
        // final "bracket" is degenerate at the configured upper bound.
        return Ok(SaturationResult {
            rate: sat.hi,
            base_latency,
            threshold,
            censored: true,
            runs,
            lo: sat.hi,
            hi: sat.hi,
            iterations: 0,
            outcome: SaturationOutcome::Censored,
        });
    }
    let (mut lo, mut hi) = (sat.lo, sat.hi);
    let mut iterations = 0u32;
    let mut observed_unsaturated_above_lo = false;
    for _ in 0..sat.iterations {
        let mid = 0.5 * (lo + hi);
        iterations += 1;
        if saturated(mid)? {
            hi = mid;
        } else {
            lo = mid;
            observed_unsaturated_above_lo = true;
        }
    }
    // If every bisection probe above `lo` saturated, the bracket
    // collapsed onto the baseline: the only "unsaturated" rate is the
    // assumed-unsaturated `lo` itself, which was never verified against
    // anything. Reporting it as a knee would be exactly the silent
    // failure this classification exists to prevent.
    let outcome = if observed_unsaturated_above_lo {
        SaturationOutcome::Knee
    } else {
        SaturationOutcome::BaselineSaturated
    };
    Ok(SaturationResult {
        rate: lo,
        base_latency,
        threshold,
        censored: false,
        runs,
        lo,
        hi,
        iterations,
        outcome,
    })
}

/// Runs every case of `spec` across `threads` scoped workers with the
/// standard registries.
pub fn run_grid(spec: &GridSpec, threads: usize) -> Vec<CaseResult> {
    run_grid_with(spec, threads, &SweepRegistries::standard())
}

/// Runs every case of `spec` across `threads` scoped workers using
/// `regs` for name resolution, and returns the results in deterministic
/// grid order.
///
/// Workers claim case indices from a shared atomic counter, so thread
/// count and scheduling affect only wall-clock fields — the simulation
/// results per case are independent and reassembled in expansion order.
pub fn run_grid_with(spec: &GridSpec, threads: usize, regs: &SweepRegistries) -> Vec<CaseResult> {
    let planner = Planner::new().with_compact_tables(spec.compact_tables);
    let cases = expand(spec);
    let threads = threads.max(1).min(cases.len().max(1));
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<CaseResult>> = vec![None; cases.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let cases = &cases;
                let planner = &planner;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cases.len() {
                            break;
                        }
                        mine.push((i, run_case(spec, &cases[i], regs, planner)));
                    }
                    mine
                })
            })
            .collect();
        for worker in workers {
            for (i, result) in worker.join().expect("sweep worker panicked") {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every case index was claimed"))
        .collect()
}

/// Assembles the schema-stable `BENCH_sweep.json` document.
///
/// Schema `bsor-sweep/v2`: `grid` echoes the expanded spec (including
/// the `burst` and `saturation` knobs, `null` when unused), `cases`
/// holds one entry per case in grid order — each point carrying
/// `p50/p95/p99` latency percentiles and the busiest observed channel
/// load, each case a `saturation` search outcome — and `timing` carries
/// run-wide wall-clock numbers. Each point's `wall_ms` and
/// `cycles_per_sec` come from its evaluation's timing. Every wall-clock
/// field — the timing block's thread count included — is zeroed when
/// timings are off, so two `--no-timings` sweeps of the same grid are
/// byte-identical even across different `--threads`. v2 is a strict
/// superset of v1: every v1 key survives with unchanged semantics.
/// Per-case `saturation` objects additionally record the final bracket
/// the search actually reached — `lo`/`hi`, the highest-unsaturated /
/// lowest-saturated probes — and the bisection `iterations` actually
/// executed (the `grid` block only echoes the CLI-level request), an
/// additive extension that leaves every pre-existing key
/// byte-identical. Each saturation object also carries an `outcome`
/// label (`knee` / `censored` / `baseline-saturated`, see
/// [`SaturationOutcome`]) — additive again. Each case further carries
/// the measured `table_bytes` of its compiled routing tables and the
/// grid echoes the `compact_tables` knob — the only two keys that
/// differ between a compact and a dense sweep of the same grid,
/// since compression never changes routing behavior. A grid with
/// [`GridSpec::variation`] set ends with a `variation` object
/// (`fraction`, `mean_dwell`); grids without it omit the key.
///
/// The `meshes`/`mesh` keys predate the topology axis and are kept for
/// schema stability; non-mesh entries carry `name:WxH` labels in the
/// same fields.
pub fn sweep_json(
    spec: &GridSpec,
    results: &[CaseResult],
    threads: usize,
    total_wall_ms: f64,
) -> Json {
    let threads = if spec.record_timings { threads } else { 0 };
    let mut grid = vec![
        (
            "meshes",
            Json::Array(
                spec.topologies
                    .iter()
                    .map(|t| Json::from(t.label()))
                    .collect(),
            ),
        ),
        (
            "workloads",
            Json::Array(
                spec.workloads
                    .iter()
                    .map(|w| Json::from(w.as_str()))
                    .collect(),
            ),
        ),
        (
            "algorithms",
            Json::Array(
                spec.algorithms
                    .iter()
                    .map(|a| Json::from(a.as_str()))
                    .collect(),
            ),
        ),
        (
            "vcs",
            Json::Array(spec.vcs.iter().map(|&v| Json::from(v as u64)).collect()),
        ),
        (
            "rates",
            Json::Array(spec.rates.iter().map(|&r| Json::from(r)).collect()),
        ),
        ("warmup", Json::from(spec.warmup)),
        ("measurement", Json::from(spec.measurement)),
        ("packet_len", Json::from(spec.packet_len)),
        ("seed", Json::from(spec.seed)),
        (
            "burst",
            match spec.burst {
                None => Json::Null,
                Some(b) => Json::object(vec![
                    ("mean_on", Json::from(b.mean_on)),
                    ("mean_off", Json::from(b.mean_off)),
                ]),
            },
        ),
        (
            "saturation",
            match spec.saturation {
                None => Json::Null,
                Some(s) => Json::object(vec![
                    ("lo", Json::from(s.lo)),
                    ("hi", Json::from(s.hi)),
                    ("iterations", Json::from(u64::from(s.iterations))),
                    ("knee", Json::from(s.knee)),
                ]),
            },
        ),
        ("compact_tables", Json::from(spec.compact_tables)),
    ];
    if let Some(v) = spec.variation {
        grid.push((
            "variation",
            Json::object(vec![
                ("fraction", Json::from(v.fraction)),
                ("mean_dwell", Json::from(v.mean_dwell)),
            ]),
        ));
    }
    let cases = results
        .iter()
        .map(|r| {
            let points = r
                .points
                .iter()
                .map(|p| {
                    let timing = p.timing.filter(|_| spec.record_timings);
                    Json::object(vec![
                        ("rate", Json::from(p.rate)),
                        ("offered", Json::from(p.offered)),
                        ("throughput", Json::from(p.throughput)),
                        ("mean_latency", Json::from(p.mean_latency)),
                        ("p50_latency", Json::from(p.p50_latency)),
                        ("p95_latency", Json::from(p.p95_latency)),
                        ("p99_latency", Json::from(p.p99_latency)),
                        ("max_latency", Json::from(p.max_latency)),
                        ("max_channel_load", Json::from(p.max_channel_load)),
                        ("generated", Json::from(p.generated)),
                        ("delivered", Json::from(p.delivered)),
                        ("deadlocked", Json::from(p.deadlocked)),
                        ("cycles", Json::from(p.cycles)),
                        (
                            "wall_ms",
                            Json::from(timing.map_or(0.0, |t| t.elapsed.as_secs_f64() * 1e3)),
                        ),
                        (
                            "cycles_per_sec",
                            Json::from(timing.map_or(0.0, |t| t.cycles_per_sec())),
                        ),
                    ])
                })
                .collect();
            let saturation = match &r.saturation {
                None => Json::Null,
                Some(s) => Json::object(vec![
                    ("rate", Json::from(s.rate)),
                    ("base_latency", Json::from(s.base_latency)),
                    ("threshold", Json::from(s.threshold)),
                    ("censored", Json::from(s.censored)),
                    ("runs", Json::from(u64::from(s.runs))),
                    ("lo", Json::from(s.lo)),
                    ("hi", Json::from(s.hi)),
                    ("iterations", Json::from(u64::from(s.iterations))),
                    ("outcome", Json::from(s.outcome.label())),
                ]),
            };
            Json::object(vec![
                ("mesh", Json::from(r.case.topo.label())),
                ("workload", Json::from(r.case.workload.as_str())),
                ("algorithm", Json::from(r.case.algorithm.as_str())),
                ("vcs", Json::from(r.case.vcs as u64)),
                ("mcl_mb_s", Json::from(r.mcl)),
                ("error", Json::from(r.error.clone())),
                ("points", Json::Array(points)),
                ("saturation", saturation),
                ("table_bytes", Json::from(r.table_bytes)),
                ("wall_ms", Json::from(r.wall_ms)),
            ])
        })
        .collect();
    Json::object(vec![
        ("schema", Json::from("bsor-sweep/v2")),
        ("grid", Json::object(grid)),
        ("cases", Json::Array(cases)),
        (
            "timing",
            Json::object(vec![
                ("threads", Json::from(threads)),
                ("total_wall_ms", Json::from(total_wall_ms)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> GridSpec {
        GridSpec {
            topologies: vec![TopoSpec::mesh(4, 4)],
            workloads: vec!["transpose".into()],
            algorithms: vec!["xy".into(), "yx".into()],
            vcs: vec![2],
            rates: vec![0.1, 0.4],
            warmup: 100,
            measurement: 500,
            packet_len: 4,
            seed: 7,
            record_timings: false,
            burst: None,
            variation: None,
            saturation: None,
            compact_tables: false,
        }
    }

    #[test]
    fn expansion_counts_and_order() {
        let spec = tiny_spec();
        assert_eq!(spec.num_cases(), 2);
        assert_eq!(spec.num_runs(), 4);
        let cases = expand(&spec);
        assert_eq!(cases[0].algorithm, "xy");
        assert_eq!(cases[1].algorithm, "yx");
    }

    #[test]
    fn parallel_matches_serial() {
        let spec = tiny_spec();
        let serial = run_grid(&spec, 1);
        let parallel = run_grid(&spec, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.case.algorithm, b.case.algorithm);
            assert_eq!(a.mcl, b.mcl);
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(pa.throughput, pb.throughput);
                assert_eq!(pa.mean_latency, pb.mean_latency);
                assert_eq!(pa.generated, pb.generated);
            }
        }
    }

    #[test]
    fn json_is_byte_identical_without_timings() {
        let spec = tiny_spec();
        // Different worker counts must not leak into the document: with
        // timings off the whole timing block is zeroed.
        let a = sweep_json(&spec, &run_grid(&spec, 2), 2, 0.0).pretty();
        let b = sweep_json(&spec, &run_grid(&spec, 3), 3, 0.0).pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_names_error_as_cases() {
        let mut spec = tiny_spec();
        spec.workloads = vec!["nope".into()];
        let results = run_grid(&spec, 1);
        assert_eq!(results.len(), 2);
        assert!(results[0].error.as_deref().unwrap().contains("nope"));
        assert!(results[0].points.is_empty());
    }

    #[test]
    fn bad_topology_for_workload_reports_error() {
        let mut spec = tiny_spec();
        spec.topologies = vec![TopoSpec::mesh(3, 4)];
        let results = run_grid(&spec, 2);
        assert!(results.iter().all(|r| r.error.is_some()));
    }

    #[test]
    fn topology_axis_sweeps_non_meshes() {
        let mut spec = tiny_spec();
        // Synthetic patterns need square power-of-two meshes, so pair
        // the torus/ring entries with an applicable workload instead.
        spec.topologies = vec![
            TopoSpec::new("torus", 4, 4),
            TopoSpec::new("ring", 8, 1),
            TopoSpec::new("nowhere", 4, 4),
        ];
        spec.workloads = vec!["h264".into()];
        spec.algorithms = vec!["bsor-dijkstra".into()];
        spec.rates = vec![0.1];
        let results = run_grid(&spec, 2);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].case.topo.label(), "torus:4x4");
        assert!(
            results[0].error.is_none(),
            "torus routes: {:?}",
            results[0].error
        );
        assert!(results[0].mcl.unwrap() > 0.0);
        // A ring of 8 nodes is too small for the 9-module H.264 graph —
        // the workload error is recorded, not fatal.
        assert!(results[1].error.is_some());
        assert!(results[2]
            .error
            .as_deref()
            .unwrap()
            .contains("unknown topology"));
    }

    #[test]
    fn mesh_labels_stay_schema_compatible() {
        assert_eq!(TopoSpec::mesh(8, 8).label(), "8x8");
        assert_eq!(TopoSpec::new("hypercube", 4, 2).label(), "hypercube:4x2");
        assert_eq!(
            TopoSpec::from_spec("dragonfly:2,3,2").label(),
            "dragonfly:2,3,2"
        );
    }

    #[test]
    fn family_spec_entries_sweep_end_to_end() {
        let mut spec = tiny_spec();
        spec.topologies = vec![
            TopoSpec::from_spec("dragonfly:2,3,2"),
            TopoSpec::from_spec("fullmesh:8"),
            TopoSpec::from_spec("fattree:nope"),
        ];
        // uniform-random works on any node count; the grid walkers
        // would report typed RequiresGrid errors here instead.
        spec.workloads = vec!["uniform-random".into()];
        spec.algorithms = vec!["bsor-dijkstra".into()];
        spec.rates = vec![0.1];
        let results = run_grid(&spec, 2);
        assert_eq!(results.len(), 3);
        for r in &results[..2] {
            assert!(r.error.is_none(), "{}: {:?}", r.case.topo.label(), r.error);
            assert!(r.mcl.unwrap() > 0.0);
        }
        assert!(results[2]
            .error
            .as_deref()
            .unwrap()
            .contains("bad topology spec"));
    }

    #[test]
    fn parameterized_workload_specs_sweep() {
        let mut spec = tiny_spec();
        spec.workloads = vec![
            "hotspot:2".into(),
            "rand-perm:42".into(),
            "tornado".into(),
            "hotspot:nope".into(),
        ];
        spec.algorithms = vec!["xy".into()];
        let results = run_grid(&spec, 2);
        assert_eq!(results.len(), 4);
        assert!(results[0].error.is_none(), "{:?}", results[0].error);
        assert!(results[1].error.is_none(), "{:?}", results[1].error);
        // tornado on a 4x4 mesh shifts one hop in each dimension.
        assert!(results[2].error.is_none(), "{:?}", results[2].error);
        // A malformed family argument is a recorded case error, not a
        // panic and not a sweep abort.
        assert!(results[3]
            .error
            .as_deref()
            .unwrap()
            .contains("bad workload spec"));
        for r in &results[..3] {
            for p in &r.points {
                assert!(p.max_channel_load >= 0.0);
                if p.mean_latency.is_some() {
                    let p50 = p.p50_latency.expect("delivered packets have a median");
                    let p99 = p.p99_latency.expect("and a p99");
                    assert!(p50 <= p99);
                    assert!(p99 <= p.max_latency);
                }
            }
        }
    }

    #[test]
    fn saturation_search_finds_a_knee_and_is_deterministic() {
        let mut spec = tiny_spec();
        spec.workloads = vec!["transpose".into()];
        spec.algorithms = vec!["xy".into()];
        spec.rates = vec![0.1];
        spec.saturation = Some(SaturationSpec {
            lo: 0.05,
            hi: 4.0,
            iterations: 6,
            knee: 4.0,
        });
        let a = run_grid(&spec, 1);
        let b = run_grid(&spec, 4);
        let sat_a = a[0].saturation.as_ref().expect("search ran");
        let sat_b = b[0].saturation.as_ref().expect("search ran");
        assert_eq!(
            sat_a.rate, sat_b.rate,
            "bisection must be thread-independent"
        );
        assert!(
            !sat_a.censored,
            "4.0 packets/cycle saturates a 4x4 transpose"
        );
        assert!(
            sat_a.rate > spec.saturation.unwrap().lo && sat_a.rate < spec.saturation.unwrap().hi
        );
        assert!(sat_a.threshold > sat_a.base_latency);
        assert_eq!(sat_a.runs, 2 + 6, "endpoints plus iterations");
        // The per-case echo records the bracket the search actually
        // reached, not the CLI-level bounds: the knee lies in [lo, hi],
        // one bisection-resolution wide.
        assert_eq!(sat_a.lo, sat_a.rate);
        assert!(sat_a.hi > sat_a.lo);
        let resolution = (4.0 - 0.05) / 64.0;
        assert!((sat_a.hi - sat_a.lo - resolution).abs() < 1e-12);
        assert_eq!(sat_a.iterations, 6);
        assert_eq!(sat_a.outcome, SaturationOutcome::Knee);
        // The knee must lie between an unsaturated and a saturated probe
        // width of the final bisection interval.
        let width = (spec.saturation.unwrap().hi - spec.saturation.unwrap().lo) / 64.0;
        assert!(width > 0.0 && sat_a.rate + 2.0 * width <= spec.saturation.unwrap().hi);
        let doc = sweep_json(&spec, &a, 1, 0.0).pretty();
        assert!(doc.contains("\"outcome\": \"knee\""));
    }

    #[test]
    fn saturated_baseline_is_reported_not_silently_kneed() {
        let mut spec = tiny_spec();
        spec.workloads = vec!["transpose".into()];
        spec.algorithms = vec!["xy".into()];
        spec.rates = vec![0.1];
        // A 4x4 transpose under XY collapses well below 3 packets/cycle,
        // so the "baseline" itself is already saturated.
        spec.saturation = Some(SaturationSpec {
            lo: 3.0,
            hi: 4.0,
            iterations: 4,
            knee: 4.0,
        });
        let results = run_grid(&spec, 1);
        let sat = results[0].saturation.as_ref().expect("search ran");
        assert_eq!(sat.outcome, SaturationOutcome::BaselineSaturated);
        assert!(!sat.censored);
        assert_eq!(sat.rate, 0.0, "no rate was observed unsaturated");
        assert_eq!(sat.runs, 1, "the search stops at the baseline probe");
        let doc = sweep_json(&spec, &results, 1, 0.0).pretty();
        assert!(doc.contains("\"outcome\": \"baseline-saturated\""));
    }

    #[test]
    fn unsaturated_upper_probe_is_censored_not_a_knee() {
        let mut spec = tiny_spec();
        spec.workloads = vec!["transpose".into()];
        spec.algorithms = vec!["xy".into()];
        spec.rates = vec![0.1];
        // Both probes sit far below the 4x4 transpose knee, so the
        // bracket never closes.
        spec.saturation = Some(SaturationSpec {
            lo: 0.05,
            hi: 0.2,
            iterations: 4,
            knee: 4.0,
        });
        let results = run_grid(&spec, 1);
        let sat = results[0].saturation.as_ref().expect("search ran");
        assert_eq!(sat.outcome, SaturationOutcome::Censored);
        assert!(sat.censored);
        assert_eq!(
            sat.rate, 0.2,
            "censored result reports the lower bound probed"
        );
        assert_eq!(
            sat.iterations, 0,
            "no bisection after an unsaturated upper probe"
        );
        let doc = sweep_json(&spec, &results, 1, 0.0).pretty();
        assert!(doc.contains("\"outcome\": \"censored\""));
    }

    #[test]
    fn compact_tables_change_bytes_not_behavior() {
        let mut spec = tiny_spec();
        let dense = run_grid(&spec, 1);
        spec.compact_tables = true;
        let compact = run_grid(&spec, 1);
        for (d, c) in dense.iter().zip(&compact) {
            let db = d.table_bytes.expect("dense case routed");
            let cb = c.table_bytes.expect("compact case routed");
            assert!(
                cb < db,
                "{}: compact tables must shrink ({cb} vs {db} bytes)",
                d.case.algorithm
            );
        }
        // Outside the two table-representation keys, the documents are
        // byte-identical: compression changes memory, never routing.
        let strip = |doc: String| -> String {
            doc.lines()
                .filter(|l| !l.contains("\"table_bytes\"") && !l.contains("\"compact_tables\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let mut dense_spec = tiny_spec();
        let a = strip(sweep_json(&dense_spec, &dense, 1, 0.0).pretty());
        dense_spec.compact_tables = true;
        let b = strip(sweep_json(&dense_spec, &compact, 1, 0.0).pretty());
        assert_eq!(a, b);
        // And the keys really are in the document.
        let doc = sweep_json(&dense_spec, &compact, 1, 0.0).pretty();
        assert!(doc.contains("\"compact_tables\": true"));
        assert!(doc.contains("\"table_bytes\""));
    }

    #[test]
    fn variation_is_echoed_only_when_set() {
        let mut spec = tiny_spec();
        spec.algorithms = vec!["xy".into()];
        let flat = sweep_json(&spec, &run_grid(&spec, 1), 1, 0.0).pretty();
        assert!(!flat.contains("\"variation\""));
        spec.variation = Some(MarkovVariation::new(0.25, 200.0));
        let varied = sweep_json(&spec, &run_grid(&spec, 1), 1, 0.0).pretty();
        assert!(varied.contains("\"variation\": {"));
        assert!(varied.contains("\"fraction\": 0.25"));
        assert!(varied.contains("\"mean_dwell\": 200.0"));
    }

    #[test]
    fn saturation_ranges_are_validated() {
        let ok = SaturationSpec::default();
        assert!(ok.validate().is_ok());
        for (lo, hi) in [
            (2.0, 1.0),
            (0.0, 1.0),
            (-1.0, 1.0),
            (f64::NAN, 1.0),
            (0.1, f64::INFINITY),
            (0.1, 0.1),
        ] {
            let bad = SaturationSpec {
                lo,
                hi,
                ..SaturationSpec::default()
            };
            let err = bad.validate().expect_err("degenerate range rejected");
            assert!(err.contains("lo < hi"), "typed message: {err}");
        }
    }

    #[test]
    fn bursty_grid_matches_flat_mean_load() {
        let mut spec = tiny_spec();
        spec.workloads = vec!["neighbor".into()];
        spec.algorithms = vec!["xy".into()];
        spec.rates = vec![0.4];
        spec.measurement = 4_000;
        let flat = run_grid(&spec, 1);
        spec.burst = Some(BurstyOnOff::new(50.0, 150.0));
        let bursty = run_grid(&spec, 1);
        let (f, b) = (&flat[0].points[0], &bursty[0].points[0]);
        let ratio = b.offered / f.offered;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "bursty offered load drifted: {ratio}"
        );
        // JSON carries the burst knob.
        let doc = sweep_json(&spec, &bursty, 1, 0.0).pretty();
        assert!(doc.contains("\"mean_on\": 50.0"));
        assert!(doc.contains("\"schema\": \"bsor-sweep/v2\""));
    }
}
