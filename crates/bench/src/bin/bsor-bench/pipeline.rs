//! The planning and simulation pipelines, called stage by stage from
//! outside so each stage gets its own span, plus the scenario set-up
//! every workload shares.
//!
//! [`staged_plan`] runs the stages `Planner::plan` runs, in its order;
//! [`staged_sim`] runs the stages `SimEvaluator::simulate` runs. The
//! traced run checks that both produce what the library does.

use crate::report::{select_span, EngineCounts, PlanCounts};
use crate::trace::Tracer;
use bsor_bench::sweep::SweepRegistries;
use bsor_routing::deadlock::{self, DeadlockCertificate};
use bsor_routing::selectors::{AcObliviousSelector, RandomWalkSelector};
use bsor_routing::{AnyTables, Baseline, RouteSet, RouteTables};
use bsor_sim::{
    EvalPoint, PlanId, PlanKey, RouteAlgorithm, RoutePlan, Scenario, SimConfig, SimEvaluator,
    SimReport, Simulator, TrafficSpec,
};

/// The standard registries with every randomized algorithm seeded from
/// the benchmark seed, so the seed varies the routes those algorithms
/// choose.
pub fn seeded_registries(seed: u64) -> SweepRegistries {
    let mut regs = SweepRegistries::standard();
    let algorithms = &mut regs.algorithms;
    algorithms.register("romm", Baseline::Romm { seed });
    algorithms.register("valiant", Baseline::Valiant { seed });
    algorithms.register("o1turn", Baseline::O1Turn { seed });
    algorithms.register("random-walk", RandomWalkSelector::new().with_seed(seed));
    algorithms.register("ac-oblivious", AcObliviousSelector::new().with_seed(seed));
    regs
}

/// Builds one scenario from registry specs, one span per layer.
pub fn build_scenario(
    tr: &mut Tracer,
    regs: &SweepRegistries,
    topology: &str,
    workload: &str,
    vcs: u8,
) -> Result<Scenario, String> {
    let topo = tr
        .span("topology.build", |_| regs.topologies.build_spec(topology))
        .map_err(|e| format!("{topology}: {e}"))?;
    let flows = tr
        .span("workloads.build", |_| regs.workloads.build(&topo, workload))
        .map_err(|e| format!("{topology}/{workload}: {e}"))?
        .flows;
    tr.span("scenario.build", |_| {
        Scenario::builder(topo, flows)
            .named(workload)
            .vcs(vcs)
            .build()
    })
    .map_err(|e| format!("{topology}/{workload}: {e}"))
}

/// What the planning stages produce, before a `RoutePlan` wraps it.
pub struct StagedPlan {
    pub id: PlanId,
    pub routes: RouteSet,
    pub certificate: DeadlockCertificate,
    pub tables: AnyTables,
    pub link_demands: Vec<f64>,
}

impl StagedPlan {
    /// Whether `plan` holds exactly these stage outputs.
    pub fn matches(&self, plan: &RoutePlan) -> bool {
        self.id == plan.id()
            && &self.routes == plan.routes()
            && &self.certificate == plan.certificate()
            && &self.tables == plan.tables()
            && self.link_demands == plan.link_demands()
    }

    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::new(self.id, &self.routes, &self.tables, &self.link_demands)
    }
}

/// Plans `algorithm` on `scenario` stage by stage: the key, route
/// selection, validation, the Lemma-1 certificate, the tables and the
/// link demands.
pub fn staged_plan(
    tr: &mut Tracer,
    scenario: &Scenario,
    algorithm: &dyn RouteAlgorithm,
    family: &str,
    compact: bool,
) -> Result<StagedPlan, String> {
    tr.span("plan", |tr| {
        let topo = scenario.topology();
        let key = tr.span("plan.key", |_| {
            PlanKey::new(scenario, &algorithm.cache_key())
        });
        let routes = tr
            .span(select_span(family), |_| algorithm.routes(&scenario.ctx()))
            .map_err(|e| e.to_string())?;
        tr.span("plan.validate", |_| {
            routes.validate(topo, scenario.flows(), scenario.vcs())
        })
        .map_err(|e| e.to_string())?;
        let certificate = tr
            .span("plan.certify", |_| {
                deadlock::certify(topo, &routes, scenario.vcs())
            })
            .map_err(|cycle| format!("dependence cycle over {} channels", cycle.len()))?;
        let tables = tr.span("plan.tables", |_| AnyTables::build(topo, &routes, compact));
        let link_demands = tr.span("plan.link_loads", |_| {
            routes.link_loads(topo, scenario.flows())
        });
        Ok(StagedPlan {
            id: key.id(),
            routes,
            certificate,
            tables,
            link_demands,
        })
    })
}

/// A cheap summary of a plan's content, for the check that repeated
/// plans of one key are identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    id: PlanId,
    mcl_bits: u64,
    hops: u64,
    table_bytes: u64,
    demands: u64,
}

impl Fingerprint {
    fn new(id: PlanId, routes: &RouteSet, tables: &AnyTables, demands: &[f64]) -> Fingerprint {
        let mut digest = crate::digest::Digest::default();
        for &d in demands {
            digest.f64(d);
        }
        Fingerprint {
            id,
            mcl_bits: demands.iter().copied().fold(0.0, f64::max).to_bits(),
            hops: route_hops(routes),
            table_bytes: tables.table_bytes() as u64,
            demands: digest.value(),
        }
    }

    pub fn of_plan(plan: &RoutePlan) -> Fingerprint {
        Fingerprint::new(plan.id(), plan.routes(), plan.tables(), plan.link_demands())
    }

    /// The plan's content address.
    pub fn id(&self) -> u64 {
        self.id.0
    }
}

/// Total hops over all routes.
pub fn route_hops(routes: &RouteSet) -> u64 {
    routes.iter().map(|r| r.len() as u64).sum()
}

/// Adds one plan to the per-pass planning counts.
pub fn count_plan(counts: &mut PlanCounts, plan: &RoutePlan) {
    counts.flows += plan.flows().len() as u64;
    counts.hops += route_hops(plan.routes());
    counts.table_bytes += plan.table_bytes() as u64;
    counts.approx_bytes += plan.approx_bytes() as u64;
}

/// Simulates `plan` at `point` stage by stage: traffic, engine
/// assembly, the run and the latency histogram.
pub fn staged_sim(
    tr: &mut Tracer,
    plan: &RoutePlan,
    point: &EvalPoint,
) -> Result<SimReport, String> {
    tr.span("sim", |tr| {
        let mut config = point.config.clone();
        config.vcs = plan.vcs();
        let traffic = tr.span("traffic.build", |_| {
            let traffic = TrafficSpec::proportional(plan.flows(), point.rate);
            match point.burst {
                Some(burst) => traffic.with_burst(burst),
                None => traffic,
            }
        });
        let mut sim = tr
            .span("engine.assemble", |_| {
                Simulator::with_tables(
                    plan.topology(),
                    plan.flows(),
                    plan.routes(),
                    plan.tables(),
                    traffic,
                    config,
                )
            })
            .map_err(|e| e.to_string())?;
        let (report, _timing) = tr.span("engine.run", |_| sim.run_timed());
        std::hint::black_box(tr.span("stats.histogram", |_| report.latency_histogram()));
        Ok(report)
    })
}

/// [`SimEvaluator::simulate`] plus the latency histogram, the
/// untraced simulation operation.
pub fn simulate(plan: &RoutePlan, point: &EvalPoint) -> Result<SimReport, String> {
    let (report, _timing) = SimEvaluator::new()
        .simulate(plan, point)
        .map_err(|e| e.to_string())?;
    std::hint::black_box(report.latency_histogram());
    Ok(report)
}

/// A run without deadlock that delivered traffic, and where no flow
/// delivered more of the packets it generated in the measurement
/// window than it generated. (`delivered_packets` also counts warm-up
/// packets whose tails arrive in the window, so it may exceed
/// `generated_packets`; the per-flow latency count follows only
/// window packets.)
pub fn report_ok(r: &SimReport) -> bool {
    !r.deadlocked
        && r.generated_packets > 0
        && r.delivered_packets > 0
        && r.per_flow.iter().all(|f| f.latency_count <= f.generated)
}

/// Adds one report to the per-pass engine counts.
pub fn count_report(counts: &mut EngineCounts, r: &SimReport) {
    counts.cycles += r.cycles;
    counts.flit_hops += r.link_flits.iter().sum::<u64>();
    counts.delivered += r.delivered_packets;
}

/// Plans with more flows than this skip the check simulation: their
/// cost would sit in per-flow traffic generation, not in the layers
/// the workload measures.
pub const CHECK_SIM_MAX_FLOWS: usize = 5_000;

/// The short, light-load simulation every planning workload runs on
/// its plans to check that a certified plan also runs deadlock-free.
pub fn check_point(seed: u64) -> EvalPoint {
    EvalPoint::new(
        0.1,
        SimConfig::new(1)
            .with_warmup(200)
            .with_measurement(1_000)
            .with_seed(seed),
    )
}
