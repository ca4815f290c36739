//! The synthetic-traffic subsystem end to end: every new workload
//! generator × every registered algorithm composes through
//! `ScenarioBuilder` into a Lemma-1 deadlock-free route set (or a typed
//! error — never a panic, never a cyclic route set), the parameterized
//! spec strings resolve from the same registry the sweep CLI uses, and
//! the bursty/phase traffic knobs run through a plan's evaluation.

use bsor::{AlgorithmRegistry, Scenario, WorkloadRegistry};
use bsor_repro::routing::deadlock;
use bsor_repro::sim::{
    BurstyOnOff, EvalPoint, Evaluator, PhaseSchedule, PlanError, Planner, SimConfig, SimEvaluator,
};
use bsor_repro::topology::Topology;
use proptest::prelude::*;

/// The sweepable specs of every generator this PR introduces, sized for
/// a 4×4 mesh.
fn new_workload_specs() -> Vec<&'static str> {
    vec![
        "uniform-random",
        "tornado",
        "bit-reversal",
        "neighbor",
        "hotspot:1",
        "hotspot:4",
        "rand-perm:7",
        "rand-perm:4242",
    ]
}

/// Lemma 1 through the pipeline: `Planner::plan` already rejects cyclic
/// route sets, so a success here *is* a deadlock-freedom proof; the
/// explicit re-check keeps the property self-contained.
#[test]
fn every_new_workload_x_every_algorithm_is_deadlock_free_or_typed() {
    let workloads = WorkloadRegistry::standard();
    let algorithms = AlgorithmRegistry::standard();
    let vcs = 2u8;
    for spec in new_workload_specs() {
        let topo = Topology::mesh2d(4, 4);
        let workload = workloads
            .build(&topo, spec)
            .expect("4x4 supports the new specs");
        let scenario = Scenario::builder(topo, workload.flows)
            .named(spec)
            .vcs(vcs)
            .build()
            .expect("new workloads build scenarios");
        for algo_name in algorithms.names() {
            // The MILP framework's deterministic node budget is sized
            // for the paper's <= 64-flow workloads; the 240-flow
            // uniform-random matrix would take minutes without proving
            // anything new (the other six algorithms cover it, and MILP
            // covers every other spec).
            if algo_name == "bsor-milp" && spec == "uniform-random" {
                continue;
            }
            let algorithm = algorithms.get(algo_name).expect("listed name resolves");
            match Planner::new().plan(&scenario, algorithm) {
                Ok(plan) => {
                    assert_eq!(plan.routes().len(), scenario.flows().len());
                    assert!(
                        deadlock::is_deadlock_free(scenario.topology(), plan.routes(), vcs),
                        "{algo_name} on {spec} returned a cyclic route set"
                    );
                }
                Err(
                    PlanError::Algorithm(_)
                    | PlanError::InvalidRoutes(_)
                    | PlanError::Deadlock { .. },
                ) => {
                    // Typed refusal is acceptable; a panic or a cyclic
                    // set slipping through to simulation is not.
                }
                Err(other) => panic!("{algo_name} on {spec}: unexpected error {other}"),
            }
        }
    }
}

#[test]
fn bursty_and_phased_traffic_run_through_the_experiment_pipeline() {
    let workloads = WorkloadRegistry::standard();
    let algorithms = AlgorithmRegistry::standard();
    let topo = Topology::mesh2d(4, 4);
    let workload = workloads.build(&topo, "hotspot:2").expect("2 < 16");
    let scenario = Scenario::builder(topo, workload.flows)
        .named("hotspot-burst")
        .vcs(2)
        .build()
        .expect("builds");
    let xy = algorithms.get("xy").expect("registered");
    let plan = Planner::new().plan(&scenario, xy).expect("hotspot plans");
    let config = SimConfig::new(2).with_warmup(200).with_measurement(2_000);
    let point = EvalPoint::new(0.2, config)
        .with_burst(BurstyOnOff::new(30.0, 90.0))
        .with_phases(PhaseSchedule::from_pairs([(400, 1.5), (400, 0.5)]));
    let evaluation = SimEvaluator::new()
        .evaluate(&plan, &point)
        .expect("bursty phased hotspot simulates");
    assert!(!evaluation.deadlocked);
    assert!(evaluation.delivered > 0);
    assert!(evaluation.p99_latency.expect("delivers") >= evaluation.p50_latency.expect("delivers"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized hotspot counts and permutation seeds keep the
    /// Lemma-1 property on the paper's own 8x8 substrate, through the
    /// scalable algorithms (the MILP framework is exercised on the
    /// fixed 4x4 matrix above; 8x8 adversarial patterns would blow its
    /// CI budget).
    #[test]
    fn randomized_specs_stay_deadlock_free_on_8x8(k in 1usize..=8, seed in 0u64..10_000) {
        let workloads = WorkloadRegistry::standard();
        let algorithms = AlgorithmRegistry::standard();
        for spec in [format!("hotspot:{k}"), format!("rand-perm:{seed}")] {
            let topo = Topology::mesh2d(8, 8);
            let workload = workloads.build(&topo, &spec).expect("8x8 supports the families");
            let scenario = Scenario::builder(topo, workload.flows)
                .named(&spec)
                .vcs(2)
                .build()
                .expect("builds");
            for algo_name in ["xy", "yx", "romm", "valiant", "o1turn", "bsor-dijkstra"] {
                let algorithm = algorithms.get(algo_name).expect("registered");
                let plan = Planner::new()
                    .plan(&scenario, algorithm)
                    .expect("meshes route every algorithm");
                prop_assert!(
                    deadlock::is_deadlock_free(scenario.topology(), plan.routes(), 2),
                    "{} on {} returned a cyclic route set", algo_name, spec
                );
            }
        }
    }
}
