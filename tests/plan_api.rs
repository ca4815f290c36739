//! The plan/evaluate split, exercised end to end: plan-cache hits must
//! be structurally identical to fresh plans across topology × algorithm
//! × VC count (property test), the `StaticMclEvaluator`'s predicted MCL
//! must equal the LP objective on the paper's six workloads, and both
//! evaluator backends must agree on everything a plan pins down.

use bsor::{
    AlgorithmRegistry, EvalPoint, Evaluator, PlanCache, Planner, Scenario, SimEvaluator,
    StaticMclEvaluator,
};
use bsor_repro::flow::{FlowNetwork, FlowSet};
use bsor_repro::routing::selectors::MilpSelector;
use bsor_repro::routing::Baseline;
use bsor_repro::sim::{PlanError, SimConfig};
use bsor_repro::topology::{NodeId, Topology, TopologyRegistry};
use bsor_repro::workloads::all_six;
use proptest::prelude::*;

/// A shift pattern that exists on every topology: node i sends to
/// node (i + n/2) mod n.
fn shift_flows(topo: &Topology) -> FlowSet {
    let mut flows = FlowSet::new();
    let n = topo.num_nodes() as u32;
    for i in 0..n {
        let j = (i + n / 2) % n;
        if i != j {
            flows.push(NodeId(i), NodeId(j), 10.0);
        }
    }
    flows
}

fn smoke_dims(name: &str) -> (u16, u16) {
    match name {
        "mesh" | "torus" => (4, 4),
        "ring" => (6, 1),
        "hypercube" => (4, 2),
        other => panic!("add smoke dimensions for new topology '{other}'"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite acceptance: a cache-hit `RoutePlan` is structurally
    /// identical to a freshly planned one, across every registered
    /// topology × a spread of algorithms × VC counts.
    #[test]
    fn cache_hits_match_fresh_plans_everywhere(
        topo_idx in 0usize..4,
        algo_idx in 0usize..3,
        vcs in 2u8..=4,
    ) {
        let topologies = TopologyRegistry::standard();
        let algorithms = AlgorithmRegistry::standard();
        let topo_name = topologies.names()[topo_idx].to_owned();
        let algo_name = ["xy", "yx", "bsor-dijkstra"][algo_idx];
        let (w, h) = smoke_dims(&topo_name);
        let topo = topologies.build(&topo_name, w, h).expect("registered");
        let flows = shift_flows(&topo);
        let scenario = Scenario::builder(topo, flows).vcs(vcs).build().expect("valid");
        let algorithm = algorithms.get(algo_name).expect("registered");

        let cache = PlanCache::shared();
        let cached = Planner::new().with_cache(cache.clone());
        let first = cached.plan(&scenario, algorithm);
        let hit = cached.plan(&scenario, algorithm);
        let fresh = Planner::new().plan(&scenario, algorithm);
        match (first, hit, fresh) {
            (Ok(first), Ok(hit), Ok(fresh)) => {
                // The hit is the very artifact the first call built...
                prop_assert!(std::sync::Arc::ptr_eq(&first, &hit));
                prop_assert_eq!(cache.stats().solves, 1);
                prop_assert_eq!(cache.stats().hits, 1);
                // ...and structurally identical to an uncached re-plan:
                // routes, certificate, tables, loads, MCL, id.
                prop_assert_eq!(&*hit, &*fresh);
                prop_assert!(hit.certificate().verify(fresh.routes()));
                prop_assert_eq!(
                    hit.predicted_mcl(),
                    fresh.routes().mcl(scenario.topology(), scenario.flows())
                );
            }
            // Some combinations legitimately fail (e.g. dimension-order
            // baselines on hypercubes); both paths must fail alike.
            (Err(a), Err(b), Err(c)) => {
                prop_assert_eq!(&a, &c);
                prop_assert_eq!(&a, &b);
                prop_assert!(matches!(a, PlanError::Algorithm(_)));
            }
            (a, _, c) => prop_assert!(false, "cache changed the outcome: {a:?} vs {c:?}"),
        }
    }
}

/// Tentpole acceptance: `StaticMclEvaluator`'s predicted MCL equals the
/// LP objective on the paper's six workloads — the MILP minimizes
/// exactly the static metric the plan carries.
#[test]
fn static_mcl_matches_lp_objective_on_the_six_workloads() {
    let topo = Topology::mesh2d(8, 8);
    // Deterministic budget (no wall-clock limit): the incumbent the
    // solver returns is reproducible, and its reported objective is by
    // construction the MCL of the routes it selected.
    let selector = MilpSelector::new()
        .with_hop_slack(2)
        .with_max_paths(6)
        .with_options(bsor_repro::lp::MilpOptions {
            max_nodes: 2,
            time_limit: None,
            ..bsor_repro::lp::MilpOptions::default()
        });
    let planner = Planner::new();
    let evaluator = StaticMclEvaluator::new();
    for workload in all_six(&topo).expect("8x8 fits all six") {
        let scenario = Scenario::builder(topo.clone(), workload.flows.clone())
            .named(workload.name.clone())
            .vcs(2)
            .build()
            .expect("valid");
        // The raw selector run on the scenario's own CDG yields the LP
        // report; the plan of the same selector must carry its objective.
        let net = FlowNetwork::new(scenario.topology(), scenario.cdg());
        let (routes, report) = selector
            .select(&net, scenario.flows())
            .unwrap_or_else(|e| panic!("{} unroutable: {e}", workload.name));
        let plan = planner
            .plan(&scenario, &selector)
            .unwrap_or_else(|e| panic!("{} unplannable: {e}", workload.name));
        assert_eq!(plan.routes(), &routes, "{}", workload.name);
        assert!(
            (plan.predicted_mcl() - report.objective).abs() < 1e-6,
            "{}: plan MCL {} vs LP objective {}",
            workload.name,
            plan.predicted_mcl(),
            report.objective
        );
        let ev = evaluator
            .evaluate(&plan, &EvalPoint::new(0.5, SimConfig::new(2)))
            .expect("static evaluation is total");
        assert_eq!(ev.predicted_mcl, plan.predicted_mcl(), "{}", workload.name);
    }
}

/// Both backends return the common `Evaluation` schema and agree on the
/// plan-determined fields; the analytical estimate tracks the simulated
/// channel load at light load.
#[test]
fn evaluator_backends_agree_on_plan_facts() {
    let topo = Topology::mesh2d(4, 4);
    let flows = shift_flows(&topo);
    let scenario = Scenario::builder(topo, flows)
        .vcs(2)
        .build()
        .expect("valid");
    let plan = Planner::new()
        .plan(&scenario, &Baseline::XY)
        .expect("plans");
    let config = SimConfig::new(2).with_warmup(500).with_measurement(5_000);
    let point = EvalPoint::new(0.2, config);
    let stat = StaticMclEvaluator::new()
        .evaluate(&plan, &point)
        .expect("static");
    let sim = SimEvaluator::new().evaluate(&plan, &point).expect("sim");
    assert_eq!(stat.backend, "static-mcl");
    assert_eq!(sim.backend, "sim");
    assert_eq!(stat.predicted_mcl, sim.predicted_mcl);
    assert_eq!(stat.rate, sim.rate);
    assert!(!stat.deadlocked && !sim.deadlocked);
    // At 0.2 packets/cycle the network is far from saturation: the
    // analytical load estimate must sit within 25% of the observed one.
    let rel = (stat.max_channel_load - sim.max_channel_load).abs() / sim.max_channel_load;
    assert!(
        rel < 0.25,
        "analytical {} vs observed {} channel load",
        stat.max_channel_load,
        sim.max_channel_load
    );
}
