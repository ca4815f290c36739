//! The unified Scenario/Planner API, exercised across every registry: a
//! property test that every registered algorithm on every registered
//! topology (smoke sizes, 2 VCs) plans a deadlock-free route set
//! through the one `RouteAlgorithm` trait — or a *typed*
//! unsupported-topology error, never a panic — plus registry
//! round-trips (`names()` → `get()` → run).

use bsor::{AlgorithmRegistry, BsorAlgorithm, Scenario, TopologyRegistry, WorkloadRegistry};
use bsor_repro::flow::FlowSet;
use bsor_repro::routing::{deadlock, SelectError};
use bsor_repro::sim::{
    AlgorithmError, EvalPoint, Evaluator, PlanError, Planner, SimConfig, SimEvaluator,
};
use bsor_repro::topology::{NodeId, Topology};

/// Smoke-size dimensions per registered topology family.
fn smoke_dims(name: &str) -> (u16, u16) {
    match name {
        "mesh" | "torus" => (4, 4),
        "ring" => (6, 1),
        // 4x2 = 8 nodes folds into a dimension-3 hypercube.
        "hypercube" => (4, 2),
        other => panic!("add smoke dimensions for new topology '{other}'"),
    }
}

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

/// The property at the heart of the API: anything the registries can
/// name composes into a scenario, and whatever routes come out of the
/// one trait are deadlock-free (paper Lemma 1) — the only permitted
/// alternative is a typed error, never a panic and never a cyclic
/// route set slipping through.
#[test]
fn every_algorithm_on_every_topology_is_deadlock_free_or_typed() {
    let topologies = TopologyRegistry::standard();
    let algorithms = AlgorithmRegistry::standard();
    let vcs = 2u8;
    for topo_name in topologies.names() {
        let (w, h) = smoke_dims(topo_name);
        let topo = topologies
            .build(topo_name, w, h)
            .expect("smoke dims are valid");
        let flows = shift_flows(&topo);
        let scenario = Scenario::builder(topo, flows)
            .named(format!("{topo_name}-shift"))
            .vcs(vcs)
            .build()
            .expect("smoke scenarios build");
        for algo_name in algorithms.names() {
            let algorithm = algorithms.get(algo_name).expect("listed names resolve");
            match Planner::new().plan(&scenario, algorithm) {
                Ok(plan) => {
                    assert_eq!(plan.routes().len(), scenario.flows().len());
                    assert!(
                        deadlock::is_deadlock_free(scenario.topology(), plan.routes(), vcs),
                        "{algo_name} on {topo_name} returned a cyclic route set"
                    );
                }
                Err(PlanError::Algorithm(AlgorithmError::UnsupportedTopology { .. })) => {
                    // Dimension-order baselines legitimately refuse
                    // hypercubes; anything else must route.
                    assert_eq!(
                        topo_name, "hypercube",
                        "{algo_name} refused {topo_name}, which it should support"
                    );
                }
                Err(PlanError::Algorithm(AlgorithmError::Select(
                    SelectError::BudgetExceeded { links, max_links },
                ))) => {
                    // The AC oblivious LP refuses smoke sizes over its
                    // link budget — typed, and only from that algorithm.
                    assert_eq!(
                        algo_name, "ac-oblivious",
                        "only the LP selector carries a link budget"
                    );
                    assert!(links > max_links);
                }
                Err(other) => {
                    panic!("{algo_name} on {topo_name} failed unexpectedly: {other}")
                }
            }
        }
        // The exploring framework must route *every* registered
        // topology, mesh or not — topology independence end-to-end.
        let plan = Planner::new()
            .plan(&scenario, &BsorAlgorithm::dijkstra())
            .expect("bsor-dijkstra routes every registered topology");
        assert!(deadlock::is_deadlock_free(
            scenario.topology(),
            plan.routes(),
            vcs
        ));
    }
}

/// `names()` → `get()` → run: every listed algorithm resolves and
/// drives the full pipeline (plan + simulation) on the paper's
/// substrate.
#[test]
fn algorithm_registry_round_trips_through_an_experiment() {
    let algorithms = AlgorithmRegistry::standard();
    let names = algorithms.names();
    assert!(names.contains(&"xy") && names.contains(&"bsor-dijkstra"));
    let topo = Topology::mesh2d(4, 4);
    let flows = shift_flows(&topo);
    let scenario = Scenario::builder(topo, flows).vcs(2).build().expect("ok");
    let point = EvalPoint::new(
        0.2,
        SimConfig::new(2).with_warmup(100).with_measurement(500),
    );
    for name in names {
        let algorithm = algorithms.get(name).expect("listed names resolve");
        let plan = match Planner::new().plan(&scenario, algorithm) {
            Ok(plan) => plan,
            // The 4x4 mesh (48 directed links) is over the AC LP's
            // default budget; the typed refusal is the contract.
            Err(PlanError::Algorithm(AlgorithmError::Select(SelectError::BudgetExceeded {
                ..
            }))) if name == "ac-oblivious" => continue,
            Err(e) => panic!("{name} failed to plan: {e}"),
        };
        let evaluation = SimEvaluator::new()
            .evaluate(&plan, &point)
            .unwrap_or_else(|e| panic!("{name} failed the pipeline: {e}"));
        assert!(!evaluation.deadlocked, "{name} deadlocked in simulation");
        assert!(evaluation.delivered > 0, "{name} delivered nothing");
    }
}

/// `names()` → `get()` → build for the workload and topology registries.
#[test]
fn workload_and_topology_registries_round_trip() {
    let workloads = WorkloadRegistry::standard();
    let mesh = Topology::mesh2d(8, 8);
    for name in workloads.names() {
        assert!(workloads.get(name).is_some());
        let w = workloads.build(&mesh, name).expect("8x8 supports all six");
        w.flows.validate(&mesh).expect("valid flows");
    }
    let topologies = TopologyRegistry::standard();
    for name in topologies.names() {
        assert!(topologies.get(name).is_some());
        let (w, h) = smoke_dims(name);
        let topo = topologies.build(name, w, h).expect("smoke dims build");
        assert!(topo.num_nodes() >= 2);
    }
}
