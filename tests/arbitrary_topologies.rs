//! The arbitrary-graph topology subsystem end to end: every registered
//! algorithm on every generated/loaded graph family (dragonfly,
//! fat-tree, full mesh, file-loaded WAN) composes through
//! `ScenarioBuilder` into deadlock-free routes or a *typed* refusal —
//! never a panic — including the one-VC path where the up*/down* escape
//! ordering is the only thing standing between the explorer and an
//! unroutable CDG.

use bsor::{AlgorithmRegistry, BsorAlgorithm, Scenario, TopologyRegistry};
use bsor_repro::flow::FlowSet;
use bsor_repro::routing::{deadlock, SelectError};
use bsor_repro::sim::{AlgorithmError, PlanError, Planner};
use bsor_repro::topology::{NodeId, Topology};
use proptest::prelude::*;

/// One spec per new topology family, all resolved through the same
/// registry grammar the CLI and the plan server use.
fn family_specs() -> Vec<String> {
    vec![
        "dragonfly:2,3,2".to_owned(),
        "fattree:4".to_owned(),
        "fullmesh:6".to_owned(),
        format!(
            "file:{}/assets/topologies/wan5.topo",
            env!("CARGO_MANIFEST_DIR")
        ),
    ]
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

/// The full matrix, exhaustively: family × registered algorithm × 1–2
/// VCs. Grid-only baselines must refuse with the typed
/// `UnsupportedTopology`; the exploring framework must route.
#[test]
fn every_algorithm_on_every_graph_family_is_deadlock_free_or_typed() {
    let topologies = TopologyRegistry::standard();
    let algorithms = AlgorithmRegistry::standard();
    for spec in family_specs() {
        for vcs in 1u8..=2 {
            let topo = topologies.build_spec(&spec).expect("family specs build");
            let flows = shift_flows(&topo);
            let scenario = Scenario::builder(topo, flows)
                .named(format!("{spec}-shift-{vcs}vc"))
                .vcs(vcs)
                .build()
                .expect("family scenarios build");
            assert_eq!(
                scenario.cdg().name(),
                "up-down",
                "arbitrary graphs default to the up*/down* escape ordering"
            );
            for algo_name in algorithms.names() {
                let algorithm = algorithms.get(algo_name).expect("listed names resolve");
                match Planner::new().plan(&scenario, algorithm) {
                    Ok(plan) => {
                        assert_eq!(plan.routes().len(), scenario.flows().len());
                        assert!(
                            deadlock::is_deadlock_free(scenario.topology(), plan.routes(), vcs),
                            "{algo_name} on {spec} at {vcs} VCs returned a cyclic route set"
                        );
                    }
                    Err(PlanError::Algorithm(AlgorithmError::UnsupportedTopology { .. })) => {
                        // Dimension-order baselines legitimately refuse
                        // non-grid graphs; the framework may not.
                        assert!(
                            !algo_name.starts_with("bsor"),
                            "{algo_name} refused {spec}, which it must support"
                        );
                    }
                    Err(PlanError::Algorithm(AlgorithmError::Select(
                        SelectError::BudgetExceeded { links, max_links },
                    ))) => {
                        // The AC oblivious LP refuses graphs over its
                        // link budget — typed, and only from that
                        // algorithm.
                        assert_eq!(
                            algo_name, "ac-oblivious",
                            "only the LP selector carries a link budget"
                        );
                        assert!(links > max_links);
                    }
                    Err(other) => {
                        panic!("{algo_name} on {spec} at {vcs} VCs failed unexpectedly: {other}")
                    }
                }
            }
            // The one-VC run above is the escape-ordering path: with no
            // spare VC to break cycles, only the up*/down* rank keeps
            // every pair routable.
            let plan = Planner::new()
                .plan(&scenario, &BsorAlgorithm::dijkstra())
                .expect("bsor-dijkstra routes every graph family");
            assert!(deadlock::is_deadlock_free(
                scenario.topology(),
                plan.routes(),
                vcs
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random flow sets on random families stay deadlock-free through
    /// the same builder pipeline (node ids folded into each family's
    /// node count, self-loops dropped).
    #[test]
    fn random_flows_on_graph_families_stay_deadlock_free(
        family in 0usize..4,
        vcs in 1u8..=2,
        triples in prop::collection::vec((0u32..64, 0u32..64, 1.0..100.0f64), 1..16),
    ) {
        let spec = &family_specs()[family];
        let topo = TopologyRegistry::standard()
            .build_spec(spec)
            .expect("family specs build");
        let n = topo.num_nodes() as u32;
        let mut flows = FlowSet::new();
        for (s, d, dem) in &triples {
            let (s, d) = (s % n, d % n);
            if s != d {
                flows.push(NodeId(s), NodeId(d), *dem);
            }
        }
        if flows.is_empty() {
            flows.push(NodeId(0), NodeId(1), 1.0);
        }
        let scenario = Scenario::builder(topo, flows).vcs(vcs).build().expect("builds");
        let plan = Planner::new()
            .plan(&scenario, &BsorAlgorithm::dijkstra())
            .expect("bsor-dijkstra routes every graph family");
        let routes = plan.routes();
        prop_assert!(routes.validate(scenario.topology(), scenario.flows(), vcs).is_ok());
        prop_assert!(deadlock::is_deadlock_free(scenario.topology(), routes, vcs));
    }
}
