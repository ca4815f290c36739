//! Differential property suite for the compact routing tables: across
//! topology family x algorithm x VC count x flow subset, the
//! interval-compressed [`CompactTables`] must route every flow
//! hop-for-hop identically to the dense [`NodeTables`] arena — the same
//! `(out_link, vcs)` projection at every chained entry, termination at
//! the same step, and the same full `walk_route` link sequence. Grid
//! families exercise the destination-keyed prefix path (and its
//! fall-back when randomized baselines conflict); the arbitrary-graph
//! families from the up*/down* CDG — dragonfly, fat-tree, full mesh,
//! hypercube, ring — exercise both keyings on non-grid link structure.

use bsor_cdg::AcyclicCdg;
use bsor_flow::{FlowNetwork, FlowSet};
use bsor_routing::selectors::{DijkstraSelector, RandomWalkSelector};
use bsor_routing::{Baseline, CompactTables, NodeTables, RouteSet, RouteTables};
use bsor_topology::{NodeId, Topology};
use proptest::prelude::*;

/// Seed-driven subset of the ordered node pairs: varying which flows
/// exist stresses exactly what the interval representation folds —
/// runs of destinations with gaps that are never queried.
fn subset_flows(topo: &Topology, stride: u32, offset: u32) -> FlowSet {
    let n = topo.num_nodes() as u32;
    let mut flows = FlowSet::new();
    for s in 0..n {
        for d in 0..n {
            if s != d && (s * n + d + offset) % stride == 0 {
                flows.push(NodeId(s), NodeId(d), 1.0 + f64::from((s + d) % 7));
            }
        }
    }
    if flows.is_empty() {
        flows.push(NodeId(0), NodeId(n - 1), 1.0);
    }
    flows
}

/// The differential oracle: dense and compact tables built from the
/// same route set must agree per hop and per walk for every flow.
fn assert_tables_match(topo: &Topology, flows: &FlowSet, routes: &RouteSet) {
    let dense = NodeTables::build(topo, routes);
    let compact = CompactTables::build(topo, routes);
    for f in flows.iter() {
        assert_eq!(
            compact.walk_route(topo, f.id, f.src),
            dense.walk_route(topo, f.id, f.src),
            "walk mismatch for flow {} under {}",
            f.id,
            compact.mode()
        );
        // Beyond walks: chain the cursors directly and compare the
        // routing-relevant projection of every entry, plus the step at
        // which each representation terminates.
        let mut node = f.src;
        let mut dc = Some(dense.initial_cursor(f.id));
        let mut cc = Some(compact.initial_cursor(f.id));
        while let (Some(d), Some(c)) = (dc, cc) {
            let de = dense.entry(node, d);
            let ce = compact.entry(node, c);
            assert_eq!(
                (de.out_link, de.vcs),
                (ce.out_link, ce.vcs),
                "entry mismatch at node {} for flow {} under {}",
                node.0,
                f.id,
                compact.mode()
            );
            assert_eq!(
                de.next_index.is_none(),
                ce.next_index.is_none(),
                "termination mismatch at node {} for flow {} under {}",
                node.0,
                f.id,
                compact.mode()
            );
            node = topo.link(de.out_link).dst;
            dc = de.next_index;
            cc = ce.next_index;
        }
        assert_eq!(dc, None, "dense walk outlived compact for flow {}", f.id);
        assert_eq!(cc, None, "compact walk outlived dense for flow {}", f.id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Grid families x the five baselines x VC count x flow subset.
    /// XY/YX are destination-consistent (prefix path); O1TURN, ROMM and
    /// Valiant route per flow and usually force the flow-keyed
    /// fall-back — both must stay hop-exact.
    #[test]
    fn grid_baselines_route_identically_in_compact_form(
        side in 3u16..=6,
        torus_sel in 0u8..2,
        algo_sel in 0u8..5,
        vcs_sel in 0u8..2,
        stride in 1u32..=5,
        offset in 0u32..7,
        seed in 0u64..100,
    ) {
        let topo = if torus_sel == 1 {
            Topology::torus2d(side, side)
        } else {
            Topology::mesh2d(side, side)
        };
        let vcs = if vcs_sel == 0 { 2 } else { 4 };
        let algo = match algo_sel {
            0 => Baseline::XY,
            1 => Baseline::YX,
            2 => Baseline::O1Turn { seed },
            3 => Baseline::Romm { seed },
            _ => Baseline::Valiant { seed },
        };
        let flows = subset_flows(&topo, stride, offset);
        let routes = algo.select(&topo, &flows, vcs).expect("baseline routes");
        assert_tables_match(&topo, &flows, &routes);
    }

    /// The arbitrary-graph families under the up*/down* CDG, routed by
    /// the Dijkstra selector (deterministic shortest conforming paths)
    /// and the detouring random walk (node revisits exercise the
    /// visit-keyed cursor space).
    #[test]
    fn cdg_selectors_on_arbitrary_graphs_route_identically(
        family in 0u8..5,
        selector in 0u8..2,
        vcs in 1u8..=2,
        stride in 1u32..=4,
        offset in 0u32..5,
        seed in 0u64..50,
    ) {
        let topo = match family {
            0 => bsor_topology::dragonfly(2, 3, 2).expect("valid"),
            1 => bsor_topology::fat_tree(4).expect("valid"),
            2 => bsor_topology::full_mesh(6).expect("valid"),
            3 => Topology::hypercube(3),
            _ => Topology::ring(7),
        };
        let acyclic = AcyclicCdg::up_down(&topo, vcs).expect("vcs >= 1");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = subset_flows(&topo, stride, offset);
        let routes = if selector == 0 {
            DijkstraSelector::new().select(&net, &flows).expect("routable")
        } else {
            RandomWalkSelector::new()
                .with_seed(seed)
                .select(&net, &flows)
                .expect("routable")
        };
        assert_tables_match(&topo, &flows, &routes);
    }
}
