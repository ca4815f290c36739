//! Property-based tests for the graph substrate.

use bsor_netgraph::{algo, DiGraph, NodeId};
use proptest::prelude::*;

/// Builds a random DAG: edges only go from lower to higher node index.
fn arbitrary_dag(nodes: usize) -> impl Strategy<Value = DiGraph<(), ()>> {
    prop::collection::vec((0..nodes as u32, 0..nodes as u32), 0..nodes * 3).prop_map(move |pairs| {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        for _ in 0..nodes {
            g.add_node(());
        }
        for (a, b) in pairs {
            let (lo, hi) = (a.min(b), a.max(b));
            if lo != hi {
                g.add_edge(NodeId(lo), NodeId(hi), ());
            }
        }
        g
    })
}

/// Builds a random digraph that may contain cycles.
fn arbitrary_digraph(nodes: usize) -> impl Strategy<Value = DiGraph<(), ()>> {
    prop::collection::vec((0..nodes as u32, 0..nodes as u32), 0..nodes * 3).prop_map(move |pairs| {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        for _ in 0..nodes {
            g.add_node(());
        }
        for (a, b) in pairs {
            if a != b {
                g.add_edge(NodeId(a), NodeId(b), ());
            }
        }
        g
    })
}

proptest! {
    #[test]
    fn toposort_respects_every_edge(g in arbitrary_dag(12)) {
        let order = algo::toposort(&g).expect("index-increasing graphs are acyclic");
        let mut rank = vec![0usize; g.node_count()];
        for (pos, v) in order.iter().enumerate() {
            rank[v.index()] = pos;
        }
        for (_, s, d, _) in g.edges() {
            prop_assert!(rank[s.index()] < rank[d.index()]);
        }
    }

    #[test]
    fn find_cycle_agrees_with_toposort(g in arbitrary_digraph(10)) {
        let cyc = algo::find_cycle(&g);
        prop_assert_eq!(cyc.is_none(), algo::toposort(&g).is_ok());
        if let Some(edges) = cyc {
            prop_assert!(!edges.is_empty());
            for i in 0..edges.len() {
                let (_, d) = g.endpoints(edges[i]).expect("live");
                let (s, _) = g.endpoints(edges[(i + 1) % edges.len()]).expect("live");
                prop_assert_eq!(d, s, "cycle edges chain");
            }
        }
    }

    #[test]
    fn removing_cycle_edges_terminates_acyclic(g in arbitrary_digraph(10)) {
        let mut g = g;
        let mut guard = 0;
        while let Some(cycle) = algo::find_cycle(&g) {
            g.remove_edge(cycle[0]);
            guard += 1;
            prop_assert!(guard <= 1000, "cycle breaking must terminate");
        }
        prop_assert!(algo::is_acyclic(&g));
    }

    #[test]
    fn dijkstra_distances_satisfy_triangle_inequality(
        g in arbitrary_digraph(10),
        weights in prop::collection::vec(0.0..10.0f64, 0..300),
    ) {
        let w = |e: bsor_netgraph::EdgeId| {
            weights.get(e.index()).copied().unwrap_or(1.0)
        };
        let sp = algo::dijkstra(&g, &[(NodeId(0), 0.0)], w);
        for (e, s, d, _) in g.edges() {
            if sp.dist[s.index()].is_finite() {
                prop_assert!(
                    sp.dist[d.index()] <= sp.dist[s.index()] + w(e) + 1e-9,
                    "relaxed edge violates optimality"
                );
            }
        }
    }

    #[test]
    fn dijkstra_path_cost_matches_distance(
        g in arbitrary_dag(10),
        weights in prop::collection::vec(0.1..10.0f64, 0..300),
    ) {
        let w = |e: bsor_netgraph::EdgeId| {
            weights.get(e.index()).copied().unwrap_or(1.0)
        };
        let sp = algo::dijkstra(&g, &[(NodeId(0), 0.0)], w);
        for v in g.node_ids() {
            if let Some(path) = sp.path_to(&g, v) {
                let cost: f64 = path.iter().map(|&e| w(e)).sum();
                prop_assert!((cost - sp.dist[v.index()]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn enumeration_counts_match_bfs_reachability(g in arbitrary_dag(8)) {
        // If BFS says unreachable within k hops, enumeration with bound k
        // must produce nothing, and vice versa.
        let hops = algo::bfs_hops(&g, &[NodeId(0)]);
        for v in g.node_ids() {
            if v == NodeId(0) {
                continue;
            }
            let mut count = 0;
            algo::enumerate_paths(&g, &[NodeId(0)], |x| x == v, |_| 0, g.node_count(), 10_000, |_| {
                count += 1
            });
            prop_assert_eq!(
                count > 0,
                hops[v.index()] != usize::MAX,
                "enumeration and BFS disagree on reachability"
            );
        }
    }
}
