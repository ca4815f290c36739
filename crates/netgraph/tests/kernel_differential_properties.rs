//! Differential property tests for the linear-time route-selection
//! kernels against the simple algorithms they replace.
//!
//! * `algo::dag_shortest_paths` against the binary-heap
//!   `algo::dijkstra` plus the first-minimum sink rule of route
//!   selection, on random DAGs whose node ids are not a topological
//!   order, with head-only weights from {1, 2, 3} so ties are common.
//! * `algo::break_cycles` against the `find_cycle` + `remove_edge`
//!   loop, on random digraphs with self-loops and parallel edges and
//!   random victim choices.
//!
//! Both kernels promise exact equality, not approximate agreement:
//! same distances bit for bit, same predecessor edges, same removed
//! edges, same adjacency order.

use bsor_netgraph::{algo, DiGraph, EdgeId, NodeId};
use proptest::prelude::*;

/// Inputs of one shortest-path case.
#[derive(Clone, Debug)]
struct DagCase {
    graph: DiGraph<(), ()>,
    weights: Vec<u32>,
    sources: Vec<(NodeId, f64)>,
    targets: Vec<NodeId>,
}

/// A random DAG, possibly with parallel edges: edges run forward along a
/// hidden random permutation of the nodes, so ids and ranks disagree.
fn dag_case() -> impl Strategy<Value = DagCase> {
    (2usize..16).prop_flat_map(|n| {
        (
            prop::collection::vec(0u32..1_000, n),
            prop::collection::vec((0..n as u32, 0..n as u32), 0..n * 3),
            prop::collection::vec(1u32..4, n),
            prop::collection::vec((0..n as u32, 1u32..7), 1..4),
            prop::collection::vec(0..n as u32, 1..5),
        )
            .prop_map(move |(keys, pairs, weights, sources, targets)| {
                let mut hidden: Vec<u32> = (0..n as u32).collect();
                hidden.sort_by_key(|&v| (keys[v as usize], v));
                let mut graph: DiGraph<(), ()> = DiGraph::new();
                for _ in 0..n {
                    graph.add_node(());
                }
                for (a, b) in pairs {
                    let (lo, hi) = (a.min(b), a.max(b));
                    if lo != hi {
                        graph.add_edge(
                            NodeId(hidden[lo as usize]),
                            NodeId(hidden[hi as usize]),
                            (),
                        );
                    }
                }
                DagCase {
                    graph,
                    weights,
                    sources: sources
                        .into_iter()
                        .map(|(s, seed)| (NodeId(s), f64::from(seed)))
                        .collect(),
                    targets: targets.into_iter().map(NodeId).collect(),
                }
            })
    })
}

/// Route selection's sink rule: the first target, in the given order,
/// at the minimum finite distance.
fn first_min_sink(sp: &algo::ShortestPaths, targets: &[NodeId]) -> Option<NodeId> {
    targets
        .iter()
        .copied()
        .filter(|v| sp.dist[v.index()].is_finite())
        .min_by(|a, b| {
            sp.dist[a.index()]
                .partial_cmp(&sp.dist[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
}

/// A random digraph with self-loops and parallel edges.
fn cyclic_graph() -> impl Strategy<Value = DiGraph<(), ()>> {
    (1usize..12).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..n * 4).prop_map(move |pairs| {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            for _ in 0..n {
                g.add_node(());
            }
            for (a, b) in pairs {
                g.add_edge(NodeId(a), NodeId(b), ());
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dag_sweep_equals_heap_dijkstra(case in dag_case()) {
        let g = &case.graph;
        let order = algo::toposort(g).expect("forward edges are acyclic");
        let mut rank = vec![0u32; g.node_count()];
        for (pos, v) in order.iter().enumerate() {
            rank[v.index()] = pos as u32;
        }
        let w = |v: NodeId| f64::from(case.weights[v.index()]);
        let sweep =
            algo::dag_shortest_paths(g, &order, &rank, &case.sources, &case.targets, w);
        let heap = algo::dijkstra(g, &case.sources, |e: EdgeId| {
            w(g.endpoints(e).expect("live edge").1)
        });
        let hi = case.targets.iter().map(|t| rank[t.index()]).max().expect("targets");
        for v in g.node_ids().filter(|v| rank[v.index()] <= hi) {
            prop_assert_eq!(
                sweep.dist[v.index()].to_bits(),
                heap.dist[v.index()].to_bits(),
                "dist of {}", v
            );
            prop_assert_eq!(sweep.pred[v.index()], heap.pred[v.index()], "pred of {}", v);
        }
        let sink = first_min_sink(&sweep, &case.targets);
        prop_assert_eq!(sink, first_min_sink(&heap, &case.targets));
        if let Some(sink) = sink {
            prop_assert_eq!(sweep.path_to(g, sink), heap.path_to(g, sink));
        }
    }

    #[test]
    fn break_cycles_equals_restarting_find_cycle(
        g in cyclic_graph(),
        choices in prop::collection::vec(0usize..1_000, 1..64),
    ) {
        let pick = |k: usize, cycle: &[EdgeId]| cycle[choices[k % choices.len()] % cycle.len()];
        // Every reported cycle, with the victim chosen on it.
        let mut fresh = g.clone();
        let mut expected: Vec<(Vec<EdgeId>, EdgeId)> = Vec::new();
        while let Some(cycle) = algo::find_cycle(&fresh) {
            let e = pick(expected.len(), &cycle);
            fresh.remove_edge(e);
            expected.push((cycle, e));
        }
        let mut resumed = g;
        let mut got: Vec<(Vec<EdgeId>, EdgeId)> = Vec::new();
        let removed = algo::break_cycles(&mut resumed, |cycle| {
            let e = pick(got.len(), cycle);
            got.push((cycle.to_vec(), e));
            e
        });
        prop_assert_eq!(removed, expected.len());
        prop_assert_eq!(&got, &expected);
        prop_assert!(algo::is_acyclic(&resumed));
        for v in resumed.node_ids() {
            prop_assert_eq!(resumed.out_edges(v), fresh.out_edges(v), "out-edges of {}", v);
            prop_assert_eq!(resumed.in_edges(v), fresh.in_edges(v), "in-edges of {}", v);
        }
    }
}
