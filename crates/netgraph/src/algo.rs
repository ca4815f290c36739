//! Graph algorithms: topological sort, cycle detection and breaking,
//! strongly connected components, shortest paths, BFS hop counts, and
//! bounded simple-path enumeration.
//!
//! Two pairs of functions here compute the same thing at different
//! cost, and the cheaper one is pinned to the simpler one by
//! differential property tests:
//!
//! * [`dag_shortest_paths`] sweeps an acyclic graph once in topological
//!   order. It returns exactly what the binary-heap [`dijkstra`] returns
//!   when weights are positive and depend only on the head vertex.
//! * [`break_cycles`] removes the same edges, in the same order, as a
//!   loop of [`find_cycle`] plus [`DiGraph::remove_edge`], without
//!   restarting the search after each removal.

use crate::graph::{DiGraph, EdgeId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Error returned by [`toposort`] when the graph contains a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphCycleError {
    /// A node that participates in some cycle.
    pub node: NodeId,
}

impl fmt::Display for GraphCycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph contains a cycle through {}", self.node)
    }
}

impl Error for GraphCycleError {}

/// Kahn's algorithm. Returns a topological order of all nodes.
///
/// # Errors
///
/// Returns [`GraphCycleError`] naming a node on a cycle if the graph is
/// cyclic.
pub fn toposort<N, E>(g: &DiGraph<N, E>) -> Result<Vec<NodeId>, GraphCycleError> {
    let n = g.node_count();
    let mut indeg: Vec<usize> = (0..n).map(|i| g.in_degree(NodeId(i as u32))).collect();
    let mut queue: Vec<NodeId> = g.node_ids().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for s in g.successors(v) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let node = g
            .node_ids()
            .find(|&v| indeg[v.index()] > 0)
            .expect("a node with remaining in-degree exists when order is incomplete");
        Err(GraphCycleError { node })
    }
}

/// Returns `true` if the graph has no directed cycle.
pub fn is_acyclic<N, E>(g: &DiGraph<N, E>) -> bool {
    toposort(g).is_ok()
}

/// Finds one directed cycle, returned as the list of edge ids along it, or
/// `None` if the graph is acyclic.
///
/// The edges form a closed walk: the destination of each edge is the source
/// of the next, and the destination of the last is the source of the first.
pub fn find_cycle<N, E>(g: &DiGraph<N, E>) -> Option<Vec<EdgeId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = g.node_count();
    let mut color = vec![Color::White; n];
    // Iterative DFS; stack holds (node, next out-edge index).
    let mut path_edges: Vec<EdgeId> = Vec::new();
    for start in g.node_ids() {
        if color[start.index()] != Color::White {
            continue;
        }
        let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
        color[start.index()] = Color::Gray;
        while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
            let out = g.out_edges(v);
            if *idx < out.len() {
                let e = out[*idx];
                *idx += 1;
                let (_, w) = g.endpoints(e).expect("live edge in adjacency");
                match color[w.index()] {
                    Color::Gray => {
                        // Found a back edge; reconstruct the cycle from the
                        // current DFS path.
                        path_edges.push(e);
                        let first = path_edges
                            .iter()
                            .position(|&pe| g.endpoints(pe).expect("live edge").0 == w)
                            .expect("gray node is on the current DFS path");
                        return Some(path_edges[first..].to_vec());
                    }
                    Color::White => {
                        color[w.index()] = Color::Gray;
                        path_edges.push(e);
                        stack.push((w, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[v.index()] = Color::Black;
                stack.pop();
                path_edges.pop();
            }
        }
    }
    None
}

/// Removes edges until `g` is acyclic, one edge per cycle, and returns
/// how many it removed.
///
/// Each round hands `victim` the cycle [`find_cycle`] would report on
/// the current graph and removes the edge it returns, which must lie on
/// that cycle. The removed edges, the order of the calls to `victim` and
/// the final `out_edges`/`in_edges` order are therefore exactly those of
///
/// ```ignore
/// while let Some(cycle) = find_cycle(g) {
///     g.remove_edge(victim(&cycle));
/// }
/// ```
///
/// but the depth-first search is not restarted from node 0 after each
/// removal. It rewinds to just before the removed edge was read and
/// turns white again every node first greyed after that point. A fresh
/// search on the smaller graph would read the same edges up to that
/// point, because [`DiGraph::remove_edge`] only changes the tail's
/// out-list at and after the removed edge's position.
///
/// # Panics
///
/// Panics if `victim` returns an edge that is not on the cycle.
pub fn break_cycles<N, E>(
    g: &mut DiGraph<N, E>,
    mut victim: impl FnMut(&[EdgeId]) -> EdgeId,
) -> usize {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = g.node_count();
    let mut color = vec![Color::White; n];
    // Nodes in the order they were greyed; rewinding truncates it.
    let mut greyed: Vec<NodeId> = Vec::new();
    // DFS frames (node, next out-edge index). `path[i]` is the edge read
    // from `stack[i]` at index `stack[i].1 - 1`, and `marks[i]` is
    // `greyed.len()` just before it was read.
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    let mut path: Vec<EdgeId> = Vec::new();
    let mut marks: Vec<usize> = Vec::new();
    let mut removed = 0usize;
    for start in (0..n as u32).map(NodeId) {
        if color[start.index()] != Color::White {
            continue;
        }
        color[start.index()] = Color::Gray;
        greyed.push(start);
        stack.push((start, 0));
        while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
            let out = g.out_edges(v);
            if *idx >= out.len() {
                color[v.index()] = Color::Black;
                stack.pop();
                path.pop();
                marks.pop();
                continue;
            }
            let e = out[*idx];
            *idx += 1;
            let (_, w) = g.endpoints(e).expect("live edge in adjacency");
            match color[w.index()] {
                Color::White => {
                    path.push(e);
                    marks.push(greyed.len());
                    color[w.index()] = Color::Gray;
                    greyed.push(w);
                    stack.push((w, 0));
                }
                Color::Black => {}
                Color::Gray => {
                    path.push(e);
                    marks.push(greyed.len());
                    let first = path
                        .iter()
                        .position(|&pe| g.endpoints(pe).expect("live edge").0 == w)
                        .expect("gray node is on the current DFS path");
                    let doomed = victim(&path[first..]);
                    let i = first
                        + path[first..]
                            .iter()
                            .position(|&pe| pe == doomed)
                            .expect("victim must lie on the reported cycle");
                    g.remove_edge(doomed);
                    removed += 1;
                    // Rewind to just before `doomed` was read from
                    // `stack[i]`; the edge swapped into its slot is read
                    // next.
                    for u in greyed.drain(marks[i]..) {
                        color[u.index()] = Color::White;
                    }
                    stack.truncate(i + 1);
                    stack[i].1 -= 1;
                    path.truncate(i);
                    marks.truncate(i);
                }
            }
        }
    }
    removed
}

/// Tarjan's strongly connected components. Components are returned in
/// reverse topological order of the condensation.
pub fn tarjan_scc<N, E>(g: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    struct State {
        index: Vec<Option<u32>>,
        lowlink: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<NodeId>,
        next_index: u32,
        components: Vec<Vec<NodeId>>,
    }
    let n = g.node_count();
    let mut st = State {
        index: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        components: Vec::new(),
    };
    // Iterative Tarjan: frames of (v, next successor index).
    for root in g.node_ids() {
        if st.index[root.index()].is_some() {
            continue;
        }
        let mut frames: Vec<(NodeId, usize)> = vec![(root, 0)];
        st.index[root.index()] = Some(st.next_index);
        st.lowlink[root.index()] = st.next_index;
        st.next_index += 1;
        st.stack.push(root);
        st.on_stack[root.index()] = true;
        while let Some(&mut (v, ref mut i)) = frames.last_mut() {
            let out = g.out_edges(v);
            if *i < out.len() {
                let e = out[*i];
                *i += 1;
                let (_, w) = g.endpoints(e).expect("live edge");
                if st.index[w.index()].is_none() {
                    st.index[w.index()] = Some(st.next_index);
                    st.lowlink[w.index()] = st.next_index;
                    st.next_index += 1;
                    st.stack.push(w);
                    st.on_stack[w.index()] = true;
                    frames.push((w, 0));
                } else if st.on_stack[w.index()] {
                    let wi = st.index[w.index()].expect("visited");
                    if wi < st.lowlink[v.index()] {
                        st.lowlink[v.index()] = wi;
                    }
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    if st.lowlink[v.index()] < st.lowlink[parent.index()] {
                        st.lowlink[parent.index()] = st.lowlink[v.index()];
                    }
                }
                if st.lowlink[v.index()] == st.index[v.index()].expect("visited") {
                    let mut comp = Vec::new();
                    loop {
                        let w = st.stack.pop().expect("stack nonempty");
                        st.on_stack[w.index()] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    st.components.push(comp);
                }
            }
        }
    }
    st.components
}

#[derive(Clone, Copy, PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on dist via reversed comparison; ties broken on node id
        // for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a [`dijkstra`] run: distances and predecessor edges.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// `dist[v]` is the best known distance to `v` (`f64::INFINITY` if
    /// unreachable).
    pub dist: Vec<f64>,
    /// `pred[v]` is the edge by which `v` was reached on a best path.
    pub pred: Vec<Option<EdgeId>>,
}

impl ShortestPaths {
    /// Reconstructs the edge path from some source to `target`, or `None` if
    /// unreachable.
    pub fn path_to<N, E>(&self, g: &DiGraph<N, E>, target: NodeId) -> Option<Vec<EdgeId>> {
        if !self.dist[target.index()].is_finite() {
            return None;
        }
        let mut path = Vec::new();
        let mut v = target;
        while let Some(e) = self.pred[v.index()] {
            path.push(e);
            v = g.endpoints(e).expect("live edge").0;
        }
        path.reverse();
        Some(path)
    }
}

/// Multi-source Dijkstra with a caller-supplied non-negative edge weight
/// function.
///
/// `sources` supplies initial distances (typically 0.0). Edge weights are
/// evaluated lazily via `weight`, which must be non-negative.
///
/// Route selection runs on acyclic graphs and uses
/// [`dag_shortest_paths`]; this binary-heap version is kept as the
/// reference that kernel is tested against.
///
/// # Panics
///
/// Debug-asserts that weights are non-negative.
pub fn dijkstra<N, E>(
    g: &DiGraph<N, E>,
    sources: &[(NodeId, f64)],
    mut weight: impl FnMut(EdgeId) -> f64,
) -> ShortestPaths {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    for &(s, d0) in sources {
        if d0 < dist[s.index()] {
            dist[s.index()] = d0;
            heap.push(HeapItem { dist: d0, node: s });
        }
    }
    while let Some(HeapItem { dist: d, node: v }) = heap.pop() {
        if d > dist[v.index()] {
            continue;
        }
        for &e in g.out_edges(v) {
            let (_, w) = g.endpoints(e).expect("live edge");
            let we = weight(e);
            debug_assert!(we >= 0.0, "negative edge weight in dijkstra");
            let nd = d + we;
            if nd < dist[w.index()] {
                dist[w.index()] = nd;
                pred[w.index()] = Some(e);
                heap.push(HeapItem { dist: nd, node: w });
            }
        }
    }
    ShortestPaths { dist, pred }
}

/// Multi-source shortest paths on an acyclic graph whose edge weights
/// depend only on the head vertex, in one sweep over a topological
/// order.
///
/// `order` lists every node in a topological order and `rank[v]` is
/// `v`'s position in it. `sources` seeds distances as in [`dijkstra`];
/// an edge into `v` costs `weight(v)`, which must be positive. The sweep
/// covers the ranks from the lowest source to the highest target,
/// evaluating `weight` at most once per vertex it reaches.
///
/// For every node ranked at most the highest target, `dist` and `pred`
/// equal what [`dijkstra`] returns with the edge weight
/// `weight(head(e))`, bit for bit and tie for tie:
///
/// * `pred[v]` is the edge from the reachable in-neighbour with the
///   smallest `(dist, node id)`; among parallel edges from it, the first
///   in its out-edge order. The heap pops nodes in that order, and since
///   every edge into `v` costs the same, the first pop to relax `v` is
///   never beaten.
/// * A source keeps its seed distance, and no predecessor, unless that
///   edge strictly beats it.
///
/// Later nodes keep their seed distance (or infinity) and no
/// predecessor.
///
/// # Panics
///
/// Panics if `order` or `rank` does not cover every node.
pub fn dag_shortest_paths<N, E>(
    g: &DiGraph<N, E>,
    order: &[NodeId],
    rank: &[u32],
    sources: &[(NodeId, f64)],
    targets: &[NodeId],
    mut weight: impl FnMut(NodeId) -> f64,
) -> ShortestPaths {
    let n = g.node_count();
    assert!(
        order.len() == n && rank.len() == n,
        "topological order must cover every node"
    );
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    for &(s, d0) in sources {
        if d0 < dist[s.index()] {
            dist[s.index()] = d0;
        }
    }
    let lo = sources.iter().map(|&(s, _)| rank[s.index()]).min();
    let hi = targets.iter().map(|t| rank[t.index()]).max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return ShortestPaths { dist, pred };
    };
    // `tail[v]` is the tail of the candidate edge `pred[v]` while `v`
    // waits for its turn in the sweep.
    let mut tail = vec![NodeId(u32::MAX); n];
    for &v in order.get(lo as usize..=hi as usize).unwrap_or(&[]) {
        if pred[v.index()].is_some() {
            let wv = weight(v);
            debug_assert!(wv > 0.0, "non-positive weight in dag_shortest_paths");
            let nd = dist[tail[v.index()].index()] + wv;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
            } else {
                pred[v.index()] = None;
            }
        }
        let dv = dist[v.index()];
        if dv == f64::INFINITY {
            continue;
        }
        for &e in g.out_edges(v) {
            let (_, w) = g.endpoints(e).expect("live edge");
            debug_assert!(
                rank[w.index()] > rank[v.index()],
                "order is not topological"
            );
            if rank[w.index()] > hi {
                continue;
            }
            let beaten = match pred[w.index()] {
                None => true,
                Some(_) => {
                    let u = tail[w.index()];
                    (dv, v) < (dist[u.index()], u)
                }
            };
            if beaten {
                pred[w.index()] = Some(e);
                tail[w.index()] = v;
            }
        }
    }
    ShortestPaths { dist, pred }
}

/// Multi-source BFS hop distances (each edge counts 1).
///
/// Returns `usize::MAX` for unreachable nodes.
pub fn bfs_hops<N, E>(g: &DiGraph<N, E>, sources: &[NodeId]) -> Vec<usize> {
    let n = g.node_count();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in sources {
        if dist[s.index()] != 0 {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for w in g.successors(v) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Multi-source BFS over *reversed* edges: `dist[v]` is the hop count
/// from `v` forward to the nearest of `targets` (`usize::MAX` when no
/// target is reachable). Used as an admissible lower bound to prune
/// bounded path enumeration.
pub fn bfs_hops_to<N, E>(g: &DiGraph<N, E>, targets: &[NodeId]) -> Vec<usize> {
    let n = g.node_count();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for &t in targets {
        if dist[t.index()] != 0 {
            dist[t.index()] = 0;
            queue.push_back(t);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for w in g.predecessors(v) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Outcome of [`enumerate_paths`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnumerationOutcome {
    /// All simple paths within the bound were produced.
    Complete,
    /// Enumeration stopped early because `max_paths` was reached.
    Truncated,
}

/// Enumerates all simple paths (as edge sequences) from any node in
/// `sources` to any node satisfying `is_target`, with at most `max_edges`
/// edges per path and at most `max_paths` paths in total.
///
/// `to_target` supplies an admissible lower bound on the remaining hops
/// from a node to any target (e.g. from [`bfs_hops_to`]); subtrees that
/// cannot reach a target within the budget are pruned, which keeps the
/// enumeration polynomial-per-path instead of wandering into dead ends.
/// Pass `|_| 0` to disable pruning.
///
/// Paths are emitted through `emit`. Returns whether the enumeration was
/// exhaustive or truncated by `max_paths`.
///
/// A source node that is itself a target yields the empty path.
pub fn enumerate_paths<N, E>(
    g: &DiGraph<N, E>,
    sources: &[NodeId],
    mut is_target: impl FnMut(NodeId) -> bool,
    mut to_target: impl FnMut(NodeId) -> usize,
    max_edges: usize,
    max_paths: usize,
    mut emit: impl FnMut(&[EdgeId]),
) -> EnumerationOutcome {
    let n = g.node_count();
    let mut on_path = vec![false; n];
    let mut path: Vec<EdgeId> = Vec::new();
    let mut produced = 0usize;

    // Explicit DFS stack: (node, next out-edge index).
    for &s in sources {
        if produced >= max_paths {
            return EnumerationOutcome::Truncated;
        }
        if on_path[s.index()] {
            continue;
        }
        if is_target(s) {
            emit(&[]);
            produced += 1;
            if produced >= max_paths {
                return EnumerationOutcome::Truncated;
            }
        }
        if to_target(s) > max_edges {
            continue;
        }
        let mut stack: Vec<(NodeId, usize)> = vec![(s, 0)];
        on_path[s.index()] = true;
        while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
            let out = g.out_edges(v);
            if path.len() < max_edges && *idx < out.len() {
                let e = out[*idx];
                *idx += 1;
                let (_, w) = g.endpoints(e).expect("live edge");
                if on_path[w.index()] {
                    continue;
                }
                path.push(e);
                if is_target(w) {
                    emit(&path);
                    produced += 1;
                    if produced >= max_paths {
                        // Unwind bookkeeping before returning.
                        for &(u, _) in &stack {
                            on_path[u.index()] = false;
                        }
                        return EnumerationOutcome::Truncated;
                    }
                }
                // Prune subtrees that cannot reach any target in budget.
                let remaining = max_edges - path.len();
                if to_target(w) > remaining {
                    path.pop();
                    continue;
                }
                on_path[w.index()] = true;
                stack.push((w, 0));
            } else {
                on_path[v.index()] = false;
                stack.pop();
                path.pop();
            }
        }
        debug_assert!(path.is_empty());
    }
    EnumerationOutcome::Complete
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic_triangle() -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(c, a, ());
        g
    }

    #[test]
    fn toposort_linear_chain() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let order = toposort(&g).expect("chain is acyclic");
        assert_eq!(order, ids);
    }

    #[test]
    fn toposort_detects_cycle() {
        let g = cyclic_triangle();
        let err = toposort(&g).expect_err("triangle is cyclic");
        assert!(err.node.index() < 3);
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn find_cycle_returns_closed_walk() {
        let g = cyclic_triangle();
        let cyc = find_cycle(&g).expect("triangle has a cycle");
        assert_eq!(cyc.len(), 3);
        for i in 0..cyc.len() {
            let (_, d) = g.endpoints(cyc[i]).expect("edge");
            let (s, _) = g.endpoints(cyc[(i + 1) % cyc.len()]).expect("edge");
            assert_eq!(d, s, "cycle edges must chain");
        }
    }

    #[test]
    fn find_cycle_none_on_dag() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, c, ());
        assert!(find_cycle(&g).is_none());
        assert!(is_acyclic(&g));
    }

    #[test]
    fn scc_groups_cycle_nodes() {
        let mut g = cyclic_triangle();
        let d = g.add_node(());
        g.add_edge(NodeId(0), d, ());
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 2);
        let big = comps.iter().find(|c| c.len() == 3).expect("triangle scc");
        let mut big = big.clone();
        big.sort();
        assert_eq!(big, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn dijkstra_prefers_cheaper_path() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, 10.0);
        let e1 = g.add_edge(a, b, 1.0);
        let e2 = g.add_edge(b, c, 2.0);
        let sp = dijkstra(&g, &[(a, 0.0)], |e| *g.edge_data(e).expect("live"));
        assert_eq!(sp.dist[c.index()], 3.0);
        assert_eq!(sp.path_to(&g, c), Some(vec![e1, e2]));
    }

    #[test]
    fn dijkstra_multi_source() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(a, t, 5.0);
        g.add_edge(b, t, 1.0);
        let sp = dijkstra(&g, &[(a, 0.0), (b, 0.0)], |e| {
            *g.edge_data(e).expect("live")
        });
        assert_eq!(sp.dist[t.index()], 1.0);
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let sp = dijkstra(&g, &[(a, 0.0)], |_| 1.0);
        assert!(sp.dist[b.index()].is_infinite());
        assert_eq!(sp.path_to(&g, b), None);
    }

    #[test]
    fn dag_sweep_breaks_ties_like_the_heap() {
        // Two equal-cost routes a->b->d and a->c->d: the heap relaxes d
        // from b first (smaller id at equal distance), and so must the
        // sweep.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
        g.add_edge(a, c, ());
        let ab = g.add_edge(a, b, ());
        g.add_edge(c, d, ());
        let bd = g.add_edge(b, d, ());
        let order = toposort(&g).expect("acyclic");
        let mut rank = vec![0u32; 4];
        for (pos, v) in order.iter().enumerate() {
            rank[v.index()] = pos as u32;
        }
        let sp = dag_shortest_paths(&g, &order, &rank, &[(a, 1.0)], &[d], |_| 1.0);
        assert_eq!(sp.dist[d.index()], 3.0);
        assert_eq!(sp.path_to(&g, d), Some(vec![ab, bd]));
        let heap = dijkstra(&g, &[(a, 1.0)], |_| 1.0);
        assert_eq!(sp.pred, heap.pred);
        // No target, no sweep: only the seed survives.
        let none = dag_shortest_paths(&g, &order, &rank, &[(a, 1.0)], &[], |_| 1.0);
        assert_eq!(none.dist[a.index()], 1.0);
        assert!(none.dist[d.index()].is_infinite());
    }

    #[test]
    #[should_panic(expected = "victim must lie on the reported cycle")]
    fn break_cycles_rejects_an_off_cycle_victim() {
        let mut g = cyclic_triangle();
        let x = g.add_node(());
        let off = g.add_edge(NodeId(0), x, ());
        break_cycles(&mut g, |_| off);
    }

    #[test]
    fn bfs_hops_counts_edges() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[2], ());
        g.add_edge(ids[0], ids[2], ());
        let d = bfs_hops(&g, &[ids[0]]);
        assert_eq!(d[ids[0].index()], 0);
        assert_eq!(d[ids[2].index()], 1);
        assert_eq!(d[ids[3].index()], usize::MAX);
    }

    #[test]
    fn enumerate_paths_finds_all_simple_paths() {
        // a -> b -> d, a -> c -> d, a -> d
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, d, ());
        g.add_edge(a, c, ());
        g.add_edge(c, d, ());
        g.add_edge(a, d, ());
        let mut paths = Vec::new();
        let outcome = enumerate_paths(
            &g,
            &[a],
            |v| v == d,
            |_| 0,
            4,
            100,
            |p| paths.push(p.to_vec()),
        );
        assert_eq!(outcome, EnumerationOutcome::Complete);
        assert_eq!(paths.len(), 3);
        let mut lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        lens.sort();
        assert_eq!(lens, vec![1, 2, 2]);
    }

    #[test]
    fn bfs_hops_to_measures_forward_distance() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(d, c, ());
        let dist = bfs_hops_to(&g, &[c]);
        assert_eq!(dist[a.index()], 2);
        assert_eq!(dist[b.index()], 1);
        assert_eq!(dist[c.index()], 0);
        assert_eq!(dist[d.index()], 1);
    }

    #[test]
    fn pruned_enumeration_matches_unpruned() {
        // A long chain with a costly detour: pruning must not change the
        // emitted path set, only skip hopeless subtrees.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        // Detour from n1 to a dead-end spur.
        let spur = g.add_node(());
        g.add_edge(n[1], spur, ());
        let target = n[5];
        let mut plain = Vec::new();
        enumerate_paths(
            &g,
            &[n[0]],
            |v| v == target,
            |_| 0,
            5,
            100,
            |p| plain.push(p.to_vec()),
        );
        let dist = bfs_hops_to(&g, &[target]);
        let mut pruned = Vec::new();
        enumerate_paths(
            &g,
            &[n[0]],
            |v| v == target,
            |v| dist[v.index()],
            5,
            100,
            |p| pruned.push(p.to_vec()),
        );
        assert_eq!(plain, pruned);
        assert_eq!(pruned.len(), 1);
    }

    #[test]
    fn enumerate_paths_respects_hop_bound() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, d, ());
        g.add_edge(a, d, ());
        let mut count = 0;
        enumerate_paths(&g, &[a], |v| v == d, |_| 0, 1, 100, |_| count += 1);
        assert_eq!(count, 1, "only the direct edge fits in 1 hop");
    }

    #[test]
    fn enumerate_paths_truncates_at_cap() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let d = g.add_node(());
        for _ in 0..10 {
            g.add_edge(a, d, ());
        }
        let mut count = 0;
        let outcome = enumerate_paths(&g, &[a], |v| v == d, |_| 0, 3, 4, |_| count += 1);
        assert_eq!(outcome, EnumerationOutcome::Truncated);
        assert_eq!(count, 4);
    }

    #[test]
    fn enumerate_paths_avoids_revisiting_nodes() {
        // Cycle a->b->a plus exit b->t: simple paths a..t must not loop.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(b, t, ());
        let mut paths = Vec::new();
        let outcome = enumerate_paths(
            &g,
            &[a],
            |v| v == t,
            |_| 0,
            10,
            100,
            |p| paths.push(p.to_vec()),
        );
        assert_eq!(outcome, EnumerationOutcome::Complete);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
    }

    #[test]
    fn source_equal_target_yields_empty_path() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let mut count = 0;
        enumerate_paths(
            &g,
            &[a],
            |v| v == a,
            |_| 0,
            3,
            10,
            |p| {
                assert!(p.is_empty());
                count += 1;
            },
        );
        assert_eq!(count, 1);
    }
}
