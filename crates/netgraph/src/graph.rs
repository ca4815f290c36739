//! A directed multigraph with stable node ids and removable edges.
//!
//! Nodes are never removed (CDG vertices are fixed by the topology); edges
//! can be removed, which is the core operation when deriving acyclic CDGs.

use std::fmt;

/// Identifier of a node in a [`DiGraph`].
///
/// Node ids are dense indices assigned in insertion order and remain valid
/// for the lifetime of the graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an edge in a [`DiGraph`].
///
/// Edge ids are assigned in insertion order. A removed edge's id is never
/// reused, and accessing it after removal yields `None` from
/// [`DiGraph::edge`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Returns the id as a dense `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the id as a dense `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct EdgeRecord<E> {
    src: NodeId,
    dst: NodeId,
    data: E,
}

/// A directed multigraph with node payloads `N` and edge payloads `E`.
///
/// Storage is adjacency-list based with both out- and in-neighbour lists so
/// that CDG predecessor queries are O(degree).
#[derive(Clone, Debug, Default)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Option<EdgeRecord<E>>>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
    live_edges: usize,
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            live_edges: 0,
        }
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
            live_edges: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (non-removed) edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, data: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(data);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge `src -> dst` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, data: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "src out of bounds");
        assert!(dst.index() < self.nodes.len(), "dst out of bounds");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Some(EdgeRecord { src, dst, data }));
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        self.live_edges += 1;
        id
    }

    /// Removes an edge; returns its payload if it was live.
    pub fn remove_edge(&mut self, edge: EdgeId) -> Option<E> {
        let rec = self.edges.get_mut(edge.index())?.take()?;
        let out = &mut self.out_adj[rec.src.index()];
        if let Some(pos) = out.iter().position(|&e| e == edge) {
            out.swap_remove(pos);
        }
        let inc = &mut self.in_adj[rec.dst.index()];
        if let Some(pos) = inc.iter().position(|&e| e == edge) {
            inc.swap_remove(pos);
        }
        self.live_edges -= 1;
        Some(rec.data)
    }

    /// Returns `(src, dst, &data)` for a live edge.
    pub fn edge(&self, edge: EdgeId) -> Option<(NodeId, NodeId, &E)> {
        self.edges
            .get(edge.index())
            .and_then(|r| r.as_ref())
            .map(|r| (r.src, r.dst, &r.data))
    }

    /// Returns the endpoints of a live edge.
    pub fn endpoints(&self, edge: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edge(edge).map(|(s, d, _)| (s, d))
    }

    /// Returns a reference to the node payload.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn node(&self, node: NodeId) -> &N {
        &self.nodes[node.index()]
    }

    /// Returns a reference to a live edge's payload.
    pub fn edge_data(&self, edge: EdgeId) -> Option<&E> {
        self.edge(edge).map(|(_, _, d)| d)
    }

    /// Iterates over node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over `(id, &payload)` pairs for all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over ids of live edges.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| EdgeId(i as u32)))
    }

    /// Iterates over `(id, src, dst, &payload)` for live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        self.edges.iter().enumerate().filter_map(|(i, r)| {
            r.as_ref()
                .map(|rec| (EdgeId(i as u32), rec.src, rec.dst, &rec.data))
        })
    }

    /// Out-edges of `node` (live only).
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_adj[node.index()]
    }

    /// In-edges of `node` (live only).
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_adj[node.index()]
    }

    /// Successor node ids of `node` (with multiplicity for multi-edges).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[node.index()]
            .iter()
            .filter_map(move |&e| self.endpoints(e).map(|(_, d)| d))
    }

    /// Predecessor node ids of `node` (with multiplicity for multi-edges).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_adj[node.index()]
            .iter()
            .filter_map(move |&e| self.endpoints(e).map(|(s, _)| s))
    }

    /// Returns the first live edge `src -> dst` if any.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_adj[src.index()]
            .iter()
            .copied()
            .find(|&e| self.endpoints(e).map(|(_, d)| d) == Some(dst))
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_adj[node.index()].len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_adj[node.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<u32, &'static str>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        let d = g.add_node(3);
        g.add_edge(a, b, "ab");
        g.add_edge(a, c, "ac");
        g.add_edge(b, d, "bd");
        g.add_edge(c, d, "cd");
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(a), 0);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        let e = g.find_edge(a, b).expect("edge ab");
        assert_eq!(g.edge(e).map(|(_, _, d)| *d), Some("ab"));
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let (mut g, [a, b, _c, d]) = diamond();
        let e = g.find_edge(a, b).expect("edge ab");
        assert_eq!(g.remove_edge(e), Some("ab"));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 0);
        assert!(g.find_edge(a, b).is_none());
        // id is not reused and now resolves to nothing
        assert!(g.edge(e).is_none());
        assert_eq!(g.remove_edge(e), None);
        assert_eq!(g.in_degree(d), 2);
    }

    #[test]
    fn successors_and_predecessors() {
        let (g, [a, b, c, d]) = diamond();
        let mut succ: Vec<_> = g.successors(a).collect();
        succ.sort();
        assert_eq!(succ, vec![b, c]);
        let mut pred: Vec<_> = g.predecessors(d).collect();
        pred.sort();
        assert_eq!(pred, vec![b, c]);
    }

    #[test]
    fn multigraph_edges_supported() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(a).count(), 2);
    }

    #[test]
    fn debug_formats_are_nonempty() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", EdgeId(7)), "e7");
        assert_eq!(format!("{}", NodeId(3)), "n3");
    }
}
