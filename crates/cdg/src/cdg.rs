//! Construction of the (cyclic) channel dependence graph.

use bsor_netgraph::{DiGraph, NodeId as GraphNode};
use bsor_topology::{Direction, LinkId, NodeId, Topology};
use std::error::Error;
use std::fmt;

/// Identifier of a virtual channel within a physical channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(pub u8);

impl VcId {
    /// Dense index of the virtual channel.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

/// A CDG vertex: one virtual channel of one directed network channel.
///
/// Endpoint nodes and the grid direction are denormalized here so CDG
/// consumers don't need the topology at hand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CdgVertex {
    /// The physical channel.
    pub link: LinkId,
    /// The virtual channel within it.
    pub vc: VcId,
    /// Upstream node of the channel.
    pub src: NodeId,
    /// Downstream node of the channel.
    pub dst: NodeId,
    /// Grid direction, when the topology is a grid.
    pub direction: Option<Direction>,
}

/// Errors from CDG derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CdgError {
    /// A turn-model strategy was applied to a topology without grid
    /// directions (e.g. a ring).
    NotAGrid,
    /// The requested strategy left cycles in the CDG (e.g. an invalid
    /// two-turn combination, or a turn model on a torus).
    StillCyclic {
        /// Human-readable name of the strategy that failed.
        strategy: String,
    },
    /// Zero virtual channels were requested.
    NoVirtualChannels,
    /// The topology has grid directions but no deadlock-free two-turn
    /// model (e.g. a torus, whose wraparound channels close cycles every
    /// turn model leaves), so there is no turn-model skeleton to
    /// protect.
    NoValidTurnModel,
}

impl fmt::Display for CdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdgError::NotAGrid => {
                write!(
                    f,
                    "turn models require a grid topology with channel directions"
                )
            }
            CdgError::StillCyclic { strategy } => {
                write!(f, "strategy '{strategy}' does not break all CDG cycles")
            }
            CdgError::NoVirtualChannels => write!(f, "at least one virtual channel is required"),
            CdgError::NoValidTurnModel => {
                write!(f, "no two-turn model is deadlock-free on this topology")
            }
        }
    }
}

impl Error for CdgError {}

/// The channel dependence graph of a topology, possibly expanded over
/// multiple virtual channels.
///
/// With `vcs = z`, each physical channel contributes `z` vertices and each
/// permitted consecutive-channel pair contributes `z²` edges (a packet may
/// switch virtual channels at each hop), exactly as in paper §3.7.
#[derive(Clone, Debug)]
pub struct Cdg {
    graph: DiGraph<CdgVertex, ()>,
    vcs: u8,
    num_links: usize,
    /// `leaving[n]` / `entering[n]`: the links out of / into node `n`,
    /// in ascending link id.
    leaving: Vec<Vec<LinkId>>,
    entering: Vec<Vec<LinkId>>,
}

impl Cdg {
    /// Builds the full (cyclic) CDG of `topo` with `vcs` virtual channels
    /// per physical channel. 180° turns are never represented.
    ///
    /// # Panics
    ///
    /// Panics if `vcs == 0`.
    pub fn build(topo: &Topology, vcs: u8) -> Cdg {
        assert!(vcs >= 1, "at least one virtual channel is required");
        let mut graph = DiGraph::with_capacity(
            topo.num_links() * vcs as usize,
            topo.num_links() * vcs as usize * 3,
        );
        for l in topo.link_ids() {
            let link = topo.link(l);
            for vc in 0..vcs {
                graph.add_node(CdgVertex {
                    link: l,
                    vc: VcId(vc),
                    src: link.src,
                    dst: link.dst,
                    direction: link.direction,
                });
            }
        }
        let mut leaving = vec![Vec::new(); topo.num_nodes()];
        let mut entering = vec![Vec::new(); topo.num_nodes()];
        for l in topo.link_ids() {
            leaving[topo.link(l).src.index()].push(l);
            entering[topo.link(l).dst.index()].push(l);
        }
        let cdg = Cdg {
            graph,
            vcs,
            num_links: topo.num_links(),
            leaving,
            entering,
        };
        let mut edges: Vec<(GraphNode, GraphNode)> = Vec::new();
        for l1 in topo.link_ids() {
            let a = topo.link(l1);
            for &l2 in topo.out_links(a.dst) {
                let b = topo.link(l2);
                if b.dst == a.src {
                    continue; // 180° turn
                }
                for v1 in 0..vcs {
                    for v2 in 0..vcs {
                        edges.push((cdg.vertex_id(l1, VcId(v1)), cdg.vertex_id(l2, VcId(v2))));
                    }
                }
            }
        }
        let mut cdg = cdg;
        for (s, d) in edges {
            cdg.graph.add_edge(s, d, ());
        }
        cdg
    }

    /// Number of virtual channels per physical channel.
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// The underlying dependence graph.
    pub fn graph(&self) -> &DiGraph<CdgVertex, ()> {
        &self.graph
    }

    /// Mutable access to the dependence graph (for cycle-breaking).
    pub fn graph_mut(&mut self) -> &mut DiGraph<CdgVertex, ()> {
        &mut self.graph
    }

    /// Graph vertex id of `(link, vc)`.
    ///
    /// # Panics
    ///
    /// Panics if the link or vc index is out of range.
    pub fn vertex_id(&self, link: LinkId, vc: VcId) -> GraphNode {
        assert!(link.index() < self.num_links, "link out of range");
        assert!(vc.index() < self.vcs as usize, "vc out of range");
        GraphNode((link.index() * self.vcs as usize + vc.index()) as u32)
    }

    /// The `(link, vc)` payload of a graph vertex.
    pub fn vertex(&self, id: GraphNode) -> &CdgVertex {
        self.graph.node(id)
    }

    /// Vertices whose channel leaves network node `n` (per-flow source
    /// attachment points in the paper's flow-network derivation), in
    /// ascending vertex id. O(out-degree of `n` × VCs).
    pub fn vertices_leaving(&self, n: NodeId) -> Vec<GraphNode> {
        self.vertices_of(&self.leaving, n)
    }

    /// Vertices whose channel enters network node `n` (per-flow sink
    /// attachment points), in ascending vertex id. O(in-degree of `n` ×
    /// VCs).
    pub fn vertices_entering(&self, n: NodeId) -> Vec<GraphNode> {
        self.vertices_of(&self.entering, n)
    }

    /// Every VC vertex of node `n`'s links in `by_node` (none for a node
    /// outside the topology); ascending links give ascending ids.
    fn vertices_of(&self, by_node: &[Vec<LinkId>], n: NodeId) -> Vec<GraphNode> {
        by_node
            .get(n.index())
            .into_iter()
            .flatten()
            .flat_map(|&l| (0..self.vcs).map(move |vc| self.vertex_id(l, VcId(vc))))
            .collect()
    }

    /// The `(from, to)` grid directions of a dependence edge, if the
    /// topology is a grid.
    pub fn edge_turn(&self, src: GraphNode, dst: GraphNode) -> Option<(Direction, Direction)> {
        let a = self.graph.node(src).direction?;
        let b = self.graph.node(dst).direction?;
        Some((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_netgraph::algo;

    #[test]
    fn mesh3x3_cdg_shape() {
        // Paper Figure 3-1: vertices are the 24 directed channels.
        let t = Topology::mesh2d(3, 3);
        let cdg = Cdg::build(&t, 1);
        assert_eq!(cdg.graph().node_count(), 24);
        // Turn pairs: corners contribute 2, edges 6, center 12.
        assert_eq!(cdg.graph().edge_count(), 4 * 2 + 4 * 6 + 12);
        // The raw CDG is cyclic (paper: "Note that the CDG has cycles").
        assert!(!algo::is_acyclic(cdg.graph()));
    }

    #[test]
    fn no_180_degree_edges() {
        let t = Topology::mesh2d(4, 4);
        let cdg = Cdg::build(&t, 1);
        for (_, s, d, _) in cdg.graph().edges() {
            let a = cdg.vertex(s);
            let b = cdg.vertex(d);
            assert_eq!(a.dst, b.src, "edges join consecutive channels");
            assert_ne!(b.dst, a.src, "no 180 degree turns");
        }
    }

    #[test]
    fn vc_expansion_squares_edges() {
        // Paper Figure 3-6(a): 2x2 mesh, z = 2.
        let t = Topology::mesh2d(2, 2);
        let base = Cdg::build(&t, 1);
        let expanded = Cdg::build(&t, 2);
        assert_eq!(expanded.graph().node_count(), base.graph().node_count() * 2);
        assert_eq!(expanded.graph().edge_count(), base.graph().edge_count() * 4);
    }

    #[test]
    fn vertex_id_roundtrip() {
        let t = Topology::mesh2d(3, 3);
        let cdg = Cdg::build(&t, 2);
        for l in t.link_ids() {
            for vc in 0..2 {
                let id = cdg.vertex_id(l, VcId(vc));
                let v = cdg.vertex(id);
                assert_eq!(v.link, l);
                assert_eq!(v.vc, VcId(vc));
                let link = t.link(l);
                assert_eq!(v.src, link.src);
                assert_eq!(v.dst, link.dst);
            }
        }
    }

    #[test]
    fn leaving_and_entering_sets() {
        let t = Topology::mesh2d(3, 3);
        let cdg = Cdg::build(&t, 1);
        let corner = t.node_at(0, 0).expect("in range");
        assert_eq!(cdg.vertices_leaving(corner).len(), 2);
        assert_eq!(cdg.vertices_entering(corner).len(), 2);
        let center = t.node_at(1, 1).expect("in range");
        assert_eq!(cdg.vertices_leaving(center).len(), 4);
        assert_eq!(cdg.vertices_entering(center).len(), 4);
    }

    #[test]
    fn attachment_points_match_a_full_scan() {
        // The grouped adjacency must return exactly what scanning every
        // vertex does, in the same ascending order.
        for (t, vcs) in [
            (Topology::mesh2d(4, 3), 2),
            (Topology::torus2d(3, 3), 3),
            (Topology::ring(5), 1),
        ] {
            let cdg = Cdg::build(&t, vcs);
            for n in t.node_ids() {
                let scan = |f: &dyn Fn(&CdgVertex) -> bool| -> Vec<GraphNode> {
                    cdg.graph()
                        .nodes()
                        .filter(|(_, v)| f(v))
                        .map(|(id, _)| id)
                        .collect()
                };
                assert_eq!(cdg.vertices_leaving(n), scan(&|v| v.src == n));
                assert_eq!(cdg.vertices_entering(n), scan(&|v| v.dst == n));
            }
            assert!(cdg.vertices_leaving(NodeId(999)).is_empty());
        }
    }

    #[test]
    fn ring_cdg_builds_without_directions() {
        let t = Topology::ring(5);
        let cdg = Cdg::build(&t, 1);
        assert_eq!(cdg.graph().node_count(), 10);
        // Each channel has exactly one non-180° continuation.
        assert_eq!(cdg.graph().edge_count(), 10);
        let (s, d) = {
            let mut it = cdg.graph().edges();
            let (_, s, d, _) = it.next().expect("has edges");
            (s, d)
        };
        assert_eq!(cdg.edge_turn(s, d), None);
    }

    #[test]
    fn error_display() {
        assert!(!CdgError::NotAGrid.to_string().is_empty());
        assert!(!CdgError::NoVirtualChannels.to_string().is_empty());
        assert!(!CdgError::NoValidTurnModel.to_string().is_empty());
        let e = CdgError::StillCyclic {
            strategy: "x".into(),
        };
        assert!(e.to_string().contains('x'));
    }
}
