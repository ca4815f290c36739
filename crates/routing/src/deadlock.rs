//! Deadlock-freedom checking for computed route sets.
//!
//! Per the paper's Lemma 1 (Dally & Aoki), a routing is deadlock-free iff
//! the channel dependence graph restricted to the dependencies its routes
//! actually create is acyclic. This module rebuilds that restricted CDG
//! from a [`RouteSet`] — conservatively expanding each hop's VC mask — and
//! checks acyclicity.
//!
//! The builder is linear in the routes' hops. A dependence from channel
//! `(l, v1)` can only enter an out-link of `l`'s head node, so one bit
//! per `(l, v1, out-port of head(l), v2)` turn deduplicates the
//! dependences exactly. Each new one is appended to a flat edge list in
//! order of first occurrence. Kahn's algorithm then sorts a CSR built
//! from that list by a stable counting sort. It seeds and pops its
//! stack exactly as `algo::toposort` does on a `DiGraph` with the same
//! insertion order, so the ranks are the ones that graph would give.
//! Only a route set that is not deadlock-free builds a `DiGraph`, to
//! report the cycle `algo::find_cycle` finds in it.
//!
//! [`DeadlockCertificate::verify`] shares none of this: it re-walks the
//! routes and checks every dependence against the stored ranks, so a
//! bug in the builder cannot hide from its own check.

use crate::route::RouteSet;
use bsor_netgraph::{algo, DiGraph};
use bsor_topology::{NodeId, Topology};

/// The dependence edges `routes` induce between the `(channel, VC)`
/// slots `link * vcs + vc` (the restricted CDG of Lemma 1), each once,
/// in order of first occurrence.
///
/// # Panics
///
/// Panics, naming the flow and hop, if a hop's VC mask does not fit
/// `vcs` or a hop does not start where the previous one ends.
fn dependences(topo: &Topology, routes: &RouteSet, vcs: u8) -> Vec<(u32, u32)> {
    let nv = vcs as usize;
    // port[l]: position of l in out_links(tail(l)). turn_base[l]: the
    // first of l's turns, one per out-link of head(l).
    let mut port = vec![0u32; topo.num_links()];
    for n in 0..topo.num_nodes() {
        for (p, &l) in topo.out_links(NodeId(n as u32)).iter().enumerate() {
            port[l.index()] = p as u32;
        }
    }
    let mut turn_base = Vec::with_capacity(topo.num_links());
    let mut turns = 0usize;
    for l in topo.link_ids() {
        turn_base.push(turns);
        turns += topo.out_links(topo.link(l).dst).len();
    }
    let mut seen = vec![0u64; (turns * nv * nv).div_ceil(64)];
    let mut edges = Vec::new();
    for r in routes.iter() {
        for (i, hop) in r.hops.iter().enumerate() {
            assert!(
                hop.vcs.fits(vcs),
                "route for {} hop {i}: VC mask {:?} does not fit {vcs} VCs \
                 (routes must pass RouteSet::validate with the same vcs)",
                r.flow,
                hop.vcs
            );
        }
        for (i, pair) in r.hops.windows(2).enumerate() {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                topo.link(a.link).dst == topo.link(b.link).src,
                "route for {} hop {} does not start where hop {i} ends \
                 (routes must pass RouteSet::validate)",
                r.flow,
                i + 1
            );
            let (l1, l2) = (a.link.index(), b.link.index());
            let turn = (turn_base[l1] + port[l2] as usize) * nv * nv;
            for v1 in a.vcs.iter() {
                for v2 in b.vcs.iter() {
                    let bit = turn + v1 as usize * nv + v2 as usize;
                    let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                    if seen[word] & mask == 0 {
                        seen[word] |= mask;
                        edges.push((
                            (l1 * nv + v1 as usize) as u32,
                            (l2 * nv + v2 as usize) as u32,
                        ));
                    }
                }
            }
        }
    }
    edges
}

/// Ranks the `slots` vertices of the graph `edges` lists in a
/// topological order, or `None` if the graph has a cycle.
///
/// Kahn's algorithm on a CSR whose successor lists keep the edges'
/// order. The stack is seeded in ascending slot order and popped from
/// the back, as `algo::toposort` does on a `DiGraph` built by adding
/// `edges` in order, so the order is that graph's.
fn topological_ranks(slots: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    // Stable counting sort by source: after the reverse placement
    // pass, offsets[s]..offsets[s + 1] holds s's successors in order.
    let mut offsets = vec![0u32; slots + 1];
    let mut indegree = vec![0u32; slots];
    for &(s, d) in edges {
        offsets[s as usize] += 1;
        indegree[d as usize] += 1;
    }
    let mut end = 0;
    for o in &mut offsets[..slots] {
        end += *o;
        *o = end;
    }
    offsets[slots] = end;
    let mut successors = vec![0u32; edges.len()];
    for &(s, d) in edges.iter().rev() {
        offsets[s as usize] -= 1;
        successors[offsets[s as usize] as usize] = d;
    }
    let mut stack: Vec<u32> = (0..slots as u32)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    let mut rank = vec![0u32; slots];
    let mut placed = 0u32;
    while let Some(v) = stack.pop() {
        let v = v as usize;
        rank[v] = placed;
        placed += 1;
        for &s in &successors[offsets[v] as usize..offsets[v + 1] as usize] {
            indegree[s as usize] -= 1;
            if indegree[s as usize] == 0 {
                stack.push(s);
            }
        }
    }
    (placed as usize == slots).then_some(rank)
}

/// The cycle `algo::find_cycle` reports in the graph `edges` lists, as
/// `(link index, vc)` pairs in cycle order.
///
/// # Panics
///
/// Panics if the graph is acyclic.
fn dependence_cycle(slots: usize, vcs: u8, edges: &[(u32, u32)]) -> Vec<(usize, u8)> {
    let mut g: DiGraph<(), ()> = DiGraph::with_capacity(slots, edges.len());
    for _ in 0..slots {
        g.add_node(());
    }
    for &(s, d) in edges {
        g.add_edge(bsor_netgraph::NodeId(s), bsor_netgraph::NodeId(d), ());
    }
    let nv = vcs as usize;
    algo::find_cycle(&g)
        .expect("the topological sort stalled, so the graph has a cycle")
        .iter()
        .map(|&e| {
            let s = g.endpoints(e).expect("live edge").0.index();
            (s / nv, (s % nv) as u8)
        })
        .collect()
}

/// A checkable witness of Lemma-1 deadlock freedom.
///
/// The certificate carries a topological rank for every `(channel, VC)`
/// vertex of the dependence graph the routes induce; acyclicity follows
/// from every dependence strictly increasing the rank, which
/// [`DeadlockCertificate::verify`] re-checks in one pass over the routes
/// without rebuilding or re-sorting the graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockCertificate {
    vcs: u8,
    /// `rank[link * vcs + vc]` — position in a topological order of the
    /// induced CDG.
    rank: Vec<u32>,
    dependencies: usize,
}

impl DeadlockCertificate {
    /// Virtual channels the certified routing runs on.
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// Number of distinct channel dependencies the routes induce.
    pub fn dependencies(&self) -> usize {
        self.dependencies
    }

    /// The topological rank of every `(channel, VC)` vertex, indexed
    /// `link * vcs + vc`.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// Re-checks the witness against `routes`: every dependence edge the
    /// routes create must strictly increase the stored topological rank
    /// (and every hop must stay inside the certified VC range).
    pub fn verify(&self, routes: &RouteSet) -> bool {
        let nv = self.vcs as usize;
        let rank = |l: usize, v: u8| self.rank.get(l * nv + v as usize);
        for r in routes.iter() {
            if !r.hops.iter().all(|hop| hop.vcs.fits(self.vcs)) {
                return false;
            }
            for pair in r.hops.windows(2) {
                for v1 in pair[0].vcs.iter() {
                    for v2 in pair[1].vcs.iter() {
                        match (
                            rank(pair[0].link.index(), v1),
                            rank(pair[1].link.index(), v2),
                        ) {
                            (Some(a), Some(b)) if a < b => {}
                            _ => return false,
                        }
                    }
                }
            }
        }
        true
    }
}

/// Proves `routes` deadlock-free (paper Lemma 1) by topologically
/// sorting the induced channel dependence graph, returning the order as
/// a reusable [`DeadlockCertificate`].
///
/// Every consecutive hop pair `(h1, h2)` of every route contributes the
/// dependence edges `{(h1.link, v1) -> (h2.link, v2) | v1 ∈ h1.vcs, v2 ∈
/// h2.vcs}`. This is conservative for dynamically allocated VCs: if the
/// expanded graph is acyclic, the routing is deadlock-free under any
/// run-time VC choice within the masks.
///
/// `routes` must pass [`RouteSet::validate`] with the same `vcs`.
///
/// # Errors
///
/// The dependence cycle, as `(link index, vc)` pairs in cycle order,
/// when the routing is *not* deadlock-free.
///
/// # Panics
///
/// Panics, naming the flow and hop, if a hop's VC mask does not fit
/// `vcs` or a hop does not start where the previous one ends.
pub fn certify(
    topo: &Topology,
    routes: &RouteSet,
    vcs: u8,
) -> Result<DeadlockCertificate, Vec<(usize, u8)>> {
    let slots = topo.num_links() * vcs as usize;
    assert!(u32::try_from(slots).is_ok(), "more than 2^32 channel slots");
    let edges = dependences(topo, routes, vcs);
    match topological_ranks(slots, &edges) {
        Some(rank) => Ok(DeadlockCertificate {
            vcs,
            rank,
            dependencies: edges.len(),
        }),
        None => Err(dependence_cycle(slots, vcs, &edges)),
    }
}

/// Whether [`certify`] proves `routes` deadlock-free.
///
/// # Panics
///
/// As [`certify`]: `routes` must pass [`RouteSet::validate`] with the
/// same `vcs`.
pub fn is_deadlock_free(topo: &Topology, routes: &RouteSet, vcs: u8) -> bool {
    certify(topo, routes, vcs).is_ok()
}

/// Whether a deadlock-free *all-pairs* routing exists on `topo` with a
/// single virtual channel — the arbitrary-network existence question,
/// answered by [`certify_arbitrary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArbitraryCertification {
    /// A witness order exists: `rank[link index]` is a channel order
    /// under which every ordered node pair is routable along strictly
    /// rank-increasing channels (no 180° turns), so Lemma 1 certifies
    /// any routing that follows the order.
    Certified {
        /// One rank per directed channel, indexed by link index.
        rank: Vec<u32>,
    },
    /// Provably impossible: the listed channels (by link index, in
    /// cycle order) are *mandatory* for node pairs that chain head to
    /// tail, forcing a dependence cycle into every all-pairs routing.
    Refuted {
        /// Link indices forming the mandatory-dependence cycle.
        cycle: Vec<usize>,
    },
    /// Neither a refutation nor a witness was found (the up*/down*
    /// witness construction is incomplete on asymmetric graphs).
    Inconclusive,
    /// The graph is not strongly connected, so *all-pairs* routing does
    /// not exist at all and the deadlock question is vacuous. The
    /// listed node (by index) is the witness: it cannot reach node 0,
    /// or node 0 cannot reach it.
    NotStronglyConnected {
        /// A node disconnected from node 0 in one direction.
        node: usize,
    },
}

impl ArbitraryCertification {
    /// True when a witness order was found.
    pub fn is_certified(&self) -> bool {
        matches!(self, ArbitraryCertification::Certified { .. })
    }

    /// True when deadlock-free all-pairs routing is provably impossible.
    pub fn is_refuted(&self) -> bool {
        matches!(self, ArbitraryCertification::Refuted { .. })
    }
}

/// Decides (up to an honest `Inconclusive`) whether `topo` admits a
/// deadlock-free all-pairs routing on **one** virtual channel — the
/// existence condition for arbitrary networks, beside the per-route-set
/// Lemma-1 check of [`certify`].
///
/// Two halves:
///
/// 1. **Refutation** (a necessary condition): channel `c` is
///    *mandatory* for the pair `(u, v)` when every `u → v` path uses
///    `c`. If `c1` is mandatory for `(u, v)` and `c2` is mandatory for
///    `(head(c1), v)`, every routing's `u → v` route uses `c1` and
///    later `c2`, so any acyclic induced CDG must rank
///    `c1` before `c2`. A cycle among these forced precedences is a
///    proof that *no* deadlock-free all-pairs routing exists (e.g. a
///    unidirectional ring).
/// 2. **Witness** (a sufficient condition): an up*/down* channel order
///    from a BFS spanning tree rooted at node 0 — channels toward
///    smaller `(depth, id)` keys are "up", ranked before all "down"
///    channels; a monotone-reachability sweep then verifies every
///    ordered pair is routable along strictly rank-increasing channels
///    without 180° turns. On symmetric connected topologies the tree
///    paths themselves are such routes, so the check passes by
///    construction.
///
/// Strongly connected graphs that pass neither test report
/// [`ArbitraryCertification::Inconclusive`]; graphs that are not
/// strongly connected (no constructor in this workspace produces one,
/// but a hand-written `.topo` file can) report
/// [`ArbitraryCertification::NotStronglyConnected`] with a witness node
/// — all-pairs routing does not exist there, so neither certification
/// nor refutation applies.
pub fn certify_arbitrary(topo: &Topology) -> ArbitraryCertification {
    let n = topo.num_nodes();
    let nl = topo.num_links();

    // BFS over out-channels from `u`, skipping channel `skip`
    // (`usize::MAX` to skip nothing, or follow in-channels instead to
    // test reverse reachability).
    let reach = |u: usize, skip: usize, reversed: bool| -> Vec<bool> {
        let mut reached = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        reached[u] = true;
        queue.push_back(u);
        while let Some(x) = queue.pop_front() {
            let node = bsor_topology::NodeId(x as u32);
            let channels = if reversed {
                topo.in_links(node)
            } else {
                topo.out_links(node)
            };
            for &l in channels {
                if l.index() == skip {
                    continue;
                }
                let link = topo.link(l);
                let y = if reversed { link.src } else { link.dst }.index();
                if !reached[y] {
                    reached[y] = true;
                    queue.push_back(y);
                }
            }
        }
        reached
    };

    // The mandatory-channel analysis below reads "v unreachable" as
    // "channel c is unavoidable", which is only meaningful when every
    // pair is routable to begin with.
    let forward = reach(0, usize::MAX, false);
    let backward = reach(0, usize::MAX, true);
    if let Some(node) = (0..n).find(|&v| !forward[v] || !backward[v]) {
        return ArbitraryCertification::NotStronglyConnected { node };
    }

    // reach_without[c][u][v]: is v reachable from u avoiding channel c?
    // One BFS per (channel, source); sizes here are NoC- or WAN-scale,
    // so the cubic-ish sweep stays cheap.
    let reach_without: Vec<Vec<Vec<bool>>> = (0..nl)
        .map(|c| (0..n).map(|u| reach(u, c, false)).collect())
        .collect();

    // Forced precedences: c1 ≺ c2 when, for some destination v, c1 is
    // mandatory from tail(c1) (every tail(c1) → v path uses c1 — and
    // then c1 is mandatory from *any* source whose paths to v exist,
    // since a c1-free prefix would splice onto a c1-free tail) and c2
    // is mandatory from head(c1): the route that must use c1 must then
    // also use c2 afterwards, so an acyclic induced CDG has to rank c1
    // before c2.
    let mut constraints: DiGraph<usize, ()> = DiGraph::with_capacity(nl, nl);
    for c in 0..nl {
        constraints.add_node(c);
    }
    for c1 in 0..nl {
        let link1 = topo.link(bsor_topology::LinkId(c1 as u32));
        let (tail1, head1) = (link1.src.index(), link1.dst.index());
        for c2 in 0..nl {
            if c1 == c2 {
                continue;
            }
            let forced =
                (0..n).any(|v| !reach_without[c1][tail1][v] && !reach_without[c2][head1][v]);
            if forced {
                constraints.add_edge(
                    bsor_netgraph::NodeId(c1 as u32),
                    bsor_netgraph::NodeId(c2 as u32),
                    (),
                );
            }
        }
    }
    if let Some(cycle_edges) = algo::find_cycle(&constraints) {
        let cycle = cycle_edges
            .iter()
            .map(|&e| {
                let (s, _) = constraints.endpoints(e).expect("live edge");
                *constraints.node(s)
            })
            .collect();
        return ArbitraryCertification::Refuted { cycle };
    }

    // Witness: up*/down* order from a BFS tree rooted at node 0.
    let mut depth = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    depth[0] = 0;
    queue.push_back(0usize);
    while let Some(x) = queue.pop_front() {
        for &l in topo.out_links(bsor_topology::NodeId(x as u32)) {
            let y = topo.link(l).dst.index();
            if depth[y] == usize::MAX {
                depth[y] = depth[x] + 1;
                queue.push_back(y);
            }
        }
    }
    // Position of each node in the (depth, id) key order.
    let mut by_key: Vec<usize> = (0..n).collect();
    by_key.sort_by_key(|&i| (depth[i], i));
    let mut pos = vec![0u32; n];
    for (p, &i) in by_key.iter().enumerate() {
        pos[i] = p as u32;
    }
    let rank: Vec<u32> = (0..nl)
        .map(|c| {
            let link = topo.link(bsor_topology::LinkId(c as u32));
            let (a, b) = (pos[link.src.index()], pos[link.dst.index()]);
            if b < a {
                // Up channel: earlier the closer its head is to the root.
                (n as u32 - 1) - b
            } else {
                // Down channel: later the deeper its head.
                n as u32 + b
            }
        })
        .collect();

    // Monotone-reachability sweep: from every source, channels usable
    // in ascending rank order (no 180° turns) must reach every node.
    let mut order: Vec<usize> = (0..nl).collect();
    order.sort_by_key(|&c| rank[c]);
    for u in 0..n {
        let mut channel_ok = vec![false; nl];
        let mut node_ok = vec![false; n];
        node_ok[u] = true;
        for &c in &order {
            let link = topo.link(bsor_topology::LinkId(c as u32));
            let (s, d) = (link.src.index(), link.dst.index());
            let usable = s == u
                || topo
                    .in_links(bsor_topology::NodeId(s as u32))
                    .iter()
                    .any(|&p| {
                        channel_ok[p.index()]
                            && rank[p.index()] < rank[c]
                            && topo.link(p).src.index() != d
                    });
            if usable {
                channel_ok[c] = true;
                node_ok[d] = true;
            }
        }
        if node_ok.iter().any(|&ok| !ok) {
            return ArbitraryCertification::Inconclusive;
        }
    }
    ArbitraryCertification::Certified { rank }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{Route, RouteHop, RouteSet, VcMask};
    use bsor_flow::FlowId;
    use bsor_topology::NodeId;

    fn hop(topo: &Topology, a: NodeId, b: NodeId, vcs: VcMask) -> RouteHop {
        RouteHop {
            link: topo.find_link(a, b).expect("adjacent"),
            vcs,
        }
    }

    #[test]
    fn empty_routing_is_free() {
        let topo = Topology::mesh2d(3, 3);
        let routes = RouteSet::from_routes(vec![]);
        assert!(is_deadlock_free(&topo, &routes, 2));
    }

    #[test]
    fn four_route_ring_deadlocks_on_one_vc() {
        // The canonical wormhole deadlock: four routes turning around a
        // 2x2 square, each holding one channel and wanting the next.
        let topo = Topology::mesh2d(2, 2);
        let n = |x, y| topo.node_at(x, y).expect("in range");
        let m = VcMask::all(1);
        // Clockwise: (0,0)->(0,1)->(1,1), (0,1)->(1,1)->(1,0), etc.
        let routes = RouteSet::from_routes(vec![
            Route {
                flow: FlowId(0),
                hops: vec![
                    hop(&topo, n(0, 0), n(0, 1), m),
                    hop(&topo, n(0, 1), n(1, 1), m),
                ],
            },
            Route {
                flow: FlowId(1),
                hops: vec![
                    hop(&topo, n(0, 1), n(1, 1), m),
                    hop(&topo, n(1, 1), n(1, 0), m),
                ],
            },
            Route {
                flow: FlowId(2),
                hops: vec![
                    hop(&topo, n(1, 1), n(1, 0), m),
                    hop(&topo, n(1, 0), n(0, 0), m),
                ],
            },
            Route {
                flow: FlowId(3),
                hops: vec![
                    hop(&topo, n(1, 0), n(0, 0), m),
                    hop(&topo, n(0, 0), n(0, 1), m),
                ],
            },
        ]);
        let cycle = certify(&topo, &routes, 1).expect_err("expected a dependence cycle");
        assert_eq!(cycle.len(), 4);
    }

    #[test]
    fn vc_split_breaks_the_ring() {
        // Same four turning routes, but two of them moved to VC 1:
        // the dependence cycle cannot close across disjoint VC layers
        // when the turn sequence differs... here we give each route a
        // dedicated VC assignment that breaks the cycle.
        let topo = Topology::mesh2d(2, 2);
        let n = |x, y| topo.node_at(x, y).expect("in range");
        let v0 = VcMask::single(0);
        let v1 = VcMask::single(1);
        let routes = RouteSet::from_routes(vec![
            Route {
                flow: FlowId(0),
                hops: vec![
                    hop(&topo, n(0, 0), n(0, 1), v0),
                    hop(&topo, n(0, 1), n(1, 1), v0),
                ],
            },
            Route {
                flow: FlowId(1),
                hops: vec![
                    hop(&topo, n(0, 1), n(1, 1), v1),
                    hop(&topo, n(1, 1), n(1, 0), v0),
                ],
            },
            Route {
                flow: FlowId(2),
                hops: vec![
                    hop(&topo, n(1, 1), n(1, 0), v1),
                    hop(&topo, n(1, 0), n(0, 0), v0),
                ],
            },
            Route {
                flow: FlowId(3),
                hops: vec![
                    hop(&topo, n(1, 0), n(0, 0), v1),
                    hop(&topo, n(0, 0), n(0, 1), v1),
                ],
            },
        ]);
        assert!(is_deadlock_free(&topo, &routes, 2));
    }

    #[test]
    fn straight_routes_are_free() {
        let topo = Topology::mesh2d(4, 1);
        let m = VcMask::all(2);
        let n = NodeId;
        let routes = RouteSet::from_routes(vec![Route {
            flow: FlowId(0),
            hops: vec![
                hop(&topo, n(0), n(1), m),
                hop(&topo, n(1), n(2), m),
                hop(&topo, n(2), n(3), m),
            ],
        }]);
        assert!(is_deadlock_free(&topo, &routes, 2));
    }

    #[test]
    #[should_panic(expected = "route for f0 hop 1: VC mask VcMask(0b00000010) does not fit 1 VCs")]
    fn out_of_range_vc_panics_instead_of_aliasing_the_next_link() {
        // Slot `link * vcs + vc` of VC 1 on one VC is VC 0 of the next
        // link (or past the end on the last link).
        let topo = Topology::mesh2d(3, 1);
        let n = NodeId;
        let routes = RouteSet::from_routes(vec![Route {
            flow: FlowId(0),
            hops: vec![
                hop(&topo, n(0), n(1), VcMask::single(0)),
                hop(&topo, n(1), n(2), VcMask::single(1)),
            ],
        }]);
        let _ = certify(&topo, &routes, 1);
    }

    #[test]
    #[should_panic(expected = "route for f1 hop 2 does not start where hop 1 ends")]
    fn discontinuous_route_panics_instead_of_dropping_a_dependence() {
        let topo = Topology::mesh2d(3, 1);
        let n = NodeId;
        let m = VcMask::all(2);
        let routes = RouteSet::from_routes(vec![
            Route {
                flow: FlowId(0),
                hops: vec![hop(&topo, n(0), n(1), m), hop(&topo, n(1), n(2), m)],
            },
            Route {
                flow: FlowId(1),
                hops: vec![
                    hop(&topo, n(0), n(1), m),
                    hop(&topo, n(1), n(2), m),
                    hop(&topo, n(1), n(0), m),
                ],
            },
        ]);
        let _ = certify(&topo, &routes, 2);
    }

    #[test]
    fn full_mesh_and_grids_certify_for_all_pairs() {
        // Symmetric connected topologies always admit an up*/down*
        // witness order.
        for topo in [
            bsor_topology::full_mesh(4).expect("valid"),
            Topology::mesh2d(3, 3),
            Topology::torus2d(4, 4),
        ] {
            match certify_arbitrary(&topo) {
                ArbitraryCertification::Certified { rank } => {
                    assert_eq!(rank.len(), topo.num_links());
                }
                other => panic!("expected a witness order, got {other:?}"),
            }
        }
    }

    #[test]
    fn loaded_wan_file_certifies() {
        // A zoo-style symmetric WAN parsed from the file grammar.
        let text = "node a\nnode b\nnode c\nnode d\n\
                    link a b\nlink b c\nlink c d\nlink d a\nlink a c\n";
        let topo = bsor_topology::parse_topology_file("wan", text).expect("parses");
        assert!(certify_arbitrary(&topo).is_certified());
    }

    #[test]
    fn unidirectional_ring_is_provably_deadlocked() {
        // Every pair's only route winds around the ring, so the three
        // channels form a mandatory-dependence cycle: no deadlock-free
        // all-pairs routing exists on one VC, full stop.
        let text = "dlink a b\ndlink b c\ndlink c a\n";
        let topo = bsor_topology::parse_topology_file("ring3", text).expect("parses");
        match certify_arbitrary(&topo) {
            ArbitraryCertification::Refuted { cycle } => {
                assert_eq!(cycle.len(), 3);
                let mut sorted = cycle.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2]);
            }
            other => panic!("expected a refutation, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_graph_reports_not_strongly_connected() {
        // 0 <-> 1 and 2 <-> 3 with a one-way bridge 1 -> 2: nodes 2 and
        // 3 can never reach node 0, so all-pairs routing does not exist
        // and the certifier says which node witnesses that instead of
        // shrugging Inconclusive.
        let topo = bsor_topology::directed_graph(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
            .expect("valid edges");
        match certify_arbitrary(&topo) {
            ArbitraryCertification::NotStronglyConnected { node } => {
                assert!(
                    node == 2 || node == 3,
                    "witness {node} is in the cut-off pair"
                );
            }
            other => panic!("expected NotStronglyConnected, got {other:?}"),
        }
    }

    #[test]
    fn certified_rank_supports_monotone_tree_routes() {
        // Spot-check the witness semantics on a mesh: walking up the
        // BFS tree to the root and back down is strictly
        // rank-increasing, which is what Lemma 1 needs.
        let topo = Topology::mesh2d(3, 3);
        let rank = match certify_arbitrary(&topo) {
            ArbitraryCertification::Certified { rank } => rank,
            other => panic!("expected a witness, got {other:?}"),
        };
        // (2,2) -> root (0,0) along the tree, then down to (1,1).
        let n = |x, y| topo.node_at(x, y).expect("in range");
        let path = [
            n(2, 2),
            n(2, 1),
            n(2, 0),
            n(1, 0),
            n(0, 0),
            n(1, 0),
            n(1, 1),
        ];
        let ranks: Vec<u32> = path
            .windows(2)
            .filter(|w| w[0] != w[1])
            .map(|w| rank[topo.find_link(w[0], w[1]).expect("adjacent").index()])
            .collect();
        assert!(
            ranks.windows(2).all(|w| w[0] < w[1]),
            "ranks not monotone: {ranks:?}"
        );
    }
}
