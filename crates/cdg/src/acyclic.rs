//! Acyclic channel dependence graphs and the strategies that derive them.

use crate::cdg::{Cdg, CdgError, CdgVertex, VcId};
use crate::turn::{self, TurnModel};
use bsor_netgraph::{algo, DiGraph, NodeId as GraphNode};
use bsor_topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Recipe for breaking cycles in one virtual-channel layer of a
/// [`AcyclicCdg::virtual_networks`] construction.
#[derive(Clone, Debug)]
pub enum LayerRecipe {
    /// Remove the layer's prohibited-turn edges.
    TurnModel(TurnModel),
    /// Randomized iterative cycle breaking with the given seed.
    AdHoc {
        /// RNG seed, so constructions are reproducible.
        seed: u64,
    },
}

/// An acyclic CDG: a [`Cdg`] whose remaining dependence edges admit a
/// topological order. Routes conforming to it are deadlock-free (paper
/// Lemma 1, Dally & Aoki).
#[derive(Clone, Debug)]
pub struct AcyclicCdg {
    cdg: Cdg,
    name: String,
    removed: usize,
    /// A topological order of the dependence graph's vertices.
    order: Vec<GraphNode>,
    /// `rank[v]` = position of vertex `v` in `order`.
    rank: Vec<u32>,
}

impl AcyclicCdg {
    /// Wraps a CDG, validating acyclicity.
    ///
    /// `removed` records how many dependence edges the derivation deleted
    /// (reported by [`AcyclicCdg::removed_edges`]).
    ///
    /// # Errors
    ///
    /// [`CdgError::StillCyclic`] if the graph still has a cycle.
    pub fn try_new(cdg: Cdg, name: impl Into<String>, removed: usize) -> Result<Self, CdgError> {
        let name = name.into();
        match algo::toposort(cdg.graph()) {
            Ok(order) => {
                let mut rank = vec![0u32; cdg.graph().node_count()];
                for (pos, v) in order.iter().enumerate() {
                    rank[v.index()] = pos as u32;
                }
                Ok(AcyclicCdg {
                    cdg,
                    name,
                    removed,
                    order,
                    rank,
                })
            }
            Err(_) => Err(CdgError::StillCyclic { strategy: name }),
        }
    }

    /// Derives an acyclic CDG by removing a turn model's prohibited turns
    /// (paper §3.3, Figure 3-3).
    ///
    /// # Errors
    ///
    /// * [`CdgError::NotAGrid`] if channels carry no directions.
    /// * [`CdgError::StillCyclic`] if the model leaves cycles (one of the
    ///   4 invalid two-turn combinations, or any turn model on a torus).
    /// * [`CdgError::NoVirtualChannels`] if `vcs == 0`.
    pub fn turn_model(topo: &Topology, vcs: u8, model: &TurnModel) -> Result<Self, CdgError> {
        if vcs == 0 {
            return Err(CdgError::NoVirtualChannels);
        }
        if topo.link_ids().any(|l| topo.link(l).direction.is_none()) {
            return Err(CdgError::NotAGrid);
        }
        let mut cdg = Cdg::build(topo, vcs);
        let before = cdg.graph().edge_count();
        turn::apply(&mut cdg, model);
        let removed = before - cdg.graph().edge_count();
        AcyclicCdg::try_new(cdg, model.name(), removed)
    }

    /// Derives an acyclic CDG by repeatedly finding a cycle and deleting a
    /// random edge on it (the paper's "ad hoc or random fashion",
    /// Figure 3-4). Always succeeds, on any topology — but may leave some
    /// node pairs with no conforming route; prefer
    /// [`AcyclicCdg::ad_hoc_routable`] on grids when full routability is
    /// required.
    ///
    /// # Panics
    ///
    /// Panics if `vcs == 0`.
    pub fn ad_hoc(topo: &Topology, vcs: u8, seed: u64) -> Self {
        let mut cdg = Cdg::build(topo, vcs);
        let mut rng = StdRng::seed_from_u64(seed);
        let removed = algo::break_cycles(cdg.graph_mut(), |cycle| {
            cycle[rng.gen_range(0..cycle.len())]
        });
        AcyclicCdg::try_new(cdg, format!("ad-hoc-{seed}"), removed)
            .expect("iterative cycle breaking terminates with an acyclic graph")
    }

    /// Like [`AcyclicCdg::ad_hoc`], but guarantees that every node pair
    /// remains routable: a randomly chosen valid turn model's dependence
    /// edges (on VC 0) are protected from removal, so the surviving CDG
    /// always contains a full set of turn-model routes while the rest of
    /// the dependence structure is broken randomly.
    ///
    /// Any cycle necessarily contains a non-protected edge (the protected
    /// skeleton is itself acyclic), so the process always terminates.
    ///
    /// # Errors
    ///
    /// * [`CdgError::NotAGrid`] when the topology has no grid directions
    ///   (no turn-model skeleton exists; use [`AcyclicCdg::ad_hoc`]
    ///   there).
    /// * [`CdgError::NoValidTurnModel`] when it has grid directions but no
    ///   deadlock-free turn model (a torus).
    /// * [`CdgError::NoVirtualChannels`] when `vcs == 0`.
    pub fn ad_hoc_routable(topo: &Topology, vcs: u8, seed: u64) -> Result<Self, CdgError> {
        if vcs == 0 {
            return Err(CdgError::NoVirtualChannels);
        }
        AcyclicCdg::ad_hoc_routable_among(topo, vcs, seed, &TurnModel::valid_models(topo)?)
    }

    /// [`AcyclicCdg::ad_hoc_routable`] with the skeleton drawn from
    /// `models`, the topology's [`TurnModel::valid_models`] computed once
    /// by the caller. Same RNG draws, same result.
    ///
    /// # Errors
    ///
    /// [`CdgError::NoValidTurnModel`] when `models` is empty, or
    /// [`CdgError::NoVirtualChannels`] when `vcs == 0`.
    pub fn ad_hoc_routable_among(
        topo: &Topology,
        vcs: u8,
        seed: u64,
        models: &[TurnModel],
    ) -> Result<Self, CdgError> {
        if vcs == 0 {
            return Err(CdgError::NoVirtualChannels);
        }
        if models.is_empty() {
            return Err(CdgError::NoValidTurnModel);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let skeleton = &models[rng.gen_range(0..models.len())];
        let mut cdg = Cdg::build(topo, vcs);
        // Protected edges: VC0 -> VC0 dependences the skeleton model
        // allows, flagged by edge id (a fresh CDG's ids are dense).
        let mut protected = vec![false; cdg.graph().edge_count()];
        for (id, s, d, _) in cdg.graph().edges() {
            let (a, b) = (cdg.vertex(s), cdg.vertex(d));
            protected[id.index()] = a.vc.0 == 0
                && b.vc.0 == 0
                && match cdg.edge_turn(s, d) {
                    Some((from, to)) => skeleton.allows(from, to),
                    None => true,
                };
        }
        let removed = algo::break_cycles(cdg.graph_mut(), |cycle| {
            let candidates: Vec<_> = cycle
                .iter()
                .copied()
                .filter(|e| !protected[e.index()])
                .collect();
            debug_assert!(
                !candidates.is_empty(),
                "every cycle contains a non-protected edge"
            );
            candidates[rng.gen_range(0..candidates.len())]
        });
        AcyclicCdg::try_new(cdg, format!("ad-hoc-routable-{seed}"), removed)
    }

    /// Derives an acyclic CDG from an up*/down* spanning-tree order — the
    /// VC-free escape ordering for arbitrary graphs (no grid directions
    /// required).
    ///
    /// A BFS tree rooted at node 0 orders nodes by `(depth, id)`;
    /// channels pointing toward a smaller key are *up*, all others
    /// *down*, and every dependence edge from a down channel to an up
    /// channel is removed (on every VC layer). Kept edges strictly
    /// increase the channel order `up: K_max - key(head)`,
    /// `down: K_max + 1 + key(head)`, so the result is acyclic by
    /// construction. On symmetric topologies every node pair stays
    /// routable — climb the tree to the common ancestor, then descend —
    /// even with a single virtual channel; on asymmetric graphs some
    /// pairs may lose all conforming routes (route selection reports
    /// that as a typed error, and
    /// `bsor_routing::deadlock::certify_arbitrary` refutes such graphs
    /// where no deadlock-free alternative exists).
    ///
    /// # Errors
    ///
    /// [`CdgError::NoVirtualChannels`] when `vcs == 0`.
    pub fn up_down(topo: &Topology, vcs: u8) -> Result<Self, CdgError> {
        if vcs == 0 {
            return Err(CdgError::NoVirtualChannels);
        }
        let n = topo.num_nodes();
        let mut depth = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        depth[0] = 0;
        queue.push_back(0usize);
        while let Some(x) = queue.pop_front() {
            for &l in topo.out_links(NodeId(x as u32)) {
                let y = topo.link(l).dst.index();
                if depth[y] == usize::MAX {
                    depth[y] = depth[x] + 1;
                    queue.push_back(y);
                }
            }
        }
        let mut by_key: Vec<usize> = (0..n).collect();
        by_key.sort_by_key(|&i| (depth[i], i));
        let mut pos = vec![0u32; n];
        for (p, &i) in by_key.iter().enumerate() {
            pos[i] = p as u32;
        }
        let up = |link: bsor_topology::LinkId| {
            let l = topo.link(link);
            pos[l.dst.index()] < pos[l.src.index()]
        };
        let mut cdg = Cdg::build(topo, vcs);
        let before = cdg.graph().edge_count();
        let doomed: Vec<_> = cdg
            .graph()
            .edges()
            .filter(|&(_, s, d, _)| !up(cdg.vertex(s).link) && up(cdg.vertex(d).link))
            .map(|(id, _, _, _)| id)
            .collect();
        for e in doomed {
            cdg.graph_mut().remove_edge(e);
        }
        let removed = before - cdg.graph().edge_count();
        Ok(AcyclicCdg::try_new(cdg, "up-down", removed)
            .expect("down-to-up edge removal leaves a rank-monotone graph"))
    }

    /// Derives a multi-VC acyclic CDG in which a packet may take *any*
    /// turn provided it climbs to a strictly higher virtual channel, while
    /// same-VC moves must respect `model` (paper Figure 3-6(c): "all turns
    /// are allowed provided the route switches virtual channels").
    ///
    /// # Errors
    ///
    /// Same conditions as [`AcyclicCdg::turn_model`].
    pub fn escalating_vc(topo: &Topology, vcs: u8, model: &TurnModel) -> Result<Self, CdgError> {
        if vcs == 0 {
            return Err(CdgError::NoVirtualChannels);
        }
        if topo.link_ids().any(|l| topo.link(l).direction.is_none()) {
            return Err(CdgError::NotAGrid);
        }
        let mut cdg = Cdg::build(topo, vcs);
        let before = cdg.graph().edge_count();
        let doomed: Vec<_> = cdg
            .graph()
            .edges()
            .filter(|&(_, s, d, _)| {
                let a = cdg.vertex(s);
                let b = cdg.vertex(d);
                if b.vc.0 > a.vc.0 {
                    return false; // climbing a VC legalizes any turn
                }
                if b.vc.0 < a.vc.0 {
                    return true; // never descend
                }
                match cdg.edge_turn(s, d) {
                    Some((from, to)) => !model.allows(from, to),
                    None => false,
                }
            })
            .map(|(id, _, _, _)| id)
            .collect();
        for e in doomed {
            cdg.graph_mut().remove_edge(e);
        }
        let removed = before - cdg.graph().edge_count();
        AcyclicCdg::try_new(cdg, format!("escalating-vc-{}", model.name()), removed)
    }

    /// Derives a multi-VC acyclic CDG as disjoint *virtual networks*: one
    /// VC layer per recipe, each layer broken independently, with no
    /// VC-switching edges (paper §3.7, Figure 3-7).
    ///
    /// # Errors
    ///
    /// Propagates errors from per-layer turn models; also
    /// [`CdgError::NoVirtualChannels`] when `recipes` is empty.
    pub fn virtual_networks(topo: &Topology, recipes: &[LayerRecipe]) -> Result<Self, CdgError> {
        if recipes.is_empty() {
            return Err(CdgError::NoVirtualChannels);
        }
        let z = u8::try_from(recipes.len()).expect("at most 255 layers");
        // Derive each layer independently as a 1-VC acyclic CDG.
        let mut layers = Vec::with_capacity(recipes.len());
        for recipe in recipes {
            let layer = match recipe {
                LayerRecipe::TurnModel(model) => AcyclicCdg::turn_model(topo, 1, model)?,
                LayerRecipe::AdHoc { seed } => AcyclicCdg::ad_hoc(topo, 1, *seed),
            };
            layers.push(layer);
        }
        let mut cdg = Cdg::build(topo, z);
        let before = cdg.graph().edge_count();
        let doomed: Vec<_> = cdg
            .graph()
            .edges()
            .filter(|&(_, s, d, _)| {
                let a = *cdg.vertex(s);
                let b = *cdg.vertex(d);
                if a.vc != b.vc {
                    return true; // no VC switching between virtual networks
                }
                let layer = &layers[a.vc.index()];
                let ls = layer.cdg().vertex_id(a.link, VcId(0));
                let ld = layer.cdg().vertex_id(b.link, VcId(0));
                layer.graph().find_edge(ls, ld).is_none()
            })
            .map(|(id, _, _, _)| id)
            .collect();
        for e in doomed {
            cdg.graph_mut().remove_edge(e);
        }
        let removed = before - cdg.graph().edge_count();
        let name = format!(
            "virtual-networks[{}]",
            layers
                .iter()
                .map(|l| l.name().to_owned())
                .collect::<Vec<_>>()
                .join(",")
        );
        AcyclicCdg::try_new(cdg, name, removed)
    }

    /// The underlying CDG.
    pub fn cdg(&self) -> &Cdg {
        &self.cdg
    }

    /// The dependence graph.
    pub fn graph(&self) -> &DiGraph<CdgVertex, ()> {
        self.cdg.graph()
    }

    /// Virtual channels per physical channel.
    pub fn vcs(&self) -> u8 {
        self.cdg.vcs()
    }

    /// Human-readable name of the derivation strategy.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many dependence edges the derivation removed from the full CDG.
    pub fn removed_edges(&self) -> usize {
        self.removed
    }

    /// Position of `v` in a topological order of the dependence graph.
    pub fn rank(&self, v: GraphNode) -> u32 {
        self.rank[v.index()]
    }

    /// Every vertex's [`AcyclicCdg::rank`], indexed by vertex id.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The vertices in ascending [`AcyclicCdg::rank`]: every dependence
    /// edge points forward in this list.
    pub fn topological_order(&self) -> &[GraphNode] {
        &self.order
    }

    /// Vertices usable as the first channel of a route leaving `n`.
    pub fn sources_for(&self, n: NodeId) -> Vec<GraphNode> {
        self.cdg.vertices_leaving(n)
    }

    /// Vertices usable as the last channel of a route entering `n`.
    pub fn sinks_for(&self, n: NodeId) -> Vec<GraphNode> {
        self.cdg.vertices_entering(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turn_model_removes_eight_edges_on_3x3() {
        // Paper Figure 3-3 vs 3-4: the turn model removes 8 edges where ad
        // hoc derivations in the paper removed 12.
        let t = Topology::mesh2d(3, 3);
        for model in [
            TurnModel::west_first(),
            TurnModel::north_last(),
            TurnModel::negative_first(),
        ] {
            let a = AcyclicCdg::turn_model(&t, 1, &model).expect("valid model");
            assert_eq!(a.removed_edges(), 8, "{}", model.name());
            assert!(algo::is_acyclic(a.graph()));
        }
    }

    #[test]
    fn invalid_two_turn_combos_error() {
        // Of the 16 two-turn candidates, the 4 that are not deadlock-free
        // must be rejected by the acyclicity check.
        let t = Topology::mesh2d(4, 4);
        let valid = TurnModel::valid_models(&t).expect("mesh is a grid");
        let mut rejected = 0;
        for model in TurnModel::enumerate_two_turn() {
            if valid.iter().any(|v| v.prohibited() == model.prohibited()) {
                continue;
            }
            let r = AcyclicCdg::turn_model(&t, 1, &model);
            assert!(
                matches!(r, Err(CdgError::StillCyclic { .. })),
                "{} should leave cycles",
                model.name()
            );
            rejected += 1;
        }
        assert_eq!(rejected, 4);
    }

    #[test]
    fn turn_model_on_torus_still_cyclic() {
        // Wraparound channels create intra-dimension cycles the turn model
        // cannot break.
        let t = Topology::torus2d(4, 4);
        let r = AcyclicCdg::turn_model(&t, 1, &TurnModel::west_first());
        assert!(matches!(r, Err(CdgError::StillCyclic { .. })));
    }

    #[test]
    fn ad_hoc_breaks_any_topology() {
        for topo in [Topology::mesh2d(3, 3), Topology::torus2d(3, 3)] {
            let a = AcyclicCdg::ad_hoc(&topo, 1, 42);
            assert!(algo::is_acyclic(a.graph()));
            assert!(a.removed_edges() > 0);
        }
        let ring = Topology::ring(5);
        let a = AcyclicCdg::ad_hoc(&ring, 1, 7);
        assert!(algo::is_acyclic(a.graph()));
        // A ring CDG is two disjoint 5-cycles: exactly 2 removals.
        assert_eq!(a.removed_edges(), 2);
    }

    #[test]
    fn ad_hoc_is_reproducible() {
        let t = Topology::mesh2d(4, 4);
        let a = AcyclicCdg::ad_hoc(&t, 1, 9);
        let b = AcyclicCdg::ad_hoc(&t, 1, 9);
        assert_eq!(a.removed_edges(), b.removed_edges());
        let ea: Vec<_> = a.graph().edges().map(|(_, s, d, _)| (s, d)).collect();
        let eb: Vec<_> = b.graph().edges().map(|(_, s, d, _)| (s, d)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn ad_hoc_removes_more_than_turn_model_typically() {
        // The paper observes ad hoc derivations typically remove more
        // dependences than the turn model (12 vs 8 on the 3x3 mesh).
        let t = Topology::mesh2d(3, 3);
        let tm = AcyclicCdg::turn_model(&t, 1, &TurnModel::west_first()).expect("valid");
        let mut more = 0;
        for seed in 0..10 {
            let ah = AcyclicCdg::ad_hoc(&t, 1, seed);
            if ah.removed_edges() >= tm.removed_edges() {
                more += 1;
            }
        }
        assert!(
            more >= 8,
            "ad hoc should rarely beat the turn model's 8 removals"
        );
    }

    #[test]
    fn ad_hoc_routable_preserves_all_pairs() {
        let t = Topology::mesh2d(4, 4);
        for seed in 0..4u64 {
            let a = AcyclicCdg::ad_hoc_routable(&t, 2, seed).expect("grid");
            assert!(algo::is_acyclic(a.graph()));
            // Every ordered node pair must have a conforming route.
            for s in t.node_ids() {
                let sources = a.sources_for(s);
                let hops = algo::bfs_hops(a.graph(), &sources);
                for d in t.node_ids() {
                    if s == d {
                        continue;
                    }
                    let reachable = a.sinks_for(d).iter().any(|v| hops[v.index()] != usize::MAX);
                    assert!(reachable, "seed {seed}: {s} cannot reach {d}");
                }
            }
        }
    }

    #[test]
    fn ad_hoc_routable_rejects_non_grid() {
        let ring = Topology::ring(5);
        assert_eq!(
            AcyclicCdg::ad_hoc_routable(&ring, 1, 0).unwrap_err(),
            CdgError::NotAGrid
        );
    }

    #[test]
    fn ad_hoc_routable_on_a_torus_is_a_typed_error() {
        // A torus has grid directions but no deadlock-free turn model,
        // so there is no skeleton to protect.
        let torus = Topology::torus2d(4, 4);
        assert_eq!(
            AcyclicCdg::ad_hoc_routable(&torus, 2, 1).unwrap_err(),
            CdgError::NoValidTurnModel
        );
    }

    #[test]
    fn up_down_is_acyclic_on_every_topology_family() {
        for topo in [
            Topology::mesh2d(3, 3),
            Topology::torus2d(4, 4),
            Topology::ring(6),
            bsor_topology::full_mesh(5).expect("valid"),
            bsor_topology::dragonfly(2, 3, 2).expect("valid"),
            bsor_topology::fat_tree(4).expect("valid"),
        ] {
            let a = AcyclicCdg::up_down(&topo, 1).expect("vcs > 0");
            assert!(algo::is_acyclic(a.graph()), "{:?}", topo.kind());
        }
    }

    #[test]
    fn up_down_keeps_all_pairs_routable_on_symmetric_graphs() {
        // The VC-free escape property: even at one VC, climbing the BFS
        // tree and descending reaches every destination.
        for topo in [
            Topology::torus2d(3, 3),
            bsor_topology::fat_tree(4).expect("valid"),
            bsor_topology::dragonfly(2, 3, 2).expect("valid"),
        ] {
            let a = AcyclicCdg::up_down(&topo, 1).expect("vcs > 0");
            for s in topo.node_ids() {
                let hops = algo::bfs_hops(a.graph(), &a.sources_for(s));
                for d in topo.node_ids() {
                    if s == d {
                        continue;
                    }
                    let ok = a.sinks_for(d).iter().any(|v| hops[v.index()] != usize::MAX);
                    assert!(ok, "{:?}: {s} cannot reach {d}", topo.kind());
                }
            }
        }
    }

    #[test]
    fn up_down_needs_a_virtual_channel() {
        let t = Topology::ring(4);
        assert_eq!(
            AcyclicCdg::up_down(&t, 0).unwrap_err(),
            CdgError::NoVirtualChannels
        );
    }

    #[test]
    fn rank_is_a_topological_order() {
        let t = Topology::mesh2d(4, 4);
        let a = AcyclicCdg::turn_model(&t, 1, &TurnModel::north_last()).expect("valid");
        for (_, s, d, _) in a.graph().edges() {
            assert!(a.rank(s) < a.rank(d));
        }
        for (pos, &v) in a.topological_order().iter().enumerate() {
            assert_eq!(a.ranks()[v.index()], pos as u32);
        }
    }

    #[test]
    fn escalating_vc_allows_all_turns_upward() {
        let t = Topology::mesh2d(3, 3);
        let model = TurnModel::west_first();
        let a = AcyclicCdg::escalating_vc(&t, 2, &model).expect("valid");
        assert!(algo::is_acyclic(a.graph()));
        // Every prohibited-turn pair must still be reachable by climbing.
        let mut climbing_edges = 0;
        let mut descending_edges = 0;
        for (_, s, d, _) in a.graph().edges() {
            let (va, vb) = (a.cdg().vertex(s).vc.0, a.cdg().vertex(d).vc.0);
            if vb > va {
                climbing_edges += 1;
            }
            if vb < va {
                descending_edges += 1;
            }
        }
        assert!(climbing_edges > 0);
        assert_eq!(descending_edges, 0);
    }

    #[test]
    fn escalating_vc_recovers_prohibited_turns() {
        // Under a plain turn model no edge realizes a prohibited turn; the
        // escalating expansion makes every such turn available again by
        // climbing a VC, which is its whole point (paper Figure 3-6(c)).
        let t = Topology::mesh2d(4, 4);
        let model = TurnModel::west_first();
        let esc = AcyclicCdg::escalating_vc(&t, 2, &model).expect("valid");
        let plain = AcyclicCdg::turn_model(&t, 2, &model).expect("valid");
        let count_prohibited = |a: &AcyclicCdg| {
            a.graph()
                .edges()
                .filter(|&(_, s, d, _)| match a.cdg().edge_turn(s, d) {
                    Some((from, to)) => !model.allows(from, to),
                    None => false,
                })
                .count()
        };
        assert_eq!(count_prohibited(&plain), 0);
        assert!(count_prohibited(&esc) > 0);
    }

    #[test]
    fn virtual_networks_disjoint_layers() {
        let t = Topology::mesh2d(3, 3);
        let a = AcyclicCdg::virtual_networks(
            &t,
            &[
                LayerRecipe::TurnModel(TurnModel::north_last()),
                LayerRecipe::AdHoc { seed: 3 },
            ],
        )
        .expect("valid layers");
        assert_eq!(a.vcs(), 2);
        assert!(algo::is_acyclic(a.graph()));
        for (_, s, d, _) in a.graph().edges() {
            assert_eq!(
                a.cdg().vertex(s).vc,
                a.cdg().vertex(d).vc,
                "no VC switching between virtual networks"
            );
        }
    }

    #[test]
    fn virtual_networks_needs_layers() {
        let t = Topology::mesh2d(3, 3);
        assert_eq!(
            AcyclicCdg::virtual_networks(&t, &[]).unwrap_err(),
            CdgError::NoVirtualChannels
        );
    }

    #[test]
    fn sources_and_sinks_exposed() {
        let t = Topology::mesh2d(3, 3);
        let a = AcyclicCdg::turn_model(&t, 2, &TurnModel::west_first()).expect("valid");
        let corner = t.node_at(0, 0).expect("in range");
        // 2 channels x 2 VCs.
        assert_eq!(a.sources_for(corner).len(), 4);
        assert_eq!(a.sinks_for(corner).len(), 4);
    }
}
