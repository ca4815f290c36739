//! The BSOR Dijkstra weighted-shortest-path selector (paper §3.6).
//!
//! Flows are routed one at a time over the flow network `GA`. Edge
//! weights are the reciprocal residual-capacity metric of
//! [`bsor_flow::WeightParams`]; after each flow is routed, residual
//! capacities are updated, spreading load across channels and VCs. Routes
//! conform to the acyclic CDG by construction, so the result is
//! deadlock-free.
//!
//! Each per-flow query is one sweep of the acyclic CDG in topological
//! order ([`algo::dag_shortest_paths`]), linear in the CDG's size, not a
//! binary-heap Dijkstra. The routes are the ones the heap would choose,
//! bit for bit: every edge into a vertex carries that vertex's weight,
//! which is positive, so the heap relaxes each vertex first, and for
//! good, from its in-neighbour with the smallest `(distance, vertex id)`,
//! which is the predecessor the sweep picks. The route ends on the first
//! sink, in ascending vertex id, at the minimum distance.

use crate::route::{Route, RouteHop, RouteSet, VcMask};
use crate::selector::{FlowOrder, SelectError};
use bsor_flow::{Flow, FlowNetwork, FlowSet, LoadState, WeightParams};
use bsor_netgraph::{algo, NodeId as GraphNode};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration of the Dijkstra route selector.
#[derive(Clone, Copy, Debug)]
pub struct DijkstraSelector {
    /// Weight-function parameters; `None` derives them from the topology
    /// (`M` = max link bandwidth, as the paper suggests).
    pub weights: Option<WeightParams>,
    /// Flow routing order.
    pub order: FlowOrder,
    /// Extra rip-up-and-reroute passes after the initial sequential
    /// routing: each pass removes one flow at a time and re-routes it
    /// against the remaining load. 0 reproduces the paper's single
    /// sequential pass.
    pub refinement_passes: usize,
    /// Hop budget: selections containing a route longer than this are
    /// rejected with [`SelectError::HopBudgetExceeded`]. `None` (the
    /// default) leaves route length unconstrained.
    pub max_hops: Option<usize>,
}

impl Default for DijkstraSelector {
    fn default() -> Self {
        DijkstraSelector {
            weights: None,
            order: FlowOrder::DemandDescending,
            refinement_passes: 0,
            max_hops: None,
        }
    }
}

impl DijkstraSelector {
    /// Selector with default parameters.
    pub fn new() -> Self {
        DijkstraSelector::default()
    }

    /// Overrides the weight parameters (e.g. to sweep the `M` constant).
    #[must_use]
    pub fn with_weights(mut self, weights: WeightParams) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Overrides the flow order.
    #[must_use]
    pub fn with_order(mut self, order: FlowOrder) -> Self {
        self.order = order;
        self
    }

    /// Enables rip-up-and-reroute refinement passes.
    #[must_use]
    pub fn with_refinement(mut self, passes: usize) -> Self {
        self.refinement_passes = passes;
        self
    }

    /// Caps route length: any selection containing a route longer than
    /// `max_hops` is refused with [`SelectError::HopBudgetExceeded`].
    #[must_use]
    pub fn with_max_hops(mut self, max_hops: usize) -> Self {
        self.max_hops = Some(max_hops);
        self
    }

    /// Chooses one deadlock-free route per flow.
    ///
    /// **Deprecation note:** this flow-network signature is the legacy
    /// entry point. New code should run the selector through the unified
    /// `RouteAlgorithm` trait (`bsor_sim::RouteAlgorithm`, which
    /// `DijkstraSelector` implements against a scenario's CDG) or the
    /// exploring `bsor::BsorAlgorithm`; this method remains as the
    /// selection kernel those impls delegate to.
    ///
    /// # Errors
    ///
    /// [`SelectError::Unroutable`] if the acyclic CDG disconnects some
    /// flow's source from its sink.
    pub fn select(&self, net: &FlowNetwork<'_>, flows: &FlowSet) -> Result<RouteSet, SelectError> {
        let paths = self.select_paths(net, flows)?;
        let routes = RouteSet::from_routes(
            flows
                .iter()
                .zip(&paths)
                .map(|(flow, vertices)| Route {
                    flow: flow.id,
                    hops: vertices
                        .iter()
                        .map(|&v| {
                            let cv = net.acyclic().cdg().vertex(v);
                            RouteHop {
                                link: cv.link,
                                vcs: VcMask::single(cv.vc.0),
                            }
                        })
                        .collect(),
                })
                .collect(),
        );
        crate::selector::check_hop_budget(&routes, self.max_hops)?;
        Ok(routes)
    }

    /// Like [`DijkstraSelector::select`] but returns raw CDG vertex
    /// paths, indexed by flow (used by the MILP selector to seed its
    /// candidate pool and warm-start).
    ///
    /// # Errors
    ///
    /// [`SelectError::Unroutable`] if the acyclic CDG disconnects some
    /// flow's source from its sink.
    pub fn select_paths(
        &self,
        net: &FlowNetwork<'_>,
        flows: &FlowSet,
    ) -> Result<Vec<Vec<GraphNode>>, SelectError> {
        let params = self
            .weights
            .unwrap_or_else(|| WeightParams::from_topology(net.topology()));
        let mut order: Vec<&Flow> = flows.iter().collect();
        match self.order {
            FlowOrder::AsGiven => {}
            FlowOrder::DemandDescending => {
                order.sort_by(|a, b| {
                    b.demand
                        .partial_cmp(&a.demand)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.id.cmp(&b.id))
                });
            }
            FlowOrder::Random { seed } => {
                order.shuffle(&mut StdRng::seed_from_u64(seed));
            }
        }
        let mut load = LoadState::new(net);
        let mut paths: Vec<Option<Vec<GraphNode>>> = vec![None; flows.len()];
        for flow in &order {
            let vertices = route_one(net, &load, &params, flow)
                .ok_or(SelectError::Unroutable { flow: flow.id })?;
            load.add_path(net, &vertices, flow.demand);
            paths[flow.id.index()] = Some(vertices);
        }
        // Rip-up and re-route: with the global picture known, each flow
        // gets a chance to move off the hot channels. A re-route is kept
        // only when it does not increase the global MCL, so refinement is
        // monotone non-increasing in MCL.
        for _ in 0..self.refinement_passes {
            for flow in &order {
                let before = load.mcl();
                let old = paths[flow.id.index()].take().expect("routed above");
                load.remove_path(net, &old, flow.demand);
                let new = route_one(net, &load, &params, flow)
                    .expect("a previously routable flow stays routable");
                load.add_path(net, &new, flow.demand);
                if load.mcl() > before + 1e-9 {
                    load.remove_path(net, &new, flow.demand);
                    load.add_path(net, &old, flow.demand);
                    paths[flow.id.index()] = Some(old);
                } else {
                    paths[flow.id.index()] = Some(new);
                }
            }
        }
        Ok(paths
            .into_iter()
            .map(|p| p.expect("every flow was routed"))
            .collect())
    }
}

/// Runs one weighted-shortest-path query for `flow` under the current
/// load, returning the CDG vertex sequence of the best route, or `None`
/// if no sink is reachable.
fn route_one(
    net: &FlowNetwork<'_>,
    load: &LoadState,
    params: &WeightParams,
    flow: &Flow,
) -> Option<Vec<GraphNode>> {
    cheapest_route(net, flow, |v| params.weight(net, load, v, flow.demand))
}

/// The cheapest route for `flow` when entering CDG vertex `v` costs
/// `weight(v)`, which must be positive: the CDG vertex sequence ending
/// on the first sink, in ascending vertex id, at the minimum cost, or
/// `None` if no sink is reachable.
pub(crate) fn cheapest_route(
    net: &FlowNetwork<'_>,
    flow: &Flow,
    mut weight: impl FnMut(GraphNode) -> f64,
) -> Option<Vec<GraphNode>> {
    let acyclic = net.acyclic();
    let graph = acyclic.graph();
    // The implicit edge from the source terminal to each starting vertex
    // carries that vertex's weight. Every other edge carries the weight
    // of the vertex it enters; edges into the sink terminal carry 0
    // (paper §3.6), so the path cost is exactly the sum of the vertices'
    // weights.
    let sources: Vec<(GraphNode, f64)> = net
        .sources(flow)
        .into_iter()
        .map(|v| (v, weight(v)))
        .collect();
    let sinks = net.sinks(flow);
    let sp = algo::dag_shortest_paths(
        graph,
        acyclic.topological_order(),
        acyclic.ranks(),
        &sources,
        &sinks,
        weight,
    );
    let best_sink = sinks
        .into_iter()
        .filter(|v| sp.dist[v.index()].is_finite())
        .min_by(|a, b| {
            sp.dist[a.index()]
                .partial_cmp(&sp.dist[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
    let edge_path = sp
        .path_to(graph, best_sink)
        .expect("finite dist implies a path");
    let mut vertices = Vec::with_capacity(edge_path.len() + 1);
    match edge_path.first() {
        Some(&e) => {
            let (s, _) = graph.endpoints(e).expect("live edge");
            vertices.push(s);
        }
        None => vertices.push(best_sink),
    }
    for &e in &edge_path {
        let (_, d) = graph.endpoints(e).expect("live edge");
        vertices.push(d);
    }
    Some(vertices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock;
    use bsor_cdg::{AcyclicCdg, TurnModel};
    use bsor_topology::Topology;

    fn transpose_flows(topo: &Topology, demand: f64) -> FlowSet {
        let n = topo.width();
        let mut fs = FlowSet::new();
        for y in 0..n {
            for x in 0..n {
                if x != y {
                    let s = topo.node_at(x, y).expect("in range");
                    let d = topo.node_at(y, x).expect("in range");
                    fs.push(s, d, demand);
                }
            }
        }
        fs
    }

    #[test]
    fn routes_are_valid_and_deadlock_free() {
        let topo = Topology::mesh2d(4, 4);
        let acyclic = AcyclicCdg::turn_model(&topo, 2, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 25.0);
        let routes = DijkstraSelector::new()
            .select(&net, &flows)
            .expect("routable");
        routes.validate(&topo, &flows, 2).expect("valid");
        assert!(deadlock::is_deadlock_free(&topo, &routes, 2));
    }

    #[test]
    fn beats_xy_on_transpose_across_cdg_exploration() {
        // The headline claim (paper Tables 6.2/6.3): exploring the valid
        // turn-model CDGs and keeping the best route set lowers MCL well
        // below dimension-order routing on transpose. With 25 MB/s flows
        // the paper's numbers are XY = 175 and BSOR-Dijkstra = 75.
        let topo = Topology::mesh2d(8, 8);
        let flows = transpose_flows(&topo, 25.0);
        let xy = crate::baselines::Baseline::XY
            .select(&topo, &flows, 2)
            .expect("xy");
        let xy_mcl = xy.mcl(&topo, &flows);
        assert_eq!(xy_mcl, 175.0);
        let mut best = f64::INFINITY;
        for model in TurnModel::valid_models(&topo).expect("mesh is a grid") {
            let acyclic = AcyclicCdg::turn_model(&topo, 2, &model).expect("valid");
            let net = FlowNetwork::new(&topo, &acyclic);
            let routes = DijkstraSelector::new()
                .select(&net, &flows)
                .expect("routable");
            routes.validate(&topo, &flows, 2).expect("valid");
            best = best.min(routes.mcl(&topo, &flows));
        }
        assert_eq!(
            best, 75.0,
            "best turn-model CDG should reach the paper's 75 MB/s"
        );
    }

    #[test]
    fn static_vc_masks_are_singletons() {
        let topo = Topology::mesh2d(3, 3);
        let acyclic = AcyclicCdg::turn_model(&topo, 4, &TurnModel::north_last()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 10.0);
        let routes = DijkstraSelector::new()
            .select(&net, &flows)
            .expect("routable");
        for r in routes.iter() {
            for h in &r.hops {
                assert_eq!(h.vcs.count(), 1, "static allocation pins one VC per hop");
            }
        }
    }

    #[test]
    fn order_changes_results_but_not_feasibility() {
        let topo = Topology::mesh2d(4, 4);
        let acyclic = AcyclicCdg::turn_model(&topo, 2, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 25.0);
        for order in [
            FlowOrder::AsGiven,
            FlowOrder::DemandDescending,
            FlowOrder::Random { seed: 1 },
            FlowOrder::Random { seed: 2 },
        ] {
            let routes = DijkstraSelector::new()
                .with_order(order)
                .select(&net, &flows)
                .expect("routable");
            routes.validate(&topo, &flows, 2).expect("valid");
        }
    }

    #[test]
    fn larger_m_biases_towards_short_paths() {
        // Paper §3.6: "Increasing M gives more weight to minimizing the
        // number of hops in each path."
        let topo = Topology::mesh2d(6, 6);
        let acyclic = AcyclicCdg::turn_model(&topo, 2, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 100.0);
        let small_m = DijkstraSelector::new()
            .with_weights(WeightParams {
                m_const: 10.0,
                vc_bias: 0.0,
            })
            .select(&net, &flows)
            .expect("routable");
        let large_m = DijkstraSelector::new()
            .with_weights(WeightParams {
                m_const: 1e7,
                vc_bias: 0.0,
            })
            .select(&net, &flows)
            .expect("routable");
        assert!(
            large_m.mean_hops() <= small_m.mean_hops(),
            "large M ({}) should not produce longer routes than small M ({})",
            large_m.mean_hops(),
            small_m.mean_hops()
        );
    }

    #[test]
    fn hop_budget_is_enforced_and_typed() {
        let topo = Topology::mesh2d(4, 4);
        let acyclic = AcyclicCdg::turn_model(&topo, 2, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 25.0);
        // A 4x4 transpose needs up to 6 hops; a 2-hop budget must refuse.
        let err = DijkstraSelector::new()
            .with_max_hops(2)
            .select(&net, &flows)
            .expect_err("2 hops cannot cover transpose");
        assert!(matches!(
            err,
            crate::selector::SelectError::HopBudgetExceeded { max_hops: 2, .. }
        ));
        // A generous budget changes nothing.
        let capped = DijkstraSelector::new()
            .with_max_hops(64)
            .select(&net, &flows)
            .expect("routable");
        let free = DijkstraSelector::new()
            .select(&net, &flows)
            .expect("routable");
        assert_eq!(capped.mcl(&topo, &flows), free.mcl(&topo, &flows));
    }

    #[test]
    fn single_hop_flow_routes_directly() {
        let topo = Topology::mesh2d(2, 2);
        let acyclic = AcyclicCdg::turn_model(&topo, 1, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let mut flows = FlowSet::new();
        flows.push(
            topo.node_at(0, 0).unwrap(),
            topo.node_at(1, 0).unwrap(),
            5.0,
        );
        let routes = DijkstraSelector::new()
            .select(&net, &flows)
            .expect("routable");
        assert_eq!(routes.route(bsor_flow::FlowId(0)).len(), 1);
    }
}
