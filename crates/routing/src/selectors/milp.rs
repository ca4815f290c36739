//! The BSOR mixed integer-linear programming selector (paper §3.5).
//!
//! The paper formulates route selection over the flow network `GA` as an
//! arc-based MILP with Boolean per-arc variables. This implementation
//! solves the equivalent *path-based* MILP: candidate paths for each flow
//! are enumerated exhaustively in `GA` under the hop-count bound
//! `hopᵢ = minhopsᵢ + slack`, and a binary variable selects one path per
//! flow. Minimizing `U = max_e Σᵢ dᵢ·[e ∈ pᵢ]` is expressed with one load
//! row per physical channel.
//!
//! The two formulations have identical optima whenever the candidate set
//! is exhaustive; a per-flow cap guards against pathological blowup and is
//! reported in [`MilpReport::truncated_flows`] when hit (making the solve
//! a documented heuristic, exactly like running CPLEX with iteration
//! limits in the thesis).
//!
//! The candidate pool holds, per flow, the Dijkstra selector's
//! warm-start path, the paths of a bounded exhaustive DFS, and one
//! shortest path per randomized-weight round. The rounds draw one
//! weight per CDG vertex and run the Dijkstra selector's per-flow
//! query: one topological-order sweep of the acyclic CDG, which picks
//! exactly the path a binary-heap Dijkstra would (see
//! [`crate::selectors::dijkstra`]).

use crate::route::{Route, RouteHop, RouteSet, VcMask};
use crate::selector::SelectError;
use crate::selectors::dijkstra::{cheapest_route, DijkstraSelector};
use bsor_flow::{FlowId, FlowNetwork, FlowSet};
use bsor_lp::{Cmp, MilpOptions, MilpStats, Model, VarId};
use bsor_netgraph::{algo, NodeId as GraphNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Objective of the MILP selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MilpObjective {
    /// Minimize the maximum channel load in MB/s (paper Equation 3.2).
    MinimizeMcl,
    /// Minimize the maximum number of flows sharing a channel — the
    /// bandwidth-free alternative objective of paper §7.2.
    MinimizeSharedFlows,
}

/// Configuration of the MILP route selector.
#[derive(Clone, Debug)]
pub struct MilpSelector {
    /// Extra channels allowed beyond each flow's minimum (`hopᵢ` in the
    /// paper is `min + slack`; the paper suggests incrementing by 2 or
    /// more for non-minimal routing).
    pub hop_slack: usize,
    /// Cap on enumerated candidate paths per flow.
    pub max_paths_per_flow: usize,
    /// Enforce hard channel-capacity rows (`Σ ≤ c(e)`); the paper's MCL
    /// objective usually makes these redundant.
    pub enforce_capacity: bool,
    /// Objective to optimize.
    pub objective: MilpObjective,
    /// Branch-and-bound budget.
    pub options: MilpOptions,
    /// Randomized-Dijkstra rounds that diversify the candidate pool (in
    /// addition to exhaustive bounded enumeration and the Dijkstra
    /// selector's warm-start paths).
    pub randomized_rounds: usize,
    /// Seed for the randomized candidate rounds.
    pub seed: u64,
    /// Hop budget: selections containing a route longer than this are
    /// rejected with [`SelectError::HopBudgetExceeded`]. `None` (the
    /// default) leaves route length to the `hop_slack` bound alone.
    pub max_hops: Option<usize>,
}

impl Default for MilpSelector {
    fn default() -> Self {
        MilpSelector {
            hop_slack: 4,
            max_paths_per_flow: 200,
            enforce_capacity: false,
            objective: MilpObjective::MinimizeMcl,
            options: MilpOptions::default(),
            randomized_rounds: 24,
            seed: 0x51_AC,
            max_hops: None,
        }
    }
}

/// Candidate routes per flow: an outer entry per flow, holding that
/// flow's candidate paths, each a sequence of CDG vertices.
pub type CandidatePaths = Vec<Vec<Vec<GraphNode>>>;

/// The per-flow candidate paths assembled for the MILP (first entry of
/// each flow is its Dijkstra warm-start path).
struct CandidatePool {
    per_flow: CandidatePaths,
    truncated: Vec<FlowId>,
}

/// Diagnostics from a MILP selection.
#[derive(Clone, Debug, Default)]
pub struct MilpReport {
    /// Flows whose candidate-path enumeration hit the cap (the solve is
    /// then a heuristic over the retained candidates).
    pub truncated_flows: Vec<FlowId>,
    /// Total candidate paths across all flows.
    pub candidate_paths: usize,
    /// Branch-and-bound statistics.
    pub stats: MilpStats,
    /// Objective value reported by the solver.
    pub objective: f64,
}

impl MilpSelector {
    /// Selector with default parameters.
    pub fn new() -> Self {
        MilpSelector::default()
    }

    /// Sets the hop slack.
    #[must_use]
    pub fn with_hop_slack(mut self, slack: usize) -> Self {
        self.hop_slack = slack;
        self
    }

    /// Sets the candidate-path cap.
    #[must_use]
    pub fn with_max_paths(mut self, cap: usize) -> Self {
        self.max_paths_per_flow = cap;
        self
    }

    /// Sets the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: MilpObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets branch-and-bound options.
    #[must_use]
    pub fn with_options(mut self, options: MilpOptions) -> Self {
        self.options = options;
        self
    }

    /// Caps route length: any selection containing a route longer than
    /// `max_hops` is refused with [`SelectError::HopBudgetExceeded`].
    #[must_use]
    pub fn with_max_hops(mut self, max_hops: usize) -> Self {
        self.max_hops = Some(max_hops);
        self
    }

    /// Enumerates the candidate-path pool for every flow: the Dijkstra
    /// selector's warm-start path, exhaustive bounded DFS enumeration,
    /// and randomized-Dijkstra diversification rounds.
    ///
    /// Exposed for diagnostics; [`MilpSelector::select`] calls it
    /// internally.
    ///
    /// # Errors
    ///
    /// [`SelectError::Unroutable`] if some flow has no conforming path
    /// within the hop bound.
    pub fn enumerate_candidates(
        &self,
        net: &FlowNetwork<'_>,
        flows: &FlowSet,
    ) -> Result<(CandidatePaths, Vec<FlowId>), SelectError> {
        self.build_pool(net, flows)
            .map(|pool| (pool.per_flow, pool.truncated))
    }

    fn build_pool(
        &self,
        net: &FlowNetwork<'_>,
        flows: &FlowSet,
    ) -> Result<CandidatePool, SelectError> {
        let graph = net.acyclic().graph();
        // Warm-start paths: the sequential heuristic with one refinement
        // pass gives the MILP a feasible incumbent it can only improve.
        let warm_paths = DijkstraSelector::new()
            .with_refinement(1)
            .select_paths(net, flows)?;
        let mut per_flow: CandidatePaths = Vec::with_capacity(flows.len());
        let mut seen: Vec<HashSet<Vec<GraphNode>>> = Vec::with_capacity(flows.len());
        let mut truncated = Vec::new();
        let mut bounds = Vec::with_capacity(flows.len());
        for flow in flows.iter() {
            let min_links = net
                .min_route_links(flow)
                .ok_or(SelectError::Unroutable { flow: flow.id })?;
            bounds.push(min_links + self.hop_slack);
            let warm = warm_paths[flow.id.index()].clone();
            let mut dedup = HashSet::new();
            dedup.insert(warm.clone());
            per_flow.push(vec![warm]);
            seen.push(dedup);
        }
        // Exhaustive bounded enumeration, capped per flow. A reverse-BFS
        // distance-to-sink bound prunes subtrees that cannot reach the
        // sink within the hop budget.
        for (i, flow) in flows.iter().enumerate() {
            let sink_mask = net.sink_mask(flow);
            let to_sink = algo::bfs_hops_to(graph, &net.sinks(flow));
            let max_edges = bounds[i] - 1;
            let mut hit_cap = false;
            for start in net.sources(flow) {
                if per_flow[i].len() >= self.max_paths_per_flow {
                    hit_cap = true;
                    break;
                }
                let budget = self.max_paths_per_flow - per_flow[i].len();
                let cands = &mut per_flow[i];
                let dedup = &mut seen[i];
                let outcome = algo::enumerate_paths(
                    graph,
                    &[start],
                    |v| sink_mask[v.index()],
                    |v| to_sink[v.index()],
                    max_edges,
                    budget,
                    |edges| {
                        let mut verts = Vec::with_capacity(edges.len() + 1);
                        verts.push(start);
                        for &e in edges {
                            let (_, d) = graph.endpoints(e).expect("live edge");
                            verts.push(d);
                        }
                        if dedup.insert(verts.clone()) {
                            cands.push(verts);
                        }
                    },
                );
                if outcome == algo::EnumerationOutcome::Truncated {
                    hit_cap = true;
                }
            }
            if hit_cap {
                truncated.push(flow.id);
            }
        }
        // Randomized-Dijkstra diversification: each round draws one
        // random weight per CDG vertex and takes every flow's shortest
        // path under it, so the pool contains globally diverse,
        // hop-bounded alternatives even when DFS enumeration truncates.
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.randomized_rounds {
            let weights: Vec<f64> = (0..graph.node_count())
                .map(|_| rng.gen_range(0.5..2.0))
                .collect();
            for (i, flow) in flows.iter().enumerate() {
                if per_flow[i].len() >= self.max_paths_per_flow {
                    continue;
                }
                let Some(verts) = cheapest_route(net, flow, |v| weights[v.index()]) else {
                    continue;
                };
                if verts.len() <= bounds[i] && seen[i].insert(verts.clone()) {
                    per_flow[i].push(verts);
                }
            }
        }
        Ok(CandidatePool {
            per_flow,
            truncated,
        })
    }

    /// Chooses one deadlock-free route per flow by MILP.
    ///
    /// **Deprecation note:** this flow-network signature is the legacy
    /// entry point. New code should run the selector through the unified
    /// `RouteAlgorithm` trait (`bsor_sim::RouteAlgorithm`, which
    /// `MilpSelector` implements against a scenario's CDG) or the
    /// exploring `bsor::BsorAlgorithm`; this method remains as the
    /// selection kernel those impls delegate to.
    ///
    /// # Errors
    ///
    /// * [`SelectError::Unroutable`] when a flow has no conforming path.
    /// * [`SelectError::Milp`] when the solver exhausts its budget without
    ///   an incumbent or the model is infeasible (only possible with
    ///   `enforce_capacity`).
    pub fn select(
        &self,
        net: &FlowNetwork<'_>,
        flows: &FlowSet,
    ) -> Result<(RouteSet, MilpReport), SelectError> {
        let pool = self.build_pool(net, flows)?;
        let candidates = &pool.per_flow;
        let truncated_flows = pool.truncated.clone();
        let candidate_paths: usize = candidates.iter().map(|c| c.len()).sum();

        let mut model = Model::minimize();
        let u = model.add_var(bsor_lp::VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        // Per-link accumulated terms: (path var, load coefficient).
        let num_links = net.topology().num_links();
        let mut link_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); num_links];
        let mut path_vars: Vec<Vec<VarId>> = Vec::with_capacity(flows.len());
        // Warm-start accounting: the first candidate of every flow is the
        // Dijkstra path; their joint objective seeds the incumbent.
        let mut warm_link_metric = vec![0.0f64; num_links];
        for (flow, cands) in flows.iter().zip(candidates) {
            let coeff = match self.objective {
                MilpObjective::MinimizeMcl => flow.demand,
                MilpObjective::MinimizeSharedFlows => 1.0,
            };
            let mut vars = Vec::with_capacity(cands.len());
            for (pi, path) in cands.iter().enumerate() {
                let x = model.add_binary(0.0);
                model.set_ub_implied(x); // covered by the choice row
                for &v in path {
                    let link = net.acyclic().cdg().vertex(v).link;
                    link_terms[link.index()].push((x, coeff));
                    if pi == 0 {
                        warm_link_metric[link.index()] += coeff;
                    }
                }
                vars.push(x);
            }
            model.add_constraint(vars.iter().map(|&x| (x, 1.0)).collect(), Cmp::Eq, 1.0);
            path_vars.push(vars);
        }
        for (li, terms) in link_terms.into_iter().enumerate() {
            if terms.is_empty() {
                continue;
            }
            let mut row = terms.clone();
            row.push((u, -1.0));
            model.add_constraint(row, Cmp::Le, 0.0);
            if self.enforce_capacity {
                let cap = net
                    .topology()
                    .link(bsor_topology::LinkId(li as u32))
                    .capacity;
                if cap.is_finite() {
                    // Capacity rows only make sense for the MCL objective
                    // where coefficients are demands.
                    if self.objective == MilpObjective::MinimizeMcl {
                        model.add_constraint(terms, Cmp::Le, cap);
                    }
                }
            }
        }

        // Assemble the warm-start assignment: x = 1 on each flow's first
        // candidate, U = the induced bottleneck value.
        let warm_u = warm_link_metric.iter().copied().fold(0.0, f64::max);
        let mut initial = vec![0.0; model.num_vars()];
        initial[u.index()] = warm_u;
        for vars in &path_vars {
            initial[vars[0].index()] = 1.0;
        }
        let mut options = self.options.clone();
        options.initial = Some(initial);

        let (solution, stats) = model.solve_with(&options)?;

        let mut routes = Vec::with_capacity(flows.len());
        for (flow, (cands, vars)) in flows.iter().zip(candidates.iter().zip(&path_vars)) {
            debug_assert_eq!(cands.len(), vars.len());
            let chosen = vars
                .iter()
                .position(|&x| solution.value(x) > 0.5)
                .expect("choice row forces exactly one selected path");
            let hops = cands[chosen]
                .iter()
                .map(|&v| {
                    let cv = net.acyclic().cdg().vertex(v);
                    RouteHop {
                        link: cv.link,
                        vcs: VcMask::single(cv.vc.0),
                    }
                })
                .collect();
            routes.push(Route {
                flow: flow.id,
                hops,
            });
        }
        let report = MilpReport {
            truncated_flows,
            candidate_paths,
            stats,
            objective: solution.objective(),
        };
        let routes = RouteSet::from_routes(routes);
        crate::selector::check_hop_budget(&routes, self.max_hops)?;
        Ok((routes, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock;
    use crate::selectors::dijkstra::DijkstraSelector;
    use bsor_cdg::{AcyclicCdg, TurnModel};
    use bsor_topology::Topology;

    fn transpose_flows(topo: &Topology, demand: f64) -> FlowSet {
        let n = topo.width();
        let mut fs = FlowSet::new();
        for y in 0..n {
            for x in 0..n {
                if x != y {
                    fs.push(
                        topo.node_at(x, y).expect("in range"),
                        topo.node_at(y, x).expect("in range"),
                        demand,
                    );
                }
            }
        }
        fs
    }

    #[test]
    fn milp_routes_valid_and_deadlock_free() {
        let topo = Topology::mesh2d(3, 3);
        let acyclic = AcyclicCdg::turn_model(&topo, 1, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 25.0);
        let (routes, report) = MilpSelector::new()
            .with_hop_slack(2)
            .select(&net, &flows)
            .expect("solvable");
        routes.validate(&topo, &flows, 1).expect("valid");
        assert!(deadlock::is_deadlock_free(&topo, &routes, 1));
        assert!(report.candidate_paths > 0);
        assert!(report.objective > 0.0);
    }

    #[test]
    fn milp_at_least_as_good_as_dijkstra() {
        // The thesis observes MILP MCLs are always <= Dijkstra's for the
        // same CDG (§6.2).
        let topo = Topology::mesh2d(4, 4);
        let acyclic =
            AcyclicCdg::turn_model(&topo, 1, &TurnModel::negative_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 25.0);
        let (milp_routes, _) = MilpSelector::new()
            .with_hop_slack(2)
            .select(&net, &flows)
            .expect("solvable");
        let dijkstra_routes = DijkstraSelector::new()
            .select(&net, &flows)
            .expect("routable");
        let milp_mcl = milp_routes.mcl(&topo, &flows);
        let dijkstra_mcl = dijkstra_routes.mcl(&topo, &flows);
        assert!(
            milp_mcl <= dijkstra_mcl + 1e-9,
            "MILP ({milp_mcl}) must not lose to Dijkstra ({dijkstra_mcl})"
        );
    }

    #[test]
    fn milp_objective_matches_recomputed_mcl() {
        let topo = Topology::mesh2d(3, 3);
        let acyclic = AcyclicCdg::turn_model(&topo, 1, &TurnModel::north_last()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 10.0);
        let (routes, report) = MilpSelector::new()
            .with_hop_slack(2)
            .select(&net, &flows)
            .expect("solvable");
        assert!((routes.mcl(&topo, &flows) - report.objective).abs() < 1e-6);
    }

    #[test]
    fn hop_slack_zero_gives_minimal_routes() {
        let topo = Topology::mesh2d(3, 3);
        let acyclic = AcyclicCdg::turn_model(&topo, 1, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 25.0);
        let (routes, _) = MilpSelector::new()
            .with_hop_slack(0)
            .select(&net, &flows)
            .expect("solvable");
        for r in routes.iter() {
            let f = flows.flow(r.flow);
            assert_eq!(
                r.len(),
                topo.min_hops(f.src, f.dst),
                "slack 0 forces minimal"
            );
        }
    }

    #[test]
    fn shared_flows_objective_counts_flows() {
        let topo = Topology::mesh2d(3, 3);
        let acyclic = AcyclicCdg::turn_model(&topo, 1, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 25.0);
        let (routes, report) = MilpSelector::new()
            .with_hop_slack(2)
            .with_objective(MilpObjective::MinimizeSharedFlows)
            .select(&net, &flows)
            .expect("solvable");
        let max_flows = routes.max_flows_per_link(&topo);
        assert!((report.objective - max_flows as f64).abs() < 1e-6);
    }

    #[test]
    fn truncation_is_reported() {
        let topo = Topology::mesh2d(3, 3);
        let acyclic = AcyclicCdg::turn_model(&topo, 1, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let flows = transpose_flows(&topo, 25.0);
        let (_, report) = MilpSelector::new()
            .with_hop_slack(2)
            .with_max_paths(1)
            .select(&net, &flows)
            .expect("solvable with tiny candidate sets");
        assert!(!report.truncated_flows.is_empty());
    }

    #[test]
    fn unroutable_flow_reported() {
        // An edgeless CDG only supports adjacent pairs.
        let topo = Topology::mesh2d(3, 3);
        let mut cdg = bsor_cdg::Cdg::build(&topo, 1);
        let all: Vec<_> = cdg.graph().edge_ids().collect();
        for e in all {
            cdg.graph_mut().remove_edge(e);
        }
        let acyclic = AcyclicCdg::try_new(cdg, "empty", 0).expect("acyclic");
        let net = FlowNetwork::new(&topo, &acyclic);
        let mut flows = FlowSet::new();
        let id = flows.push(
            topo.node_at(0, 0).unwrap(),
            topo.node_at(2, 2).unwrap(),
            1.0,
        );
        let err = MilpSelector::new().select(&net, &flows).unwrap_err();
        assert_eq!(err, SelectError::Unroutable { flow: id });
    }
}
