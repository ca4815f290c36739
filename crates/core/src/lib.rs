//! # bsor — Bandwidth-Sensitive Oblivious Routing
//!
//! A library reproduction of *Application-Aware Deadlock-Free Oblivious
//! Routing* (Kinsy et al., ISCA 2009 / MIT 2009): given an application's
//! flows with estimated bandwidth demands, compute deadlock-free routes
//! that minimize the **maximum channel load** (MCL) of a network-on-chip.
//!
//! The paper's offline framework (§3.2) is implemented verbatim by
//! [`BsorBuilder`]:
//!
//! 1. derive an acyclic channel dependence graph (CDG) from the network,
//! 2. lift it to a flow network `GA`,
//! 3. choose one route per flow with a selector function (MILP or
//!    weighted-Dijkstra),
//! 4. repeat with other acyclic CDGs,
//! 5. keep the best (lowest-MCL) route set.
//!
//! ```
//! use bsor::{BsorBuilder, SelectorKind};
//! use bsor_topology::Topology;
//! use bsor_workloads::transpose;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mesh = Topology::mesh2d(4, 4);
//! let workload = transpose(&mesh)?;
//! let result = BsorBuilder::new(&mesh, &workload.flows).vcs(2).run()?;
//! // Dimension-order routing needs 75 MB/s on its worst channel here;
//! // BSOR spreads the transpose to 50.
//! assert!(result.mcl <= 50.0);
//! # Ok(())
//! # }
//! ```
//!
//! The sub-crates are re-exported under module aliases
//! ([`topology`], [`cdg`], [`flow`], [`routing`], [`sim`], [`workloads`],
//! [`lp`], [`netgraph`]) so applications can depend on `bsor` alone.

pub use bsor_cdg as cdg;
pub use bsor_flow as flow;
pub use bsor_lp as lp;
pub use bsor_netgraph as netgraph;
pub use bsor_routing as routing;
pub use bsor_sim as sim;
pub use bsor_topology as topology;
pub use bsor_workloads as workloads;

pub mod registry;

pub use bsor_sim::{
    AlgorithmError, EvalError, EvalPoint, Evaluation, Evaluator, Experiment, ExperimentError,
    PlanCache, PlanError, PlanId, PlanKey, PlanStats, Planner, RouteAlgorithm, RoutePlan, Scenario,
    ScenarioBuilder, ScenarioCtx, SimEvaluator, StaticMclEvaluator,
};
pub use bsor_topology::{TopologyError, TopologyRegistry};
pub use bsor_workloads::{workload_by_name, WorkloadRegistry};
pub use registry::{AlgorithmRegistry, BsorAlgorithm, RegistryConfig};

use bsor_cdg::{AcyclicCdg, CdgError, LayerRecipe, TurnModel};
use bsor_flow::{FlowNetwork, FlowSet, FlowSetError};
use bsor_routing::selectors::{DijkstraSelector, MilpSelector};
use bsor_routing::{deadlock, RouteSet, SelectError};
use bsor_topology::Topology;
use std::error::Error;
use std::fmt;

/// A recipe for deriving one (or a family of) acyclic CDGs to explore.
#[derive(Clone, Debug)]
pub enum CdgStrategy {
    /// One specific turn model.
    TurnModel(TurnModel),
    /// All deadlock-free two-turn models of the topology (12 on a 2-D
    /// mesh) — the paper's main exploration set.
    AllTurnModels,
    /// Randomized cycle breaking that preserves all-pairs routability
    /// (grids only — a turn-model skeleton is protected).
    AdHoc {
        /// RNG seed.
        seed: u64,
    },
    /// Unprotected randomized cycle breaking: works on any topology
    /// (rings, tori, hypercubes) but may leave some node pairs
    /// unroutable, in which case the CDG is recorded as skipped.
    AdHocAny {
        /// RNG seed.
        seed: u64,
    },
    /// Up*/down* spanning-tree escape ordering: works on any topology
    /// and keeps every pair routable on symmetric graphs even at one
    /// VC (the VC-free escape path for arbitrary graphs).
    UpDown,
    /// Turn model plus "any turn when climbing to a higher VC".
    EscalatingVc(TurnModel),
    /// Independent per-VC virtual networks.
    VirtualNetworks(Vec<LayerRecipe>),
}

/// The topology's valid turn models, derived on first use and shared by
/// every strategy of one exploration.
type ValidModels = Option<Result<Vec<TurnModel>, CdgError>>;

fn valid_models<'m>(
    slot: &'m mut ValidModels,
    topo: &Topology,
) -> Result<&'m [TurnModel], CdgError> {
    slot.get_or_insert_with(|| TurnModel::valid_models(topo))
        .as_deref()
        .map_err(Clone::clone)
}

impl CdgStrategy {
    /// Expands the strategy into concrete acyclic CDGs with `vcs` virtual
    /// channels. Failures (e.g. a turn model on a torus) surface as
    /// per-CDG errors.
    fn expand(
        &self,
        topo: &Topology,
        vcs: u8,
        models: &mut ValidModels,
    ) -> Vec<Result<AcyclicCdg, CdgError>> {
        match self {
            CdgStrategy::TurnModel(m) => vec![AcyclicCdg::turn_model(topo, vcs, m)],
            CdgStrategy::AllTurnModels => match valid_models(models, topo) {
                Err(e) => vec![Err(e)],
                Ok(models) => models
                    .iter()
                    .map(|m| AcyclicCdg::turn_model(topo, vcs, m))
                    .collect(),
            },
            CdgStrategy::AdHoc { seed } => vec![valid_models(models, topo)
                .and_then(|valid| AcyclicCdg::ad_hoc_routable_among(topo, vcs, *seed, valid))],
            CdgStrategy::AdHocAny { seed } => vec![Ok(AcyclicCdg::ad_hoc(topo, vcs, *seed))],
            CdgStrategy::UpDown => vec![AcyclicCdg::up_down(topo, vcs)],
            CdgStrategy::EscalatingVc(m) => vec![AcyclicCdg::escalating_vc(topo, vcs, m)],
            CdgStrategy::VirtualNetworks(layers) => {
                vec![AcyclicCdg::virtual_networks(topo, layers)]
            }
        }
    }
}

/// Which selector function `SF` drives route selection.
#[derive(Clone, Debug)]
pub enum SelectorKind {
    /// The scalable weighted-shortest-path heuristic (paper §3.6).
    Dijkstra(DijkstraSelector),
    /// The mixed integer-linear program (paper §3.5).
    Milp(MilpSelector),
}

impl Default for SelectorKind {
    fn default() -> Self {
        SelectorKind::Dijkstra(DijkstraSelector::new())
    }
}

/// Routes found on one explored CDG.
#[derive(Clone, Debug)]
pub struct ExploredRoutes {
    /// The selected routes.
    pub routes: RouteSet,
    /// Their maximum channel load in MB/s.
    pub mcl: f64,
    /// Mean route length in hops.
    pub mean_hops: f64,
}

/// Outcome of exploring one acyclic CDG.
#[derive(Clone, Debug)]
pub struct ExplorationRecord {
    /// Name of the CDG derivation (e.g. `"west-first"`, `"ad-hoc-7"`).
    pub cdg: String,
    /// Routes and MCL, or why this CDG was skipped.
    pub outcome: Result<ExploredRoutes, String>,
}

/// The best route set found by the framework.
#[derive(Clone, Debug)]
pub struct BsorResult {
    /// The winning routes (deadlock-free, validated).
    pub routes: RouteSet,
    /// Their maximum channel load in MB/s.
    pub mcl: f64,
    /// Name of the CDG that produced them.
    pub cdg: String,
    /// Every CDG explored, in order.
    pub explored: Vec<ExplorationRecord>,
}

/// Errors from the BSOR framework.
#[derive(Clone, Debug)]
pub enum BsorError {
    /// The flow set failed validation.
    InvalidFlows(FlowSetError),
    /// No explored CDG produced a usable route set; the records hold the
    /// per-CDG reasons.
    NoUsableCdg(Vec<ExplorationRecord>),
}

impl fmt::Display for BsorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BsorError::InvalidFlows(e) => write!(f, "invalid flow set: {e}"),
            BsorError::NoUsableCdg(records) => {
                write!(
                    f,
                    "no usable acyclic CDG among the {} explored",
                    records.len()
                )?;
                // Surface one concrete reason so blanket failures (every
                // CDG refused by e.g. a hop budget) stay diagnosable from
                // the one-line error.
                if let Some(reason) = records.iter().find_map(|r| r.outcome.as_ref().err()) {
                    write!(f, " (first failure: {reason})")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for BsorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BsorError::InvalidFlows(e) => Some(e),
            BsorError::NoUsableCdg(_) => None,
        }
    }
}

impl From<FlowSetError> for BsorError {
    fn from(e: FlowSetError) -> Self {
        BsorError::InvalidFlows(e)
    }
}

/// Builder for a BSOR route computation (the paper's framework, §3.2).
#[derive(Clone, Debug)]
pub struct BsorBuilder<'a> {
    topo: &'a Topology,
    flows: &'a FlowSet,
    vcs: u8,
    strategies: Vec<CdgStrategy>,
    selector: SelectorKind,
}

impl<'a> BsorBuilder<'a> {
    /// Starts a computation over `topo` for `flows`, with 2 VCs, the
    /// Dijkstra selector, and the paper's exploration set (all valid
    /// turn models plus three ad-hoc CDGs).
    pub fn new(topo: &'a Topology, flows: &'a FlowSet) -> Self {
        BsorBuilder {
            topo,
            flows,
            vcs: 2,
            strategies: vec![
                CdgStrategy::AllTurnModels,
                CdgStrategy::AdHoc { seed: 1 },
                CdgStrategy::AdHoc { seed: 2 },
                CdgStrategy::AdHoc { seed: 3 },
            ],
            selector: SelectorKind::default(),
        }
    }

    /// Sets the number of virtual channels per link.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= vcs <= 8`.
    #[must_use]
    pub fn vcs(mut self, vcs: u8) -> Self {
        assert!((1..=8).contains(&vcs), "vcs must be 1..=8");
        self.vcs = vcs;
        self
    }

    /// Replaces the exploration strategies.
    #[must_use]
    pub fn strategies(mut self, strategies: Vec<CdgStrategy>) -> Self {
        self.strategies = strategies;
        self
    }

    /// Appends one strategy.
    #[must_use]
    pub fn add_strategy(mut self, strategy: CdgStrategy) -> Self {
        self.strategies.push(strategy);
        self
    }

    /// Sets the selector function.
    #[must_use]
    pub fn selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    fn select_on(&self, acyclic: &AcyclicCdg) -> Result<RouteSet, SelectError> {
        let net = FlowNetwork::new(self.topo, acyclic);
        match &self.selector {
            SelectorKind::Dijkstra(s) => s.select(&net, self.flows),
            SelectorKind::Milp(s) => s.select(&net, self.flows).map(|(r, _)| r),
        }
    }

    /// Explores every CDG and returns a record per CDG (the raw material
    /// of the paper's Tables 6.1/6.2).
    ///
    /// # Errors
    ///
    /// [`BsorError::InvalidFlows`] if the flow set fails validation.
    pub fn explore(&self) -> Result<Vec<ExplorationRecord>, BsorError> {
        self.flows.validate(self.topo)?;
        let mut records = Vec::new();
        let mut models = None;
        for strategy in &self.strategies {
            for derived in strategy.expand(self.topo, self.vcs, &mut models) {
                let record = match derived {
                    Err(e) => ExplorationRecord {
                        cdg: format!("{strategy:?}"),
                        outcome: Err(e.to_string()),
                    },
                    Ok(acyclic) => {
                        let cdg = acyclic.name().to_owned();
                        let outcome = match self.select_on(&acyclic) {
                            Err(e) => Err(e.to_string()),
                            Ok(routes) => {
                                debug_assert!(routes
                                    .validate(self.topo, self.flows, self.vcs)
                                    .is_ok());
                                debug_assert!(deadlock::is_deadlock_free(
                                    self.topo, &routes, self.vcs
                                ));
                                let mcl = routes.mcl(self.topo, self.flows);
                                let mean_hops = routes.mean_hops();
                                Ok(ExploredRoutes {
                                    routes,
                                    mcl,
                                    mean_hops,
                                })
                            }
                        };
                        ExplorationRecord { cdg, outcome }
                    }
                };
                records.push(record);
            }
        }
        Ok(records)
    }

    /// Runs the full framework: explore every CDG, keep the best routes.
    ///
    /// # Errors
    ///
    /// * [`BsorError::InvalidFlows`] for malformed flow sets.
    /// * [`BsorError::NoUsableCdg`] when every exploration failed.
    pub fn run(&self) -> Result<BsorResult, BsorError> {
        let explored = self.explore()?;
        let mut best: Option<(usize, f64)> = None;
        for (i, rec) in explored.iter().enumerate() {
            if let Ok(found) = &rec.outcome {
                let better = match best {
                    None => true,
                    Some((_, mcl)) => found.mcl < mcl,
                };
                if better {
                    best = Some((i, found.mcl));
                }
            }
        }
        match best {
            None => Err(BsorError::NoUsableCdg(explored)),
            Some((i, mcl)) => {
                let routes = match &explored[i].outcome {
                    Ok(found) => found.routes.clone(),
                    Err(_) => unreachable!("best index points at a success"),
                };
                let cdg = explored[i].cdg.clone();
                Ok(BsorResult {
                    routes,
                    mcl,
                    cdg,
                    explored,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_lp::MilpOptions;
    use bsor_routing::Baseline;
    use bsor_workloads::{bit_complement, transpose};

    #[test]
    fn framework_beats_xy_on_4x4_transpose() {
        let topo = Topology::mesh2d(4, 4);
        let w = transpose(&topo).expect("square");
        let result = BsorBuilder::new(&topo, &w.flows).run().expect("routable");
        let xy = Baseline::XY
            .select(&topo, &w.flows, 2)
            .expect("xy")
            .mcl(&topo, &w.flows);
        assert!(result.mcl < xy, "BSOR {} vs XY {xy}", result.mcl);
        assert!(deadlock::is_deadlock_free(&topo, &result.routes, 2));
        result.routes.validate(&topo, &w.flows, 2).expect("valid");
        assert!(result.explored.len() >= 12 + 3);
    }

    #[test]
    fn framework_matches_xy_on_bit_complement() {
        // Paper §6.2.2: XY, YX and BSOR all reach MCL 100 on
        // bit-complement (scaled to the 4x4 mesh: 50).
        let topo = Topology::mesh2d(4, 4);
        let w = bit_complement(&topo).expect("square");
        let result = BsorBuilder::new(&topo, &w.flows).run().expect("routable");
        let xy = Baseline::XY
            .select(&topo, &w.flows, 2)
            .expect("xy")
            .mcl(&topo, &w.flows);
        assert!(result.mcl <= xy + 1e-9);
    }

    #[test]
    fn milp_selector_through_framework() {
        let topo = Topology::mesh2d(3, 3);
        let w = transpose(&topo).unwrap_or_else(|_| {
            // 3x3 is not a power of two; build a small custom pattern.
            let mut flows = FlowSet::new();
            for (s, d) in [(0u32, 8u32), (8, 0), (2, 6), (6, 2)] {
                flows.push(bsor_topology::NodeId(s), bsor_topology::NodeId(d), 25.0);
            }
            bsor_workloads::Workload::new("mini", flows)
        });
        let selector = MilpSelector::new()
            .with_hop_slack(2)
            .with_options(MilpOptions {
                max_nodes: 2_000,
                ..MilpOptions::default()
            });
        let result = BsorBuilder::new(&topo, &w.flows)
            .vcs(1)
            .strategies(vec![
                CdgStrategy::TurnModel(TurnModel::west_first()),
                CdgStrategy::TurnModel(TurnModel::north_last()),
            ])
            .selector(SelectorKind::Milp(selector))
            .run()
            .expect("solvable");
        assert!(result.mcl > 0.0);
        assert_eq!(result.explored.len(), 2);
    }

    #[test]
    fn per_cdg_failures_are_recorded_not_fatal() {
        // A torus rejects turn models but ad-hoc breaking still works...
        // on grids. Use a mesh where one strategy is the invalid turn
        // combo.
        use bsor_cdg::Turn;
        use bsor_topology::Direction::*;
        let topo = Topology::mesh2d(4, 4);
        let w = transpose(&topo).expect("square");
        let bad = TurnModel::new("bad", vec![Turn::new(North, East), Turn::new(East, North)]);
        let result = BsorBuilder::new(&topo, &w.flows)
            .strategies(vec![
                CdgStrategy::TurnModel(bad),
                CdgStrategy::TurnModel(TurnModel::west_first()),
            ])
            .run();
        match result {
            Ok(r) => {
                assert_eq!(r.explored.len(), 2);
                assert!(
                    r.explored[0].outcome.is_err(),
                    "bad model recorded as error"
                );
                assert_eq!(r.cdg, "west-first");
            }
            Err(e) => panic!("one good CDG should suffice: {e}"),
        }
    }

    #[test]
    fn all_failures_yield_no_usable_cdg() {
        use bsor_cdg::Turn;
        use bsor_topology::Direction::*;
        let topo = Topology::mesh2d(4, 4);
        let w = transpose(&topo).expect("square");
        let bad = TurnModel::new("bad", vec![Turn::new(North, East), Turn::new(East, North)]);
        let err = BsorBuilder::new(&topo, &w.flows)
            .strategies(vec![CdgStrategy::TurnModel(bad)])
            .run()
            .unwrap_err();
        assert!(matches!(err, BsorError::NoUsableCdg(records) if records.len() == 1));
    }

    #[test]
    fn invalid_flows_rejected_up_front() {
        let topo = Topology::mesh2d(4, 4);
        let mut flows = FlowSet::new();
        flows.push(bsor_topology::NodeId(0), bsor_topology::NodeId(0), 1.0);
        let err = BsorBuilder::new(&topo, &flows).run().unwrap_err();
        assert!(matches!(err, BsorError::InvalidFlows(_)));
    }

    #[test]
    fn escalating_and_virtual_network_strategies_work() {
        let topo = Topology::mesh2d(4, 4);
        let w = transpose(&topo).expect("square");
        let result = BsorBuilder::new(&topo, &w.flows)
            .strategies(vec![
                CdgStrategy::EscalatingVc(TurnModel::west_first()),
                CdgStrategy::VirtualNetworks(vec![
                    LayerRecipe::TurnModel(TurnModel::west_first()),
                    LayerRecipe::TurnModel(TurnModel::negative_first()),
                ]),
            ])
            .run()
            .expect("routable");
        assert!(result.mcl > 0.0);
        assert!(deadlock::is_deadlock_free(&topo, &result.routes, 2));
    }

    #[test]
    fn framework_routes_hypercube_and_ring() {
        // Topology independence end-to-end: non-grid topologies route
        // through the framework with unprotected ad-hoc CDGs (some seeds
        // disconnect pairs; exploring several finds usable ones).
        for topo in [Topology::hypercube(3), Topology::ring(6)] {
            let mut flows = FlowSet::new();
            let n = topo.num_nodes() as u32;
            for i in 0..n {
                flows.push(
                    bsor_topology::NodeId(i),
                    bsor_topology::NodeId((i + n / 2) % n),
                    10.0,
                );
            }
            let strategies: Vec<CdgStrategy> =
                (0..10).map(|seed| CdgStrategy::AdHocAny { seed }).collect();
            let result = BsorBuilder::new(&topo, &flows)
                .vcs(2)
                .strategies(strategies)
                .run()
                .expect("some ad-hoc CDG routes everything");
            assert!(deadlock::is_deadlock_free(&topo, &result.routes, 2));
            result.routes.validate(&topo, &flows, 2).expect("valid");
        }
    }

    #[test]
    fn torus_without_turn_models_is_no_usable_cdg() {
        // A torus has grid directions but no valid turn model: the
        // default exploration derives no turn-model CDG and records a
        // typed error for each protected ad-hoc CDG instead of panicking.
        let topo = Topology::torus2d(4, 4);
        let w = transpose(&topo).expect("square");
        let err = BsorBuilder::new(&topo, &w.flows).run().unwrap_err();
        let BsorError::NoUsableCdg(records) = err else {
            panic!("expected NoUsableCdg, got {err}");
        };
        assert_eq!(records.len(), 3);
        let reason = CdgError::NoValidTurnModel.to_string();
        assert!(records
            .iter()
            .all(|r| r.outcome.as_ref().err() == Some(&reason)));
    }

    #[test]
    fn error_display() {
        let e = BsorError::NoUsableCdg(vec![]);
        assert!(!e.to_string().is_empty());
        let e: BsorError = FlowSetError::SelfFlow(bsor_flow::FlowId(0)).into();
        assert!(e.to_string().contains("invalid"));
        assert!(Error::source(&e).is_some());
    }
}
