//! The unified scenario/experiment pipeline.
//!
//! The paper's framework is compositional: a topology, an application's
//! flow set, a deadlock-free acyclic CDG, and a route-selection function
//! `SF` are independent inputs to one table-programmed router. This
//! module is that composition made concrete:
//!
//! * [`ScenarioCtx`] bundles everything a routing algorithm may consult —
//!   topology, its CSR index, the flows, the VC count and an acyclic CDG.
//! * [`RouteAlgorithm`] is the single trait every algorithm implements —
//!   the paper's baselines (XY/YX/O1TURN/ROMM/Valiant) and the BSOR
//!   selectors alike — replacing the two historical `select` signatures.
//! * [`ScenarioBuilder`] → [`Scenario`] → [`Experiment`] is the one
//!   pipeline every binary drives: it owns CDG construction, route
//!   selection, **mandatory deadlock validation** (paper Lemma 1), route
//!   validation, table compilation and simulation.
//!
//! ```
//! use bsor_routing::Baseline;
//! use bsor_sim::{Evaluator, RouteAlgorithm, Scenario, SimConfig, SimEvaluator};
//! use bsor_flow::FlowSet;
//! use bsor_topology::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mesh = Topology::mesh2d(4, 4);
//! let mut flows = FlowSet::new();
//! flows.push(mesh.node_at(0, 0).unwrap(), mesh.node_at(3, 3).unwrap(), 25.0);
//! let scenario = Scenario::builder(mesh, flows).vcs(2).build()?;
//! let config = SimConfig::new(2).with_warmup(100).with_measurement(1_000);
//! let experiment = scenario
//!     .experiment(&Baseline::XY)
//!     .config(config)
//!     .rate(0.05);
//! let plan = experiment.plan()?;
//! let evaluation = SimEvaluator::new().evaluate(&plan, &experiment.eval_point())?;
//! assert!(evaluation.delivered > 0);
//! # Ok(())
//! # }
//! ```
//!
//! # Adding a custom algorithm
//!
//! Implement [`RouteAlgorithm`] for your type and it plugs into every
//! driver — the sweep CLI, the figure binaries, the examples — without
//! touching any of them (register it in an `AlgorithmRegistry` to make it
//! name-addressable):
//!
//! ```
//! use bsor_routing::{Route, RouteSet, SelectError};
//! use bsor_sim::{AlgorithmError, RouteAlgorithm, ScenarioCtx};
//!
//! /// Routes every flow along a minimal path chosen by a custom rule.
//! struct MyAlgorithm;
//!
//! impl RouteAlgorithm for MyAlgorithm {
//!     fn name(&self) -> &str {
//!         "my-algorithm"
//!     }
//!
//!     fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
//!         // Consult ctx.topo / ctx.flows / ctx.vcs / ctx.cdg freely; the
//!         // pipeline will reject the result if it is not deadlock-free.
//!         let routes: Vec<Route> = ctx.flows.iter().map(|_f| todo!()).collect();
//!         Ok(RouteSet::from_routes(routes))
//!     }
//! }
//! ```

use crate::config::{SimConfig, SimError};
use crate::traffic::{BurstyOnOff, MarkovVariation, PhaseSchedule};
use bsor_cdg::{AcyclicCdg, CdgError, TurnModel};
use bsor_flow::{FlowNetwork, FlowSet, FlowSetError};
use bsor_routing::selectors::{
    AcObliviousSelector, DijkstraSelector, MilpSelector, RandomWalkSelector,
};
use bsor_routing::{deadlock, RouteError, RouteSet, SelectError};
use bsor_topology::{TopoIndex, Topology, TopologyKind};
use std::error::Error;
use std::fmt;

/// Everything a [`RouteAlgorithm`] may consult when computing routes.
///
/// The context is a borrow bundle: one [`Scenario`] hands the same
/// topology/index/flows/CDG to every algorithm it runs, so comparisons
/// (the paper's Tables 6.1–6.3) are guaranteed to see identical inputs.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioCtx<'a> {
    /// The interconnect.
    pub topo: &'a Topology,
    /// Flat CSR adjacency over `topo` (what the simulator's hot path and
    /// index-hungry selectors use).
    pub index: &'a TopoIndex,
    /// The application's flows with bandwidth demands.
    pub flows: &'a FlowSet,
    /// Virtual channels per physical channel.
    pub vcs: u8,
    /// An acyclic channel dependence graph over `topo` with `vcs`
    /// layers. CDG-conforming selectors route inside it; oblivious
    /// baselines and exploring frameworks may ignore it.
    pub cdg: &'a AcyclicCdg,
}

/// Why a [`RouteAlgorithm`] could not produce routes.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AlgorithmError {
    /// A route selector failed (unroutable flow, missing VCs, MILP).
    Select(SelectError),
    /// The algorithm does not apply to this topology family (e.g.
    /// dimension-order routing on a hypercube, whose links carry no grid
    /// direction).
    UnsupportedTopology {
        /// Algorithm display name.
        algorithm: String,
        /// The offending topology family.
        kind: TopologyKind,
    },
    /// A framework-level failure (e.g. no explored CDG was usable).
    Failed(String),
}

impl fmt::Display for AlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmError::Select(e) => write!(f, "{e}"),
            AlgorithmError::UnsupportedTopology { algorithm, kind } => {
                write!(f, "{algorithm} does not support {kind:?} topologies")
            }
            AlgorithmError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for AlgorithmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AlgorithmError::Select(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SelectError> for AlgorithmError {
    fn from(e: SelectError) -> Self {
        AlgorithmError::Select(e)
    }
}

/// One routing algorithm, from oblivious baseline to full BSOR framework.
///
/// This is the single route-selection surface of the workspace: the
/// paper's five baselines implement it (this module), the raw BSOR
/// selectors implement it against the context's CDG (this module), and
/// the exploring BSOR framework implements it in the `bsor` facade crate
/// (`BsorAlgorithm`). Sweeps, figures, tables and examples all consume
/// `&dyn RouteAlgorithm` — adding an algorithm means implementing this
/// trait once, not editing every caller.
///
/// # Contract
///
/// * `routes` must return one route per flow, in flow order.
/// * Routes need not be validated or proven deadlock-free by the
///   implementation — [`Scenario::select_routes`] re-checks both
///   (Lemma 1) and rejects offenders with
///   [`ExperimentError::CyclicCdg`] — but algorithms are expected to be
///   deadlock-free by construction, as every oblivious algorithm in the
///   paper is.
/// * Determinism: for a fixed context and configuration the same routes
///   must come back every time (randomized algorithms carry seeds).
pub trait RouteAlgorithm {
    /// Display name (used in tables, errors and registries).
    fn name(&self) -> &str;

    /// A string identifying the algorithm's *routing behavior* for
    /// content-addressed plan caching ([`crate::PlanKey`]): two
    /// algorithms with equal cache keys must produce identical routes
    /// on identical scenarios. Defaults to the display name, which is
    /// only correct for configuration-free algorithms — implementations
    /// carrying seeds, selector budgets or exploration strategies must
    /// fold them in (the in-tree impls use their `Debug` rendering).
    fn cache_key(&self) -> String {
        self.name().to_owned()
    }

    /// Minimum virtual channels the algorithm needs for deadlock freedom
    /// (e.g. 2 for ROMM/Valiant, per the paper §6.1).
    fn required_vcs(&self) -> u8 {
        1
    }

    /// Computes one route per flow of `ctx.flows`.
    ///
    /// # Errors
    ///
    /// Any [`AlgorithmError`]: selection failure, unsupported topology,
    /// or a framework-level failure.
    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError>;
}

/// Grid families dimension-order walks apply to: the walk steps through
/// row/column-adjacent coordinates, which rings satisfy trivially and
/// tori satisfy through their mesh sub-links. Hypercube links carry no
/// grid direction, so DOR is undefined there.
fn supports_dor(kind: TopologyKind) -> bool {
    matches!(
        kind,
        TopologyKind::Mesh2D | TopologyKind::Torus2D | TopologyKind::Ring
    )
}

impl RouteAlgorithm for bsor_routing::Baseline {
    fn name(&self) -> &str {
        bsor_routing::Baseline::name(self)
    }

    /// Includes the seed of the randomized baselines (ROMM, Valiant,
    /// O1TURN route differently per seed while sharing a display name).
    fn cache_key(&self) -> String {
        format!("{self:?}")
    }

    fn required_vcs(&self) -> u8 {
        bsor_routing::Baseline::required_vcs(self)
    }

    /// Dimension-order construction; ignores `ctx.cdg` (the baselines
    /// are deadlock-free by their VC discipline, not by CDG conformance).
    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
        if !supports_dor(ctx.topo.kind()) {
            return Err(AlgorithmError::UnsupportedTopology {
                algorithm: bsor_routing::Baseline::name(self).to_owned(),
                kind: ctx.topo.kind(),
            });
        }
        self.select(ctx.topo, ctx.flows, ctx.vcs)
            .map_err(AlgorithmError::from)
    }
}

impl RouteAlgorithm for DijkstraSelector {
    fn name(&self) -> &str {
        "dijkstra"
    }

    /// Includes the weight parameters and refinement passes.
    fn cache_key(&self) -> String {
        format!("dijkstra:{self:?}")
    }

    /// Routes every flow inside `ctx.cdg` with the weighted
    /// shortest-path heuristic (paper §3.6).
    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
        let net = FlowNetwork::new(ctx.topo, ctx.cdg);
        self.select(&net, ctx.flows).map_err(AlgorithmError::from)
    }
}

impl RouteAlgorithm for AcObliviousSelector {
    fn name(&self) -> &str {
        "ac-oblivious"
    }

    /// Includes the randomized-rounding seed and the link budget:
    /// different seeds round the splittable LP optimum into different
    /// route sets.
    fn cache_key(&self) -> String {
        format!("ac-oblivious:{self:?}")
    }

    /// Solves the Applegate–Cohen worst-case-optimal LP over the flow
    /// set's commodities and rounds it to CDG-conforming routes.
    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
        let net = FlowNetwork::new(ctx.topo, ctx.cdg);
        self.select(&net, ctx.flows).map_err(AlgorithmError::from)
    }
}

impl RouteAlgorithm for RandomWalkSelector {
    fn name(&self) -> &str {
        "random-walk"
    }

    /// Includes the walk seed and detour probability.
    fn cache_key(&self) -> String {
        format!("random-walk:{self:?}")
    }

    /// Seeded oblivious walks towards each sink inside `ctx.cdg`.
    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
        let net = FlowNetwork::new(ctx.topo, ctx.cdg);
        self.select(&net, ctx.flows).map_err(AlgorithmError::from)
    }
}

impl RouteAlgorithm for MilpSelector {
    fn name(&self) -> &str {
        "milp"
    }

    /// Includes the path budget, hop slack, objective and solver options.
    fn cache_key(&self) -> String {
        format!("milp:{self:?}")
    }

    /// Routes every flow inside `ctx.cdg` with the mixed integer-linear
    /// program (paper §3.5).
    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
        let net = FlowNetwork::new(ctx.topo, ctx.cdg);
        self.select(&net, ctx.flows)
            .map(|(routes, _report)| routes)
            .map_err(AlgorithmError::from)
    }
}

/// Errors from the scenario/experiment pipeline.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The flow set failed validation against the topology.
    InvalidFlows(FlowSetError),
    /// No acyclic CDG could be derived for the scenario.
    Cdg(CdgError),
    /// The routing algorithm failed.
    Algorithm(AlgorithmError),
    /// The algorithm produced routes whose induced channel dependence
    /// graph is **cyclic** — running them could deadlock (paper
    /// Lemma 1), so the pipeline refuses to simulate.
    CyclicCdg {
        /// The offending algorithm's display name.
        algorithm: String,
        /// Length of the dependence cycle found.
        cycle_len: usize,
    },
    /// The routes are malformed (wrong endpoints, non-adjacent hops, …).
    InvalidRoutes(RouteError),
    /// The simulator rejected the scenario.
    Sim(SimError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::InvalidFlows(e) => write!(f, "invalid flow set: {e}"),
            ExperimentError::Cdg(e) => write!(f, "cannot derive an acyclic CDG: {e}"),
            ExperimentError::Algorithm(e) => write!(f, "{e}"),
            ExperimentError::CyclicCdg {
                algorithm,
                cycle_len,
            } => write!(
                f,
                "{algorithm} produced routes with a {cycle_len}-long channel dependence \
                 cycle (not deadlock-free, refusing to simulate)"
            ),
            ExperimentError::InvalidRoutes(e) => write!(f, "invalid routes: {e}"),
            ExperimentError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::InvalidFlows(e) => Some(e),
            ExperimentError::Cdg(e) => Some(e),
            ExperimentError::Algorithm(e) => Some(e),
            ExperimentError::InvalidRoutes(e) => Some(e),
            ExperimentError::Sim(e) => Some(e),
            ExperimentError::CyclicCdg { .. } => None,
        }
    }
}

impl From<FlowSetError> for ExperimentError {
    fn from(e: FlowSetError) -> Self {
        ExperimentError::InvalidFlows(e)
    }
}

impl From<CdgError> for ExperimentError {
    fn from(e: CdgError) -> Self {
        ExperimentError::Cdg(e)
    }
}

impl From<AlgorithmError> for ExperimentError {
    fn from(e: AlgorithmError) -> Self {
        ExperimentError::Algorithm(e)
    }
}

impl From<RouteError> for ExperimentError {
    fn from(e: RouteError) -> Self {
        ExperimentError::InvalidRoutes(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

/// Derives a default acyclic CDG for `topo`: the west-first turn model
/// on grids, falling back to routable then unprotected ad-hoc cycle
/// breaking on topologies turn models reject (tori, rings, hypercubes);
/// the arbitrary-graph families (dragonfly, fat tree, full mesh, loaded
/// files) get the up*/down* escape ordering, which keeps every pair
/// routable on symmetric graphs even at one VC.
fn default_cdg(topo: &Topology, vcs: u8) -> Result<AcyclicCdg, CdgError> {
    if matches!(
        topo.kind(),
        TopologyKind::Dragonfly
            | TopologyKind::FatTree
            | TopologyKind::FullMesh
            | TopologyKind::Arbitrary
    ) {
        return AcyclicCdg::up_down(topo, vcs);
    }
    if let Ok(cdg) = AcyclicCdg::turn_model(topo, vcs, &TurnModel::west_first()) {
        return Ok(cdg);
    }
    // The routable variant needs a turn-model skeleton, which exists only
    // where at least one valid model does (meshes); tori have grid
    // directions but no valid two-turn model, so fall through to
    // unprotected breaking there.
    match AcyclicCdg::ad_hoc_routable(topo, vcs, 1) {
        Err(CdgError::NotAGrid | CdgError::NoValidTurnModel) => {
            Ok(AcyclicCdg::ad_hoc(topo, vcs, 1))
        }
        routable => routable,
    }
}

/// Builder for a [`Scenario`].
///
/// ```
/// use bsor_sim::Scenario;
/// use bsor_flow::FlowSet;
/// use bsor_topology::Topology;
///
/// let mesh = Topology::mesh2d(4, 4);
/// let mut flows = FlowSet::new();
/// flows.push(mesh.node_at(0, 0).unwrap(), mesh.node_at(3, 0).unwrap(), 25.0);
/// let scenario = Scenario::builder(mesh, flows)
///     .named("one-flow")
///     .vcs(2)
///     .build()
///     .expect("consistent scenario");
/// assert_eq!(scenario.vcs(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: String,
    topo: Topology,
    flows: FlowSet,
    vcs: u8,
    cdg: Option<AcyclicCdg>,
}

impl ScenarioBuilder {
    /// Starts a scenario over `topo` with `flows`, 2 VCs and a default
    /// acyclic CDG.
    pub fn new(topo: Topology, flows: FlowSet) -> ScenarioBuilder {
        ScenarioBuilder {
            name: "scenario".to_owned(),
            topo,
            flows,
            vcs: 2,
            cdg: None,
        }
    }

    /// Sets a display name (propagates into reports and errors).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the virtual-channel count.
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

    /// Supplies a specific acyclic CDG instead of the default
    /// derivation.
    #[must_use]
    pub fn cdg(mut self, cdg: AcyclicCdg) -> Self {
        self.cdg = Some(cdg);
        self
    }

    /// Validates the flows and assembles the scenario (deriving the
    /// default CDG when none was supplied).
    ///
    /// Construction is eager: the CDG and the [`TopoIndex`] are built
    /// here — once per scenario, not per algorithm or load point — so
    /// every algorithm the scenario runs sees identical inputs and CDG
    /// derivation failures surface at build time rather than mid-sweep.
    /// Both are cheap next to one route selection (a CDG is one pass
    /// over the links; selectors explore many CDGs).
    ///
    /// # Errors
    ///
    /// [`ExperimentError::InvalidFlows`] for malformed flow sets,
    /// [`ExperimentError::Cdg`] when no acyclic CDG can be derived.
    pub fn build(self) -> Result<Scenario, ExperimentError> {
        self.flows.validate(&self.topo)?;
        let cdg = match self.cdg {
            Some(cdg) => cdg,
            None => default_cdg(&self.topo, self.vcs)?,
        };
        let index = TopoIndex::new(&self.topo);
        Ok(Scenario {
            name: self.name,
            index,
            topo: self.topo,
            flows: self.flows,
            vcs: self.vcs,
            cdg,
        })
    }
}

/// A fully-assembled scenario: topology + flows + VCs + acyclic CDG.
///
/// Scenarios are immutable once built; run any number of algorithms and
/// load points against one. See the [module docs](self) for the
/// end-to-end example.
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    topo: Topology,
    index: TopoIndex,
    flows: FlowSet,
    vcs: u8,
    cdg: AcyclicCdg,
}

impl Scenario {
    /// Starts building a scenario.
    pub fn builder(topo: Topology, flows: FlowSet) -> ScenarioBuilder {
        ScenarioBuilder::new(topo, flows)
    }

    /// The scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The flows.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// The virtual-channel count.
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// The acyclic CDG the scenario carries.
    pub fn cdg(&self) -> &AcyclicCdg {
        &self.cdg
    }

    /// The borrow bundle handed to algorithms.
    pub fn ctx(&self) -> ScenarioCtx<'_> {
        ScenarioCtx {
            topo: &self.topo,
            index: &self.index,
            flows: &self.flows,
            vcs: self.vcs,
            cdg: &self.cdg,
        }
    }

    /// Runs `algorithm` and **validates** the result: one route per flow
    /// with correct endpoints and VCs, and — the paper's Lemma 1 — an
    /// acyclic induced channel dependence graph.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Algorithm`] when selection fails,
    /// [`ExperimentError::InvalidRoutes`] for malformed routes, and
    /// [`ExperimentError::CyclicCdg`] when the routes are not
    /// deadlock-free.
    pub fn select_routes(
        &self,
        algorithm: &dyn RouteAlgorithm,
    ) -> Result<RouteSet, ExperimentError> {
        let routes = algorithm.routes(&self.ctx())?;
        routes.validate(&self.topo, &self.flows, self.vcs)?;
        match deadlock::analyze(&self.topo, &routes, self.vcs) {
            deadlock::DeadlockAnalysis::Free => Ok(routes),
            deadlock::DeadlockAnalysis::Cyclic { cycle } => Err(ExperimentError::CyclicCdg {
                algorithm: algorithm.name().to_owned(),
                cycle_len: cycle.len(),
            }),
        }
    }

    /// Starts an [`Experiment`] pairing this scenario with `algorithm`.
    pub fn experiment<'a>(&'a self, algorithm: &'a dyn RouteAlgorithm) -> Experiment<'a> {
        Experiment {
            scenario: self,
            algorithm,
            config: SimConfig::new(self.vcs),
            rate: 1.0,
            variation: None,
            burst: None,
            phases: None,
        }
    }
}

/// One scenario × one algorithm × one load point: a builder whose
/// [`Experiment::plan`] solves the scenario through [`crate::Planner`]
/// (route selection, Lemma-1 certification, table compilation) and
/// whose [`Experiment::eval_point`] is the load point to hand an
/// [`crate::Evaluator`] with that plan. Planning once and evaluating
/// many points is what makes rate/burst/saturation sweeps cheap.
#[derive(Clone)]
pub struct Experiment<'a> {
    scenario: &'a Scenario,
    algorithm: &'a dyn RouteAlgorithm,
    config: SimConfig,
    rate: f64,
    variation: Option<MarkovVariation>,
    burst: Option<BurstyOnOff>,
    phases: Option<PhaseSchedule>,
}

impl fmt::Debug for Experiment<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("scenario", &self.scenario.name)
            .field("algorithm", &self.algorithm.name())
            .field("rate", &self.rate)
            .finish_non_exhaustive()
    }
}

impl<'a> Experiment<'a> {
    /// Overrides the simulator configuration (VC count is pinned to the
    /// scenario's).
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the aggregate offered injection rate in packets/cycle
    /// (split across flows proportionally to their demands).
    #[must_use]
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Adds run-time bandwidth variation (paper §5.3).
    #[must_use]
    pub fn variation(mut self, variation: MarkovVariation) -> Self {
        self.variation = Some(variation);
        self
    }

    /// Switches injection to the on/off bursty arrival process.
    #[must_use]
    pub fn burst(mut self, burst: BurstyOnOff) -> Self {
        self.burst = Some(burst);
        self
    }

    /// Adds a multi-phase rate schedule (cycle-boundary switching).
    #[must_use]
    pub fn phases(mut self, phases: PhaseSchedule) -> Self {
        self.phases = Some(phases);
        self
    }

    /// The algorithm under test.
    pub fn algorithm(&self) -> &dyn RouteAlgorithm {
        self.algorithm
    }

    /// Selects and validates routes without simulating (see
    /// [`Scenario::select_routes`]).
    ///
    /// # Errors
    ///
    /// Selection, validation and [`ExperimentError::CyclicCdg`] errors.
    pub fn select_routes(&self) -> Result<RouteSet, ExperimentError> {
        self.scenario.select_routes(self.algorithm)
    }

    /// The experiment's load point in [`crate::Evaluator`] terms.
    pub fn eval_point(&self) -> crate::plan::EvalPoint {
        let mut point = crate::plan::EvalPoint::new(self.rate, self.config.clone());
        if let Some(v) = self.variation {
            point = point.with_variation(v);
        }
        if let Some(b) = self.burst {
            point = point.with_burst(b);
        }
        if let Some(p) = &self.phases {
            point = point.with_phases(p.clone());
        }
        point
    }

    /// Plans the experiment's algorithm on its scenario (uncached; hold
    /// the [`crate::RoutePlan`] yourself — or use a
    /// [`crate::Planner`] with a cache — to evaluate many points).
    ///
    /// # Errors
    ///
    /// Planning failures, converted to their [`ExperimentError`]
    /// equivalents.
    pub fn plan(&self) -> Result<std::sync::Arc<crate::plan::RoutePlan>, ExperimentError> {
        crate::plan::Planner::new()
            .plan(self.scenario, self.algorithm)
            .map_err(ExperimentError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_routing::{Baseline, Route, RouteHop, VcMask};
    use bsor_topology::NodeId;

    fn mesh_flows(topo: &Topology) -> FlowSet {
        let mut flows = FlowSet::new();
        let n = topo.num_nodes() as u32;
        for i in 0..n {
            let j = (i + n / 2) % n;
            if i != j {
                flows.push(NodeId(i), NodeId(j), 10.0);
            }
        }
        flows
    }

    #[test]
    fn baseline_through_trait_matches_direct_select() {
        let topo = Topology::mesh2d(4, 4);
        let flows = mesh_flows(&topo);
        let direct = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let scenario = Scenario::builder(topo, flows).vcs(2).build().expect("ok");
        let via_trait = scenario.select_routes(&Baseline::XY).expect("xy via trait");
        assert_eq!(direct, via_trait);
    }

    #[test]
    fn dijkstra_through_trait_conforms_to_ctx_cdg() {
        let topo = Topology::mesh2d(4, 4);
        let flows = mesh_flows(&topo);
        let scenario = Scenario::builder(topo, flows).vcs(2).build().expect("ok");
        let selector = DijkstraSelector::new();
        let routes = scenario.select_routes(&selector).expect("routable");
        assert_eq!(routes.len(), scenario.flows().len());
        assert!(deadlock::is_deadlock_free(scenario.topology(), &routes, 2));
    }

    #[test]
    fn baselines_reject_hypercubes_with_typed_error() {
        let topo = Topology::hypercube(3);
        let flows = mesh_flows(&topo);
        let scenario = Scenario::builder(topo, flows).vcs(2).build().expect("ok");
        let err = scenario.select_routes(&Baseline::XY).unwrap_err();
        assert!(matches!(
            err,
            ExperimentError::Algorithm(AlgorithmError::UnsupportedTopology { .. })
        ));
    }

    #[test]
    fn required_vcs_propagates_through_trait() {
        let topo = Topology::mesh2d(4, 4);
        let flows = mesh_flows(&topo);
        let scenario = Scenario::builder(topo, flows).vcs(1).build().expect("ok");
        let algo = Baseline::Romm { seed: 1 };
        assert_eq!(RouteAlgorithm::required_vcs(&algo), 2);
        let err = scenario.select_routes(&algo).unwrap_err();
        assert!(matches!(
            err,
            ExperimentError::Algorithm(AlgorithmError::Select(
                SelectError::NeedsVirtualChannels { .. }
            ))
        ));
    }

    /// An adversarial algorithm producing the canonical 2×2 turning-ring
    /// deadlock; the pipeline must refuse it.
    struct RingOfDeath;

    impl RouteAlgorithm for RingOfDeath {
        fn name(&self) -> &str {
            "ring-of-death"
        }

        fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
            let topo = ctx.topo;
            let n = |x, y| topo.node_at(x, y).expect("in range");
            let hop = |a, b| RouteHop {
                link: topo.find_link(a, b).expect("adjacent"),
                vcs: VcMask::all(ctx.vcs),
            };
            let corners = [
                (n(0, 0), n(0, 1), n(1, 1)),
                (n(0, 1), n(1, 1), n(1, 0)),
                (n(1, 1), n(1, 0), n(0, 0)),
                (n(1, 0), n(0, 0), n(0, 1)),
            ];
            Ok(RouteSet::from_routes(
                ctx.flows
                    .iter()
                    .zip(corners.iter().cycle())
                    .map(|(f, &(a, b, c))| Route {
                        flow: f.id,
                        hops: vec![hop(a, b), hop(b, c)],
                    })
                    .collect(),
            ))
        }
    }

    #[test]
    fn cyclic_routes_are_rejected_not_simulated() {
        let topo = Topology::mesh2d(2, 2);
        let mut flows = FlowSet::new();
        let n = |x, y| topo.node_at(x, y).unwrap();
        flows.push(n(0, 0), n(1, 1), 10.0);
        flows.push(n(0, 1), n(1, 0), 10.0);
        flows.push(n(1, 1), n(0, 0), 10.0);
        flows.push(n(1, 0), n(0, 1), 10.0);
        let scenario = Scenario::builder(topo, flows).vcs(1).build().expect("ok");
        let err = scenario.select_routes(&RingOfDeath).unwrap_err();
        match &err {
            ExperimentError::CyclicCdg {
                algorithm,
                cycle_len,
            } => {
                assert_eq!(algorithm, "ring-of-death");
                assert_eq!(*cycle_len, 4);
            }
            other => panic!("expected CyclicCdg, got {other:?}"),
        }
        assert!(err.to_string().contains("refusing to simulate"));
    }

    #[test]
    fn experiment_runs_end_to_end() {
        let topo = Topology::mesh2d(4, 4);
        let flows = mesh_flows(&topo);
        let scenario = Scenario::builder(topo, flows)
            .named("smoke")
            .vcs(2)
            .build()
            .expect("ok");
        let config = SimConfig::new(2).with_warmup(100).with_measurement(1_000);
        let exp = scenario.experiment(&Baseline::XY).config(config).rate(0.2);
        let plan = exp.plan().expect("plans");
        let (report, _) = crate::plan::SimEvaluator::new()
            .simulate(&plan, &exp.eval_point())
            .expect("runs");
        assert!(report.delivered_packets > 0);
        assert!(!report.deadlocked);
    }

    #[test]
    fn experiment_reuses_routes_across_rates() {
        let topo = Topology::mesh2d(4, 4);
        let flows = mesh_flows(&topo);
        let scenario = Scenario::builder(topo, flows).vcs(2).build().expect("ok");
        let exp = scenario
            .experiment(&Baseline::YX)
            .config(SimConfig::new(2).with_warmup(100).with_measurement(500));
        let plan = exp.plan().expect("yx");
        let run = |rate: f64| {
            crate::plan::SimEvaluator::new()
                .simulate(&plan, &exp.clone().rate(rate).eval_point())
                .expect("simulates")
                .0
        };
        let (light, heavy) = (run(0.05), run(2.0));
        assert!(heavy.generated_packets >= light.generated_packets);
    }

    #[test]
    fn default_cdg_exists_for_every_topology_family() {
        for topo in [
            Topology::mesh2d(4, 4),
            Topology::torus2d(4, 4),
            Topology::ring(6),
            Topology::hypercube(3),
            bsor_topology::dragonfly(2, 3, 2).expect("valid"),
            bsor_topology::fat_tree(4).expect("valid"),
            bsor_topology::full_mesh(6).expect("valid"),
        ] {
            let cdg = default_cdg(&topo, 2).expect("derivable");
            assert_eq!(cdg.vcs(), 2);
        }
    }

    #[test]
    fn arbitrary_graph_scenarios_route_at_one_vc() {
        // The up*/down* default CDG keeps CDG-conforming selectors
        // (here Dijkstra) fully routable on the new families with a
        // single VC — the VC-free escape-ordering path.
        for topo in [
            bsor_topology::dragonfly(2, 3, 2).expect("valid"),
            bsor_topology::fat_tree(4).expect("valid"),
        ] {
            let flows = mesh_flows(&topo);
            let scenario = Scenario::builder(topo, flows).vcs(1).build().expect("ok");
            assert_eq!(scenario.cdg().name(), "up-down");
            let routes = scenario
                .select_routes(&DijkstraSelector::new())
                .expect("routable");
            assert!(deadlock::is_deadlock_free(scenario.topology(), &routes, 1));
        }
    }

    #[test]
    fn error_display_and_sources() {
        let e = ExperimentError::CyclicCdg {
            algorithm: "x".into(),
            cycle_len: 3,
        };
        assert!(e.to_string().contains("deadlock"));
        let e: ExperimentError = AlgorithmError::Failed("boom".into()).into();
        assert_eq!(e.to_string(), "boom");
        assert!(Error::source(&e).is_some());
        let e: ExperimentError = FlowSetError::SelfFlow(bsor_flow::FlowId(0)).into();
        assert!(e.to_string().contains("invalid flow set"));
        let a = AlgorithmError::UnsupportedTopology {
            algorithm: "XY".into(),
            kind: TopologyKind::Hypercube,
        };
        assert!(a.to_string().contains("XY"));
    }
}
