//! The unified error surface: one [`Error`] enum every pipeline
//! failure converts into, with a stable machine-readable
//! [`Error::code`] for protocol boundaries.
//!
//! Each pipeline stage has exactly one typed error —
//! [`WorkloadError`] from workload instantiation, [`ScenarioError`]
//! from scenario building, [`PlanError`] from planning, [`SimError`]
//! from evaluation — but a caller that spans the whole pipeline (a
//! sweep driver, a plan server) wants one type to bubble and one code
//! vocabulary to expose. `From` impls exist for every constituent, so
//! `?` converts anywhere:
//!
//! ```
//! use bsor_sim::{Error, Scenario};
//! use bsor_flow::FlowSet;
//! use bsor_topology::Topology;
//!
//! fn build(width: u16) -> Result<Scenario, Error> {
//!     let topo = Topology::mesh2d(width, width);
//!     let flows = bsor_workloads::transpose(&topo)?.flows; // WorkloadError
//!     Ok(Scenario::builder(topo, flows).vcs(2).build()?) // ScenarioError
//! }
//!
//! let err = build(3).unwrap_err(); // transpose needs a power-of-two
//! assert_eq!(err.code(), "bad-workload");
//! ```
//!
//! # Code stability
//!
//! [`Error::code`] values are part of the serve protocol: existing
//! codes never change meaning or spelling; new variants may introduce
//! new codes. The full vocabulary is documented on [`Error::code`].

use crate::config::SimError;
use crate::plan::PlanError;
use crate::scenario::{AlgorithmError, ScenarioError};
use bsor_routing::SelectError;
use bsor_workloads::WorkloadError;
use std::fmt;

/// Any failure the scenario → plan → evaluate pipeline can produce,
/// tagged with the stage that produced it.
///
/// Display defers to the wrapped error; [`Error::code`] gives the
/// stable machine-readable classification.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Planning failed (route selection, validation, certification).
    Plan(PlanError),
    /// The simulator rejected an evaluation point.
    Sim(SimError),
    /// Building a scenario failed.
    Scenario(ScenarioError),
    /// Instantiating a workload on a topology failed.
    Workload(WorkloadError),
}

impl Error {
    /// The stable machine-readable code, for JSON protocol boundaries.
    ///
    /// The vocabulary (existing entries never change):
    ///
    /// | code | meaning |
    /// |------|---------|
    /// | `select-failed` | a route selector failed (unroutable flow, missing VCs, MILP) |
    /// | `budget-exceeded` | an LP-based selector refused the topology as over its size budget |
    /// | `unsupported-topology` | the algorithm does not apply to the topology family |
    /// | `algorithm-failed` | a framework-level algorithm failure |
    /// | `invalid-routes` | malformed routes (endpoints, adjacency, VCs) |
    /// | `deadlock` | the routes' induced channel dependence graph is cyclic |
    /// | `invalid-flows` | the flow set failed validation against the topology |
    /// | `cdg-underivable` | no acyclic CDG could be derived |
    /// | `sim-rejected` | the simulator rejected the configuration or traffic |
    /// | `unknown-workload` | no workload registered under the name |
    /// | `bad-workload-spec` | a known family with a malformed argument |
    /// | `bad-workload` | the workload cannot instantiate on the topology |
    pub fn code(&self) -> &'static str {
        match self {
            Error::Plan(PlanError::Algorithm(AlgorithmError::Select(
                SelectError::BudgetExceeded { .. },
            ))) => "budget-exceeded",
            Error::Plan(PlanError::Algorithm(AlgorithmError::Select(_))) => "select-failed",
            Error::Plan(PlanError::Algorithm(AlgorithmError::UnsupportedTopology { .. })) => {
                "unsupported-topology"
            }
            Error::Plan(PlanError::Algorithm(AlgorithmError::Failed(_))) => "algorithm-failed",
            Error::Plan(PlanError::InvalidRoutes(_)) => "invalid-routes",
            Error::Plan(PlanError::Deadlock { .. }) => "deadlock",
            Error::Scenario(ScenarioError::InvalidFlows(_)) => "invalid-flows",
            Error::Scenario(ScenarioError::Cdg(_)) => "cdg-underivable",
            Error::Sim(_) => "sim-rejected",
            Error::Workload(WorkloadError::UnknownWorkload { .. }) => "unknown-workload",
            Error::Workload(WorkloadError::BadSpec { .. }) => "bad-workload-spec",
            Error::Workload(_) => "bad-workload",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Plan(e) => write!(f, "{e}"),
            Error::Sim(e) => write!(f, "{e}"),
            Error::Scenario(e) => write!(f, "{e}"),
            Error::Workload(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Plan(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Scenario(e) => Some(e),
            Error::Workload(e) => Some(e),
        }
    }
}

impl From<PlanError> for Error {
    fn from(e: PlanError) -> Self {
        Error::Plan(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<ScenarioError> for Error {
    fn from(e: ScenarioError) -> Self {
        Error::Scenario(e)
    }
}

impl From<WorkloadError> for Error {
    fn from(e: WorkloadError) -> Self {
        Error::Workload(e)
    }
}

impl From<AlgorithmError> for Error {
    /// An algorithm failure is a planning failure.
    fn from(e: AlgorithmError) -> Self {
        Error::Plan(PlanError::Algorithm(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_routing::RouteError;

    /// The full vocabulary of [`Error::code`]: one row per code, with
    /// the message the error displays.
    #[test]
    fn codes_are_stage_independent_and_stable() {
        use bsor_cdg::CdgError;
        use bsor_topology::TopologyKind;
        let flow = bsor_flow::FlowId(0);
        let mesh = bsor_topology::Topology::mesh2d(2, 2);
        let mut self_flow = bsor_flow::FlowSet::new();
        self_flow.push(bsor_topology::NodeId(0), bsor_topology::NodeId(0), 1.0);
        let invalid_flows = crate::Scenario::builder(mesh, self_flow)
            .build()
            .map(|_| ())
            .map_err(Error::from)
            .expect_err("a self-flow is invalid");
        let rows: [(Error, &str, &str); 12] = [
            (
                AlgorithmError::Select(SelectError::Unroutable { flow }).into(),
                "select-failed",
                "no route for flow f0 conforms to the acyclic CDG",
            ),
            (
                AlgorithmError::Select(SelectError::BudgetExceeded {
                    links: 224,
                    max_links: 16,
                })
                .into(),
                "budget-exceeded",
                "topology has 224 directed links, over the selector's 16-link LP budget \
                 (raise it with with_max_links to solve anyway)",
            ),
            (
                AlgorithmError::UnsupportedTopology {
                    algorithm: "XY".into(),
                    kind: TopologyKind::Hypercube,
                }
                .into(),
                "unsupported-topology",
                "XY does not support Hypercube topologies",
            ),
            (
                AlgorithmError::Failed("no explored CDG was usable".into()).into(),
                "algorithm-failed",
                "no explored CDG was usable",
            ),
            (
                PlanError::InvalidRoutes(RouteError::MissingRoute(flow)).into(),
                "invalid-routes",
                "invalid routes: no route for flow f0",
            ),
            (
                PlanError::Deadlock {
                    algorithm: "ring-of-death".into(),
                    cycle_len: 4,
                }
                .into(),
                "deadlock",
                "ring-of-death produced routes with a 4-long channel dependence cycle \
                 (not deadlock-free, refusing to plan)",
            ),
            (
                invalid_flows,
                "invalid-flows",
                "invalid flow set: flow f0 has identical source and sink",
            ),
            (
                ScenarioError::Cdg(CdgError::NoValidTurnModel).into(),
                "cdg-underivable",
                "cannot derive an acyclic CDG: no two-turn model is deadlock-free on this \
                 topology",
            ),
            (
                SimError::BadRate {
                    flow: 0,
                    rate: -1.0,
                }
                .into(),
                "sim-rejected",
                "flow 0 has invalid injection rate -1",
            ),
            (
                WorkloadError::UnknownWorkload { name: "x".into() }.into(),
                "unknown-workload",
                "unknown workload 'x'",
            ),
            (
                WorkloadError::BadSpec {
                    spec: "hotspot:lots".into(),
                    reason: "not a number".into(),
                }
                .into(),
                "bad-workload-spec",
                "bad workload spec 'hotspot:lots': not a number",
            ),
            (
                WorkloadError::NotSquare.into(),
                "bad-workload",
                "synthetic patterns require a square mesh",
            ),
        ];
        let mut codes: Vec<&str> = rows.iter().map(|(_, code, _)| *code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), rows.len(), "one row per code");
        for (error, code, message) in &rows {
            assert_eq!(error.code(), *code, "{error:?}");
            assert_eq!(error.to_string(), *message, "{code}");
            assert!(std::error::Error::source(error).is_some(), "{code}");
        }

        // An algorithm failure classifies the same whether or not the
        // planner wrapped it.
        let failed = AlgorithmError::Failed("boom".into());
        assert_eq!(
            Error::from(failed.clone()),
            Error::from(PlanError::Algorithm(failed))
        );
    }

    #[test]
    fn budget_refusals_classify_separately_from_selector_failures() {
        use bsor_routing::SelectError;
        let budget: Error = AlgorithmError::Select(SelectError::BudgetExceeded {
            links: 224,
            max_links: 16,
        })
        .into();
        let unroutable: Error = AlgorithmError::Select(SelectError::Unroutable {
            flow: bsor_flow::FlowId(0),
        })
        .into();
        assert_eq!(budget.code(), "budget-exceeded");
        assert_eq!(unroutable.code(), "select-failed");
    }

    #[test]
    fn workload_codes_separate_spec_name_and_shape_failures() {
        let unknown: Error = WorkloadError::UnknownWorkload { name: "x".into() }.into();
        let bad_spec: Error = WorkloadError::BadSpec {
            spec: "hotspot:lots".into(),
            reason: "not a number".into(),
        }
        .into();
        let shape: Error = WorkloadError::NotSquare.into();
        assert_eq!(unknown.code(), "unknown-workload");
        assert_eq!(bad_spec.code(), "bad-workload-spec");
        assert_eq!(shape.code(), "bad-workload");
    }

    #[test]
    fn display_and_source_defer_to_the_wrapped_error() {
        let e: Error = WorkloadError::NotSquare.into();
        assert_eq!(e.to_string(), WorkloadError::NotSquare.to_string());
        assert!(std::error::Error::source(&e).is_some());
    }
}
