//! # bsor-routing
//!
//! Route selection for bandwidth-sensitive oblivious routing: the paper's
//! two BSOR selectors, the oblivious baselines it compares against,
//! deadlock validation, and the table-based router programming model.
//!
//! * [`selectors::MilpSelector`] — optimal (budget-bounded) route choice
//!   by mixed integer-linear programming over the flow network (paper
//!   §3.5).
//! * [`selectors::DijkstraSelector`] — the scalable weighted
//!   shortest-path heuristic (paper §3.6).
//! * [`selectors::AcObliviousSelector`] /
//!   [`selectors::RandomWalkSelector`] — demand-oblivious counterpoints:
//!   the Applegate–Cohen worst-case-optimal LP and a seeded random walk.
//! * [`Baseline`] — XY, YX, O1TURN, ROMM and Valiant.
//! * [`deadlock`] — rebuilds the channel dependence graph induced by a
//!   route set and checks acyclicity (paper Lemma 1).
//! * [`tables`] — node-table routing images (paper §4.2.1) consumed by
//!   the `bsor-sim` router model.
//!
//! ```
//! use bsor_topology::Topology;
//! use bsor_cdg::{AcyclicCdg, TurnModel};
//! use bsor_flow::{FlowNetwork, FlowSet};
//! use bsor_routing::selectors::DijkstraSelector;
//! use bsor_routing::deadlock;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mesh = Topology::mesh2d(4, 4);
//! let acyclic = AcyclicCdg::turn_model(&mesh, 2, &TurnModel::west_first())?;
//! let net = FlowNetwork::new(&mesh, &acyclic);
//! let mut flows = FlowSet::new();
//! flows.push(mesh.node_at(0, 0).unwrap(), mesh.node_at(3, 3).unwrap(), 25.0);
//! flows.push(mesh.node_at(3, 0).unwrap(), mesh.node_at(0, 3).unwrap(), 25.0);
//! let routes = DijkstraSelector::new().select(&net, &flows)?;
//! assert!(deadlock::is_deadlock_free(&mesh, &routes, 2));
//! assert_eq!(routes.mcl(&mesh, &flows), 25.0); // disjoint paths exist
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod compact;
pub mod deadlock;
pub mod route;
pub mod selector;
pub mod selectors {
    //! BSOR route selectors (`SF` instances in the paper's framework)
    //! and the demand-oblivious selectors they are compared against.
    pub mod dijkstra;
    pub mod milp;
    pub mod oblivious;

    pub use dijkstra::DijkstraSelector;
    pub use milp::{MilpObjective, MilpReport, MilpSelector};
    pub use oblivious::{AcObliviousSelector, ObliviousSolution, RandomWalkSelector};
}
pub mod tables;

pub use baselines::Baseline;
pub use compact::{AnyTables, CompactTables};
pub use route::{Route, RouteError, RouteHop, RouteSet, VcMask};
pub use selector::{FlowOrder, SelectError};
pub use tables::{NodeTables, RouteTables, TableEntry};
