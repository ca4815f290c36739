//! # bsor-sim
//!
//! A cycle-accurate, flit-level wormhole network-on-chip simulator
//! modelling the virtual-channel router of the paper's Chapter 4 and the
//! evaluation methodology of §6.1:
//!
//! * input-queued routers with per-virtual-channel flit buffers
//!   (16 flits/VC by default),
//! * wormhole flow control with per-packet VC allocation and per-flit
//!   switch allocation (round-robin arbiters),
//! * **table-based routing** (node-table style, paper §4.2.1): packets
//!   carry a table index that each router rewrites,
//! * **static or dynamic VC allocation** via the per-hop VC masks carried
//!   in the routing tables (paper §4.2.2),
//! * one-cycle per-hop latency (§6.1), resource↔switch interfaces at 4×
//!   the switch-to-switch bandwidth,
//! * Bernoulli packet injection scaled per flow, plus the two-stage
//!   Markov-modulated rate variation of §5.3,
//! * warmup + measurement phases (20k + 100k cycles in the paper) and a
//!   progress watchdog that detects deadlock.
//!
//! ```
//! use bsor_topology::Topology;
//! use bsor_flow::FlowSet;
//! use bsor_routing::Baseline;
//! use bsor_sim::{SimConfig, Simulator, TrafficSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mesh = Topology::mesh2d(4, 4);
//! let mut flows = FlowSet::new();
//! flows.push(mesh.node_at(0, 0).unwrap(), mesh.node_at(3, 3).unwrap(), 25.0);
//! let routes = Baseline::XY.select(&mesh, &flows, 2)?;
//! let config = SimConfig::new(2).with_warmup(100).with_measurement(1_000);
//! let traffic = TrafficSpec::proportional(&flows, 0.1);
//! let mut sim = Simulator::new(&mesh, &flows, &routes, traffic, config)?;
//! let report = sim.run();
//! assert!(report.delivered_packets > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod error;
pub mod plan;
pub mod scenario;
pub mod stats;
pub mod traffic;

pub use config::{SimConfig, SimError};
pub use engine::Simulator;
pub use error::Error;
pub use plan::{
    CacheStats, EvalError, EvalPoint, Evaluation, Evaluator, InvalidateOutcome, PlanCache,
    PlanCacheConfig, PlanError, PlanId, PlanKey, PlanStats, Planner, RoutePlan, SimEvaluator,
    StaticMclEvaluator,
};
pub use scenario::{
    AlgorithmError, Experiment, ExperimentError, RouteAlgorithm, Scenario, ScenarioBuilder,
    ScenarioCtx,
};
pub use stats::{FlowStats, LatencyHistogram, RunTiming, SimReport};
pub use traffic::{
    BurstyOnOff, InjectionProcess, MarkovVariation, Phase, PhaseSchedule, TrafficSpec,
};
