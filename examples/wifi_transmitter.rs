//! Routing the IEEE 802.11a/g OFDM transmitter (paper §5.2.3,
//! Table 5.2): a 17-site DSP pipeline with an IFFT partitioned over four
//! modules. Demonstrates static virtual-channel allocation and the
//! flows-per-link alternative objective (paper §7.2).
//!
//! ```text
//! cargo run --release --example wifi_transmitter
//! ```

use bsor::{AlgorithmRegistry, BsorAlgorithm, CdgStrategy, Planner, Scenario};
use bsor_cdg::TurnModel;
use bsor_routing::selectors::{MilpObjective, MilpSelector};
use bsor_topology::Topology;
use bsor_workloads::workload_by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = Topology::mesh2d(8, 8);
    let workload = workload_by_name(&mesh, "wifi")?;
    println!(
        "802.11a/g transmitter: {} flows, total {:.2} MB/s, largest {:.2} MB/s",
        workload.flows.len(),
        workload.flows.total_demand(),
        workload.flows.max_demand()
    );
    let scenario = Scenario::builder(mesh, workload.flows)
        .named("wifi")
        .vcs(2)
        .build()?;

    // Bandwidth-sensitive routing with static VC allocation.
    let planner = Planner::new();
    let plan = planner.plan(&scenario, &BsorAlgorithm::dijkstra())?;
    println!("BSOR-Dijkstra: MCL {:.2} MB/s", plan.predicted_mcl());
    // Every hop pins exactly one VC: static allocation (paper §4.2.2).
    let static_hops = plan
        .routes()
        .iter()
        .flat_map(|r| r.hops.iter())
        .all(|h| h.vcs.count() == 1);
    println!("static VC allocation on every hop: {static_hops}");

    // The §7.2 alternative: minimize the number of flows sharing a link
    // (no bandwidth knowledge needed) — still just another algorithm.
    let shared_algo = BsorAlgorithm::milp(
        "min-shared-flows",
        MilpSelector::new()
            .with_max_paths(60)
            .with_objective(MilpObjective::MinimizeSharedFlows),
    )
    .with_strategies(vec![CdgStrategy::TurnModel(
        TurnModel::negative_first().mirrored_y(),
    )]);
    let shared = planner.plan(&scenario, &shared_algo)?;
    println!(
        "flows-per-link objective: max {} flows share a channel (MCL {:.2} MB/s)",
        shared.routes().max_flows_per_link(scenario.topology()),
        shared.predicted_mcl()
    );

    // Baselines for context (Table 6.3's transmitter row), enumerated
    // straight from the registry.
    let algorithms = AlgorithmRegistry::standard();
    println!("\nbaseline MCLs (MB/s):");
    for name in ["xy", "yx", "romm", "valiant", "o1turn"] {
        let algorithm = algorithms.get(name).expect("registered");
        let plan = planner.plan(&scenario, algorithm)?;
        println!("  {:8} {:7.2}", algorithm.name(), plan.predicted_mcl());
    }
    Ok(())
}
