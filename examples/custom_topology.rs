//! Topology independence (paper §1.1, §3): the unified pipeline only
//! needs a name the `TopologyRegistry` knows, so the same plan request
//! runs unchanged on rings and tori where turn models do not apply —
//! the BSOR framework falls back to ad-hoc cycle breaking there.
//!
//! ```text
//! cargo run --release --example custom_topology
//! ```

use bsor::{BsorAlgorithm, Planner, Scenario, TopologyRegistry};
use bsor_flow::FlowSet;
use bsor_routing::deadlock;
use bsor_topology::NodeId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = TopologyRegistry::standard();
    println!("registered topologies: {}", registry.names().join(", "));

    // The same shifted traffic pattern on three families.
    for (family, w, h, shift) in [
        ("ring", 8u16, 1u16, 3u32),
        ("torus", 4, 4, 7),
        ("mesh", 4, 4, 7),
    ] {
        let topo = registry.build(family, w, h)?;
        let n = topo.num_nodes() as u32;
        let mut flows = FlowSet::new();
        for i in 0..n {
            flows.push(NodeId(i), NodeId((i + shift) % n), 10.0);
        }
        let scenario = Scenario::builder(topo, flows)
            .named(format!("{family}-{w}x{h}"))
            .vcs(2)
            .build()?;
        // One plan call routes every family: on meshes the framework
        // explores turn models, elsewhere ad-hoc acyclic CDGs.
        let plan = Planner::new().plan(&scenario, &BsorAlgorithm::dijkstra())?;
        assert!(deadlock::is_deadlock_free(
            scenario.topology(),
            plan.routes(),
            2
        ));
        println!(
            "{}: MCL {:.1} MB/s, mean {:.2} hops, deadlock-free",
            scenario.name(),
            plan.predicted_mcl(),
            plan.routes().mean_hops()
        );
    }
    Ok(())
}
