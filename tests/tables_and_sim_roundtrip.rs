//! Cross-crate integration: router-table programming round-trips, and
//! the simulator's accounting stays conserved.

use bsor::BsorBuilder;
use bsor_repro::flow::FlowSet;
use bsor_repro::routing::tables::{NodeTables, RouteTables};
use bsor_repro::routing::Baseline;
use bsor_repro::sim::{SimConfig, Simulator, TrafficSpec};
use bsor_repro::topology::Topology;
use bsor_repro::workloads::{h264_decoder, performance_modeling, transpose};

#[test]
fn node_tables_reproduce_bsor_routes() {
    let topo = Topology::mesh2d(8, 8);
    let w = transpose(&topo).expect("square");
    let result = BsorBuilder::new(&topo, &w.flows)
        .vcs(2)
        .run()
        .expect("routable");
    let tables = NodeTables::build(&topo, &result.routes);
    for f in w.flows.iter() {
        let walked = tables.walk_route(&topo, f.id, f.src);
        let expected: Vec<_> = result
            .routes
            .route(f.id)
            .hops
            .iter()
            .map(|h| h.link)
            .collect();
        assert_eq!(walked, expected, "node tables must reproduce flow {}", f.id);
    }
    // The paper's hardware argument: tables stay small (<= 256 entries).
    assert!(
        tables.max_entries() <= 256,
        "node tables exceed the paper's example budget: {}",
        tables.max_entries()
    );
}

#[test]
fn simulator_accounting_is_conserved() {
    let topo = Topology::mesh2d(8, 8);
    let w = performance_modeling(&topo).expect("fits");
    let routes = Baseline::XY.select(&topo, &w.flows, 2).expect("xy");
    let traffic = TrafficSpec::proportional(&w.flows, 0.5);
    let config = SimConfig::new(2)
        .with_warmup(1_000)
        .with_measurement(8_000)
        .with_packet_len(4);
    let report = Simulator::new(&topo, &w.flows, &routes, traffic, config)
        .expect("consistent")
        .run();
    assert!(!report.deadlocked);
    // Per-flow deliveries sum to the total.
    let per_flow_delivered: u64 = report.per_flow.iter().map(|f| f.delivered).sum();
    assert_eq!(per_flow_delivered, report.delivered_packets);
    let per_flow_generated: u64 = report.per_flow.iter().map(|f| f.generated).sum();
    assert_eq!(per_flow_generated, report.generated_packets);
    // Flit and packet counts agree up to window-boundary effects
    // (packets straddling the window start/end contribute partial
    // flit counts).
    assert!(
        report.delivered_flits as f64 >= report.delivered_packets as f64 * 4.0 * 0.95,
        "flits {} vs packets {}",
        report.delivered_flits,
        report.delivered_packets
    );
    // Latency tracking only covers measured packets.
    for f in &report.per_flow {
        assert!(f.latency_count <= f.generated);
        if let Some(mean) = f.mean_latency() {
            assert!(mean >= 1.0, "one hop takes at least a cycle");
            assert!(mean <= f.latency_max as f64 + 1e-9);
        }
    }
}

#[test]
fn h264_sim_latency_orders_algorithms_sanely() {
    // At light load everything delivers; latency stays within sane
    // bounds and BSOR is not pathologically worse than XY (paper §6.2.4:
    // comparable latency at light loads).
    let topo = Topology::mesh2d(8, 8);
    let w = h264_decoder(&topo).expect("fits");
    let xy = Baseline::XY.select(&topo, &w.flows, 2).expect("xy");
    let bsor = BsorBuilder::new(&topo, &w.flows)
        .vcs(2)
        .run()
        .expect("routable");
    let run = |routes| {
        let traffic = TrafficSpec::proportional(&w.flows, 0.2);
        let config = SimConfig::new(2).with_warmup(1_000).with_measurement(8_000);
        Simulator::new(&topo, &w.flows, routes, traffic, config)
            .expect("consistent")
            .run()
    };
    let r_xy = run(&xy);
    let r_bsor = run(&bsor.routes);
    let l_xy = r_xy.mean_latency().expect("delivered");
    let l_bsor = r_bsor.mean_latency().expect("delivered");
    assert!(
        l_bsor < l_xy * 2.0,
        "BSOR latency {l_bsor:.1} vs XY {l_xy:.1}"
    );
    assert!(l_xy < 200.0, "light-load latency should be modest");
}

#[test]
fn scaled_demands_scale_mcl_linearly() {
    // MCL is linear in demands: doubling every flow doubles the MCL of
    // the same route set (used by the bandwidth-variation experiments).
    let topo = Topology::mesh2d(8, 8);
    let w = transpose(&topo).expect("square");
    let routes = Baseline::XY.select(&topo, &w.flows, 2).expect("xy");
    let base = routes.mcl(&topo, &w.flows);
    let scaled: FlowSet = w.flows.scaled(2.0);
    assert!((routes.mcl(&topo, &scaled) - 2.0 * base).abs() < 1e-9);
}
