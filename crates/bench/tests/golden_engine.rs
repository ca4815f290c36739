//! Fixed-seed regression tests pinning the engine's observable behavior.
//!
//! The numbers below were captured from the seed engine (PR 1's
//! HashMap-based hot path) on the paper's 8×8 transpose scenario. The
//! flattened engine must reproduce them exactly: the arena refactor is a
//! data-layout change, not a behavioral one. The 1-flit and 20-flit
//! digests were captured from the engine whose source queues held
//! pre-built flits; making each flit as it enters the injection VC
//! reproduces them.

use bsor::{BsorBuilder, SelectorKind};
use bsor_routing::selectors::DijkstraSelector;
use bsor_routing::Baseline;
use bsor_sim::{SimConfig, SimReport, Simulator, TrafficSpec};
use bsor_topology::Topology;
use bsor_workloads::transpose;

fn transpose_report(algo: &str, rate: f64, packet_len: usize) -> SimReport {
    let topo = Topology::mesh2d(8, 8);
    let w = transpose(&topo).expect("8x8 is square");
    let routes = match algo {
        "xy" => Baseline::XY.select(&topo, &w.flows, 2).expect("xy"),
        "bsor" => {
            BsorBuilder::new(&topo, &w.flows)
                .vcs(2)
                .selector(SelectorKind::Dijkstra(DijkstraSelector::new()))
                .run()
                .expect("routable")
                .routes
        }
        _ => unreachable!(),
    };
    let traffic = TrafficSpec::proportional(&w.flows, rate);
    let config = SimConfig::new(2)
        .with_warmup(2_000)
        .with_measurement(10_000)
        .with_packet_len(packet_len);
    let mut sim = Simulator::new(&topo, &w.flows, &routes, traffic, config).expect("valid");
    sim.run()
}

#[derive(Debug, PartialEq)]
struct Digest {
    generated: u64,
    delivered: u64,
    delivered_flits: u64,
    latency_sum: u64,
    latency_count: u64,
    latency_max: u64,
    link_flits_sum: u64,
    link_flits_max: u64,
    deadlocked: bool,
}

fn digest(r: &SimReport) -> Digest {
    Digest {
        generated: r.generated_packets,
        delivered: r.delivered_packets,
        delivered_flits: r.delivered_flits,
        latency_sum: r.per_flow.iter().map(|f| f.latency_sum).sum(),
        latency_count: r.per_flow.iter().map(|f| f.latency_count).sum(),
        latency_max: r.max_latency(),
        link_flits_sum: r.link_flits.iter().sum(),
        link_flits_max: r.max_link_flits(),
        deadlocked: r.deadlocked,
    }
}

#[test]
fn golden_8x8_transpose_xy() {
    let d = digest(&transpose_report("xy", 0.8, 8));
    assert_eq!(
        d,
        Digest {
            generated: 8099,
            delivered: 8091,
            delivered_flits: 64736,
            latency_sum: 180026,
            latency_count: 8077,
            latency_max: 382,
            link_flits_sum: 388806,
            link_flits_max: 7962,
            deadlocked: false,
        }
    );
}

#[test]
fn golden_8x8_transpose_bsor_dijkstra() {
    let d = digest(&transpose_report("bsor", 0.8, 8));
    assert_eq!(
        d,
        Digest {
            generated: 8099,
            delivered: 8096,
            delivered_flits: 64761,
            latency_sum: 138166,
            latency_count: 8088,
            latency_max: 113,
            link_flits_sum: 388790,
            link_flits_max: 3672,
            deadlocked: false,
        }
    );
}

/// One-flit packets: the head is also the tail, so a packet enters and
/// leaves every buffer in a single move.
#[test]
fn golden_8x8_transpose_xy_single_flit_packets() {
    let d = digest(&transpose_report("xy", 0.8, 1));
    assert_eq!(
        d,
        Digest {
            generated: 8099,
            delivered: 8095,
            delivered_flits: 8095,
            latency_sum: 56891,
            latency_count: 8091,
            latency_max: 16,
            link_flits_sum: 48611,
            link_flits_max: 996,
            deadlocked: false,
        }
    );
}

/// 20-flit packets outgrow the 16-flit buffers, so a packet's body
/// waits at its source while the injection VC is full.
#[test]
fn golden_8x8_transpose_xy_packets_longer_than_a_buffer() {
    let d = digest(&transpose_report("xy", 0.8, 20));
    assert_eq!(
        d,
        Digest {
            generated: 8099,
            delivered: 5745,
            delivered_flits: 114943,
            latency_sum: 461920,
            latency_count: 5558,
            latency_max: 2883,
            link_flits_sum: 792254,
            link_flits_max: 10000,
            deadlocked: false,
        }
    );
}
