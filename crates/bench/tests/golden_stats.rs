//! Fixed-seed regression goldens for the latency-distribution and
//! traffic-process additions: percentiles, channel-load counters, and
//! the bursty / phase-scheduled / Markov-varied injection paths.
//!
//! `golden_engine.rs` pins the scalar digest of the default Bernoulli
//! path (unchanged since the seed engine); these tests pin the *new*
//! observables at the same fixed seeds so any change to histogram
//! bucketing, quantile extraction, channel-load accounting, or the
//! burst/phase/variation RNG consumption shows up as an exact-value
//! diff. The 4x4 rows pin per-flow rates of one packet per cycle and
//! more: the packets that always fire, the fractional draw after them,
//! and phase scales that carry a rate across an integer.

use bsor_routing::Baseline;
use bsor_sim::{
    BurstyOnOff, MarkovVariation, PhaseSchedule, SimConfig, SimReport, Simulator, TrafficSpec,
};
use bsor_topology::Topology;
use bsor_workloads::{transpose, workload_by_name};

fn config() -> SimConfig {
    SimConfig::new(2)
        .with_warmup(2_000)
        .with_measurement(10_000)
}

fn run(traffic_of: impl Fn(&bsor_flow::FlowSet) -> TrafficSpec) -> SimReport {
    let topo = Topology::mesh2d(8, 8);
    let w = transpose(&topo).expect("8x8 is square");
    let routes = Baseline::XY.select(&topo, &w.flows, 2).expect("xy");
    let traffic = traffic_of(&w.flows);
    let mut sim = Simulator::new(&topo, &w.flows, &routes, traffic, config()).expect("valid");
    sim.run()
}

/// The new observables, formatted so any drift is a visible diff.
fn digest(r: &SimReport) -> String {
    let hist = r.latency_histogram();
    // Channel loads are exact rationals (flits / measured cycles);
    // print the busiest eight links' flit counts to pin the counters
    // themselves, not just the maximum.
    let mut flits: Vec<u64> = r.link_flits.clone();
    flits.sort_unstable_by(|a, b| b.cmp(a));
    format!(
        "gen={} del={} tracked={} p50={:?} p95={:?} p99={:?} max={} max_load={:.6} top8={:?}",
        r.generated_packets,
        r.delivered_packets,
        hist.count(),
        hist.p50(),
        hist.p95(),
        hist.p99(),
        r.max_latency(),
        r.max_channel_load(),
        &flits[..8],
    )
}

#[test]
fn golden_percentiles_and_channel_loads_8x8_transpose_xy() {
    let r = run(|flows| TrafficSpec::proportional(flows, 0.8));
    assert_eq!(
        digest(&r),
        "gen=8099 del=8091 tracked=8077 p50=Some(19) p95=Some(43) p99=Some(78) max=382 \
         max_load=0.796200 top8=[7962, 7962, 7723, 7723, 7396, 7395, 7080, 7080]"
    );
}

#[test]
fn golden_bursty_injection_8x8_transpose_xy() {
    let r = run(|flows| {
        TrafficSpec::proportional(flows, 0.8).with_burst(BurstyOnOff::new(100.0, 300.0))
    });
    assert_eq!(
        digest(&r),
        "gen=8330 del=8304 tracked=8256 p50=Some(24) p95=Some(74) p99=Some(252) max=1764 \
         max_load=0.941900 top8=[9419, 9419, 8403, 8395, 8110, 8109, 7287, 7286]"
    );
}

#[test]
fn golden_phase_schedule_8x8_hotspot_xy() {
    let topo = Topology::mesh2d(8, 8);
    let w = workload_by_name(&topo, "hotspot:4").expect("spec resolves");
    let routes = Baseline::XY.select(&topo, &w.flows, 2).expect("xy");
    let traffic = TrafficSpec::proportional(&w.flows, 0.8)
        .with_phases(PhaseSchedule::from_pairs([(3_000, 1.5), (3_000, 0.5)]));
    let r = Simulator::new(&topo, &w.flows, &routes, traffic, config())
        .expect("valid")
        .run();
    assert_eq!(
        digest(&r),
        "gen=7334 del=6491 tracked=5909 p50=Some(30) p95=Some(296) p99=Some(1120) max=5471 \
         max_load=0.990100 top8=[9901, 9357, 8815, 8602, 8374, 8183, 7575, 7549]"
    );
}

#[test]
fn golden_markov_variation_8x8_transpose_xy() {
    let r = run(|flows| {
        TrafficSpec::proportional(flows, 0.8).with_variation(MarkovVariation::new(0.25, 100.0))
    });
    assert_eq!(
        digest(&r),
        "gen=8046 del=8048 tracked=8028 p50=Some(19) p95=Some(43) p99=Some(74) max=401 \
         max_load=0.850800 top8=[8508, 8508, 8056, 8056, 7324, 7320, 6972, 6968]"
    );
}

#[test]
fn golden_variation_bursts_and_phases_8x8_transpose_xy() {
    // All three modifiers at once pin the per-flow draw order: the
    // variation stage steps first, then the on/off stage, then the
    // arrival draw, every cycle, for every flow.
    let r = run(|flows| {
        TrafficSpec::proportional(flows, 0.8)
            .with_variation(MarkovVariation::new(0.5, 50.0))
            .with_burst(BurstyOnOff::new(100.0, 300.0))
            .with_phases(PhaseSchedule::from_pairs([(3_000, 1.5), (3_000, 0.5)]))
    });
    assert_eq!(
        digest(&r),
        "gen=7217 del=7487 tracked=7203 p50=Some(22) p95=Some(70) p99=Some(280) max=4371 \
         max_load=0.896500 top8=[8965, 8965, 7772, 7771, 7664, 7661, 6637, 6634]"
    );
}

/// 4x4 transpose under XY at a uniform per-flow rate, with no warmup
/// so the packets the saturated mesh does deliver are all tracked:
/// rates of one packet per cycle and more fill every source queue for
/// the whole run. The digest adds each flow's generated count.
fn run_4x4_uniform(rate: f64, phases: Option<PhaseSchedule>) -> String {
    let topo = Topology::mesh2d(4, 4);
    let w = transpose(&topo).expect("4x4 is square");
    let routes = Baseline::XY.select(&topo, &w.flows, 2).expect("xy");
    let mut traffic = TrafficSpec::uniform(&w.flows, rate);
    if let Some(p) = phases {
        traffic = traffic.with_phases(p);
    }
    let config = SimConfig::new(2).with_warmup(0).with_measurement(2_500);
    let mut sim = Simulator::new(&topo, &w.flows, &routes, traffic, config).expect("valid");
    let r = sim.run();
    let per_flow: Vec<u64> = r.per_flow.iter().map(|f| f.generated).collect();
    format!("{} per_flow={per_flow:?}", digest(&r))
}

/// Scales 0.3 and 1.7: a rate of 1.5 alternates between 0.45 and 2.55
/// packets per cycle, and a rate of 2.0 between 0.6 and 3.4.
fn integer_crossing_phases() -> PhaseSchedule {
    PhaseSchedule::from_pairs([(700, 0.3), (300, 1.7)])
}

#[test]
fn golden_fractional_rate_above_one_4x4_transpose_xy() {
    assert_eq!(
        run_4x4_uniform(1.5, None),
        "gen=45032 del=1866 tracked=1866 p50=Some(22) p95=Some(26) p99=Some(26) max=53 \
         max_load=0.999600 top8=[2499, 2499, 2499, 2499, 2499, 2499, 2498, 2498] \
         per_flow=[3743, 3736, 3762, 3771, 3743, 3698, 3775, 3792, 3769, 3731, 3737, 3775]"
    );
    assert_eq!(
        run_4x4_uniform(1.5, Some(integer_crossing_phases())),
        "gen=28681 del=1866 tracked=1866 p50=Some(22) p95=Some(26) p99=Some(26) max=52 \
         max_load=0.999600 top8=[2499, 2499, 2499, 2499, 2499, 2499, 2498, 2498] \
         per_flow=[2384, 2369, 2402, 2407, 2376, 2346, 2404, 2449, 2390, 2363, 2379, 2412]"
    );
}

#[test]
fn golden_integer_rate_4x4_transpose_xy() {
    assert_eq!(
        run_4x4_uniform(2.0, None),
        "gen=60000 del=1866 tracked=1866 p50=Some(22) p95=Some(26) p99=Some(26) max=53 \
         max_load=0.999600 top8=[2499, 2499, 2499, 2499, 2499, 2499, 2498, 2498] \
         per_flow=[5000, 5000, 5000, 5000, 5000, 5000, 5000, 5000, 5000, 5000, 5000, 5000]"
    );
    assert_eq!(
        run_4x4_uniform(2.0, Some(integer_crossing_phases())),
        "gen=38200 del=1866 tracked=1866 p50=Some(22) p95=Some(26) p99=Some(26) max=53 \
         max_load=0.999600 top8=[2499, 2499, 2499, 2499, 2499, 2499, 2498, 2498] \
         per_flow=[3175, 3163, 3181, 3188, 3183, 3131, 3209, 3236, 3194, 3176, 3174, 3190]"
    );
}
