//! Oracle-differential tests: a deliberately naive reference simulator
//! cross-checks the arena engine on small meshes at low load.
//!
//! The reference replays the engine's *exact* packet-generation RNG
//! stream (same `StdRng` seed, same per-flow draw order, with the
//! original `while p > 0 { gen_bool(p) }` loop instead of the engine's
//! integer thresholds), so generated-packet counts must match the
//! engine bit-for-bit — any divergence in the engine's generation loop,
//! flow indexing or measurement-window accounting shows up as a hard
//! count mismatch. A proptest extends that count check to rates at and
//! above one packet per cycle, where the network saturates.
//! Delivery timing is then modeled with a single FIFO queue per link
//! (one flit per cycle, wormhole occupancy of `packet_len` cycles),
//! processing packets in injection order with no switch arbitration —
//! an O(packets × hops) loop with none of the engine's data structures.
//! At low load the two models agree closely on latency, so the mean
//! packet latency is compared under a tight relative tolerance, and the
//! reference (which under-approximates arbitration stalls) must never
//! exceed the engine by more than the quantization slack.

use bsor_flow::FlowSet;
use bsor_routing::{Baseline, RouteSet};
use bsor_sim::{
    BurstyOnOff, InjectionProcess, MarkovVariation, PhaseSchedule, SimConfig, SimReport, Simulator,
    TrafficSpec,
};
use bsor_topology::{NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// In-test replica of the engine's per-flow Markov variation stage
/// (`VariationState`, crate-private like `BurstState`), kept so any
/// drift in the engine's RNG consumption order breaks the replay.
#[derive(Clone)]
struct OracleVariation {
    multiplier: f64,
    cycles_left: u64,
    deviated: bool,
}

impl OracleVariation {
    fn new() -> OracleVariation {
        OracleVariation {
            multiplier: 1.0,
            cycles_left: 0,
            deviated: true,
        }
    }

    fn step(&mut self, params: &MarkovVariation, rng: &mut StdRng) -> f64 {
        if self.cycles_left == 0 {
            self.deviated = !self.deviated;
            let p = 1.0 / params.mean_dwell;
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            self.cycles_left = (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64;
            self.multiplier = if self.deviated {
                1.0 + rng.gen_range(-params.fraction..=params.fraction)
            } else {
                1.0
            };
        }
        self.cycles_left -= 1;
        self.multiplier
    }
}

/// In-test replica of the engine's per-flow on/off stage tracker. The
/// engine's `BurstState` is crate-private by design; the oracle keeps
/// its own copy of the exact dwell-sampling logic so any drift in the
/// engine's RNG consumption order breaks the generation replay loudly.
#[derive(Clone)]
struct OracleBurst {
    on: bool,
    cycles_left: u64,
}

impl OracleBurst {
    fn new() -> OracleBurst {
        OracleBurst {
            on: false,
            cycles_left: 0,
        }
    }

    fn step(&mut self, params: &BurstyOnOff, rng: &mut StdRng) -> bool {
        if self.cycles_left == 0 {
            self.on = !self.on;
            let mean = if self.on {
                params.mean_on
            } else {
                params.mean_off
            };
            let p = 1.0 / mean;
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            self.cycles_left = (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64;
        }
        self.cycles_left -= 1;
        self.on
    }
}

/// What the naive reference simulator observed.
struct OracleReport {
    /// Packets generated inside the measurement window, per flow.
    generated_per_flow: Vec<u64>,
    /// Packets (tracked or not) delivered inside the measurement window.
    delivered_in_window: u64,
    /// Mean latency over tracked packets.
    mean_latency: f64,
    /// Tracked packets delivered (all of them, in this infinite-horizon
    /// model).
    tracked: u64,
}

/// One generated packet: its cycle, its flow, and whether it falls in
/// the measurement window.
type OraclePacket = (u64, usize, bool);

/// Replays the engine's generation RNG stream naively: per cycle, per
/// flow, the variation stage steps, then the on/off stage, then the
/// `while p > 0 { fire if p >= 1 or gen_bool(p); p -= 1 }` arrival loop.
/// Returns the packets in engine generation order.
fn oracle_generate(traffic: &TrafficSpec, config: &SimConfig) -> Vec<OraclePacket> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total = config.warmup + config.measurement + config.drain;
    let window = config.warmup..config.warmup + config.measurement;
    let flows = traffic.rates.len();
    let mut variation_states = vec![OracleVariation::new(); flows];
    let mut burst_states = vec![OracleBurst::new(); flows];
    let mut packets = Vec::new();
    for cycle in 0..total {
        let phase_scale = traffic.phases.as_ref().map_or(1.0, |s| s.scale_at(cycle));
        for (i, &rate) in traffic.rates.iter().enumerate() {
            let mut p = rate * phase_scale;
            if let Some(variation) = &traffic.variation {
                p *= variation_states[i].step(variation, &mut rng);
            }
            if let InjectionProcess::OnOff(burst) = traffic.injection {
                p = if burst_states[i].step(&burst, &mut rng) {
                    p * burst.on_multiplier()
                } else {
                    0.0
                };
            }
            while p > 0.0 {
                let fire = if p >= 1.0 { true } else { rng.gen_bool(p) };
                if fire {
                    packets.push((cycle, i, window.contains(&cycle)));
                }
                p -= 1.0;
            }
        }
    }
    packets
}

/// Measurement-window packets per flow.
fn generated_per_flow(packets: &[OraclePacket], flows: usize) -> Vec<u64> {
    let mut counts = vec![0u64; flows];
    for &(_, flow, tracked) in packets {
        if tracked {
            counts[flow] += 1;
        }
    }
    counts
}

/// The naive single-queue reference: replay the engine's generation RNG
/// exactly, then push each packet through its route against per-link
/// FIFO availability times, in injection order.
fn oracle_run(
    topo: &Topology,
    flows: &FlowSet,
    routes: &RouteSet,
    traffic: &TrafficSpec,
    config: &SimConfig,
) -> OracleReport {
    let window = config.warmup..config.warmup + config.measurement;
    let packets = oracle_generate(traffic, config);
    let generated_per_flow = generated_per_flow(&packets, flows.len());
    // Naive timing: every link is one FIFO server moving one flit per
    // cycle; a packet occupies each link for `packet_len` cycles. The
    // zero-contention latency is `hops + packet_len`, matching the
    // engine's single-cycle-per-hop router plus tail ejection.
    let len = config.packet_len as u64;
    let hops: Vec<Vec<usize>> = routes
        .iter()
        .map(|r| r.hops.iter().map(|h| h.link.index()).collect())
        .collect();
    let mut link_free = vec![0u64; topo.num_links()];
    let mut latency_sum = 0u64;
    let mut tracked = 0u64;
    let mut delivered_in_window = 0u64;
    for &(cycle, flow, is_tracked) in &packets {
        let mut t = cycle;
        for &link in &hops[flow] {
            t = t.max(link_free[link]) + 1;
            link_free[link] = t + len - 1;
        }
        let delivery = t + len;
        if window.contains(&delivery) {
            delivered_in_window += 1;
        }
        if is_tracked {
            latency_sum += delivery - cycle;
            tracked += 1;
        }
    }
    OracleReport {
        generated_per_flow,
        delivered_in_window,
        mean_latency: if tracked == 0 {
            0.0
        } else {
            latency_sum as f64 / tracked as f64
        },
        tracked,
    }
}

fn cross_check(topo: Topology, flows: FlowSet, rate: f64, seed: u64) {
    let traffic = TrafficSpec::proportional(&flows, rate);
    cross_check_traffic(topo, flows, traffic, seed, 0.15);
}

/// Cross-checks an arbitrary traffic spec; `latency_tol` is the allowed
/// relative mean-latency divergence (the naive FIFO model undershoots
/// arbitration stalls more under clustered arrivals).
fn cross_check_traffic(
    topo: Topology,
    flows: FlowSet,
    traffic: TrafficSpec,
    seed: u64,
    latency_tol: f64,
) {
    let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy routes");
    let mut config = SimConfig::new(2)
        .with_warmup(500)
        .with_measurement(5_000)
        .with_packet_len(4)
        .with_seed(seed);
    // Long drain: every tracked packet must leave the network so the
    // count comparison is exact, not truncated.
    config.drain = 2_000;
    let oracle = oracle_run(&topo, &flows, &routes, &traffic, &config);
    let report: SimReport = Simulator::new(&topo, &flows, &routes, traffic, config)
        .expect("valid sim")
        .run();
    assert!(!report.deadlocked, "XY at low load cannot deadlock");

    // 1. Generation replay: exact, per flow.
    let oracle_generated: u64 = oracle.generated_per_flow.iter().sum();
    assert_eq!(
        report.generated_packets, oracle_generated,
        "engine and oracle disagree on generated packets (seed {seed})"
    );
    for (i, fs) in report.per_flow.iter().enumerate() {
        assert_eq!(
            fs.generated, oracle.generated_per_flow[i],
            "flow {i} generation diverged (seed {seed})"
        );
    }

    // 2. Delivery accounting: with a drain longer than any low-load
    // latency, every tracked packet is delivered and latency-counted.
    let tracked: u64 = report.per_flow.iter().map(|f| f.latency_count).sum();
    assert_eq!(
        tracked, oracle.tracked,
        "engine lost tracked packets (seed {seed})"
    );
    // Window-delivered counts may differ only by packets straddling the
    // window edges (a handful at these rates).
    let diff = report
        .delivered_packets
        .abs_diff(oracle.delivered_in_window);
    assert!(
        diff <= 8,
        "windowed delivery counts diverged by {diff} (engine {}, oracle {}, seed {seed})",
        report.delivered_packets,
        oracle.delivered_in_window
    );

    // 3. Latency: the naive model tracks the engine closely at low load.
    let engine_mean = report.mean_latency().expect("packets delivered");
    let rel = (engine_mean - oracle.mean_latency).abs() / engine_mean;
    assert!(
        rel < latency_tol,
        "mean latency diverged {:.1}%: engine {engine_mean:.2}, oracle {:.2} (seed {seed})",
        rel * 100.0,
        oracle.mean_latency
    );
    // The FIFO model has no arbitration stalls: it may only undershoot
    // (modulo its fixed +2 pipeline slack).
    assert!(
        oracle.mean_latency <= engine_mean + 2.0,
        "oracle latency {:.2} above engine {engine_mean:.2} (seed {seed})",
        oracle.mean_latency
    );
}

/// All-pairs-shifted flows on a 3×3 mesh (synthetic patterns need
/// power-of-two grids; the oracle does not).
fn mesh3_flows(topo: &Topology) -> FlowSet {
    let n = topo.num_nodes() as u32;
    let mut flows = FlowSet::new();
    for i in 0..n {
        let j = (i + 4) % n;
        if i != j {
            flows.push(NodeId(i), NodeId(j), 10.0);
        }
    }
    flows
}

#[test]
fn oracle_matches_engine_on_3x3_mesh() {
    for seed in [1, 42, 0xB50B] {
        let topo = Topology::mesh2d(3, 3);
        let flows = mesh3_flows(&topo);
        cross_check(topo, flows, 0.05, seed);
    }
}

#[test]
fn oracle_matches_engine_on_4x4_transpose() {
    for seed in [7, 1234] {
        let topo = Topology::mesh2d(4, 4);
        let w = bsor_workloads::transpose(&topo).expect("4x4 is square");
        cross_check(topo, w.flows, 0.08, seed);
    }
}

#[test]
fn oracle_matches_engine_on_4x4_neighbor() {
    for seed in [3, 99] {
        let topo = Topology::mesh2d(4, 4);
        let w = bsor_workloads::neighbor(&topo).expect("4 columns");
        cross_check(topo, w.flows, 0.1, seed);
    }
}

#[test]
fn oracle_matches_engine_with_onoff_bursts() {
    // Equal dwell means: duty 0.5, so on-phase rates double. The oracle
    // replays the per-flow dwell sampling RNG draws exactly; clustered
    // arrivals stress the FIFO model harder, hence the looser latency
    // tolerance.
    for seed in [5, 77] {
        let topo = Topology::mesh2d(3, 3);
        let flows = mesh3_flows(&topo);
        let traffic =
            TrafficSpec::proportional(&flows, 0.05).with_burst(BurstyOnOff::new(100.0, 100.0));
        cross_check_traffic(topo, flows, traffic, seed, 0.25);
    }
}

#[test]
fn oracle_matches_engine_with_phase_schedule() {
    // An 800-cycle period inside a 5000-cycle window: the measurement
    // covers several full load swings, and the oracle must agree on
    // which cycles sit in which phase.
    for seed in [11, 4242] {
        let topo = Topology::mesh2d(4, 4);
        let w = bsor_workloads::transpose(&topo).expect("4x4 is square");
        let traffic = TrafficSpec::proportional(&w.flows, 0.08)
            .with_phases(PhaseSchedule::from_pairs([(400, 1.5), (400, 0.5)]));
        cross_check_traffic(topo, w.flows, traffic, seed, 0.15);
    }
}

#[test]
fn oracle_matches_engine_with_bursts_and_phases_combined() {
    // Both modifiers at once pins their RNG interleaving: the burst
    // state steps after the (RNG-free) phase scale is applied, every
    // cycle, for every flow.
    let topo = Topology::mesh2d(3, 3);
    let flows = mesh3_flows(&topo);
    let traffic = TrafficSpec::proportional(&flows, 0.05)
        .with_burst(BurstyOnOff::new(50.0, 150.0))
        .with_phases(PhaseSchedule::from_pairs([(300, 1.2), (300, 0.4)]));
    cross_check_traffic(topo, flows, traffic, 23, 0.25);
}

#[test]
fn oracle_matches_engine_with_markov_variation() {
    // The variation stage draws its dwell and multiplier before the
    // arrival draw; the oracle's copy of it must stay in step.
    for seed in [13, 808] {
        let topo = Topology::mesh2d(4, 4);
        let w = bsor_workloads::transpose(&topo).expect("4x4 is square");
        let traffic = TrafficSpec::proportional(&w.flows, 0.08)
            .with_variation(MarkovVariation::new(0.5, 40.0));
        cross_check_traffic(topo, w.flows, traffic, seed, 0.15);
    }
}

/// Per-flow rates the generation proptest draws from: zero, tiny, a
/// non-dyadic fraction, the largest double below one (1 - 2^-53), and
/// whole and mixed rates at and above one packet per cycle.
const RATES: [f64; 7] = [0.0, 1e-9, 0.3, 1.0 - f64::EPSILON / 2.0, 1.0, 2.0, 2.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random per-flow rates, with and without a phase schedule
    /// (whose scales carry rates across integers and to zero), on/off
    /// bursts and Markov variation, the engine generates exactly the
    /// oracle's packets per flow.
    /// High rates saturate the network, so only counts are compared.
    #[test]
    fn engine_generation_counts_match_the_oracle(
        picks in prop::collection::vec(0usize..RATES.len(), 9),
        shape in 0u8..8,
        seed in 0u64..1_000_000,
    ) {
        let topo = Topology::mesh2d(3, 3);
        let flows = mesh3_flows(&topo);
        let mut traffic = TrafficSpec::uniform(&flows, 0.0);
        traffic.rates = picks.iter().map(|&k| RATES[k]).collect();
        if shape & 1 != 0 {
            traffic = traffic
                .with_phases(PhaseSchedule::from_pairs([(40, 1.7), (30, 0.3), (30, 0.0)]));
        }
        if shape & 2 != 0 {
            traffic = traffic.with_burst(BurstyOnOff::new(10.0, 30.0));
        }
        if shape & 4 != 0 {
            traffic = traffic.with_variation(MarkovVariation::new(0.5, 20.0));
        }
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy routes");
        let config = SimConfig::new(2)
            .with_warmup(100)
            .with_measurement(300)
            .with_packet_len(4)
            .with_seed(seed);
        let expected = generated_per_flow(&oracle_generate(&traffic, &config), flows.len());
        let report = Simulator::new(&topo, &flows, &routes, traffic, config)
            .expect("valid sim")
            .run();
        let generated: Vec<u64> = report.per_flow.iter().map(|f| f.generated).collect();
        prop_assert_eq!(generated, expected, "rates {:?}, shape {}", picks, shape);
    }
}
