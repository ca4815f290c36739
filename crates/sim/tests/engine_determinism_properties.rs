//! Property tests for the engine's determinism contract: with
//! fast-forward on or off, a fixed-seed simulation produces a
//! byte-identical `SimReport`. The fast-forward path consumes the
//! generation RNG stream every cycle and only skips cycles with no
//! flit buffered, queued or in the hop pipeline, so it may not perturb
//! a single counter at any pipeline latency.

use bsor_routing::Baseline;
use bsor_sim::{BurstyOnOff, PhaseSchedule, SimConfig, SimReport, Simulator, TrafficSpec};
use bsor_topology::Topology;
use bsor_workloads::{neighbor, transpose, uniform_random, Workload};
use proptest::prelude::*;

/// Runs one fixed scenario at the given pipeline latency and
/// fast-forward setting.
fn run_with(
    topo: &Topology,
    w: &Workload,
    algo: Baseline,
    traffic: TrafficSpec,
    seed: u64,
    pipeline_latency: u8,
    fast_forward: bool,
) -> SimReport {
    let routes = algo.select(topo, &w.flows, 2).expect("baseline routes");
    let config = SimConfig::new(2)
        .with_warmup(200)
        .with_measurement(800)
        .with_packet_len(4)
        .with_seed(seed)
        .with_pipeline_latency(pipeline_latency)
        .with_fast_forward(fast_forward);
    let mut sim = Simulator::new(topo, &w.flows, &routes, traffic, config).expect("valid");
    sim.run()
}

fn build_workload(topo: &Topology, which: u8) -> Workload {
    match which {
        // Transpose needs a power-of-two square side; odd grids fall
        // back to uniform-random so the generator space stays dense.
        0 => transpose(topo).unwrap_or_else(|_| uniform_random(topo).expect("n >= 2")),
        1 => neighbor(topo).expect("side >= 2"),
        _ => uniform_random(topo).expect("n >= 2"),
    }
}

fn build_traffic(flows: &bsor_flow::FlowSet, rate: f64, shape: u8) -> TrafficSpec {
    let base = TrafficSpec::proportional(flows, rate);
    match shape {
        0 => base,
        1 => base.with_burst(BurstyOnOff::new(40.0, 120.0)),
        _ => base.with_phases(PhaseSchedule::from_pairs([(100, 1.5), (150, 0.5)])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// topology x workload x traffic-shape x rate x seed: at pipeline
    /// latency 1 and 4, the report with fast-forward disabled must be
    /// byte-identical to the fast-forwarding one. At latency 4 flits
    /// sit in the hop pipeline across cycle boundaries, which the skip
    /// condition has to see.
    #[test]
    fn fast_forward_keeps_reports_identical_at_pipeline_latency_1_and_4(
        side in 3u16..=5,
        torus_sel in 0u8..2,
        which_workload in 0u8..3,
        shape in 0u8..3,
        rate_step in 1u32..=6,
        seed in 0u64..1_000,
    ) {
        let torus = torus_sel == 1;
        let topo = if torus {
            Topology::torus2d(side, side)
        } else {
            Topology::mesh2d(side, side)
        };
        let w = build_workload(&topo, which_workload);
        let rate = f64::from(rate_step) * 0.05; // 0.05 .. 0.30
        let algo = if torus { Baseline::XY } else { Baseline::YX };

        for pipeline in [1u8, 4] {
            let run = |ff: bool| {
                run_with(
                    &topo,
                    &w,
                    algo,
                    build_traffic(&w.flows, rate, shape),
                    seed,
                    pipeline,
                    ff,
                )
            };
            let reference = run(true);
            prop_assert!(reference.generated_packets > 0);
            prop_assert_eq!(
                &run(false),
                &reference,
                "pipeline={} diverged without fast-forward (side={}, torus={}, workload={}, shape={}, rate={}, seed={})",
                pipeline,
                side,
                torus,
                which_workload,
                shape,
                rate,
                seed
            );
        }
    }
}
