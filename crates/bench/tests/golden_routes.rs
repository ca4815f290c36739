//! Route-identity golden: one FNV-1a digest per (topology, workload,
//! VCs, algorithm) case over every selected route and the plan's
//! predicted MCL.
//!
//! The byte goldens of `golden_pipeline.rs` pin BSOR only on the 8x8
//! mesh for transpose and H.264. This golden widens the net to every
//! route-selection path the framework has: the turn-model and
//! protected ad-hoc CDGs on meshes, the unprotected ad-hoc cycle
//! breaker on tori, rings and hypercubes, the up*/down* ordering on
//! the arbitrary-graph families at one VC, and the MILP selector's
//! candidate pool. `golden/route_identity.txt` was captured from the
//! heap-Dijkstra selector and the restart-from-scratch cycle breaker;
//! the linear-time kernels must reproduce it digest for digest.
//!
//! The digest of a case mixes, per flow in id order, the flow id, the
//! hop count and each hop's link id and VC-mask bits, then the bits of
//! `RoutePlan::predicted_mcl`.

use bsor_bench::sweep::SweepRegistries;
use bsor_sim::{Planner, RoutePlan, Scenario};

/// The eleven applications of the benchmark's `plan-apps` workload (the
/// random permutation at the benchmark's default seed).
const APPS: [&str; 11] = [
    "transpose",
    "bit-complement",
    "shuffle",
    "h264",
    "perf-model",
    "wifi",
    "tornado",
    "bit-reversal",
    "neighbor",
    "hotspot:4",
    "rand-perm:46347",
];

/// The paper applications of the benchmark's `plan-lp` workload.
const LP_APPS: [&str; 5] = [
    "transpose",
    "bit-complement",
    "shuffle",
    "h264",
    "perf-model",
];

/// `(topology, workload, vcs, algorithm)` for every golden case.
fn cases() -> Vec<(&'static str, &'static str, u8, &'static str)> {
    let mut cases: Vec<_> = APPS
        .iter()
        .map(|&app| ("mesh:8x8", app, 2, "bsor-dijkstra"))
        .collect();
    for topo in ["torus:4x4", "ring:8x1", "hypercube:4x4"] {
        cases.push((topo, "uniform-random", 2, "bsor-dijkstra"));
    }
    for topo in ["dragonfly:2,3,2", "fattree:4", "fullmesh:6"] {
        cases.push((topo, "uniform-random", 1, "bsor-dijkstra"));
    }
    cases.push(("mesh:16x16", "hotspot:4", 2, "bsor-dijkstra"));
    for app in LP_APPS {
        cases.push(("mesh:4x4", app, 2, "bsor-milp"));
    }
    cases
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(plan: &RoutePlan) -> u64 {
    let mut h = Fnv::new();
    for route in plan.routes().iter() {
        h.u64(u64::from(route.flow.0));
        h.u64(route.hops.len() as u64);
        for hop in &route.hops {
            h.u64(u64::from(hop.link.0));
            h.u64(u64::from(hop.vcs.0));
        }
    }
    h.u64(plan.predicted_mcl().to_bits());
    h.0
}

/// One `<topology> <workload> vc<N> <algorithm> <digest>` line per case.
fn render() -> String {
    let regs = SweepRegistries::standard();
    let planner = Planner::new();
    let mut out = String::new();
    for (topology, workload, vcs, algorithm) in cases() {
        let topo = regs
            .topologies
            .build_spec(topology)
            .unwrap_or_else(|e| panic!("{topology}: {e}"));
        let flows = regs
            .workloads
            .build(&topo, workload)
            .unwrap_or_else(|e| panic!("{topology}/{workload}: {e}"))
            .flows;
        let scenario = Scenario::builder(topo, flows)
            .named(workload)
            .vcs(vcs)
            .build()
            .unwrap_or_else(|e| panic!("{topology}/{workload}: {e}"));
        let alg = regs.algorithms.get(algorithm).expect("registered");
        let plan = planner
            .plan(&scenario, alg)
            .unwrap_or_else(|e| panic!("{topology}/{workload}/{algorithm}: {e}"));
        out.push_str(&format!(
            "{topology} {workload} vc{vcs} {algorithm} {:016x}\n",
            digest(&plan)
        ));
    }
    out
}

#[test]
fn selected_routes_match_the_heap_dijkstra_golden() {
    let fresh = render();
    assert!(
        fresh == include_str!("golden/route_identity.txt"),
        "route selection diverged from golden/route_identity.txt; fresh digests:\n{fresh}"
    );
}
