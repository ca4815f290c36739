//! Certificate-identity golden: one FNV-1a digest per (topology,
//! workload, VCs, algorithm) case over the plan's Lemma-1
//! [`DeadlockCertificate`], plus the exact cycle `deadlock::certify`
//! reports on three cyclic route sets.
//!
//! `golden_routes.rs` pins the routes and `bsor-bench` digests plan ids
//! and MCLs, but neither looks at the certificate: a certifier that
//! returned a different (still valid) topological order, or counted
//! dependencies differently, would pass both. This golden pins the
//! ranks themselves. `golden/certificate_identity.txt` was captured
//! from the `HashSet` + `DiGraph` + `toposort` certifier; the
//! turn-bitmap and CSR sort that replaced it must reproduce it line for
//! line.
//!
//! Cases: the 23 route-identity cases, the distinct `plan-scale` keys
//! at `--quick` sizes (its compact-tables key certifies the same routes
//! as its dense one), the full-size 64x64 tornado XY key, and three
//! baselines on more VCs (O1TURN at 4, Valiant and random-walk at 8).
//! The digest of a case mixes the certificate's VC count, its
//! dependency count, the number of ranks and every rank in slot order.

use bsor_bench::sweep::SweepRegistries;
use bsor_flow::FlowSet;
use bsor_routing::deadlock::{self, DeadlockCertificate};
use bsor_routing::{Baseline, Route, RouteHop, RouteSet, VcMask};
use bsor_sim::{Planner, Scenario};
use bsor_topology::{NodeId, Topology};

/// The eleven applications of `golden_routes.rs` (and `plan-apps`).
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

/// The paper applications of `golden_routes.rs`'s MILP cases.
const LP_APPS: [&str; 5] = [
    "transpose",
    "bit-complement",
    "shuffle",
    "h264",
    "perf-model",
];

/// `(topology, workload, vcs, algorithm)` for every certified case.
fn cases() -> Vec<(&'static str, &'static str, u8, &'static str)> {
    // The route-identity cases, in their order.
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
    // plan-scale at --quick sizes, then its full-size tornado key.
    cases.extend([
        ("mesh:8x8", "uniform-random", 2, "xy"),
        ("mesh:6x6", "uniform-random", 2, "yx"),
        ("mesh:6x6", "uniform-random", 2, "romm"),
        ("mesh:16x16", "tornado", 2, "xy"),
        ("mesh:64x64", "tornado", 2, "xy"),
    ]);
    // Wider VC masks: half masks at 4 VCs, all 8 VCs.
    cases.extend([
        ("mesh:8x8", "uniform-random", 4, "o1turn"),
        ("mesh:8x8", "uniform-random", 8, "valiant"),
        ("mesh:8x8", "transpose", 8, "random-walk"),
    ]);
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

fn digest(cert: &DeadlockCertificate) -> u64 {
    let mut h = Fnv::new();
    h.u64(u64::from(cert.vcs()));
    h.u64(cert.dependencies() as u64);
    h.u64(cert.ranks().len() as u64);
    for &r in cert.ranks() {
        h.u64(u64::from(r));
    }
    h.0
}

/// The four routes of the canonical wormhole deadlock: each turns
/// clockwise around the 2x2 square on the VCs of `vcs`, holding one
/// channel and wanting the next.
fn turning_ring(topo: &Topology, vcs: VcMask) -> RouteSet {
    let n = |x, y| topo.node_at(x, y).expect("in range");
    let ring = [n(0, 0), n(0, 1), n(1, 1), n(1, 0)];
    let routes = (0..4)
        .map(|i| Route {
            flow: bsor_flow::FlowId(i as u32),
            hops: (0..2)
                .map(|k| RouteHop {
                    link: topo
                        .find_link(ring[(i + k) % 4], ring[(i + k + 1) % 4])
                        .expect("adjacent"),
                    vcs,
                })
                .collect(),
        })
        .collect();
    RouteSet::from_routes(routes)
}

/// Every ordered pair routed both XY and YX on all VCs: turns of both
/// orders close cycles in every VC layer.
fn xy_and_yx(topo: &Topology, vcs: u8) -> RouteSet {
    let mut flows = FlowSet::new();
    let n = topo.num_nodes() as u32;
    for s in 0..n {
        for d in 0..n {
            if s != d {
                flows.push(NodeId(s), NodeId(d), 1.0);
            }
        }
    }
    let xy = Baseline::XY.select(topo, &flows, vcs).expect("xy");
    let yx = Baseline::YX.select(topo, &flows, vcs).expect("yx");
    let routes = xy
        .iter()
        .chain(yx.iter())
        .enumerate()
        .map(|(i, r)| Route {
            flow: bsor_flow::FlowId(i as u32),
            hops: r.hops.clone(),
        })
        .collect();
    RouteSet::from_routes(routes)
}

/// One `cycle <name> vc<N> <link>:<vc> ...` line, in the order
/// `certify` reports the cycle.
fn cycle_line(name: &str, topo: &Topology, routes: &RouteSet, vcs: u8) -> String {
    let cycle = deadlock::certify(topo, routes, vcs)
        .expect_err(&format!("{name}: expected a dependence cycle"));
    let channels: Vec<String> = cycle.iter().map(|(l, v)| format!("{l}:{v}")).collect();
    format!("cycle {name} vc{vcs} {}\n", channels.join(" "))
}

/// One `<topology> <workload> vc<N> <algorithm> deps=<n> <digest>` line
/// per case, then one line per cyclic route set.
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
        let cert = plan.certificate();
        assert!(
            cert.verify(plan.routes()),
            "{topology}/{workload}/{algorithm}"
        );
        out.push_str(&format!(
            "{topology} {workload} vc{vcs} {algorithm} deps={} {:016x}\n",
            cert.dependencies(),
            digest(cert)
        ));
    }
    let square = Topology::mesh2d(2, 2);
    let ring = turning_ring(&square, VcMask::all(1));
    out.push_str(&cycle_line("mesh:2x2-turning-ring", &square, &ring, 1));
    // The same ring on the upper of two VCs: the cycle lives in VC 1.
    let ring = turning_ring(&square, VcMask::single(1));
    out.push_str(&cycle_line(
        "mesh:2x2-turning-ring-on-vc1",
        &square,
        &ring,
        2,
    ));
    let mesh = Topology::mesh2d(4, 4);
    out.push_str(&cycle_line(
        "mesh:4x4-xy+yx",
        &mesh,
        &xy_and_yx(&mesh, 2),
        2,
    ));
    out
}

#[test]
fn certificates_match_the_hashset_certifier_golden() {
    let fresh = render();
    assert!(
        fresh == include_str!("golden/certificate_identity.txt"),
        "certification diverged from golden/certificate_identity.txt; fresh lines:\n{fresh}"
    );
}
