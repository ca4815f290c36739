//! Differential property tests for the Lemma-1 certifier against the
//! builder it replaced.
//!
//! The reference below is that builder, kept verbatim in substance:
//! every dependence goes through a `HashSet<(usize, u8, usize, u8)>`,
//! into a general `DiGraph` in order of first occurrence, which
//! `algo::toposort` ranks and `algo::find_cycle` searches for a cycle.
//! `deadlock::certify` and `deadlock::analyze` dedup with a turn bitmap
//! and sort a CSR instead, and promise exact equality with it: the same
//! rank for every `(channel, VC)` slot and the same dependency count
//! when the routes are deadlock-free, and the same cycle, in the same
//! order, when they are not. `DeadlockCertificate::verify` must accept
//! every certificate.
//!
//! Inputs are random walks, which are continuous by construction; they
//! revisit channels and turn back, so some route sets are cyclic. Each
//! topology family runs 256 cases over 1 to 8 VCs with random in-range
//! masks.

use bsor_flow::FlowId;
use bsor_netgraph::{algo, DiGraph, NodeId as GraphNode};
use bsor_routing::deadlock::{self, DeadlockAnalysis};
use bsor_routing::{Route, RouteHop, RouteSet, VcMask};
use bsor_topology::{NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The reference dependence graph: vertex `link * vcs + vc` carries
/// `(link, vc)`, and edges are added in order of first occurrence.
fn reference_graph(topo: &Topology, routes: &RouteSet, vcs: u8) -> DiGraph<(usize, u8), ()> {
    let nv = vcs as usize;
    let mut g = DiGraph::with_capacity(topo.num_links() * nv, topo.num_links() * nv);
    for l in 0..topo.num_links() {
        for v in 0..vcs {
            g.add_node((l, v));
        }
    }
    let vid = |l: usize, v: u8| GraphNode((l * nv + v as usize) as u32);
    let mut seen = HashSet::new();
    for r in routes.iter() {
        for pair in r.hops.windows(2) {
            for v1 in pair[0].vcs.iter() {
                for v2 in pair[1].vcs.iter() {
                    let key = (pair[0].link.index(), v1, pair[1].link.index(), v2);
                    if seen.insert(key) {
                        g.add_edge(vid(key.0, key.1), vid(key.2, key.3), ());
                    }
                }
            }
        }
    }
    g
}

/// A dependence cycle as `(link, vc)` pairs in cycle order.
type Cycle = Vec<(usize, u8)>;

/// The reference certificate: `(ranks, dependencies)`, or the cycle.
fn reference_certify(
    topo: &Topology,
    routes: &RouteSet,
    vcs: u8,
) -> Result<(Vec<u32>, usize), Cycle> {
    let g = reference_graph(topo, routes, vcs);
    match algo::toposort(&g) {
        Ok(order) => {
            let mut rank = vec![0u32; g.node_count()];
            for (pos, node) in order.iter().enumerate() {
                let (l, v) = *g.node(*node);
                rank[l * vcs as usize + v as usize] = pos as u32;
            }
            Ok((rank, g.edge_count()))
        }
        Err(_) => Err(reference_cycle(&g).expect("toposort found a cycle")),
    }
}

/// The cycle `find_cycle` reports, as `(link, vc)` pairs.
fn reference_cycle(g: &DiGraph<(usize, u8), ()>) -> Option<Cycle> {
    algo::find_cycle(g).map(|edges| {
        edges
            .iter()
            .map(|&e| *g.node(g.endpoints(e).expect("live edge").0))
            .collect()
    })
}

/// Topology families the cases run on.
#[derive(Clone, Copy, Debug)]
enum Family {
    Mesh,
    Torus,
    Ring,
    FatTree,
    Dragonfly,
    FullMesh,
}

impl Family {
    /// A small member of the family, sized by `size` in 0..4.
    fn build(self, size: u16) -> Topology {
        match self {
            Family::Mesh => Topology::mesh2d(2 + size, 2 + (size + 1) % 3),
            Family::Torus => Topology::torus2d(3 + size % 2, 3 + size / 2),
            Family::Ring => Topology::ring(3 + size * 2),
            Family::FatTree => bsor_topology::fat_tree(2 + 2 * (size % 2)).expect("valid k"),
            Family::Dragonfly => {
                let (a, g, h) = [(1, 2, 1), (2, 3, 2), (2, 4, 2), (3, 3, 1)][size as usize];
                bsor_topology::dragonfly(a, g, h).expect("valid dragonfly")
            }
            Family::FullMesh => bsor_topology::full_mesh(2 + size).expect("valid n"),
        }
    }
}

/// One case's inputs: the topology and `routes` random walks of 1 to
/// `max_hops` hops, each hop on a random in-range mask.
#[derive(Clone, Debug)]
struct Case {
    topo: Topology,
    routes: RouteSet,
    vcs: u8,
}

fn case(family: Family) -> impl Strategy<Value = Case> {
    (0u16..4, 1u8..9, 1usize..16, 1usize..9, 0u64..u64::MAX).prop_map(
        move |(size, vcs, routes, max_hops, seed)| {
            let topo = family.build(size);
            let mut rng = StdRng::seed_from_u64(seed);
            let all = u16::from(VcMask::all(vcs).0);
            let routes = (0..routes)
                .map(|i| {
                    let mut at = NodeId(rng.gen_range(0..topo.num_nodes() as u32));
                    let hops = (0..rng.gen_range(1..=max_hops))
                        .map(|_| {
                            let out = topo.out_links(at);
                            let link = out[rng.gen_range(0..out.len())];
                            at = topo.link(link).dst;
                            // Half single-VC masks, as static allocation
                            // makes them; half any non-empty mask.
                            let vcs = if rng.gen_bool(0.5) {
                                VcMask::single(rng.gen_range(0..vcs))
                            } else {
                                VcMask(rng.gen_range(1..=all) as u8)
                            };
                            RouteHop { link, vcs }
                        })
                        .collect();
                    Route {
                        flow: FlowId(i as u32),
                        hops,
                    }
                })
                .collect();
            Case {
                topo,
                routes: RouteSet::from_routes(routes),
                vcs,
            }
        },
    )
}

/// Checks one case against the reference; returns whether it was
/// deadlock-free.
fn check(case: &Case) -> Result<bool, TestCaseError> {
    let Case { topo, routes, vcs } = case;
    let expected = reference_certify(topo, routes, *vcs);
    match (deadlock::certify(topo, routes, *vcs), &expected) {
        (Ok(cert), Ok((ranks, dependencies))) => {
            prop_assert_eq!(cert.vcs(), *vcs);
            prop_assert_eq!(cert.ranks(), &ranks[..]);
            prop_assert_eq!(cert.dependencies(), *dependencies);
            prop_assert!(cert.verify(routes), "verify rejected a certificate");
        }
        (Err(cycle), Err(want)) => prop_assert_eq!(&cycle, want),
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "certify gave {:?}, the reference {want:?}",
                got.map(|c| c.ranks().to_vec())
            )))
        }
    }
    let analysis = match &expected {
        Ok(_) => DeadlockAnalysis::Free,
        Err(cycle) => DeadlockAnalysis::Cyclic {
            cycle: cycle.clone(),
        },
    };
    prop_assert_eq!(deadlock::analyze(topo, routes, *vcs), analysis);
    prop_assert_eq!(
        deadlock::is_deadlock_free(topo, routes, *vcs),
        expected.is_ok()
    );
    Ok(expected.is_ok())
}

const CASES: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn mesh_certificates_equal_the_hashset_builder(c in case(Family::Mesh)) {
        check(&c)?;
    }

    #[test]
    fn torus_certificates_equal_the_hashset_builder(c in case(Family::Torus)) {
        check(&c)?;
    }

    #[test]
    fn ring_certificates_equal_the_hashset_builder(c in case(Family::Ring)) {
        check(&c)?;
    }

    #[test]
    fn fat_tree_certificates_equal_the_hashset_builder(c in case(Family::FatTree)) {
        check(&c)?;
    }

    #[test]
    fn dragonfly_certificates_equal_the_hashset_builder(c in case(Family::Dragonfly)) {
        check(&c)?;
    }

    #[test]
    fn full_mesh_certificates_equal_the_hashset_builder(c in case(Family::FullMesh)) {
        check(&c)?;
    }
}

/// The generator must exercise both outcomes on every family, or the
/// equality above would only ever compare one of the two paths.
#[test]
fn every_family_draws_cyclic_and_deadlock_free_route_sets() {
    let families = [
        Family::Mesh,
        Family::Torus,
        Family::Ring,
        Family::FatTree,
        Family::Dragonfly,
        Family::FullMesh,
    ];
    for family in families {
        let strategy = case(family);
        let mut free = 0;
        for i in 0..CASES {
            let mut rng = proptest::test_runner::case_rng(0, "coverage", i);
            let c = strategy.new_value(&mut rng);
            if reference_certify(&c.topo, &c.routes, c.vcs).is_ok() {
                free += 1;
            }
        }
        assert!(
            (CASES / 10..CASES * 9 / 10).contains(&free),
            "{family:?}: {free} of {CASES} route sets deadlock-free"
        );
    }
}
