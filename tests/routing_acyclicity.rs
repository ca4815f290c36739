//! The paper's headline invariant (Lemma 1, Dally & Aoki): every route
//! set this workspace returns — the BSOR framework or the XY/YX
//! dimension-order baselines — induces an **acyclic** channel dependence
//! graph, i.e. is deadlock-free, on every mesh from 2×2 to 8×8.

use bsor::{BsorBuilder, CdgStrategy, SelectorKind};
use bsor_repro::cdg::TurnModel;
use bsor_repro::flow::FlowSet;
use bsor_repro::routing::selectors::DijkstraSelector;
use bsor_repro::routing::{deadlock, Baseline};
use bsor_repro::topology::{NodeId, Topology};
use proptest::prelude::*;

/// A deterministic workload with traffic in both dimensions: node `i`
/// sends to the mirror node `n - 1 - i`.
fn reversal_flows(topo: &Topology) -> FlowSet {
    let n = topo.num_nodes() as u32;
    let mut flows = FlowSet::new();
    for i in 0..n {
        let j = n - 1 - i;
        if i != j {
            flows.push(NodeId(i), NodeId(j), 25.0);
        }
    }
    flows
}

/// XY and YX on every mesh 2×2…8×8: exhaustive, since dimension-order
/// selection is cheap.
#[test]
fn xy_and_yx_induce_acyclic_cdg_on_all_meshes() {
    for w in 2..=8u16 {
        for h in 2..=8u16 {
            let topo = Topology::mesh2d(w, h);
            let flows = reversal_flows(&topo);
            for vcs in [1u8, 2] {
                for baseline in [Baseline::XY, Baseline::YX] {
                    let routes = baseline
                        .select(&topo, &flows, vcs)
                        .unwrap_or_else(|e| panic!("{baseline:?} on {w}x{h}: {e}"));
                    routes.validate(&topo, &flows, vcs).expect("valid routes");
                    let certified = deadlock::certify(&topo, &routes, vcs);
                    assert!(
                        certified.is_ok(),
                        "{baseline:?} routes on {w}x{h} mesh ({vcs} VC) induce a CDG cycle: \
                         {:?}",
                        certified.err()
                    );
                }
            }
        }
    }
}

fn arbitrary_flows(nodes: usize, max_flows: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec(
        (0..nodes as u32, 0..nodes as u32, 1.0..100.0f64),
        1..max_flows,
    )
    .prop_map(|v| v.into_iter().filter(|(s, d, _)| s != d).collect::<Vec<_>>())
    .prop_filter("at least one flow", |v| !v.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BSOR (and the baselines, on the same random flows) across random
    /// mesh dimensions 2..=8 × 2..=8. The exploration set is trimmed to
    /// two turn models plus one ad-hoc CDG so the property stays fast in
    /// debug builds; the invariant must hold for *whatever* CDG wins.
    #[test]
    fn bsor_routes_induce_acyclic_cdg(
        w in 2u16..=8,
        h in 2u16..=8,
        triples in arbitrary_flows(64, 24),
        seed in 0u64..1_000,
    ) {
        let topo = Topology::mesh2d(w, h);
        let n = topo.num_nodes() as u32;
        let mut flows = FlowSet::new();
        for (s, d, demand) in triples {
            let (s, d) = (s % n, d % n);
            if s != d {
                flows.push(NodeId(s), NodeId(d), demand);
            }
        }
        if flows.is_empty() {
            flows.push(NodeId(0), NodeId(n - 1), 25.0);
        }

        let result = BsorBuilder::new(&topo, &flows)
            .vcs(2)
            .strategies(vec![
                CdgStrategy::TurnModel(TurnModel::west_first()),
                CdgStrategy::TurnModel(TurnModel::north_last()),
                CdgStrategy::AdHoc { seed },
            ])
            .selector(SelectorKind::Dijkstra(DijkstraSelector::new()))
            .run()
            .expect("grids with turn-model CDGs are always routable");
        result.routes.validate(&topo, &flows, 2).expect("valid routes");
        let certified = deadlock::certify(&topo, &result.routes, 2);
        prop_assert!(
            certified.is_ok(),
            "BSOR routes (cdg {}) on {w}x{h} induce a CDG cycle: {:?}",
            result.cdg,
            certified.err()
        );

        for baseline in [Baseline::XY, Baseline::YX] {
            let routes = baseline.select(&topo, &flows, 2).expect("dimension order");
            prop_assert!(
                deadlock::is_deadlock_free(&topo, &routes, 2),
                "{baseline:?} routes on {w}x{h} induce a CDG cycle"
            );
        }
    }
}
