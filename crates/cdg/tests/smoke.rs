//! Crate-level smoke test: every cycle-breaking strategy yields a
//! genuinely acyclic CDG on a 4×4 mesh (the deadlock-freedom
//! foundation, paper Lemma 1).

use bsor_cdg::{AcyclicCdg, Cdg, TurnModel};
use bsor_netgraph::algo;
use bsor_topology::Topology;

#[test]
fn full_cdg_has_one_vertex_per_channel() {
    let mesh = Topology::mesh2d(4, 4);
    let cdg = Cdg::build(&mesh, 2);
    // 2 * (4*3 + 4*3) directed links, times 2 VCs.
    assert_eq!(cdg.graph().node_count(), 48 * 2);
}

#[test]
fn every_strategy_breaks_all_cycles_on_4x4() {
    let mesh = Topology::mesh2d(4, 4);
    let mut derived = vec![
        AcyclicCdg::turn_model(&mesh, 2, &TurnModel::west_first()).expect("west-first"),
        AcyclicCdg::turn_model(&mesh, 2, &TurnModel::north_last()).expect("north-last"),
        AcyclicCdg::turn_model(&mesh, 2, &TurnModel::negative_first()).expect("negative-first"),
        AcyclicCdg::ad_hoc(&mesh, 2, 11),
        AcyclicCdg::ad_hoc_routable(&mesh, 2, 11).expect("grid"),
        AcyclicCdg::escalating_vc(&mesh, 2, &TurnModel::west_first()).expect("escalating"),
    ];
    for model in TurnModel::valid_models(&mesh).expect("grid enumerates models") {
        derived.push(AcyclicCdg::turn_model(&mesh, 2, &model).expect("enumerated model"));
    }
    for acyclic in &derived {
        assert!(
            algo::is_acyclic(acyclic.graph()),
            "strategy {:?} left a cycle in the CDG",
            acyclic.name()
        );
    }
}
