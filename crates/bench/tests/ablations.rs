//! Ablations of the design knobs the paper calls out, as a deterministic
//! table of route quality (MCL in MB/s): the MILP's hop-count slack
//! (§3.5, "hopᵢ should be incremented by 2 or more"), the Dijkstra
//! weight constant `M` (§3.6) and the breadth of the CDG exploration.
//! The MILP runs on a node budget only, so no cell depends on machine
//! speed.

use bsor_cdg::{AcyclicCdg, TurnModel};
use bsor_flow::{FlowNetwork, WeightParams};
use bsor_lp::MilpOptions;
use bsor_routing::selectors::{DijkstraSelector, MilpSelector};
use bsor_topology::Topology;
use bsor_workloads::transpose;

#[test]
fn hop_slack_does_not_move_the_4x4_transpose_mcl() {
    let mesh = Topology::mesh2d(4, 4);
    let w = transpose(&mesh).expect("square");
    let acyclic =
        AcyclicCdg::turn_model(&mesh, 1, &TurnModel::negative_first().mirrored_y()).expect("valid");
    let net = FlowNetwork::new(&mesh, &acyclic);
    let mcls: Vec<f64> = [0usize, 2, 4]
        .into_iter()
        .map(|slack| {
            let selector = MilpSelector::new()
                .with_hop_slack(slack)
                .with_max_paths(60)
                .with_options(MilpOptions {
                    max_nodes: 20,
                    time_limit: None,
                    ..MilpOptions::default()
                });
            let (routes, _) = selector.select(&net, &w.flows).expect("solvable");
            routes.mcl(&mesh, &w.flows)
        })
        .collect();
    assert_eq!(mcls, vec![25.0, 25.0, 25.0], "slack 0/2/4");
}

#[test]
fn dijkstra_weight_constant_does_not_move_the_8x8_transpose_mcl_or_hops() {
    let mesh = Topology::mesh2d(8, 8);
    let w = transpose(&mesh).expect("square");
    let acyclic =
        AcyclicCdg::turn_model(&mesh, 2, &TurnModel::negative_first().mirrored_y()).expect("valid");
    let net = FlowNetwork::new(&mesh, &acyclic);
    for m_const in [10.0, 100.0, 1000.0, 10_000.0] {
        let selector = DijkstraSelector::new().with_weights(WeightParams {
            m_const,
            vc_bias: 0.001 / m_const,
        });
        let routes = selector.select(&net, &w.flows).expect("routable");
        assert_eq!(routes.mcl(&mesh, &w.flows), 75.0, "M = {m_const}");
        assert_eq!(
            format!("{:.2}", routes.mean_hops()),
            "6.00",
            "M = {m_const}"
        );
    }
}

#[test]
fn exploring_four_turn_models_reaches_the_best_8x8_transpose_mcl() {
    let mesh = Topology::mesh2d(8, 8);
    let w = transpose(&mesh).expect("square");
    let models = TurnModel::valid_models(&mesh).expect("grid");
    let best: Vec<f64> = [1usize, 4, 12]
        .into_iter()
        .map(|breadth| {
            models
                .iter()
                .take(breadth)
                .map(|model| {
                    let acyclic = AcyclicCdg::turn_model(&mesh, 2, model).expect("valid");
                    let net = FlowNetwork::new(&mesh, &acyclic);
                    let routes = DijkstraSelector::new()
                        .select(&net, &w.flows)
                        .expect("routable");
                    routes.mcl(&mesh, &w.flows)
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    assert_eq!(best, vec![175.0, 75.0, 75.0], "breadth 1/4/12");
}
