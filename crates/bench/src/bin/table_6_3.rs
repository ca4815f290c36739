//! Regenerates **Table 6.3**: "Comparison of Maximum Channel Load (MCL)
//! in MB/second presented by various routing algorithms" — XY, YX, ROMM,
//! Valiant, BSOR_MILP and BSOR_Dijkstra (each BSOR taking the best CDG of
//! its exploration, as in the paper). An O1TURN column is added as an
//! extension. Every column is one `RouteAlgorithm` planned through the
//! same `Planner`; the MCL printed is the plan's `predicted_mcl` — the
//! static metric the table reports needs no simulation at all.
//!
//! ```text
//! cargo run -p bsor_bench --release --bin table_6_3 [--quick] [--csv]
//! ```

use bsor_bench::{fmt_row, scenario_for, standard_algorithms, standard_mesh, PaperArgs};
use bsor_routing::Baseline;
use bsor_sim::Planner;
use bsor_workloads::all_six;

fn main() {
    let topo = standard_mesh();
    let workloads = all_six(&topo).expect("8x8 supports all workloads");
    let PaperArgs { mode, csv, .. } = PaperArgs::from_env("table_6_3", &[]);
    // The six standard columns plus the O1TURN extension, all through
    // the one RouteAlgorithm trait.
    let mut algorithms = standard_algorithms(mode);
    algorithms.register("O1TURN", Baseline::O1Turn { seed: 9 });
    let names = algorithms.names();

    println!("Table 6.3: MCL (MB/s) by routing algorithm (+O1TURN extension)");
    let mut header: Vec<String> = vec!["Traffic".into()];
    header.extend(names.iter().map(|n| n.to_string()));
    let widths = [16usize, 8, 8, 8, 8, 10, 14, 8];
    if csv {
        println!("{}", header.join(","));
    } else {
        println!("{}", fmt_row(&header, &widths));
    }
    let planner = Planner::new();
    for w in &workloads {
        let scenario = scenario_for(&topo, w, 2);
        let mut cells: Vec<String> = vec![w.name.clone()];
        for name in &names {
            let algorithm = algorithms.get(name).expect("registered above");
            cells.push(match planner.plan(&scenario, algorithm) {
                Ok(plan) => format!("{:.2}", plan.predicted_mcl()),
                Err(e) => format!("({e})"),
            });
        }
        if csv {
            println!("{}", cells.join(","));
        } else {
            println!("{}", fmt_row(&cells, &widths));
        }
    }
}
