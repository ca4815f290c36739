//! The oblivious-routing competitive table committed as
//! `BENCH_oblivious.json`: the Applegate–Cohen oblivious ratio per
//! topology (where the LP budget admits it — the dense tableau refuses
//! oversized instances with a typed cell) and the per-workload plus
//! worst-case static MCL of `ac-oblivious` / `random-walk` /
//! `bsor-dijkstra` / `xy`, all resolved through
//! [`AlgorithmRegistry::standard`] so the table measures exactly what
//! `bsor-sweep` and `bsor-serve` run.
//!
//! ```text
//! cargo run -p bsor_bench --release --bin oblivious_ratio [--quick|--paper] [--json] [--max-links N]
//! ```
//!
//! Any other argument exits 1 naming it.
//!
//! `--max-links N` raises (or lowers) the `ac-oblivious` LP's
//! directed-link budget from its 16-link default, for both the ratio
//! solver and the registry's `ac-oblivious` column — larger topologies
//! get real numbers instead of typed budget refusals, at dense-tableau
//! cost.
//!
//! Cases: the paper's six 8x8 workloads, `fullmesh:8`, and the WAN
//! sample (`--quick` shrinks the ratio commodity set from all ordered
//! pairs to the shift ring so CI finishes in seconds). Output is
//! deterministic byte for byte — same binary, same flags, same bytes —
//! which the `oblivious-smoke` CI job checks by running it twice.

use bsor::{AlgorithmRegistry, RegistryConfig};
use bsor_bench::json::Json;
use bsor_bench::{fmt_row, scenario_for, standard_mesh, RunMode};
use bsor_routing::selectors::AcObliviousSelector;
use bsor_sim::Planner;
use bsor_topology::{NodeId, Topology};
use bsor_workloads::{all_six, uniform_random, Workload};

/// The four algorithms compared, in column order (registry names).
const ALGORITHMS: [&str; 4] = ["ac-oblivious", "random-walk", "bsor-dijkstra", "xy"];

/// One table case: a topology and the workloads evaluated on it.
struct Case {
    spec: String,
    topo: Topology,
    workloads: Vec<Workload>,
}

fn cases() -> Vec<Case> {
    let mesh = standard_mesh();
    let mesh_spec = format!("{}x{}", mesh.width(), mesh.height());
    let fullmesh = bsor_topology::full_mesh(8).expect("8 is in range");
    // Compiled in, so the table runs from any directory.
    let wan = bsor_topology::parse_topology_file(
        "assets/topologies/wan5.topo",
        include_str!("../../../../assets/topologies/wan5.topo"),
    )
    .expect("committed sample parses");
    vec![
        Case {
            spec: mesh_spec,
            workloads: all_six(&mesh).expect("square mesh supports all six"),
            topo: mesh,
        },
        Case {
            spec: "fullmesh:8".to_owned(),
            workloads: vec![uniform_random(&fullmesh).expect("non-trivial")],
            topo: fullmesh,
        },
        Case {
            spec: "file:assets/topologies/wan5.topo".to_owned(),
            workloads: vec![uniform_random(&wan).expect("non-trivial")],
            topo: wan,
        },
    ]
}

/// The commodity set the ratio is reported for: every ordered pair
/// (the canonical oblivious-ratio definition), or the shift ring under
/// `--quick` to keep the LP CI-sized.
fn ratio_commodities(topo: &Topology, mode: RunMode) -> Vec<(NodeId, NodeId)> {
    let n = topo.num_nodes() as u32;
    match mode {
        RunMode::Quick => (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n))).collect(),
        _ => (0..n)
            .flat_map(|s| {
                (0..n)
                    .filter(move |&d| d != s)
                    .map(move |d| (NodeId(s), NodeId(d)))
            })
            .collect(),
    }
}

/// A table cell: a number, or the typed error that replaced it.
enum Cell {
    Value(f64),
    Error(String),
}

impl Cell {
    fn json(&self) -> Json {
        match self {
            Cell::Value(v) => Json::Float(*v),
            Cell::Error(e) => Json::Str(format!("({e})")),
        }
    }

    fn text(&self, decimals: usize) -> String {
        match self {
            Cell::Value(v) => format!("{v:.decimals$}"),
            Cell::Error(e) => format!("({e})"),
        }
    }
}

/// Prints `message` and exits 1, as the other paper binaries do on a
/// bad argument.
fn exit_usage(message: &str) -> ! {
    eprintln!("oblivious_ratio: {message}");
    std::process::exit(1);
}

fn main() {
    // Exactly --quick, --paper, --json and --max-links N; --quick wins
    // over --paper.
    let (mut quick, mut paper, mut json_out, mut max_links) = (false, false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--paper" => paper = true,
            "--json" => json_out = true,
            "--max-links" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => max_links = Some(n),
                _ => exit_usage("--max-links needs a positive integer"),
            },
            flag if flag.starts_with('-') => exit_usage(&format!("unknown flag '{flag}'")),
            other => exit_usage(&format!("unexpected argument '{other}'")),
        }
    }
    let mode = match (quick, paper) {
        (true, _) => RunMode::Quick,
        (false, true) => RunMode::Paper,
        (false, false) => RunMode::Default,
    };
    let registry = match max_links {
        Some(n) => AlgorithmRegistry::standard_with(RegistryConfig::new().with_max_links(n)),
        None => AlgorithmRegistry::standard(),
    };
    let planner = Planner::new();
    // The ratio solver mirrors the registry's `ac-oblivious` budget;
    // topologies it refuses get a typed cell, not a hung tableau.
    let mut ratio_solver = AcObliviousSelector::new();
    if let Some(n) = max_links {
        ratio_solver = ratio_solver.with_max_links(n);
    }

    let widths = [16usize, 24, 16, 16, 16];
    let mut out_cases: Vec<Json> = Vec::new();
    for case in cases() {
        let ratio = match ratio_solver.solve(&case.topo, &ratio_commodities(&case.topo, mode)) {
            Ok(sol) => Cell::Value(sol.ratio()),
            Err(e) => Cell::Error(e.to_string()),
        };
        if !json_out {
            println!(
                "{} ({} links): oblivious ratio {}",
                case.spec,
                case.topo.num_links(),
                ratio.text(6)
            );
            let mut header = vec!["Example".to_owned()];
            header.extend(ALGORITHMS.iter().map(|a| (*a).to_owned()));
            println!("{}", fmt_row(&header, &widths));
        }
        // worst[a]: the per-algorithm max MCL over this case's workloads
        // (an error cell if no workload planned).
        let mut worst: Vec<Option<Cell>> = ALGORITHMS.iter().map(|_| None).collect();
        let mut workload_rows: Vec<Json> = Vec::new();
        for workload in &case.workloads {
            let scenario = scenario_for(&case.topo, workload, 2);
            let mut row = vec![workload.name.clone()];
            let mut mcl_pairs: Vec<(&str, Json)> = Vec::new();
            for (i, name) in ALGORITHMS.iter().enumerate() {
                let algo = registry.get(name).expect("standard registry has all four");
                let cell = match planner.plan(&scenario, algo) {
                    Ok(plan) => Cell::Value(plan.predicted_mcl()),
                    Err(e) => Cell::Error(e.to_string()),
                };
                match (&cell, &worst[i]) {
                    (Cell::Value(v), Some(Cell::Value(w))) if *v > *w => {
                        worst[i] = Some(Cell::Value(*v));
                    }
                    (Cell::Value(v), None) | (Cell::Value(v), Some(Cell::Error(_))) => {
                        worst[i] = Some(Cell::Value(*v));
                    }
                    (Cell::Error(e), None) => worst[i] = Some(Cell::Error(e.clone())),
                    _ => {}
                }
                row.push(cell.text(2));
                mcl_pairs.push((name, cell.json()));
            }
            if json_out {
                workload_rows.push(Json::object(vec![
                    ("workload", Json::from(workload.name.as_str())),
                    ("mcl", Json::object(mcl_pairs)),
                ]));
            } else {
                println!("{}", fmt_row(&row, &widths));
            }
        }
        let worst: Vec<Cell> = worst
            .into_iter()
            .map(|c| c.expect("every case has at least one workload"))
            .collect();
        if json_out {
            out_cases.push(Json::object(vec![
                ("topology", Json::from(case.spec.as_str())),
                ("links", Json::from(case.topo.num_links() as u64)),
                ("oblivious_ratio", ratio.json()),
                ("workloads", Json::array(workload_rows)),
                (
                    "worst_case_mcl",
                    Json::object(
                        ALGORITHMS
                            .iter()
                            .zip(&worst)
                            .map(|(a, c)| (*a, c.json()))
                            .collect(),
                    ),
                ),
            ]));
        } else {
            let mut row = vec!["worst-case".to_owned()];
            row.extend(worst.iter().map(|c| c.text(2)));
            println!("{}", fmt_row(&row, &widths));
            println!();
        }
    }
    if json_out {
        let doc = Json::object(vec![
            ("schema", Json::from("bsor-oblivious-bench@1")),
            (
                "mode",
                Json::from(match mode {
                    RunMode::Quick => "quick",
                    RunMode::Default => "default",
                    RunMode::Paper => "paper",
                }),
            ),
            ("vcs", Json::UInt(2)),
            (
                "algorithms",
                Json::array(ALGORITHMS.iter().map(|a| Json::from(*a)).collect()),
            ),
            ("cases", Json::array(out_cases)),
        ]);
        print!("{}", doc.pretty());
    }
}
