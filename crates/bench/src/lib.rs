//! # bsor-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Chapter 6):
//!
//! | Exhibit | Binary | Output |
//! |---|---|---|
//! | Table 6.1 | `table_6_1` | min MCL per acyclic CDG, MILP selector |
//! | Table 6.2 | `table_6_2` | min MCL per acyclic CDG, Dijkstra selector |
//! | Table 6.3 | `table_6_3` | MCL of XY/YX/ROMM/Valiant/O1TURN/BSOR |
//! | Fig. 6-1…6-6 | `bsor-paper fig-6-1` … `fig-6-6` | throughput & latency vs injection rate |
//! | Fig. 6-7 | `bsor-paper fig-6-7` | VC-count sweep (transpose, H.264) |
//! | Fig. 6-8…6-10 | `bsor-paper fig-6-8` … `fig-6-10` | 10/25/50 % bandwidth variation |
//! | Fig. 5-4 | `fig_5_4` | bursty injection-rate trace |
//!
//! All binaries print whitespace-aligned tables (and CSV with `--csv`)
//! to stdout and read their flags with [`PaperArgs`]. Every route
//! computation goes through the unified [`Scenario`] + [`Planner`]
//! pipeline. The figures are [`figures::Figure`] presets: sweep grids
//! that [`sweep::run_grid_with`] runs, the same path the `bsor-sweep`
//! CLI drives, so the figures, tables, sweep and examples all see
//! identical inputs and identical deadlock validation.
//!
//! A note on turn-model naming: the paper's figures draw the mesh with
//! the y-axis pointing down, so its "negative-first" corresponds to
//! [`TurnModel::negative_first`]`.mirrored_y()` in this workspace's
//! north-is-+y convention. The table binaries use the paper-oriented
//! variants so the columns line up with the thesis tables.
//!
//! [`Planner`]: bsor_sim::Planner

pub mod figures;
pub mod json;
pub mod serve;
pub mod sweep;

use bsor::registry::{sweep_milp, BASELINE_SEED};
use bsor::{AlgorithmRegistry, BsorAlgorithm, BsorBuilder, CdgStrategy, SelectorKind};
use bsor_cdg::TurnModel;
use bsor_lp::MilpOptions;
use bsor_routing::selectors::{DijkstraSelector, MilpSelector};
use bsor_routing::Baseline;
use bsor_sim::Scenario;
use bsor_topology::Topology;
use bsor_workloads::Workload;

/// The paper's evaluation substrate: an 8×8 mesh (§6.1).
pub fn standard_mesh() -> Topology {
    Topology::mesh2d(8, 8)
}

/// The five acyclic CDGs of Tables 6.1/6.2, paper-oriented: north-last,
/// west-first, negative-first, and two ad-hoc derivations.
pub fn table_cdgs() -> Vec<(String, CdgStrategy)> {
    vec![
        (
            "North-Last".into(),
            CdgStrategy::TurnModel(TurnModel::north_last().mirrored_y()),
        ),
        (
            "West-First".into(),
            CdgStrategy::TurnModel(TurnModel::west_first().mirrored_y()),
        ),
        (
            "Negative-First".into(),
            CdgStrategy::TurnModel(TurnModel::negative_first().mirrored_y()),
        ),
        ("Ad Hoc 1".into(), CdgStrategy::AdHoc { seed: 1 }),
        ("Ad Hoc 2".into(), CdgStrategy::AdHoc { seed: 2 }),
    ]
}

/// MILP selector configuration used by the tables and figures: the
/// registry's [`sweep_milp`] node budget, shrunk to 6 paths and 2
/// branch-and-bound nodes under [`RunMode::Quick`]. No wall-clock
/// limit, so the chosen routes do not depend on machine speed or on
/// how sweep workers are scheduled.
pub fn table_milp(mode: RunMode) -> MilpSelector {
    match mode {
        RunMode::Quick => sweep_milp().with_max_paths(6).with_options(MilpOptions {
            max_nodes: 2,
            time_limit: None,
            ..MilpOptions::default()
        }),
        _ => sweep_milp(),
    }
}

/// Dijkstra selector configuration for the tables: two rip-up/reroute
/// refinement passes on top of the paper's sequential heuristic (none
/// under [`RunMode::Quick`]).
pub fn table_dijkstra(mode: RunMode) -> DijkstraSelector {
    let refinement = match mode {
        RunMode::Quick => 0,
        _ => 2,
    };
    DijkstraSelector::new().with_refinement(refinement)
}

/// Runs one selector over one CDG strategy, returning the MCL (`Err`
/// text when the CDG or selection fails).
pub fn mcl_for(
    topo: &Topology,
    workload: &Workload,
    vcs: u8,
    strategy: &CdgStrategy,
    selector: SelectorKind,
) -> Result<f64, String> {
    let result = BsorBuilder::new(topo, &workload.flows)
        .vcs(vcs)
        .strategies(vec![strategy.clone()])
        .selector(selector)
        .run()
        .map_err(|e| e.to_string())?;
    Ok(result.mcl)
}

/// The six routing algorithms compared throughout Chapter 6, registered
/// under their display names in table order: `XY`, `YX`, `ROMM`,
/// `Valiant`, `BSOR-MILP` and `BSOR-Dijkstra`.
pub fn standard_algorithms(mode: RunMode) -> AlgorithmRegistry {
    let mut registry = AlgorithmRegistry::new();
    registry.register("XY", Baseline::XY);
    registry.register("YX", Baseline::YX);
    registry.register(
        "ROMM",
        Baseline::Romm {
            seed: BASELINE_SEED,
        },
    );
    registry.register(
        "Valiant",
        Baseline::Valiant {
            seed: BASELINE_SEED,
        },
    );
    registry.register(
        "BSOR-MILP",
        BsorAlgorithm::milp("BSOR-MILP", table_milp(mode)),
    );
    registry.register("BSOR-Dijkstra", BsorAlgorithm::dijkstra());
    registry
}

/// Builds the unified [`Scenario`] a table runs on.
pub fn scenario_for(topo: &Topology, workload: &Workload, vcs: u8) -> Scenario {
    Scenario::builder(topo.clone(), workload.flows.clone())
        .named(workload.name.clone())
        .vcs(vcs)
        .build()
        .expect("bench workloads are valid on their topologies")
}

/// Standard offered-rate grid for the figure sweeps (packets/cycle,
/// aggregate across the whole mesh).
pub fn standard_rates() -> Vec<f64> {
    vec![0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.0, 2.6, 3.2]
}

/// Run length a paper binary was asked for on its command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// `--quick`: CI smoke lengths, a reduced rate grid and MILP budget.
    Quick,
    /// No flag: the fast-but-meaningful default.
    Default,
    /// `--paper`: the paper's full 20k + 100k windows.
    Paper,
}

/// The command line shared by `bsor-paper`, the `table_6_*` binaries
/// and `fig_5_4`: `[--quick|--paper] [--csv]` plus, for `bsor-paper`,
/// figure ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaperArgs {
    /// Run length (`--quick` wins over `--paper`).
    pub mode: RunMode,
    /// `--csv`: comma-separated output instead of aligned text.
    pub csv: bool,
    /// The bare arguments, in order; each is one of the accepted ids.
    pub ids: Vec<String>,
}

impl PaperArgs {
    /// Parses `args` (without the program name), accepting bare
    /// arguments only from `ids`.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag or bare argument; for an
    /// unknown id it also lists the valid ones.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        ids: &[&str],
    ) -> Result<PaperArgs, String> {
        let (mut quick, mut paper, mut csv) = (false, false, false);
        let mut chosen = Vec::new();
        for arg in args {
            match arg.as_str() {
                "--quick" => quick = true,
                "--paper" => paper = true,
                "--csv" => csv = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
                id if ids.contains(&id) => chosen.push(arg),
                other if ids.is_empty() => return Err(format!("unexpected argument '{other}'")),
                other => {
                    return Err(format!(
                        "unknown figure id '{other}' (valid: {})",
                        ids.join(", ")
                    ))
                }
            }
        }
        let mode = match (quick, paper) {
            (true, _) => RunMode::Quick,
            (false, true) => RunMode::Paper,
            (false, false) => RunMode::Default,
        };
        Ok(PaperArgs {
            mode,
            csv,
            ids: chosen,
        })
    }

    /// [`PaperArgs::parse`] over the process's own arguments. On an
    /// error it prints `{bin}: {error}` to stderr and exits with status 1.
    pub fn from_env(bin: &str, ids: &[&str]) -> PaperArgs {
        PaperArgs::parse(std::env::args().skip(1), ids).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(1);
        })
    }
}

/// Formats a table row with fixed-width columns.
pub fn fmt_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;
    use crate::sweep::TopoSpec;
    use bsor_workloads::transpose;

    /// Fig. 6-1's preset shrunk to `algorithms` on a 4x4 mesh.
    fn small_figure(algorithms: &[&str], rates: &[f64]) -> Figure {
        let mut fig = Figure::new("fig-6-1", RunMode::Quick).expect("known id");
        fig.grid.topologies = vec![TopoSpec::mesh(4, 4)];
        fig.grid.algorithms = algorithms.iter().map(|a| a.to_string()).collect();
        fig.grid.rates = rates.to_vec();
        fig
    }

    #[test]
    fn table_cdgs_are_five() {
        let cdgs = table_cdgs();
        assert_eq!(cdgs.len(), 5);
        assert_eq!(cdgs[2].0, "Negative-First");
    }

    #[test]
    fn mcl_for_dijkstra_on_paper_negative_first() {
        // The headline Table 6.1/6.2 cell: paper-oriented negative-first
        // reaches MCL 75 on 8x8 transpose.
        let topo = standard_mesh();
        let w = transpose(&topo).expect("square");
        let (_, strategy) = &table_cdgs()[2];
        let mcl = mcl_for(
            &topo,
            &w,
            2,
            strategy,
            SelectorKind::Dijkstra(DijkstraSelector::new()),
        )
        .expect("routable");
        assert_eq!(mcl, 75.0);
    }

    #[test]
    fn sweep_produces_monotone_offered_axis() {
        let fig = small_figure(&["XY"], &[0.05, 0.2]);
        let results = fig.run(1);
        assert_eq!(results.len(), 1);
        let points = &results[0].points;
        assert_eq!(points.len(), 2);
        assert!(points[0].rate < points[1].rate);
        assert!(points.iter().all(|p| !p.deadlocked));
    }

    #[test]
    fn standard_algorithms_are_table_ordered() {
        assert_eq!(
            standard_algorithms(RunMode::Quick).names(),
            vec!["XY", "YX", "ROMM", "Valiant", "BSOR-MILP", "BSOR-Dijkstra"]
        );
    }

    #[test]
    fn render_figure_has_csv_header_and_rows() {
        let fig = small_figure(&["XY", "YX"], &[0.1]);
        let out = fig.render(&fig.run(2), true);
        let mut lines = out.lines();
        assert_eq!(
            lines.next(),
            Some("Figure 6-1: Transpose — throughput & latency vs offered rate")
        );
        assert_eq!(
            lines.next(),
            Some("algorithm,offered,throughput,latency,deadlocked")
        );
        assert!(out.lines().any(|l| l.starts_with("XY,0.100,")));
        assert!(out.lines().any(|l| l.starts_with("YX,0.100,")));
    }

    #[test]
    fn paper_args_reject_unknown_flags_and_ids() {
        let parse =
            |args: &[&str], ids: &[&str]| PaperArgs::parse(args.iter().map(|a| a.to_string()), ids);
        let ok = parse(&["fig-6-7", "--quick", "--paper", "--csv"], &["fig-6-7"]).expect("valid");
        assert_eq!(ok.mode, RunMode::Quick, "--quick wins over --paper");
        assert!(ok.csv);
        assert_eq!(ok.ids, vec!["fig-6-7"]);
        assert_eq!(parse(&[], &[]).expect("no flags").mode, RunMode::Default);
        assert_eq!(
            parse(&["--quik"], &[]).unwrap_err(),
            "unknown flag '--quik'"
        );
        assert_eq!(
            parse(&["fig-6-11"], &["fig-6-1", "fig-6-2"]).unwrap_err(),
            "unknown figure id 'fig-6-11' (valid: fig-6-1, fig-6-2)"
        );
        assert_eq!(
            parse(&["extra"], &[]).unwrap_err(),
            "unexpected argument 'extra'"
        );
    }

    #[test]
    fn fmt_row_aligns() {
        let row = fmt_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }
}
