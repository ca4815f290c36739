//! # bsor-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Chapter 6). Each exhibit has a binary:
//!
//! | Exhibit | Binary | Output |
//! |---|---|---|
//! | Table 6.1 | `table_6_1` | min MCL per acyclic CDG, MILP selector |
//! | Table 6.2 | `table_6_2` | min MCL per acyclic CDG, Dijkstra selector |
//! | Table 6.3 | `table_6_3` | MCL of XY/YX/ROMM/Valiant/O1TURN/BSOR |
//! | Fig. 6-1…6-6 | `fig_6_1` … `fig_6_6` | throughput & latency vs injection rate |
//! | Fig. 6-7 | `fig_6_7` | VC-count sweep (transpose, H.264) |
//! | Fig. 6-8…6-10 | `fig_6_8` … `fig_6_10` | 10/25/50 % bandwidth variation |
//! | Fig. 5-4 | `fig_5_4` | bursty injection-rate trace |
//!
//! All binaries print whitespace-aligned tables (and CSV with `--csv`)
//! to stdout. Every route computation goes through the unified
//! [`Scenario`] + [`Planner`] pipeline — one [`RoutePlan`] per
//! algorithm, evaluated per load point with [`SimEvaluator`], the same
//! split the `bsor-sweep` CLI drives — so the figures, tables, sweep
//! and examples all see identical inputs and identical deadlock
//! validation. Criterion micro-benchmarks for the building blocks live
//! in `benches/`.
//!
//! A note on turn-model naming: the paper's figures draw the mesh with
//! the y-axis pointing down, so its "negative-first" corresponds to
//! [`TurnModel::negative_first`]`.mirrored_y()` in this workspace's
//! north-is-+y convention. The table binaries use the paper-oriented
//! variants so the columns line up with the thesis tables.

pub mod json;
pub mod serve;
pub mod sweep;

use bsor::{BsorAlgorithm, BsorBuilder, CdgStrategy, SelectorKind};
use bsor_cdg::TurnModel;
use bsor_lp::MilpOptions;
use bsor_routing::selectors::{DijkstraSelector, MilpSelector};
use bsor_routing::Baseline;
use bsor_sim::{
    EvalPoint, Evaluator, MarkovVariation, Planner, RouteAlgorithm, RoutePlan, Scenario, SimConfig,
    SimEvaluator,
};
use bsor_topology::Topology;
use bsor_workloads::{h264_decoder, transpose, Workload};
use std::sync::Arc;
use std::time::Duration;

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

/// MILP selector configuration used by the table/figure binaries:
/// bounded so a full table regenerates in minutes, as the thesis's
/// "ILP as heuristic" mode suggests for larger problems. Under
/// [`RunMode::Quick`] the budget shrinks further so CI can exercise the
/// MILP tables in seconds.
pub fn table_milp(mode: RunMode) -> MilpSelector {
    let (max_paths, max_nodes, limit) = match mode {
        RunMode::Quick => (6, 2, Duration::from_millis(200)),
        _ => (40, 20, Duration::from_secs(5)),
    };
    MilpSelector::new()
        .with_hop_slack(2)
        .with_max_paths(max_paths)
        .with_options(MilpOptions {
            max_nodes,
            time_limit: Some(limit),
            ..MilpOptions::default()
        })
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

/// The six routing algorithms compared throughout Chapter 6, in table
/// order, as pluggable [`RouteAlgorithm`] instances.
pub fn standard_algorithms(mode: RunMode) -> Vec<(String, Box<dyn RouteAlgorithm + Send + Sync>)> {
    vec![
        ("XY".into(), Box::new(Baseline::XY)),
        ("YX".into(), Box::new(Baseline::YX)),
        ("ROMM".into(), Box::new(Baseline::Romm { seed: 9 })),
        ("Valiant".into(), Box::new(Baseline::Valiant { seed: 9 })),
        (
            "BSOR-MILP".into(),
            Box::new(BsorAlgorithm::milp("BSOR-MILP", table_milp(mode))),
        ),
        ("BSOR-Dijkstra".into(), Box::new(BsorAlgorithm::dijkstra())),
    ]
}

/// Builds the unified [`Scenario`] a figure/table runs on.
pub fn scenario_for(topo: &Topology, workload: &Workload, vcs: u8) -> Scenario {
    Scenario::builder(topo.clone(), workload.flows.clone())
        .named(workload.name.clone())
        .vcs(vcs)
        .build()
        .expect("bench workloads are valid on their topologies")
}

/// The six algorithms of [`standard_algorithms`], each planned on the
/// workload's scenario: validated routes, Lemma-1 certificate, compiled
/// tables and predicted MCL per algorithm (errors as text).
pub fn algorithm_plans(
    topo: &Topology,
    workload: &Workload,
    vcs: u8,
    mode: RunMode,
) -> Vec<(String, Result<Arc<RoutePlan>, String>)> {
    let scenario = scenario_for(topo, workload, vcs);
    let planner = Planner::new();
    standard_algorithms(mode)
        .into_iter()
        .map(|(name, algo)| {
            let plan = planner
                .plan(&scenario, algo.as_ref())
                .map_err(|e| e.to_string());
            (name, plan)
        })
        .collect()
}

/// One point of a load-sweep curve.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Offered aggregate injection rate, packets/cycle.
    pub offered: f64,
    /// Delivered throughput, packets/cycle.
    pub throughput: f64,
    /// Mean packet latency, cycles (`None` when nothing was delivered).
    pub latency: Option<f64>,
    /// Whether the run tripped the deadlock watchdog.
    pub deadlocked: bool,
}

/// Simulation lengths for the figure sweeps. The paper uses 20k + 100k
/// cycles; the default here is shorter so a figure regenerates in
/// seconds — pass `--paper` to the binaries for full-length runs.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Warmup cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measurement: u64,
    /// Virtual channels.
    pub vcs: u8,
    /// Optional Markov-modulated bandwidth variation.
    pub variation: Option<MarkovVariation>,
}

impl SweepConfig {
    /// Quick settings (2k + 10k cycles).
    pub fn quick(vcs: u8) -> SweepConfig {
        SweepConfig {
            warmup: 2_000,
            measurement: 10_000,
            vcs,
            variation: None,
        }
    }

    /// CI smoke settings (200 + 1k cycles): enough to exercise every
    /// code path of a figure without meaningful wall-clock cost.
    pub fn ci(vcs: u8) -> SweepConfig {
        SweepConfig {
            warmup: 200,
            measurement: 1_000,
            vcs,
            variation: None,
        }
    }

    /// The paper's full-length settings (20k + 100k cycles).
    pub fn paper(vcs: u8) -> SweepConfig {
        SweepConfig {
            warmup: 20_000,
            measurement: 100_000,
            vcs,
            variation: None,
        }
    }

    /// Adds bandwidth variation.
    pub fn with_variation(mut self, variation: MarkovVariation) -> SweepConfig {
        self.variation = Some(variation);
        self
    }
}

/// Simulation length a figure binary was asked for on its command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// `--quick`: CI smoke lengths and a reduced rate grid.
    Quick,
    /// No flag: the fast-but-meaningful default.
    Default,
    /// `--paper`: the paper's full 20k + 100k windows.
    Paper,
}

/// Reads the run mode from the CLI (`--quick` wins over `--paper`).
pub fn run_mode() -> RunMode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--quick") {
        RunMode::Quick
    } else if args.iter().any(|a| a == "--paper") {
        RunMode::Paper
    } else {
        RunMode::Default
    }
}

/// The sweep settings for `mode`.
pub fn sweep_for(mode: RunMode, vcs: u8) -> SweepConfig {
    match mode {
        RunMode::Quick => SweepConfig::ci(vcs),
        RunMode::Default => SweepConfig::quick(vcs),
        RunMode::Paper => SweepConfig::paper(vcs),
    }
}

/// The sweep settings for the current [`run_mode`].
pub fn figure_sweep(vcs: u8) -> SweepConfig {
    sweep_for(run_mode(), vcs)
}

/// The offered-rate grid for `mode`: the standard ten points, or three
/// spanning light load / knee / saturation in [`RunMode::Quick`].
pub fn rates_for(mode: RunMode) -> Vec<f64> {
    match mode {
        RunMode::Quick => vec![0.1, 0.8, 2.0],
        _ => standard_rates(),
    }
}

/// The offered-rate grid for the current [`run_mode`].
pub fn figure_rates() -> Vec<f64> {
    rates_for(run_mode())
}

/// Evaluates one [`RoutePlan`] across a range of offered loads with the
/// cycle-accurate [`SimEvaluator`] — plan once, evaluate N points on
/// the plan's precompiled tables.
pub fn plan_sweep(plan: &RoutePlan, offered_rates: &[f64], cfg: &SweepConfig) -> Vec<SweepPoint> {
    let evaluator = SimEvaluator::new();
    offered_rates
        .iter()
        .map(|&rate| {
            let sim_cfg = SimConfig::new(cfg.vcs)
                .with_warmup(cfg.warmup)
                .with_measurement(cfg.measurement);
            let mut point = EvalPoint::new(rate, sim_cfg);
            if let Some(v) = cfg.variation {
                point = point.with_variation(v);
            }
            let ev = evaluator
                .evaluate(plan, &point)
                .expect("consistent sweep inputs");
            SweepPoint {
                offered: rate,
                throughput: ev.throughput,
                latency: ev.mean_latency,
                deadlocked: ev.deadlocked,
            }
        })
        .collect()
}

/// Standard offered-rate grid for the figure sweeps (packets/cycle,
/// aggregate across the whole mesh).
pub fn standard_rates() -> Vec<f64> {
    vec![0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.0, 2.6, 3.2]
}

/// Streams one of the paper's throughput/latency figures into `out`:
/// every algorithm of [`standard_algorithms`] routed through the
/// scenario pipeline and swept over `rates` on `workload`. Rows are
/// written as they are computed, so long `--paper` runs show progress
/// on a terminal sink (see [`StdoutSink`]).
///
/// # Errors
///
/// Only the sink's own [`std::fmt::Error`].
#[allow(clippy::too_many_arguments)]
pub fn write_figure(
    out: &mut dyn std::fmt::Write,
    title: &str,
    topo: &Topology,
    workload: &Workload,
    cfg: &SweepConfig,
    rates: &[f64],
    mode: RunMode,
    csv: bool,
) -> std::fmt::Result {
    writeln!(out, "{title}")?;
    if csv {
        writeln!(out, "algorithm,offered,throughput,latency,deadlocked")?;
    } else {
        writeln!(
            out,
            "{}",
            fmt_row(
                &[
                    "algorithm".into(),
                    "offered".into(),
                    "throughput".into(),
                    "latency".into(),
                ],
                &[14, 9, 11, 9]
            )
        )?;
    }
    for (name, plan) in algorithm_plans(topo, workload, cfg.vcs, mode) {
        match plan {
            Err(e) => writeln!(out, "{name}: skipped ({e})")?,
            Ok(plan) => {
                for p in plan_sweep(&plan, rates, cfg) {
                    let latency = p
                        .latency
                        .map(|l| format!("{l:.1}"))
                        .unwrap_or_else(|| "-".into());
                    if csv {
                        writeln!(
                            out,
                            "{name},{:.3},{:.4},{latency},{}",
                            p.offered, p.throughput, p.deadlocked
                        )?;
                    } else {
                        writeln!(
                            out,
                            "{}",
                            fmt_row(
                                &[
                                    name.clone(),
                                    format!("{:.3}", p.offered),
                                    format!("{:.4}", p.throughput),
                                    latency,
                                ],
                                &[14, 9, 11, 9]
                            )
                        )?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// [`write_figure`] into a fresh `String` (what the golden tests pin).
#[allow(clippy::too_many_arguments)]
pub fn render_figure(
    title: &str,
    topo: &Topology,
    workload: &Workload,
    cfg: &SweepConfig,
    rates: &[f64],
    mode: RunMode,
    csv: bool,
) -> String {
    let mut out = String::new();
    write_figure(&mut out, title, topo, workload, cfg, rates, mode, csv)
        .expect("string writes cannot fail");
    out
}

/// Streams Figure 6-7's VC sweep into `out`: transpose and the H.264
/// decoder with 1/2/4/8 virtual channels, XY vs BSOR-Dijkstra (ROMM
/// joins at 2+ VCs — with a single VC it would deadlock, exactly as in
/// §6.2.7). Rows are written as they are computed.
///
/// # Errors
///
/// Only the sink's own [`std::fmt::Error`].
pub fn write_vc_sweep(
    out: &mut dyn std::fmt::Write,
    topo: &Topology,
    mode: RunMode,
    csv: bool,
) -> std::fmt::Result {
    let rates = rates_for(mode);
    if csv {
        writeln!(out, "workload,vcs,algorithm,offered,throughput,latency")?;
    }
    for workload in [
        transpose(topo).expect("square"),
        h264_decoder(topo).expect("fits"),
    ] {
        for vcs in [1u8, 2, 4, 8] {
            let cfg = sweep_for(mode, vcs);
            if !csv {
                writeln!(out, "Figure 6-7: {} with {vcs} VC(s)", workload.name)?;
            }
            let scenario = scenario_for(topo, &workload, vcs);
            let planner = Planner::new();
            let mut algos: Vec<(String, Box<dyn RouteAlgorithm + Send + Sync>)> = vec![
                ("XY".into(), Box::new(Baseline::XY)),
                ("BSOR-Dijkstra".into(), Box::new(BsorAlgorithm::dijkstra())),
            ];
            if vcs >= 2 {
                algos.push(("ROMM".into(), Box::new(Baseline::Romm { seed: 9 })));
            }
            for (name, algo) in algos {
                match planner.plan(&scenario, algo.as_ref()) {
                    Err(e) => writeln!(out, "{name}: skipped ({e})")?,
                    Ok(plan) => {
                        for p in plan_sweep(&plan, &rates, &cfg) {
                            let lat = p
                                .latency
                                .map(|l| format!("{l:.1}"))
                                .unwrap_or_else(|| "-".into());
                            if csv {
                                writeln!(
                                    out,
                                    "{},{vcs},{name},{:.3},{:.4},{lat}",
                                    workload.name, p.offered, p.throughput
                                )?;
                            } else {
                                writeln!(
                                    out,
                                    "  {name:>14}  rate {:.3}  tput {:.4}  lat {lat}",
                                    p.offered, p.throughput
                                )?;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// [`write_vc_sweep`] into a fresh `String` (what the golden test pins).
pub fn vc_sweep_report(topo: &Topology, mode: RunMode, csv: bool) -> String {
    let mut out = String::new();
    write_vc_sweep(&mut out, topo, mode, csv).expect("string writes cannot fail");
    out
}

/// A [`std::fmt::Write`] sink that streams straight to stdout, so the
/// figure binaries print each row as its simulations finish instead of
/// buffering whole figures (hours under `--paper`) in memory.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdoutSink;

impl std::fmt::Write for StdoutSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        print!("{s}");
        Ok(())
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

/// True when the CLI asked for full-length paper runs (a [`run_mode`]
/// shorthand kept for callers that only branch on `--paper`).
pub fn paper_mode() -> bool {
    run_mode() == RunMode::Paper
}

/// True when the CLI asked for CSV output.
pub fn csv_mode() -> bool {
    std::env::args().any(|a| a == "--csv")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_workloads::transpose;

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
        let topo = Topology::mesh2d(4, 4);
        let w = bsor_workloads::transpose(&topo).expect("square");
        let plan = Planner::new()
            .plan(&scenario_for(&topo, &w, 2), &Baseline::XY)
            .expect("xy");
        let cfg = SweepConfig {
            warmup: 200,
            measurement: 1_000,
            vcs: 2,
            variation: None,
        };
        let points = plan_sweep(&plan, &[0.05, 0.2], &cfg);
        assert_eq!(points.len(), 2);
        assert!(points[0].offered < points[1].offered);
        assert!(points.iter().all(|p| !p.deadlocked));
    }

    #[test]
    fn standard_algorithms_are_table_ordered() {
        let names: Vec<String> = standard_algorithms(RunMode::Quick)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            vec!["XY", "YX", "ROMM", "Valiant", "BSOR-MILP", "BSOR-Dijkstra"]
        );
    }

    #[test]
    fn render_figure_has_csv_header_and_rows() {
        let topo = Topology::mesh2d(4, 4);
        let w = transpose(&topo).expect("square");
        let cfg = SweepConfig::ci(2);
        let out = render_figure("T", &topo, &w, &cfg, &[0.1], RunMode::Quick, true);
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("T"));
        assert_eq!(
            lines.next(),
            Some("algorithm,offered,throughput,latency,deadlocked")
        );
        assert!(out.lines().any(|l| l.starts_with("XY,0.100,")));
    }

    #[test]
    fn fmt_row_aligns() {
        let row = fmt_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }
}
