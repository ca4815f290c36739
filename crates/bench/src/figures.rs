//! The paper's ten load-sweep figures (Figs. 6-1 to 6-10) as named
//! [`GridSpec`] presets.
//!
//! Every figure is one grid on the 8x8 mesh, run by
//! [`run_grid_with`] over registries whose algorithms are
//! [`standard_algorithms`] under their display names, and printed by
//! [`Figure::render`] in one of two layouts:
//!
//! * [`Layout::Tables`] — one table per workload: a title, a header and
//!   every algorithm's points (Figs. 6-1 to 6-6, 6-8 to 6-10).
//! * [`Layout::VcSweep`] — Fig. 6-7: rows grouped by workload, then VC
//!   count, then algorithm.
//!
//! The presets keep the settings the figures have always used: 200 +
//! 1k cycles under [`RunMode::Quick`], 2k + 10k by default and 20k +
//! 100k under [`RunMode::Paper`]; three rates under `Quick`, otherwise
//! [`standard_rates`]; and the simulator's default seed and packet
//! length.

use crate::sweep::{run_grid_with, CaseResult, GridSpec, SweepRegistries, TopoSpec};
use crate::{fmt_row, standard_algorithms, standard_rates, RunMode};
use bsor_sim::{Evaluation, MarkovVariation, SimConfig};
use std::fmt::Write;

/// The `bsor-paper` ids, one per figure, in figure order.
pub const FIGURE_IDS: [&str; 10] = [
    "fig-6-1", "fig-6-2", "fig-6-3", "fig-6-4", "fig-6-5", "fig-6-6", "fig-6-7", "fig-6-8",
    "fig-6-9", "fig-6-10",
];

/// Registry spec and title label of the workload of Figs. 6-1 to 6-6.
const APPLICATIONS: [(&str, &str); 6] = [
    ("transpose", "Transpose"),
    ("bit-complement", "Bit-Complement"),
    ("shuffle", "Shuffle"),
    ("h264", "H.264 Decoder"),
    ("perf-model", "Performance Modeling"),
    ("wifi", "802.11a/g Transmitter"),
];

/// Registry spec and label of the two workloads of Figs. 6-7 to 6-10.
const PAIR: [(&str, &str); 2] = [("transpose", "transpose"), ("h264", "H.264")];

/// How a figure prints its grid's results.
#[derive(Clone, Debug)]
pub enum Layout {
    /// One table per workload of the grid, headed by the matching title.
    Tables {
        /// One title per workload, in grid order.
        titles: Vec<String>,
    },
    /// Rows grouped by workload, then VC count, then algorithm.
    VcSweep {
        /// One label per workload, in grid order.
        labels: Vec<String>,
        /// An algorithm the figure leaves out at one VC count: ROMM
        /// needs two VCs, so Fig. 6-7 compares only XY and BSOR at one.
        omit: (&'static str, u8),
    },
}

/// One of the paper's load-sweep figures.
#[derive(Clone, Debug)]
pub struct Figure {
    /// The `bsor-paper` id (`fig-6-1` … `fig-6-10`).
    pub id: &'static str,
    /// Run length, which also sets the MILP budget.
    pub mode: RunMode,
    /// The grid the figure sweeps.
    pub grid: GridSpec,
    /// How the results print.
    pub layout: Layout,
}

impl Figure {
    /// The preset for `id` under `mode`, or `None` for an unknown id.
    pub fn new(id: &str, mode: RunMode) -> Option<Figure> {
        let number = FIGURE_IDS.iter().position(|&f| f == id)? + 1;
        let (warmup, measurement) = match mode {
            RunMode::Quick => (200, 1_000),
            RunMode::Default => (2_000, 10_000),
            RunMode::Paper => (20_000, 100_000),
        };
        let defaults = SimConfig::new(2);
        let mut grid = GridSpec {
            topologies: vec![TopoSpec::mesh(8, 8)],
            workloads: PAIR.iter().map(|(spec, _)| spec.to_string()).collect(),
            algorithms: standard_algorithms(mode)
                .names()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            vcs: vec![2],
            rates: match mode {
                RunMode::Quick => vec![0.1, 0.8, 2.0],
                _ => standard_rates(),
            },
            warmup,
            measurement,
            packet_len: defaults.packet_len,
            seed: defaults.seed,
            record_timings: false,
            burst: None,
            variation: None,
            saturation: None,
            compact_tables: false,
        };
        let layout = match number {
            1..=6 => {
                let (spec, label) = APPLICATIONS[number - 1];
                grid.workloads = vec![spec.to_owned()];
                Layout::Tables {
                    titles: vec![format!(
                        "Figure 6-{number}: {label} — throughput & latency vs offered rate"
                    )],
                }
            }
            7 => {
                grid.algorithms = vec!["XY".into(), "BSOR-Dijkstra".into(), "ROMM".into()];
                grid.vcs = vec![1, 2, 4, 8];
                Layout::VcSweep {
                    labels: PAIR.iter().map(|(_, label)| label.to_string()).collect(),
                    omit: ("ROMM", 1),
                }
            }
            _ => {
                let percent = [10, 25, 50][number - 8];
                grid.variation = Some(MarkovVariation::new(f64::from(percent) / 100.0, 200.0));
                Layout::Tables {
                    titles: PAIR
                        .iter()
                        .map(|(_, label)| {
                            format!(
                                "Figure 6-{number}: {label} with {percent}% bandwidth variation"
                            )
                        })
                        .collect(),
                }
            }
        };
        Some(Figure {
            id: FIGURE_IDS[number - 1],
            mode,
            grid,
            layout,
        })
    }

    /// Runs the figure's grid on `threads` workers; results come back in
    /// grid order whatever the thread count.
    pub fn run(&self, threads: usize) -> Vec<CaseResult> {
        let mut registries = SweepRegistries::standard();
        registries.algorithms = standard_algorithms(self.mode);
        run_grid_with(&self.grid, threads, &registries)
    }

    /// Prints `results` (from [`Figure::run`]) as CSV or aligned text.
    pub fn render(&self, results: &[CaseResult], csv: bool) -> String {
        let mut out = String::new();
        match &self.layout {
            Layout::Tables { titles } => {
                for (workload, title) in self.grid.workloads.iter().zip(titles) {
                    out.push_str(title);
                    out.push('\n');
                    if csv {
                        out.push_str("algorithm,offered,throughput,latency,deadlocked\n");
                    } else {
                        let header = ["algorithm", "offered", "throughput", "latency"];
                        out.push_str(&fmt_row(&header.map(String::from), &[14, 9, 11, 9]));
                        out.push('\n');
                    }
                    for case in results.iter().filter(|r| r.case.workload == *workload) {
                        write_case(&mut out, case, |name, p, latency| {
                            if csv {
                                format!(
                                    "{name},{:.3},{:.4},{latency},{}",
                                    p.rate, p.throughput, p.deadlocked
                                )
                            } else {
                                let cells = [
                                    name.to_owned(),
                                    format!("{:.3}", p.rate),
                                    format!("{:.4}", p.throughput),
                                    latency.to_owned(),
                                ];
                                fmt_row(&cells, &[14, 9, 11, 9])
                            }
                        });
                    }
                }
            }
            Layout::VcSweep { labels, omit } => {
                if csv {
                    out.push_str("workload,vcs,algorithm,offered,throughput,latency\n");
                }
                let number = &self.id["fig-".len()..];
                for (workload, label) in self.grid.workloads.iter().zip(labels) {
                    for &vcs in &self.grid.vcs {
                        if !csv {
                            writeln!(out, "Figure {number}: {label} with {vcs} VC(s)")
                                .expect("writes to a String cannot fail");
                        }
                        let cases = results.iter().filter(|r| {
                            r.case.workload == *workload
                                && r.case.vcs == vcs
                                && (r.case.algorithm.as_str(), vcs) != *omit
                        });
                        for case in cases {
                            write_case(&mut out, case, |name, p, latency| {
                                if csv {
                                    format!(
                                        "{label},{vcs},{name},{:.3},{:.4},{latency}",
                                        p.rate, p.throughput
                                    )
                                } else {
                                    format!(
                                        "  {name:>14}  rate {:.3}  tput {:.4}  lat {latency}",
                                        p.rate, p.throughput
                                    )
                                }
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Appends one case's rows, each formatted by `row(algorithm, point,
/// mean latency)`, or a `skipped` line naming the case's error.
fn write_case(
    out: &mut String,
    case: &CaseResult,
    row: impl Fn(&str, &Evaluation, &str) -> String,
) {
    let name = &case.case.algorithm;
    if let Some(e) = &case.error {
        writeln!(out, "{name}: skipped ({e})").expect("writes to a String cannot fail");
        return;
    }
    for p in &case.points {
        let latency = p
            .mean_latency
            .map_or_else(|| "-".to_owned(), |l| format!("{l:.1}"));
        out.push_str(&row(name, p, &latency));
        out.push('\n');
    }
}
