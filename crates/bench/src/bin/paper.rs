//! `bsor-paper` — regenerates the paper's load-sweep figures, Figs. 6-1
//! to 6-10: throughput and latency against offered rate for each
//! workload (6-1 to 6-6), the VC-count sweep (6-7) and the bandwidth
//! variation runs (6-8 to 6-10).
//!
//! ```text
//! cargo run -p bsor_bench --release --bin bsor-paper -- fig-6-1 [fig-6-7 …] [--quick|--paper] [--csv]
//! ```
//!
//! Each id names a `bsor_bench::figures::Figure` preset, a sweep grid
//! run on every core; the figures print in the order given. An unknown
//! flag or id exits 1 and names it.

use bsor_bench::figures::{Figure, FIGURE_IDS};
use bsor_bench::PaperArgs;
use std::num::NonZeroUsize;

fn main() {
    let args = PaperArgs::from_env("bsor-paper", &FIGURE_IDS);
    if args.ids.is_empty() {
        eprintln!(
            "bsor-paper: name at least one figure ({})",
            FIGURE_IDS.join(", ")
        );
        std::process::exit(1);
    }
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    for id in &args.ids {
        let figure = Figure::new(id, args.mode).expect("parsed ids are figure ids");
        // The figure prints when its whole grid is done, so say what
        // is running (a --paper figure takes many minutes).
        eprintln!(
            "bsor-paper: {id}: {} cases x {} rates on {threads} threads",
            figure.grid.num_cases(),
            figure.grid.rates.len()
        );
        print!("{}", figure.render(&figure.run(threads), args.csv));
    }
}
