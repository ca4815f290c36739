//! Byte-identity goldens for the ten load-sweep figures (Figs. 6-1 to
//! 6-10) under `--quick`, in both output layouts.
//!
//! `golden/fig_6_N_quick.csv` and `golden/fig_6_N_quick.txt` are the
//! `fig_6_N --quick --csv` and `fig_6_N --quick` outputs of the
//! per-figure binaries, captured before the figures moved onto the sweep
//! grid. `bsor-paper fig-6-N` must print the same bytes, in debug and
//! release builds alike.

use bsor_bench::figures::{Figure, FIGURE_IDS};
use bsor_bench::RunMode;
use std::process::Command;

fn golden(id: &str, ext: &str) -> String {
    let path = format!(
        "{}/tests/golden/{}_quick.{ext}",
        env!("CARGO_MANIFEST_DIR"),
        id.replace('-', "_")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn quick_figures_are_byte_identical_to_the_per_figure_binaries() {
    // One BSOR-MILP exploration dominates each of Figs. 6-1 to 6-3 (49 s
    // for bit-complement in a debug build), so the figures run side by
    // side rather than each on a pool of its own.
    std::thread::scope(|scope| {
        for id in FIGURE_IDS {
            scope.spawn(move || {
                let figure = Figure::new(id, RunMode::Quick).expect("listed id");
                let results = figure.run(1);
                assert_eq!(
                    figure.render(&results, true),
                    golden(id, "csv"),
                    "{id} --quick --csv diverged"
                );
                assert_eq!(
                    figure.render(&results, false),
                    golden(id, "txt"),
                    "{id} --quick diverged"
                );
            });
        }
    });
}

#[test]
fn bad_flags_and_ids_exit_1_naming_them() {
    let run = |bin: &str, args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("binary starts");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let paper = env!("CARGO_BIN_EXE_bsor-paper");
    let (code, stderr) = run(paper, &["fig-6-1", "--quik"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown flag '--quik'"), "{stderr}");
    let (code, stderr) = run(paper, &["fig-6-11", "--quick"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown figure id 'fig-6-11'"), "{stderr}");
    assert!(
        stderr.contains("fig-6-1, fig-6-2"),
        "lists the valid ids: {stderr}"
    );
    let (code, _) = run(paper, &["--quick"]);
    assert_eq!(code, Some(1), "no figure named");
    // The ratio table reads flags of its own, in the same wording.
    let ratio = env!("CARGO_BIN_EXE_oblivious_ratio");
    let (code, stderr) = run(ratio, &["--quik", "--json"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown flag '--quik'"), "{stderr}");
}
