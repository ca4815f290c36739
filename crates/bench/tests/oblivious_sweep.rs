//! The oblivious selectors through the sweep harness: one grid run on
//! 1, 2 and 4 worker threads must produce byte-identical
//! `--no-timings` JSON, and the registry must resolve both selectors by
//! name.

use bsor_bench::json::Json;
use bsor_bench::sweep::{run_grid_with, sweep_json, GridSpec, SweepRegistries, TopoSpec};

fn oblivious_grid() -> GridSpec {
    let mut spec = GridSpec::smoke();
    spec.topologies = vec![TopoSpec::from_spec("2x2")];
    spec.workloads = vec!["uniform-random".into()];
    spec.algorithms = vec!["ac-oblivious".into(), "random-walk".into()];
    spec.vcs = vec![2];
    spec.rates = vec![0.1, 0.8];
    spec.warmup = 100;
    spec.measurement = 400;
    spec.record_timings = false;
    spec
}

#[test]
fn oblivious_sweep_is_byte_identical_across_threads() {
    let spec = oblivious_grid();
    let regs = SweepRegistries::standard();
    let render = |threads: usize| {
        let results = run_grid_with(&spec, threads, &regs);
        sweep_json(&spec, &results, threads, 12.5).pretty()
    };
    let baseline = render(1);
    for threads in [2, 4] {
        assert_eq!(
            baseline,
            render(threads),
            "thread count must not leak into the artifact"
        );
    }
    // Sanity: the cases actually ran and carry numeric MCL cells for
    // both selectors (2x2 is inside the LP budget).
    let doc = Json::parse(&baseline).expect("valid JSON");
    let cases = doc.get("cases").and_then(Json::as_array).expect("cases");
    assert_eq!(cases.len(), 2, "ac-oblivious and random-walk");
    for case in cases {
        assert_eq!(case.get("error"), Some(&Json::Null), "no case errored");
        assert!(
            case.get("mcl_mb_s").and_then(Json::as_f64).is_some(),
            "every case has a numeric predicted MCL"
        );
    }
}
