//! A sweep plans each case once: route selection runs one time per
//! `(topology, workload, algorithm, vcs)` case however many rate points
//! and saturation probes evaluate the plan, and not at all for a case
//! that fails before planning.

use bsor_bench::sweep::{
    run_grid_with, sweep_json, GridSpec, SaturationSpec, SweepRegistries, TopoSpec,
};
use bsor_routing::{Baseline, RouteSet};
use bsor_sim::{AlgorithmError, RouteAlgorithm, ScenarioCtx};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// XY routing that counts its `routes()` calls.
struct CountingXy(Arc<AtomicUsize>);

impl RouteAlgorithm for CountingXy {
    fn name(&self) -> &str {
        "counting-xy"
    }

    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Baseline::XY.routes(ctx)
    }
}

/// The standard registries plus `counting-xy`, and its call counter.
fn counting_registries() -> (SweepRegistries, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut regs = SweepRegistries::standard();
    regs.algorithms
        .register("counting-xy", CountingXy(calls.clone()));
    (regs, calls)
}

/// `counting-xy` on a 4x4 mesh at three rates, with a 4-iteration
/// saturation search.
fn grid(workloads: &[&str]) -> GridSpec {
    GridSpec {
        topologies: vec![TopoSpec::mesh(4, 4)],
        workloads: workloads.iter().map(|w| w.to_string()).collect(),
        algorithms: vec!["counting-xy".into()],
        vcs: vec![2],
        rates: vec![0.1, 0.4, 0.8],
        warmup: 100,
        measurement: 500,
        packet_len: 4,
        seed: 7,
        record_timings: false,
        burst: None,
        variation: None,
        saturation: Some(SaturationSpec {
            lo: 0.05,
            hi: 4.0,
            iterations: 4,
            knee: 4.0,
        }),
        compact_tables: false,
    }
}

#[test]
fn a_saturation_case_calls_routes_once() {
    let (regs, calls) = counting_registries();
    let spec = grid(&["transpose"]);
    let results = run_grid_with(&spec, 1, &regs);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "one route selection");
    let case = &results[0];
    assert!(case.error.is_none(), "{:?}", case.error);
    assert_eq!(case.points.len(), 3);
    // 4.0 packets/cycle saturates a 4x4 transpose, so the search probes
    // the baseline and the upper bound, then bisects four times.
    let sat = case.saturation.as_ref().expect("search ran");
    assert_eq!((sat.runs, sat.iterations), (6, 4));
    assert_eq!(sat.lo, sat.rate, "lo is the highest unsaturated probe");
    let doc = sweep_json(&spec, &results, 1, 0.0).pretty();
    assert_eq!(
        doc.matches("\"iterations\": 4").count(),
        2,
        "the grid echo and the case's search"
    );
}

#[test]
fn an_unknown_workload_case_never_calls_routes() {
    let (regs, calls) = counting_registries();
    let results = run_grid_with(&grid(&["nope"]), 1, &regs);
    assert_eq!(calls.load(Ordering::SeqCst), 0, "fails before planning");
    assert!(results[0].error.as_deref().unwrap().contains("nope"));
    assert!(results[0].points.is_empty());
}
