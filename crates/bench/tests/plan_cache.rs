//! Plan-cache contract for the sweep harness: caching changes *cost*
//! (route solves), never *content* (the JSON document).
//!
//! * `bsor-sweep` output must be byte-identical with the cache enabled
//!   vs disabled, saturation search included.
//! * With the cache on, a saturation sweep performs exactly one route
//!   solve per `(topo, workload, algo, vc)` case — the acceptance
//!   criterion the CLI's `route solves:` log line and CI's `plan-cache`
//!   job audit.

use bsor_bench::sweep::{
    run_grid_stats, sweep_json, GridSpec, SaturationSpec, SweepRegistries, TopoSpec,
};

fn sat_spec() -> GridSpec {
    GridSpec {
        topologies: vec![TopoSpec::mesh(4, 4)],
        workloads: vec!["transpose".into(), "neighbor".into()],
        algorithms: vec!["xy".into(), "yx".into()],
        vcs: vec![2],
        rates: vec![0.1, 0.4],
        warmup: 100,
        measurement: 500,
        packet_len: 4,
        seed: 7,
        record_timings: false,
        fast_forward: true,
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
fn sweep_json_is_byte_identical_with_cache_on_vs_off() {
    let spec = sat_spec();
    let regs = SweepRegistries::standard();
    let on = run_grid_stats(&spec, 2, &regs, true);
    let off = run_grid_stats(&spec, 3, &regs, false);
    let doc_on = sweep_json(&spec, &on.results, 2, 0.0).pretty();
    let doc_off = sweep_json(&spec, &off.results, 3, 0.0).pretty();
    assert_eq!(doc_on, doc_off, "plan cache must not change results");
    // The per-case saturation echo records the final bracket and the
    // bisection steps actually executed.
    assert!(doc_on.contains("\"iterations\": 4"));
    for case in &on.results {
        let sat = case.saturation.as_ref().expect("search ran");
        assert_eq!(sat.lo, sat.rate, "lo is the highest unsaturated probe");
        assert!(sat.hi > sat.lo || sat.censored);
    }
}

#[test]
fn cached_saturation_sweep_solves_exactly_once_per_case() {
    let spec = sat_spec();
    let regs = SweepRegistries::standard();
    let on = run_grid_stats(&spec, 2, &regs, true);
    assert_eq!(
        on.plans.solves,
        spec.num_cases() as u64,
        "one route solve per case with the cache on"
    );
    // Every plan request beyond the per-case up-front solve — one per
    // rate point, one per saturation probe — was served from the cache.
    let per_point_requests: u64 = on
        .results
        .iter()
        .map(|r| r.points.len() as u64 + r.saturation.as_ref().map_or(0, |s| u64::from(s.runs)))
        .sum();
    assert_eq!(on.plans.cache_hits, per_point_requests);
    let off = run_grid_stats(&spec, 2, &regs, false);
    assert_eq!(
        off.plans.solves,
        spec.num_cases() as u64 + per_point_requests,
        "the uncached sweep re-solves per plan request"
    );
    assert_eq!(off.plans.cache_hits, 0);
}

#[test]
fn sweep_outcome_exposes_plan_stats_and_saturation_programmatically() {
    // The counters the CLI prints must be reachable by API callers:
    // `SweepOutcome.plans` carries the planner's `PlanStats`, and every
    // case's `SaturationOutcome` is a struct, not a log line.
    let spec = sat_spec();
    let regs = SweepRegistries::standard();
    let outcome = run_grid_stats(&spec, 1, &regs, true);
    let stats = outcome.plans;
    assert_eq!(stats.solves, spec.num_cases() as u64);
    let requests: u64 = outcome
        .results
        .iter()
        .map(|r| r.points.len() as u64 + r.saturation.as_ref().map_or(0, |s| u64::from(s.runs)))
        .sum();
    assert_eq!(
        stats.solves + stats.cache_hits,
        spec.num_cases() as u64 + requests,
        "solves and hits partition every plan request the sweep made"
    );
    for case in &outcome.results {
        let sat = case.saturation.as_ref().expect("search outcome reachable");
        assert!(sat.runs > 0);
        assert!(sat.rate >= spec.saturation.as_ref().unwrap().lo);
    }
}

#[test]
fn failed_cases_cost_one_solve_and_report_unchanged_errors() {
    let mut spec = sat_spec();
    spec.workloads = vec!["nope".into(), "transpose".into()];
    let regs = SweepRegistries::standard();
    let on = run_grid_stats(&spec, 1, &regs, true);
    // Unknown workloads fail before planning; only the transpose cases
    // solve.
    assert_eq!(on.plans.solves, 2);
    assert!(on.results[0].error.as_deref().unwrap().contains("nope"));
    assert!(on.results[2].error.is_none());
}
