//! The `sim-noc` workload: cycle-accurate simulation of plans built
//! during set-up.
//!
//! One operation is one `SimEvaluator::simulate` of a point (plus the
//! latency histogram every evaluation builds). No planning happens in
//! the timed window, so the engine does nearly all the work. Low and
//! high load separate idle-cycle skipping from switch allocation, the
//! bursty point covers the on/off traffic path, and uniform-random
//! traffic puts thousands of flows through per-flow generation.

use crate::digest::Digest;
use crate::env::peak_rss_mb;
use crate::pipeline::{
    build_scenario, count_plan, count_report, report_ok, simulate, staged_plan, staged_sim,
};
use crate::report::{
    end_to_end, family_of, fastest, latency_summary, overhead, per_layer, EngineCounts,
    LayerInputs, Metric, PlanCounts, Run, Timings,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use bsor_bench::json::Json;
use bsor_bench::sweep::SweepRegistries;
use bsor_sim::{BurstyOnOff, CacheStats, EvalPoint, Planner, RoutePlan, SimConfig, SimReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One simulated load point.
struct Point {
    label: &'static str,
    topology: &'static str,
    workload: &'static str,
    algorithm: &'static str,
    rate: f64,
    burst: bool,
}

const fn point(
    label: &'static str,
    topology: &'static str,
    workload: &'static str,
    algorithm: &'static str,
    rate: f64,
) -> Point {
    Point {
        label,
        topology,
        workload,
        algorithm,
        rate,
        burst: false,
    }
}

const POINTS: [Point; 5] = [
    point("t32-r0.05", "mesh:32x32", "transpose", "xy", 0.05),
    point("t32-r0.8", "mesh:32x32", "transpose", "xy", 0.8),
    point("h16-r0.4", "mesh:16x16", "hotspot:4", "bsor-dijkstra", 0.4),
    Point {
        burst: true,
        ..point("h264-burst", "mesh:8x8", "h264", "bsor-dijkstra", 0.8)
    },
    point("u8-r0.4", "mesh:8x8", "uniform-random", "xy", 0.4),
];

const QUICK_POINTS: [Point; 5] = [
    point("t4-r0.05", "mesh:4x4", "transpose", "xy", 0.05),
    point("t4-r0.8", "mesh:4x4", "transpose", "xy", 0.8),
    point("h4-r0.4", "mesh:4x4", "hotspot:2", "bsor-dijkstra", 0.4),
    Point {
        burst: true,
        ..point("h264-burst", "mesh:4x4", "h264", "bsor-dijkstra", 0.8)
    },
    point("u4-r0.4", "mesh:4x4", "uniform-random", "xy", 0.4),
];

/// Paper-style on/off bursts: 20 cycles on, 80 off on average.
const BURST: BurstyOnOff = BurstyOnOff {
    mean_on: 20.0,
    mean_off: 80.0,
};

/// The plans, one per point (points on one key share a plan).
struct State {
    plans: Vec<Arc<RoutePlan>>,
    plan_counts: PlanCounts,
}

/// Plans every point's key; the traced run also plans it stage by
/// stage and notes in `staged` whether the stages matched the plan.
fn setup(
    tr: &mut Tracer,
    staged_ok: &mut Vec<(&'static str, bool)>,
    points: &[Point],
) -> Result<State, String> {
    tr.span("setup", |tr| {
        let regs = SweepRegistries::standard();
        let planner = Planner::new();
        let mut plans: Vec<Arc<RoutePlan>> = Vec::new();
        let mut plan_counts = PlanCounts::default();
        for (i, p) in points.iter().enumerate() {
            let same = points[..i].iter().position(|q| {
                (q.topology, q.workload, q.algorithm) == (p.topology, p.workload, p.algorithm)
            });
            if let Some(j) = same {
                plans.push(plans[j].clone());
                continue;
            }
            let scenario = build_scenario(tr, &regs, p.topology, p.workload, 2)?;
            let algorithm = regs
                .algorithms
                .get(p.algorithm)
                .expect("point algorithms are registered");
            if tr.enabled() {
                let staged = staged_plan(tr, &scenario, algorithm, family_of(p.algorithm), false)?;
                let plan = planner
                    .plan(&scenario, algorithm)
                    .map_err(|e| e.to_string())?;
                staged_ok.push((p.label, staged.matches(&plan)));
                count_plan(&mut plan_counts, &plan);
                plans.push(plan);
            } else {
                let plan = planner
                    .plan(&scenario, algorithm)
                    .map_err(|e| e.to_string())?;
                count_plan(&mut plan_counts, &plan);
                plans.push(plan);
            }
        }
        Ok(State { plans, plan_counts })
    })
}

pub fn run(run: &mut Run) -> Result<Outcome, String> {
    let points: &[Point] = if run.quick { &QUICK_POINTS } else { &POINTS };
    let (warmup, measurement) = if run.quick {
        (100, 500)
    } else {
        (1_000, 10_000)
    };
    let eval_points: Vec<EvalPoint> = points
        .iter()
        .map(|p| {
            let config = SimConfig::new(2)
                .with_warmup(warmup)
                .with_measurement(measurement)
                .with_seed(run.seed);
            let e = EvalPoint::new(p.rate, config);
            if p.burst {
                e.with_burst(BURST)
            } else {
                e
            }
        })
        .collect();
    let mut tr = run.tracer();
    let mut timings = Timings::default();
    let mut staged_ok = Vec::new();
    let state = run.repeat_setup(&mut timings.setup_s, || {
        setup(&mut tr, &mut staged_ok, points)
    })?;
    for (label, ok) in staged_ok {
        run.check(ok, || format!("{label}: staged plan != Planner::plan"));
    }

    let window = Duration::from_secs_f64(run.seconds);
    let untraced_window = if run.trace { window / 2 } else { window };
    let started = Instant::now();
    let mut first: Vec<Option<SimReport>> = vec![None; points.len()];
    timings.per_key_ms = vec![Vec::new(); points.len()];
    let mut traced_ms: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let (mut untraced_rounds, mut traced_rounds) = (0usize, 0usize);
    let mut point_of_op: Vec<usize> = Vec::new();
    let mut engine_counts = EngineCounts::default();
    loop {
        let traced = run.trace && untraced_rounds > 0 && started.elapsed() >= untraced_window;
        for (i, p) in points.iter().enumerate() {
            tr.set_op(point_of_op.len() as u64);
            point_of_op.push(i);
            let t = Instant::now();
            let report = if traced {
                staged_sim(&mut tr, &state.plans[i], &eval_points[i])
            } else {
                simulate(&state.plans[i], &eval_points[i])
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if traced {
                traced_ms[i].push(ms);
            } else {
                timings.per_key_ms[i].push(ms);
            }
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    run.check(false, || format!("{}: {e}", p.label));
                    continue;
                }
            };
            match &first[i] {
                Some(expected) => run.check(&report == expected, || {
                    format!("{}: report changed between rounds", p.label)
                }),
                None => {
                    run.check(report_ok(&report), || {
                        format!("{}: deadlock or over-delivery", p.label)
                    });
                    count_report(&mut engine_counts, &report);
                    first[i] = Some(report);
                }
            }
        }
        if traced {
            traced_rounds += 1;
        } else {
            untraced_rounds += 1;
        }
        if started.elapsed() >= window && (!run.trace || traced_rounds > 0) {
            break;
        }
    }
    timings.peak_rss_mb = peak_rss_mb();

    let mut digest = Digest::default();
    for (p, report) in points.iter().zip(&first) {
        digest.str(p.label);
        if let Some(r) = report {
            digest.report(r);
        }
    }

    let mut detail = Vec::new();
    let metrics = if run.trace {
        // Per point: the median engine run over its cycles and flit hops.
        for (i, p) in points.iter().enumerate() {
            let runs: Vec<f64> = tr
                .spans()
                .iter()
                .filter(|s| s.name == "engine.run" && point_of_op[s.op_id as usize] == i)
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .collect();
            if let Some(r) = &first[i] {
                let run_ns = median(&runs);
                let hops = r.link_flits.iter().sum::<u64>().max(1);
                for (unit, per) in [("cycle", r.cycles.max(1)), ("flit_hop", hops)] {
                    detail.push(Metric::new(
                        format!("engine.ns_per_{unit}.{}", p.label),
                        run_ns / per as f64,
                        "ns",
                        runs.len(),
                    ));
                }
            }
        }
        per_layer(&LayerInputs {
            spans: tr.spans(),
            setup_passes: 1.0,
            plan_passes: 1.0,
            sim_passes: traced_rounds as f64,
            plan: state.plan_counts,
            engine: engine_counts,
            cache: CacheStats::default(),
            overhead_frac: overhead(&traced_ms, &timings.per_key_ms),
        })
    } else {
        detail.extend(latency_summary("op.each", &timings.per_key_ms.concat()));
        // Simulated work of one pass over the points, at each point's
        // fastest wall time (as `ops_per_s`).
        let pass_s: f64 = timings.per_key_ms.iter().map(|ms| fastest(ms)).sum::<f64>() / 1e3;
        let n = timings.per_key_ms.iter().map(Vec::len).sum();
        detail.push(Metric::new(
            "sim_cycles_per_s",
            engine_counts.cycles as f64 / pass_s,
            "cycles/s",
            n,
        ));
        detail.push(Metric::new(
            "sim_flit_hops_per_s",
            engine_counts.flit_hops as f64 / pass_s,
            "flit-hops/s",
            n,
        ));
        for (p, ms) in points.iter().zip(&timings.per_key_ms) {
            detail.push(Metric::new(
                format!("sim.{}_p50_ms", p.label),
                median(ms),
                "ms",
                ms.len(),
            ));
        }
        end_to_end(&timings)
    };
    let params = Json::object(vec![
        (
            "points",
            Json::from(points.iter().map(|p| p.label).collect::<Vec<_>>()),
        ),
        ("warmup", Json::from(warmup)),
        ("measurement", Json::from(measurement)),
        ("rounds", Json::from(untraced_rounds + traced_rounds)),
        ("setup_reps", Json::from(timings.setup_s.len())),
    ]);
    Ok(Outcome {
        metrics,
        detail,
        params,
        digest: digest.value(),
        tracer: tr,
    })
}
