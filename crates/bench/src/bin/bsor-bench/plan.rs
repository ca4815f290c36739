//! The planning workloads: `plan-apps`, `plan-lp` and `plan-scale`.
//!
//! Each runs rounds over a fixed list of keys (topology, workload,
//! VCs, algorithm, table representation). One operation is one cold
//! `Planner::plan` on a fresh, uncached planner; the traced run
//! replaces it by the same stages called one by one.

use crate::digest::Digest;
use crate::env::peak_rss_mb;
use crate::pipeline::{
    build_scenario, check_point, count_plan, count_report, report_ok, seeded_registries, simulate,
    staged_plan, staged_sim, Fingerprint, CHECK_SIM_MAX_FLOWS,
};
use crate::report::{
    end_to_end, family_of, latency_summary, overhead, per_layer, select_span, EngineCounts,
    LayerInputs, Metric, PlanCounts, Run, Timings, FAMILIES,
};
use crate::trace::{self_times, Tracer};
use crate::Outcome;
use bsor_bench::json::Json;
use bsor_bench::sweep::SweepRegistries;
use bsor_sim::{CacheStats, Planner, Scenario, SimReport};
use std::time::{Duration, Instant};

/// Which planning workload.
#[derive(Clone, Copy, Debug)]
pub enum Suite {
    /// The paper's 8x8 substrate: eleven applications by seven
    /// algorithms. Route selection (BSOR's CDG exploration plus
    /// Dijkstra) does most of the work; there is no LP and no engine.
    Apps,
    /// Keys whose route selection is a linear program: the
    /// Applegate-Cohen LP (`ac-oblivious`) and BSOR's MILP. The `lp`
    /// crate does nearly all the work here and almost none elsewhere.
    Lp,
    /// A few plans with 10^4 to 10^5 flows: per-flow route storage,
    /// validation, certification, tables and link demands dominate,
    /// and selection is trivial.
    Scale,
}

/// One plan request.
struct Key {
    topology: &'static str,
    workload: String,
    vcs: u8,
    algorithm: &'static str,
    compact: bool,
}

impl Key {
    fn new(topology: &'static str, workload: &str, vcs: u8, algorithm: &'static str) -> Key {
        Key {
            topology,
            workload: workload.to_owned(),
            vcs,
            algorithm,
            compact: false,
        }
    }

    fn label(&self) -> String {
        let compact = if self.compact { "/compact" } else { "" };
        format!(
            "{}/{}/{}/vc{}{compact}",
            self.topology, self.workload, self.algorithm, self.vcs
        )
    }
}

/// The seven algorithms of `plan-apps`.
const APP_ALGORITHMS: [&str; 7] = [
    "xy",
    "yx",
    "romm",
    "valiant",
    "o1turn",
    "random-walk",
    "bsor-dijkstra",
];

fn keys(suite: Suite, seed: u64, quick: bool) -> Vec<Key> {
    let perm = format!("rand-perm:{seed}");
    match (suite, quick) {
        (Suite::Apps, false) => {
            let apps = [
                "transpose",
                "bit-complement",
                "shuffle",
                "h264",
                "perf-model",
                "wifi",
                "tornado",
                "bit-reversal",
                "neighbor",
                "hotspot:4",
                &perm,
            ];
            apps.iter()
                .flat_map(|app| APP_ALGORITHMS.map(|a| Key::new("mesh:8x8", app, 2, a)))
                .collect()
        }
        (Suite::Apps, true) => ["transpose", "h264", &perm]
            .iter()
            .flat_map(|app| APP_ALGORITHMS.map(|a| Key::new("mesh:4x4", app, 2, a)))
            .collect(),
        (Suite::Lp, false) => {
            // Dense-tableau LPs of about 0.2 s each: larger ones (the
            // 5-node WAN sample takes 3 s) swing with cache pressure
            // from other tenants of a shared machine.
            let mut keys = vec![
                Key::new("ring:7x1", "neighbor", 1, "ac-oblivious"),
                Key::new("fullmesh:4", "uniform-random", 1, "ac-oblivious"),
            ];
            // The paper's applications that fit 16 nodes (wifi needs 17).
            for app in [
                "transpose",
                "bit-complement",
                "shuffle",
                "h264",
                "perf-model",
            ] {
                keys.push(Key::new("mesh:4x4", app, 2, "bsor-milp"));
            }
            keys
        }
        (Suite::Lp, true) => vec![
            Key::new("ring:4x1", "uniform-random", 1, "ac-oblivious"),
            Key::new("mesh:4x4", "transpose", 2, "bsor-milp"),
        ],
        (Suite::Scale, quick) => {
            let (big, mid, huge) = if quick {
                ("mesh:8x8", "mesh:6x6", "mesh:16x16")
            } else {
                ("mesh:20x20", "mesh:16x16", "mesh:64x64")
            };
            vec![
                Key::new(big, "uniform-random", 2, "xy"),
                Key {
                    compact: true,
                    ..Key::new(big, "uniform-random", 2, "xy")
                },
                Key::new(mid, "uniform-random", 2, "yx"),
                Key::new(mid, "uniform-random", 2, "romm"),
                Key::new(huge, "tornado", 2, "xy"),
            ]
        }
    }
}

/// Built once per set-up: registries and one scenario per distinct
/// (topology, workload, VCs).
struct State {
    regs: SweepRegistries,
    scenarios: Vec<Scenario>,
    scenario_of: Vec<usize>,
}

fn setup(tr: &mut Tracer, keys: &[Key], seed: u64) -> Result<State, String> {
    tr.span("setup", |tr| {
        let regs = seeded_registries(seed);
        let mut built: Vec<(&str, &str, u8)> = Vec::new();
        let mut scenarios = Vec::new();
        let mut scenario_of = Vec::new();
        for key in keys {
            let id = (key.topology, key.workload.as_str(), key.vcs);
            let index = match built.iter().position(|b| *b == id) {
                Some(i) => i,
                None => {
                    scenarios.push(build_scenario(
                        tr,
                        &regs,
                        key.topology,
                        &key.workload,
                        key.vcs,
                    )?);
                    built.push(id);
                    built.len() - 1
                }
            };
            scenario_of.push(index);
        }
        Ok(State {
            regs,
            scenarios,
            scenario_of,
        })
    })
}

/// What the first untraced pass over the keys found, per key.
struct FirstVisit {
    fingerprint: Fingerprint,
    mcl: f64,
    check_report: Option<SimReport>,
}

pub fn run(run: &mut Run, suite: Suite) -> Result<Outcome, String> {
    let keys = keys(suite, run.seed, run.quick);
    let mut tr = run.tracer();
    let mut timings = Timings::default();
    let state = run.repeat_setup(&mut timings.setup_s, || setup(&mut tr, &keys, run.seed))?;

    let window = Duration::from_secs_f64(run.seconds);
    // The traced run spends the first half untraced, to measure the
    // tracing overhead against the same operations.
    let untraced_window = if run.trace { window / 2 } else { window };
    let started = Instant::now();
    let mut first: Vec<Option<FirstVisit>> = (0..keys.len()).map(|_| None).collect();
    timings.per_key_ms = vec![Vec::new(); keys.len()];
    let mut traced_ms: Vec<Vec<f64>> = vec![Vec::new(); keys.len()];
    let (mut untraced_rounds, mut traced_rounds) = (0usize, 0usize);
    let mut plan_counts = PlanCounts::default();
    let mut engine_counts = EngineCounts::default();
    let mut op_id = 0;
    loop {
        let traced = run.trace && untraced_rounds > 0 && started.elapsed() >= untraced_window;
        let first_traced_round = traced && traced_rounds == 0;
        for (k, key) in keys.iter().enumerate() {
            op_id += 1;
            tr.set_op(op_id);
            let scenario = &state.scenarios[state.scenario_of[k]];
            let algorithm = state
                .regs
                .algorithms
                .get(key.algorithm)
                .expect("key algorithms are registered");
            let family = family_of(key.algorithm);
            if traced {
                let t = Instant::now();
                let staged = staged_plan(&mut tr, scenario, algorithm, family, key.compact);
                traced_ms[k].push(t.elapsed().as_secs_f64() * 1e3);
                let staged = match staged {
                    Ok(staged) => staged,
                    Err(e) => {
                        run.check(false, || format!("{}: {e}", key.label()));
                        continue;
                    }
                };
                let expected = first[k].as_ref().map(|f| f.fingerprint);
                run.check(Some(staged.fingerprint()) == expected, || {
                    format!("{}: staged plan differs from Planner::plan", key.label())
                });
                if first_traced_round {
                    // The stage-by-stage outputs must be the library's,
                    // field for field; and the engine stages must give
                    // the report the untraced check simulation got.
                    let planned = Planner::new()
                        .with_compact_tables(key.compact)
                        .plan(scenario, algorithm);
                    let same = planned.as_ref().is_ok_and(|p| staged.matches(p));
                    run.check(same, || {
                        format!("{}: staged plan != Planner::plan", key.label())
                    });
                    let expected = first[k].as_ref().and_then(|f| f.check_report.as_ref());
                    if let (Ok(plan), Some(expected)) = (&planned, expected) {
                        let report = staged_sim(&mut tr, plan, &check_point(run.seed));
                        run.check(report.as_ref() == Ok(expected), || {
                            format!("{}: staged simulation differs", key.label())
                        });
                    }
                }
                continue;
            }
            let t = Instant::now();
            let planned = Planner::new()
                .with_compact_tables(key.compact)
                .plan(scenario, algorithm);
            timings.per_key_ms[k].push(t.elapsed().as_secs_f64() * 1e3);
            let plan = match planned {
                Ok(plan) => plan,
                Err(e) => {
                    run.check(false, || format!("{}: {e}", key.label()));
                    continue;
                }
            };
            let fingerprint = Fingerprint::of_plan(&plan);
            let certified = plan.certificate().verify(plan.routes());
            match &first[k] {
                Some(f) => run.check(certified && f.fingerprint == fingerprint, || {
                    format!("{}: plan changed between rounds", key.label())
                }),
                None => {
                    run.check(certified, || {
                        format!("{}: certificate does not verify", key.label())
                    });
                    count_plan(&mut plan_counts, &plan);
                    let check_report = if plan.flows().len() <= CHECK_SIM_MAX_FLOWS {
                        let report = simulate(&plan, &check_point(run.seed));
                        run.check(report.as_ref().is_ok_and(report_ok), || {
                            format!("{}: check simulation deadlocked or failed", key.label())
                        });
                        report.ok()
                    } else {
                        None
                    };
                    if let Some(r) = &check_report {
                        count_report(&mut engine_counts, r);
                    }
                    first[k] = Some(FirstVisit {
                        fingerprint,
                        mcl: plan.predicted_mcl(),
                        check_report,
                    });
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

    // The paper's headline, wherever the run planned it.
    for (algorithm, expected) in [("bsor-dijkstra", 75.0), ("xy", 175.0)] {
        let found = keys.iter().zip(&first).find(|(k, _)| {
            k.topology == "mesh:8x8" && k.workload == "transpose" && k.algorithm == algorithm
        });
        if let Some((_, visit)) = found {
            let mcl = visit.as_ref().map(|v| v.mcl);
            run.check(mcl == Some(expected), || {
                format!("8x8 transpose {algorithm}: MCL {mcl:?}, expected {expected}")
            });
        }
    }

    let mut digest = Digest::default();
    for (key, visit) in keys.iter().zip(&first) {
        digest.str(&key.label());
        if let Some(v) = visit {
            digest.u64(v.fingerprint.id());
            digest.f64(v.mcl);
            if let Some(r) = &v.check_report {
                digest.report(r);
            }
        }
    }

    let mut detail = Vec::new();
    let metrics = if run.trace {
        let selfs = self_times(tr.spans());
        for family in FAMILIES {
            let ns = selfs.get(select_span(family)).copied().unwrap_or(0) as f64;
            detail.push(Metric::new(
                format!("select.{family}_ms"),
                ns / 1e6 / traced_rounds as f64,
                "ms",
                traced_rounds,
            ));
        }
        per_layer(&LayerInputs {
            spans: tr.spans(),
            setup_passes: 1.0,
            plan_passes: traced_rounds as f64,
            sim_passes: 1.0,
            plan: plan_counts,
            engine: engine_counts,
            cache: CacheStats::default(),
            overhead_frac: overhead(&traced_ms, &timings.per_key_ms),
        })
    } else {
        detail.extend(latency_summary("op.each", &timings.per_key_ms.concat()));
        for family in FAMILIES {
            let ms: Vec<f64> = keys
                .iter()
                .zip(&timings.per_key_ms)
                .filter(|(key, _)| family_of(key.algorithm) == family)
                .flat_map(|(_, ms)| ms.iter().copied())
                .collect();
            detail.extend(latency_summary(&format!("plan.{family}"), &ms));
        }
        end_to_end(&timings)
    };
    let params = Json::object(vec![
        (
            "keys",
            Json::from(keys.iter().map(Key::label).collect::<Vec<_>>()),
        ),
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
