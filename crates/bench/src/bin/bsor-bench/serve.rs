//! The `serve-mixed` workload: two closed-loop clients against one
//! in-process `bsor-serve` plan service.
//!
//! Each client sends its next request only after the previous answer
//! arrived. Requests are drawn from the seed: mostly cached `plan`
//! lookups over a Zipf-popular key set, plus static and simulated
//! `evaluate`s, malformed lines and `stats`. Link failures arrive on a
//! clock instead, as they would in a network: an `invalidate` of a
//! seeded random mesh link every [`INVALIDATION_PERIOD`]. Each evicts
//! the plans that route over the link and forces their re-solve, so
//! writes mix with the lookups.
//!
//! The failure rate is synthetic: no measured link-failure rate is
//! behind it. It is low enough that lookups, not re-solves, set the
//! throughput. (As a share of requests, 0.5% invalidations made the
//! service re-solve-bound, its throughput set by which links the seed
//! picked.)

use crate::digest::{response_hash, Digest};
use crate::env::peak_rss_mb;
use crate::pipeline::{
    build_scenario, count_plan, count_report, report_ok, staged_plan, staged_sim,
};
use crate::report::{
    cache_delta, end_to_end, family_of, latency_summary, per_layer, EngineCounts, LayerInputs,
    Metric, PlanCounts, Run, Timings,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use bsor_bench::json::Json;
use bsor_bench::serve::{PlanService, ServeConfig};
use bsor_bench::sweep::SweepRegistries;
use bsor_sim::{EvalPoint, SimConfig, SimEvaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Closed-loop client threads (the benchmark box has two cores).
const CLIENTS: u64 = 2;

/// Zipf(s) over ranks `0..n`: cumulative weights walked with one
/// uniform draw (the sampler `bsor-serve-bench` uses).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty key set");
        let draw = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= draw)
    }
}

/// What a request does, which names its span and its latency group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Plan,
    EvaluateStatic,
    EvaluateSim,
    Invalidate,
    Error,
    Stats,
}

impl Kind {
    const ALL: [Kind; 6] = [
        Kind::Plan,
        Kind::EvaluateStatic,
        Kind::EvaluateSim,
        Kind::Invalidate,
        Kind::Error,
        Kind::Stats,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Plan => "plan",
            Kind::EvaluateStatic => "evaluate-static",
            Kind::EvaluateSim => "evaluate-sim",
            Kind::Invalidate => "invalidate",
            Kind::Error => "error",
            Kind::Stats => "stats",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Plan => "serve.plan",
            Kind::EvaluateStatic => "serve.evaluate-static",
            Kind::EvaluateSim => "serve.evaluate-sim",
            Kind::Invalidate => "serve.invalidate",
            Kind::Error => "serve.error",
            Kind::Stats => "serve.stats",
        }
    }

    /// Whether equal requests must get byte-equal answers (apart from
    /// `elapsed_ms`): everything but the cache-state reports.
    fn deterministic(self) -> bool {
        !matches!(self, Kind::Invalidate | Kind::Stats)
    }
}

/// One request line and the answer it must get.
pub struct Line {
    pub text: String,
    pub kind: Kind,
    /// `None`: `"ok":true`; `Some(code)`: that typed error code.
    pub code: Option<&'static str>,
}

impl Line {
    fn answered(&self, response: &str) -> bool {
        match self.code {
            None => response.contains(r#""ok":true"#),
            Some(code) => response.contains(&format!(r#""code":"{code}""#)),
        }
    }
}

/// One plannable key of the service.
struct ServeKey {
    width: u16,
    height: u16,
    workload: &'static str,
    algorithm: &'static str,
}

impl ServeKey {
    fn fields(&self) -> String {
        format!(
            r#""topology":"mesh","width":{},"height":{},"workload":"{}","algorithm":"{}","vcs":2"#,
            self.width, self.height, self.workload, self.algorithm
        )
    }
}

/// `bsor-serve-bench`'s 27-key universe plus three 16x16 keys, most
/// popular first.
fn serve_keys(quick: bool) -> Vec<ServeKey> {
    let (workloads, algorithms, side): (&[&'static str], &[&'static str], u16) = if quick {
        (
            &["transpose", "shuffle", "neighbor"],
            &["xy", "yx", "bsor-dijkstra"],
            4,
        )
    } else {
        (
            &[
                "transpose",
                "bit-complement",
                "shuffle",
                "tornado",
                "bit-reversal",
                "neighbor",
                "hotspot:4",
                "rand-perm:7",
                "rand-perm:4242",
            ],
            &["xy", "yx", "bsor-dijkstra"],
            8,
        )
    };
    let mut keys: Vec<ServeKey> = workloads
        .iter()
        .flat_map(|&workload| {
            algorithms.iter().map(move |&algorithm| ServeKey {
                width: side,
                height: side,
                workload,
                algorithm,
            })
        })
        .collect();
    let big: &[&'static str] = if quick {
        &["transpose"]
    } else {
        &["transpose", "tornado", "hotspot:4"]
    };
    for &workload in big {
        keys.push(ServeKey {
            width: side * 2,
            height: side * 2,
            workload,
            algorithm: "xy",
        });
    }
    keys
}

/// The request lines and the seeded draw over them.
pub struct Mix {
    pub lines: Vec<Line>,
    zipf: Zipf,
    keys: usize,
    /// Index of the first invalidate line; they run to the end.
    invalidates: usize,
}

/// Simulated evaluations are kept short: the sim backend is 3% of the
/// requests, and a long run would swamp the lookups.
const SIM_WINDOW: (u64, u64) = (200, 2_000);
const QUICK_SIM_WINDOW: (u64, u64) = (50, 200);
const EVAL_RATE: f64 = 0.2;

impl Mix {
    fn new(keys: &[ServeKey], quick: bool) -> Mix {
        let (warmup, measurement) = if quick { QUICK_SIM_WINDOW } else { SIM_WINDOW };
        let mut lines = Vec::new();
        for key in keys {
            lines.push(Line {
                text: format!(r#"{{"op":"plan",{}}}"#, key.fields()),
                kind: Kind::Plan,
                code: None,
            });
        }
        for key in keys {
            lines.push(Line {
                text: format!(
                    r#"{{"op":"evaluate",{},"rate":{EVAL_RATE},"backend":"static"}}"#,
                    key.fields()
                ),
                kind: Kind::EvaluateStatic,
                code: None,
            });
        }
        for key in keys {
            lines.push(Line {
                text: format!(
                    r#"{{"op":"evaluate",{},"rate":{EVAL_RATE},"backend":"sim","warmup":{warmup},"measurement":{measurement}}}"#,
                    key.fields()
                ),
                kind: Kind::EvaluateSim,
                code: None,
            });
        }
        lines.push(Line {
            text: r#"{"op":"plan","workload":"no-such-workload","algorithm":"xy"}"#.to_owned(),
            kind: Kind::Error,
            code: Some("unknown-workload"),
        });
        lines.push(Line {
            text: r#"{"op":"plan","#.to_owned(),
            kind: Kind::Error,
            code: Some("bad-json"),
        });
        lines.push(Line {
            text: r#"{"op":"stats"}"#.to_owned(),
            kind: Kind::Stats,
            code: None,
        });
        let invalidates = lines.len();
        // Every undirected link of the most popular keys' mesh.
        let side = u32::from(keys[0].width);
        for node in 0..side * side {
            let (x, y) = (node % side, node / side);
            for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                if nx < side && ny < side {
                    lines.push(Line {
                        text: format!(
                            r#"{{"op":"invalidate","links":[[{node},{}]]}}"#,
                            ny * side + nx
                        ),
                        kind: Kind::Invalidate,
                        code: None,
                    });
                }
            }
        }
        Mix {
            lines,
            zipf: Zipf::new(keys.len(), 1.1),
            keys: keys.len(),
            invalidates,
        }
    }

    /// The next request: 88.5% plan, 6% static and 3% simulated
    /// evaluate (Zipf-popular keys), 1% unknown workload, 1% bad JSON,
    /// 0.5% stats.
    pub fn next(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let key = self.zipf.sample(rng);
        let errors = 3 * self.keys;
        match u {
            u if u < 0.885 => key,
            u if u < 0.945 => self.keys + key,
            u if u < 0.975 => 2 * self.keys + key,
            u if u < 0.985 => errors,
            u if u < 0.995 => errors + 1,
            _ => errors + 2,
        }
    }

    /// The invalidations that fall due in `window`, one every `period`
    /// starting half a period in, each of a uniformly drawn link, as
    /// `(due time, line)`.
    fn invalidation_schedule(
        &self,
        seed: u64,
        period: Duration,
        window: Duration,
    ) -> Vec<(Duration, usize)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1bad_11c5);
        let links = self.invalidates..self.lines.len();
        (0u32..)
            .map(|j| period.mul_f64(f64::from(j) + 0.5))
            .take_while(|&due| due < window)
            .map(|due| (due, rng.gen_range(links.clone())))
            .collect()
    }
}

/// One link failure this often (synthetic; see the module comment).
const INVALIDATION_PERIOD: Duration = Duration::from_secs(2);
/// `--quick` windows are a fraction of a second: fail a link more
/// often, so they still see some.
const QUICK_INVALIDATION_PERIOD: Duration = Duration::from_millis(50);

/// One request's latency. Kept small and stored without regrowing:
/// a window holds hundreds of thousands, and a sample store that grew
/// with throughput would show in `peak_rss_mb` as the service's memory.
#[derive(Clone, Copy, Debug)]
struct Sample {
    kind: Kind,
    traced: bool,
    /// The time slice of the window the request was sent in.
    slice: u8,
    ms: f32,
}

/// Requests per second one client's sample store has room for before
/// it regrows (about 25 times the rate on the benchmark box; pages are
/// touched only as samples arrive).
const SAMPLE_ROOM_PER_S: f64 = 100_000.0;

/// The window is read in tenths; with one link failure every two
/// seconds, each tenth of the default 20-second window holds one.
const SLICES: usize = 10;

/// What one client saw.
struct ClientLog {
    samples: Vec<Sample>,
    /// First answer hash per deterministic line.
    hashes: HashMap<usize, u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    tracer: Tracer,
}

/// How one client runs: its draws, the invalidations it sends when
/// they fall due, and when tracing starts.
struct ClientPlan {
    rng: StdRng,
    invalidations: Vec<(Duration, usize)>,
    tracer: Tracer,
    traced_from: Option<Duration>,
}

fn client(
    service: &PlanService,
    mix: &Mix,
    plan: ClientPlan,
    started: Instant,
    window: Duration,
) -> ClientLog {
    let ClientPlan {
        mut rng,
        invalidations,
        mut tracer,
        traced_from,
    } = plan;
    let mut due = invalidations.into_iter().peekable();
    let mut log = ClientLog {
        samples: Vec::with_capacity((window.as_secs_f64() * SAMPLE_ROOM_PER_S) as usize),
        hashes: HashMap::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        tracer: Tracer::new(false, started),
    };
    let mut op = 0;
    loop {
        let now = started.elapsed();
        if now >= window {
            break;
        }
        let index = match due.next_if(|&(at, _)| at <= now) {
            Some((_, index)) => index,
            None => mix.next(&mut rng),
        };
        let line = &mix.lines[index];
        let traced = traced_from.is_some_and(|t| now >= t);
        op += 1;
        tracer.set_op(op);
        let t = Instant::now();
        let response = if traced {
            tracer.span(line.kind.span(), |tr| {
                std::hint::black_box(tr.span("json.parse", |_| Json::parse(&line.text)).is_ok());
                service.handle_line(&line.text)
            })
        } else {
            service.handle_line(&line.text)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let slice = now.as_secs_f64() / window.as_secs_f64() * SLICES as f64;
        log.samples.push(Sample {
            kind: line.kind,
            traced,
            slice: (slice as usize).min(SLICES - 1) as u8,
            ms: ms as f32,
        });
        log.attempted += 1;
        let mut ok = line.answered(&response);
        if ok && line.kind.deterministic() {
            let hash = response_hash(&response);
            ok = *log.hashes.entry(index).or_insert(hash) == hash;
        }
        if !ok {
            log.failed += 1;
            if log.failures.len() < 20 {
                log.failures
                    .push(format!("request {} answered {response}", line.text));
            }
        }
    }
    log.tracer = tracer;
    log
}

/// A service with every key planned once (the cold fill).
fn setup(tr: &mut Tracer, keys: &[ServeKey], mix: &Mix) -> Result<PlanService, String> {
    tr.span("setup", |tr| {
        let service = PlanService::new(ServeConfig::default());
        for line in &mix.lines[..keys.len()] {
            let response = tr.span(Kind::Plan.span(), |_| service.handle_line(&line.text));
            if !line.answered(&response) {
                return Err(format!("cold fill {} answered {response}", line.text));
            }
        }
        Ok(service)
    })
}

pub fn run(run: &mut Run) -> Result<Outcome, String> {
    let keys = serve_keys(run.quick);
    let mix = Mix::new(&keys, run.quick);
    let mut tr = run.tracer();
    let mut timings = Timings::default();
    let service = run.repeat_setup(&mut timings.setup_s, || setup(&mut tr, &keys, &mix))?;

    let window = Duration::from_secs_f64(run.seconds);
    let period = if run.quick {
        QUICK_INVALIDATION_PERIOD
    } else {
        INVALIDATION_PERIOD
    };
    let before = service.cache().stats();
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let plan = ClientPlan {
                    rng: StdRng::seed_from_u64(
                        run.seed ^ (c + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    ),
                    invalidations: if c == 0 {
                        mix.invalidation_schedule(run.seed, period, window)
                    } else {
                        Vec::new()
                    },
                    tracer: Tracer::new(run.trace, started),
                    traced_from: run.trace.then_some(window / 2),
                };
                let (service, mix) = (&service, &mix);
                scope.spawn(move || client(service, mix, plan, started, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    timings.peak_rss_mb = peak_rss_mb();
    let cache = cache_delta(&before, &service.cache().stats());

    // Both clients must have seen the same answer to the same line.
    let mut hashes: HashMap<usize, u64> = HashMap::new();
    let mut samples = Vec::new();
    for log in logs {
        run.merge(log.attempted, log.failed, log.failures);
        for (&index, &hash) in &log.hashes {
            let seen = *hashes.entry(index).or_insert(hash);
            run.check(seen == hash, || {
                format!("clients disagree on {}", mix.lines[index].text)
            });
        }
        samples.extend(log.samples);
        tr.absorb(log.tracer);
    }

    // Probe every deterministic line once more, in a fixed order: the
    // digest covers answers, not how many requests the window held.
    let mut digest = Digest::default();
    let mut probe_answers = Vec::new();
    for (index, line) in mix.lines.iter().enumerate() {
        if !line.kind.deterministic() {
            continue;
        }
        let response = service.handle_line(&line.text);
        let hash = response_hash(&response);
        run.check(line.answered(&response), || {
            format!("probe {} answered {response}", line.text)
        });
        run.check(hashes.get(&index).is_none_or(|&h| h == hash), || {
            format!("probe {} changed its answer", line.text)
        });
        digest.str(&line.text);
        digest.u64(hash);
        probe_answers.push(response);
    }
    for (algorithm, expected) in [("bsor-dijkstra", 75.0), ("xy", 175.0)] {
        let found = keys
            .iter()
            .position(|k| (k.width, k.workload, k.algorithm) == (8, "transpose", algorithm));
        if let Some(i) = found {
            let mcl = Json::parse(&probe_answers[i])
                .ok()
                .and_then(|r| r.get("result")?.get("predicted_mcl")?.as_f64());
            run.check(mcl == Some(expected), || {
                format!("8x8 transpose {algorithm}: MCL {mcl:?}, expected {expected}")
            });
        }
    }

    let mut plan_counts = PlanCounts::default();
    let mut engine_counts = EngineCounts::default();
    if run.trace {
        // From outside: rebuild each key's scenario, plan it stage by
        // stage and simulate it stage by stage; the service's cached
        // plan and sim answer must be exactly these.
        let regs = SweepRegistries::standard();
        let (warmup, measurement) = if run.quick {
            QUICK_SIM_WINDOW
        } else {
            SIM_WINDOW
        };
        for (i, key) in keys.iter().enumerate() {
            let spec = format!("mesh:{}x{}", key.width, key.height);
            let scenario = build_scenario(&mut tr, &regs, &spec, key.workload, 2)?;
            let algorithm = regs
                .algorithms
                .get(key.algorithm)
                .expect("serve algorithms are registered");
            let staged = staged_plan(
                &mut tr,
                &scenario,
                algorithm,
                family_of(key.algorithm),
                false,
            )?;
            let plan = service
                .planner()
                .plan(&scenario, algorithm)
                .map_err(|e| e.to_string())?;
            run.check(staged.matches(&plan), || {
                format!("{}: staged plan != served plan", mix.lines[i].text)
            });
            count_plan(&mut plan_counts, &plan);
            let config = SimConfig::new(2)
                .with_warmup(warmup)
                .with_measurement(measurement);
            let point = EvalPoint::new(EVAL_RATE, config);
            let report = staged_sim(&mut tr, &plan, &point)?;
            let library = SimEvaluator::new().simulate(&plan, &point).map(|(r, _)| r);
            let sim_answer = Json::parse(&probe_answers[2 * keys.len() + i]).ok();
            let answered = |field: &str| {
                sim_answer
                    .as_ref()
                    .and_then(|r| r.get("result")?.get(field)?.as_u64())
            };
            run.check(
                report_ok(&report)
                    && library.as_ref() == Ok(&report)
                    && answered("generated") == Some(report.generated_packets)
                    && answered("delivered") == Some(report.delivered_packets)
                    && answered("cycles") == Some(report.cycles),
                || {
                    format!(
                        "{}: staged simulation differs",
                        mix.lines[2 * keys.len() + i].text
                    )
                },
            );
            count_report(&mut engine_counts, &report);
        }
    }

    let ms_of = |traced: bool, kind: Option<Kind>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced && kind.is_none_or(|k| s.kind == k))
            .map(|s| f64::from(s.ms))
            .collect()
    };
    let mut detail = Vec::new();
    let metrics = if run.trace {
        let overhead = median(&ms_of(true, None)) / median(&ms_of(false, None)) - 1.0;
        let parses = tr.spans().iter().filter(|s| s.name == "json.parse").count();
        let parse_ns = crate::trace::self_times(tr.spans())
            .get("json.parse")
            .copied()
            .unwrap_or(0);
        detail.push(Metric::new(
            "json.parse_us",
            parse_ns as f64 / 1e3 / parses.max(1) as f64,
            "us",
            parses,
        ));
        for kind in Kind::ALL {
            detail.extend(latency_summary(
                &format!("serve.{}", kind.name()),
                &ms_of(true, Some(kind)),
            ));
        }
        per_layer(&LayerInputs {
            spans: tr.spans(),
            setup_passes: 1.0,
            plan_passes: 1.0,
            sim_passes: 1.0,
            plan: plan_counts,
            engine: engine_counts,
            cache,
            overhead_frac: overhead,
        })
    } else {
        timings.slice_s = window.as_secs_f64() / SLICES as f64;
        timings.per_slice_ms = (0..SLICES)
            .map(|slice| {
                samples
                    .iter()
                    .filter(|s| usize::from(s.slice) == slice)
                    .map(|s| f64::from(s.ms))
                    .collect()
            })
            .collect();
        detail.extend(latency_summary("op.each", &ms_of(false, None)));
        for kind in Kind::ALL {
            detail.extend(latency_summary(
                &format!("serve.{}", kind.name()),
                &ms_of(false, Some(kind)),
            ));
        }
        let lookups = cache.hits + cache.misses + cache.dedup_waits;
        detail.push(Metric::new(
            "cache.hit_rate",
            cache.hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups as usize,
        ));
        end_to_end(&timings)
    };
    let params = Json::object(vec![
        ("keys", Json::from(keys.len())),
        ("clients", Json::from(CLIENTS)),
        ("zipf_s", Json::from(1.1)),
        ("requests", Json::from(samples.len())),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_reproduces_from_the_seed_and_favours_low_ranks() {
        let zipf = Zipf::new(30, 1.1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(46347), draw(46347));
        assert_ne!(draw(46347), draw(46348));
        let ranks = draw(1);
        assert!(ranks.iter().all(|&r| r < 30));
        let top = ranks.iter().filter(|&&r| r == 0).count();
        let last = ranks.iter().filter(|&&r| r == 29).count();
        assert!(top > 5 * last, "rank 0 drawn {top}x, rank 29 {last}x");
    }

    #[test]
    fn request_mix_reproduces_from_the_seed_in_its_proportions() {
        let keys = serve_keys(false);
        let mix = Mix::new(&keys, false);
        assert_eq!(keys.len(), 30);
        // 30 keys x 3 request shapes, 2 malformed, stats, 112 links.
        assert_eq!(mix.lines.len(), 90 + 3 + 112);
        let n = 100_000;
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n).map(|_| mix.next(&mut rng)).collect::<Vec<_>>()
        };
        let requests = draw(46347);
        assert_eq!(requests, draw(46347));
        assert_ne!(requests, draw(46348));
        let share = |kind: Kind| {
            requests
                .iter()
                .filter(|&&i| mix.lines[i].kind == kind)
                .count() as f64
                / n as f64
        };
        for (kind, expected) in [
            (Kind::Plan, 0.885),
            (Kind::EvaluateStatic, 0.06),
            (Kind::EvaluateSim, 0.03),
            (Kind::Error, 0.02),
            (Kind::Stats, 0.005),
            (Kind::Invalidate, 0.0),
        ] {
            // Within four standard deviations of the binomial share.
            let sigma = (expected * (1.0 - expected) / n as f64).sqrt();
            let got = share(kind);
            assert!(
                (got - expected).abs() <= 4.0 * sigma,
                "{kind:?}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn invalidations_fall_due_at_a_fixed_rate_on_seeded_links() {
        let mix = Mix::new(&serve_keys(false), false);
        let schedule = |seed, window| mix.invalidation_schedule(seed, INVALIDATION_PERIOD, window);
        let window = Duration::from_secs(20);
        let ten = schedule(46347, window);
        assert_eq!(ten, schedule(46347, window));
        assert_ne!(ten, schedule(46348, window));
        assert_eq!(ten.len(), 10);
        assert_eq!(ten[0].0, Duration::from_secs(1));
        assert_eq!(ten[9].0, Duration::from_secs(19));
        assert!(ten
            .iter()
            .all(|&(_, line)| mix.lines[line].kind == Kind::Invalidate));
        // The rate does not depend on the window: a longer one extends
        // the same schedule.
        let twenty = schedule(46347, 2 * window);
        assert_eq!(twenty.len(), 20);
        assert_eq!(twenty[..10], ten[..]);
    }
}
