//! `bsor-bench` — the repository benchmark.
//!
//! Five workloads, each measured in a process of its own:
//!
//! * `plan-apps`  — cold plans on the paper's 8x8 substrate (selection);
//! * `plan-lp`    — cold plans whose selection is an LP;
//! * `plan-scale` — a few plans with 10^4–10^5 flows (per-flow stages);
//! * `sim-noc`    — the cycle-accurate engine on pre-built plans;
//! * `serve-mixed`— two closed-loop clients against the plan service.
//!
//! ```text
//! bsor-bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!            [--trace-out FILE] [--out FILE] [--quick]
//! ```
//!
//! Without `--workload` every workload runs in a fresh child process of
//! this binary, one after another. Each prints its metrics as
//! `workload metric value unit (n=samples)`, a `record` line (the JSON
//! record also written by `--out`), and last a result line
//! `{"correct", "attempted", "failed", "metrics"}`. The untraced run
//! reports end-to-end metrics; `--trace 1` reruns the workload calling
//! each layer inside a span and reports per-layer self times instead
//! (`--trace-out` writes the spans). Any failed output check makes the
//! exit code non-zero. See README.md beside this file.

mod digest;
mod env;
mod pipeline;
mod plan;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use bsor_bench::json::Json;
use report::{metrics_json, stats_json, Metric, Run};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

/// The workloads, in the order a full run takes them.
const WORKLOADS: [&str; 5] = [
    "plan-apps",
    "plan-lp",
    "plan-scale",
    "sim-noc",
    "serve-mixed",
];

/// Output digests of every workload at the reference seed.
const EXPECTED: &str = include_str!("expected.json");

const DEFAULT_SEED: u64 = 46347;
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 0.2;

/// What a workload run hands back.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific detail, kept in the record only.
    pub detail: Vec<Metric>,
    pub params: Json,
    /// Digest of the run's deterministic outputs.
    pub digest: u64,
    pub tracer: Tracer,
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: if quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        },
        trace: false,
        trace_out: None,
        out: None,
        quick,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => {}
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                options.workload = Some(name);
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                let raw = value("--seconds")?;
                options.seconds = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds '{raw}' (0 < seconds <= 3600)"))?;
            }
            "--trace" => {
                let explicit = it.peek().and_then(|v| match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                });
                options.trace = explicit.unwrap_or(true);
                if explicit.is_some() {
                    it.next();
                }
            }
            "--trace-out" => options.trace_out = Some(value("--trace-out")?),
            "--out" => options.out = Some(value("--out")?),
            "--help" | "-h" => {
                println!("bsor-bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]");
                println!("           [--trace-out FILE] [--out FILE] [--quick]");
                println!("workloads: {}", WORKLOADS.join(", "));
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("bsor-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match &options.workload {
        Some(name) => run_workload(&options, name),
        None => run_all(&options),
    }
}

/// The digest `expected.json` holds for this workload and seed, if any.
fn expected_digest(workload: &str, seed: u64, quick: bool) -> Option<u64> {
    let expected = Json::parse(EXPECTED).expect("expected.json is valid JSON");
    if expected.get("seed")?.as_u64()? != seed {
        return None;
    }
    let table = if quick { "quick_digests" } else { "digests" };
    let hex = expected.get(table)?.get(workload)?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// Runs one workload in this process and checks its outputs: the run's
/// tally of checks, and the workload's outcome.
fn measure(options: &Options, name: &str) -> Result<(Run, Outcome), String> {
    let mut run = Run::new(options.seed, options.seconds, options.trace, options.quick);
    let outcome = match name {
        "plan-apps" => plan::run(&mut run, plan::Suite::Apps),
        "plan-lp" => plan::run(&mut run, plan::Suite::Lp),
        "plan-scale" => plan::run(&mut run, plan::Suite::Scale),
        "sim-noc" => sim::run(&mut run),
        _ => serve::run(&mut run),
    }?;
    if let Some(expected) = expected_digest(name, options.seed, options.quick) {
        run.check(outcome.digest == expected, || {
            format!(
                "output digest {:016x}, expected {expected:016x}",
                outcome.digest
            )
        });
    }
    for m in &outcome.metrics {
        run.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    Ok((run, outcome))
}

/// Runs one workload in this process and prints its result.
fn run_workload(options: &Options, name: &str) -> ExitCode {
    let (run, outcome) = match measure(options, name) {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("bsor-bench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let detail = outcome
        .detail
        .iter()
        .filter(|d| outcome.metrics.iter().all(|m| m.name != d.name));
    let all: Vec<Metric> = outcome.metrics.iter().chain(detail).cloned().collect();
    for m in &all {
        println!("{name} {} {} {} (n={})", m.name, m.value, m.unit, m.n);
    }
    let mut params = vec![
        ("seed", Json::from(options.seed)),
        ("seconds", Json::from(options.seconds)),
        ("trace", Json::from(options.trace)),
        ("quick", Json::from(options.quick)),
    ];
    if let Json::Object(pairs) = &outcome.params {
        params.extend(pairs.iter().map(|(k, v)| (k.as_str(), v.clone())));
    }
    let record = Json::object(vec![
        (
            "layer",
            Json::from(if options.trace {
                "per-layer"
            } else {
                "end-to-end"
            }),
        ),
        ("case", Json::from(name)),
        ("params", Json::object(params)),
        (
            "samples",
            Json::object(vec![
                ("attempted", Json::from(run.attempted())),
                ("failed", Json::from(run.failed())),
            ]),
        ),
        ("stats", stats_json(&all)),
        ("digest", Json::from(format!("{:016x}", outcome.digest))),
        ("failures", Json::from(run.failures().to_vec())),
        ("environment", env::environment(options.seed)),
    ]);
    println!("record {}", record.compact());
    let mut wrote = true;
    if let Some(path) = &options.out {
        wrote &= write(path, &record.pretty());
    }
    if let Some(path) = &options.trace_out {
        wrote &= write(path, &trace::to_json(outcome.tracer.spans()).compact());
    }
    let result = Json::object(vec![
        ("correct", Json::from(run.failed() == 0)),
        ("attempted", Json::from(run.attempted())),
        ("failed", Json::from(run.failed())),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    println!("{}", result.compact());
    if run.failed() == 0 && wrote {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write(path: &str, text: &str) -> bool {
    match std::fs::write(path, text) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("bsor-bench: cannot write {path}: {e}");
            false
        }
    }
}

/// Runs every workload in a child process of this binary, one at a
/// time, and gathers their records.
fn run_all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bsor-bench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if options.quick {
            cmd.arg("--quick");
        }
        if let Some(path) = &options.trace_out {
            let stem = path.strip_suffix(".json").unwrap_or(path);
            cmd.args(["--trace-out", &format!("{stem}-{name}.json")]);
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("bsor-bench: cannot run {name}: {e}");
                all_ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|l| Json::parse(l).ok());
        for line in lines {
            match line.strip_prefix("record ") {
                Some(record) => records.extend(Json::parse(record).ok()),
                None => println!("{line}"),
            }
        }
        let correct = result
            .as_ref()
            .and_then(|r| r.get("correct")?.as_bool())
            .unwrap_or(false);
        if !output.status.success() || !correct {
            eprintln!("bsor-bench: {name} failed ({})", output.status);
            all_ok = false;
        }
    }
    if let Some(path) = &options.out {
        all_ok &= write(path, &Json::array(records).pretty());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` lists in `section`.
    fn listed(section: &str) -> Vec<String> {
        let benchmark = include_str!("../../../../../BENCHMARK.json");
        let benchmark = Json::parse(benchmark).expect("BENCHMARK.json is valid JSON");
        let metrics = benchmark.get(section).and_then(Json::as_array);
        metrics
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    #[test]
    fn quick_run_of_every_workload_passes_its_checks_with_the_listed_metrics() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let listed = listed(section);
            for name in WORKLOADS {
                let options = parse_args(&[
                    "--quick".to_owned(),
                    "--workload".to_owned(),
                    name.to_owned(),
                    "--trace".to_owned(),
                    if trace { "1" } else { "0" }.to_owned(),
                ])
                .expect("valid options");
                let (run, outcome) = measure(&options, name).expect("workload runs");
                assert_eq!(run.failed(), 0, "{name}: {:?}", run.failures());
                let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(reported, listed, "{name}, trace {trace}");
            }
        }
    }

    #[test]
    fn options_reject_unknown_workloads_and_bad_windows() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "plan-nothing"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let options = parse(&["--seed", "7", "--seconds", "3", "--trace", "1"]).unwrap();
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (7, 3.0, true)
        );
    }
}
