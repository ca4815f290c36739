//! `bsor-sweep` — expand a declarative scenario grid (topology ×
//! workload × routing algorithm × VC count × injection rate), fan the
//! cases out across `std::thread::scope` workers, and write
//! deterministic, schema-stable JSON (`BENCH_sweep.json`) with
//! per-scenario latency/throughput/deadlock stats plus wall-clock
//! timings.
//!
//! Every axis is registry-backed: topologies, workloads and algorithms
//! are resolved by name through `TopologyRegistry`, `WorkloadRegistry`
//! and `AlgorithmRegistry`, and the `--list-*` flags print exactly what
//! those registries contain.
//!
//! ```text
//! cargo run -p bsor_bench --release --bin bsor-sweep -- [options]
//!
//!   --quick                 reduced CI smoke grid (2 workloads, 3 algos, 3 rates)
//!   --mesh WxH[,WxH...]     mesh sizes                     (default 8x8)
//!   --topo spec[,...]       topology axis entries: registry name plus grid
//!                           dims (mesh:8x8, torus:4x4, ring:8x1,
//!                           hypercube:4x2) or a family/file spec
//!                           (dragonfly:2,3,2 — commas inside an entry bind
//!                           to the family, fattree:4, fullmesh:8,
//!                           file:assets/topologies/wan5.topo)
//!   --workloads a,b|all     workload specs: registry names or parameterized
//!                           specs like hotspot:4 / rand-perm:42
//!                           (default: the paper's six; all = every exact name)
//!   --algos a,b|all         algorithm names                (default xy,yx,romm,valiant,bsor-dijkstra)
//!   --vcs 1,2,4             VC counts                      (default 2)
//!   --rates r1,r2,...       offered rates, packets/cycle   (default the figure grid)
//!   --warmup N              warmup cycles                  (default 2000)
//!   --measurement N         measured cycles                (default 10000)
//!   --packet-len N          flits per packet               (default 8)
//!   --seed N                injection RNG seed             (default 46347)
//!   --burst ON,OFF          on/off bursty injection with the given mean
//!                           dwell cycles (default: flat Bernoulli)
//!   --saturation            per-case saturation-point search (bisect the
//!                           rate to the latency knee)
//!   --sat-range LO,HI       saturation search rate bounds  (default 0.05,4;
//!                           both finite, 0 < LO < HI, or exit 1)
//!   --sat-iters N           bisection steps                (default 10)
//!   --compact-tables        compile router tables into the interval-
//!                           compressed representation (behaviorally
//!                           identical; per-case table_bytes shrinks)
//!   --max-links N           directed-link budget for ac-oblivious
//!                           (default: the selector's 16)
//!   --max-hops N            hop budget for bsor-dijkstra / bsor-milp /
//!                           random-walk; over-budget routes become typed
//!                           per-case errors
//!   --threads N             sweep worker threads           (default: available cores)
//!   --no-fast-forward       disable idle-cycle fast-forward (byte-identical
//!                           output; exists so CI can smoke both paths)
//!   --out PATH              output path                    (default BENCH_sweep.json)
//!   --no-timings            zero wall-clock fields (byte-identical reruns)
//!   --list                  print the expanded grid and exit
//!   --list-topologies       print topology names and family specs and exit
//!   --list-workloads        print workload names and family specs and exit
//!   --list-algorithms       print registered algorithm names and exit
//! ```
//!
//! Every case is planned once through the shared `Planner`/`PlanCache`
//! (route selection, Lemma-1 certificate, compiled node tables) and
//! every rate point and saturation probe evaluates that plan with the
//! `SimEvaluator`. Set `BSOR_PLAN_CACHE=off` to disable the cache and
//! re-solve per point — the cost of running the full pipeline once per
//! grid point; output is byte-identical either way. The
//! `route solves:` stderr line reports the solve / cache-hit counters.
//!
//! Exit codes: 0 on success, 1 on bad arguments or write failure, 2
//! when the sweep completed but one or more cases failed (the failures
//! are recorded in the JSON's per-case `error` fields).

use bsor::{AlgorithmRegistry, RegistryConfig};
use bsor_bench::sweep::{
    expand, plan_cache_enabled_from_env, run_grid_stats, sweep_json, GridSpec, SaturationSpec,
    SweepRegistries, TopoSpec,
};
use bsor_sim::BurstyOnOff;
use std::process::ExitCode;
use std::time::Instant;

fn parse_list<T, F: Fn(&str) -> Result<T, String>>(raw: &str, f: F) -> Result<Vec<T>, String> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| f(s.trim()))
        .collect()
}

fn parse_dims(s: &str) -> Result<(u16, u16), String> {
    let (w, h) = s
        .split_once('x')
        .ok_or_else(|| format!("dims '{s}' are not WxH"))?;
    let w = w.parse().map_err(|_| format!("bad width '{w}'"))?;
    let h = h.parse().map_err(|_| format!("bad height '{h}'"))?;
    if w == 0 || h == 0 {
        return Err(format!("dims '{s}' have a zero dimension"));
    }
    Ok((w, h))
}

fn parse_mesh(s: &str) -> Result<TopoSpec, String> {
    // Mesh-specific wording, with the precise constraint preserved
    // (zero dimension vs unparsable width vs missing 'x').
    let (w, h) = s
        .split_once('x')
        .ok_or_else(|| format!("mesh '{s}' is not WxH"))?;
    let w = w.parse().map_err(|_| format!("bad mesh width '{w}'"))?;
    let h = h.parse().map_err(|_| format!("bad mesh height '{h}'"))?;
    if w == 0 || h == 0 {
        return Err(format!("mesh '{s}' has a zero dimension"));
    }
    Ok(TopoSpec::mesh(w, h))
}

/// Splits a `--topo` list on commas, re-attaching purely numeric
/// segments to the previous entry so family arguments like
/// `dragonfly:2,3,2` survive the list syntax (a bare number is never a
/// valid entry on its own).
fn split_topo_list(raw: &str) -> Vec<String> {
    let mut entries: Vec<String> = Vec::new();
    for seg in raw.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match entries.last_mut() {
            Some(last) if !seg.is_empty() && seg.bytes().all(|b| b.is_ascii_digit()) => {
                last.push(',');
                last.push_str(seg);
            }
            _ => entries.push(seg.to_owned()),
        }
    }
    entries
}

/// One `--topo` entry: `name:WxH` (bare `WxH` means `mesh:WxH`), or a
/// registry family/file spec (`dragonfly:2,3,2`, `fattree:4`,
/// `fullmesh:8`, `file:<path>`). Family and file specs are resolved
/// eagerly so a malformed spec — unparsable parameters, a missing or
/// syntactically invalid topology file — fails argument parsing with
/// exit code 1 and the registry's typed message instead of surfacing
/// later as a per-case error.
fn parse_topo(s: &str, regs: &SweepRegistries) -> Result<TopoSpec, String> {
    match s.split_once(':') {
        None => parse_mesh(s),
        Some((name, rest)) => {
            if name.is_empty() {
                return Err(format!("topology '{s}' has an empty name"));
            }
            if let Ok((w, h)) = parse_dims(rest) {
                // Unknown grid names stay per-case errors (the sweep
                // records them in the JSON), preserving the historical
                // name:WxH behavior.
                return Ok(TopoSpec::new(name, w, h));
            }
            match regs.topologies.build_spec(s) {
                Ok(_) => Ok(TopoSpec::from_spec(s)),
                Err(e) => Err(e.to_string()),
            }
        }
    }
}

fn usage(regs: &SweepRegistries) {
    // The doc comment at the top of this file is the single source of
    // truth; print a compact version.
    println!("bsor-sweep: parallel scenario-grid runner writing BENCH_sweep.json");
    println!();
    println!("options: --quick --mesh WxH,.. --topo name:WxH,.. --workloads a,b|all");
    println!("         --algos a,b|all --vcs n,.. --rates r,.. --warmup N");
    println!("         --measurement N --packet-len N --seed N --burst ON,OFF");
    println!("         --saturation --sat-range LO,HI --sat-iters N --threads N");
    println!("         --no-fast-forward --compact-tables --max-links N --max-hops N");
    println!("         --out PATH --no-timings --list --list-topologies");
    println!("         --list-workloads --list-algorithms --help");
    println!(
        "topologies: {}",
        regs.topologies
            .names()
            .into_iter()
            .chain(regs.topologies.family_specs())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "workloads: {}",
        regs.workloads
            .names()
            .into_iter()
            .chain(regs.workloads.family_specs())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("algorithms: {}", regs.algorithms.names().join(", "));
}

/// Which enumeration (if any) a `--list*` flag asked for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ListMode {
    None,
    Grid,
    Topologies,
    Workloads,
    Algorithms,
}

fn parse_args(
    args: &[String],
    regs: &SweepRegistries,
) -> Result<(GridSpec, Option<usize>, String, ListMode, RegistryConfig), String> {
    // `--quick` selects the base grid and is order-independent: flags
    // before or after it override the smoke defaults either way.
    let mut spec = if args.iter().any(|a| a == "--quick") {
        GridSpec::smoke()
    } else {
        GridSpec::standard()
    };
    let mut threads: Option<usize> = None;
    let mut out = "BENCH_sweep.json".to_string();
    let mut list = ListMode::None;
    let mut budgets = RegistryConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => {}
            "--mesh" => spec.topologies = parse_list(&value("--mesh")?, parse_mesh)?,
            "--topo" => {
                spec.topologies = split_topo_list(&value("--topo")?)
                    .iter()
                    .map(|s| parse_topo(s, regs))
                    .collect::<Result<_, _>>()?;
            }
            "--workloads" => {
                let raw = value("--workloads")?;
                spec.workloads = if raw == "all" {
                    regs.workloads
                        .names()
                        .iter()
                        .map(|s| s.to_string())
                        .collect()
                } else {
                    parse_list(&raw, |s| Ok(s.to_string()))?
                };
            }
            "--algos" => {
                let raw = value("--algos")?;
                spec.algorithms = if raw == "all" {
                    regs.algorithms
                        .names()
                        .iter()
                        .map(|s| s.to_string())
                        .collect()
                } else {
                    parse_list(&raw, |s| Ok(s.to_string()))?
                };
            }
            "--vcs" => {
                spec.vcs = parse_list(&value("--vcs")?, |s| {
                    let vcs: u8 = s.parse().map_err(|_| format!("bad vc count '{s}'"))?;
                    if !(1..=8).contains(&vcs) {
                        return Err(format!("vc count '{s}' must be 1..=8"));
                    }
                    Ok(vcs)
                })?;
            }
            "--rates" => {
                spec.rates = parse_list(&value("--rates")?, |s| {
                    let rate: f64 = s.parse().map_err(|_| format!("bad rate '{s}'"))?;
                    if !rate.is_finite() || rate < 0.0 {
                        return Err(format!("rate '{s}' must be finite and >= 0"));
                    }
                    Ok(rate)
                })?;
            }
            "--warmup" => {
                spec.warmup = value("--warmup")?
                    .parse()
                    .map_err(|_| "bad --warmup".to_string())?;
            }
            "--measurement" => {
                spec.measurement = value("--measurement")?
                    .parse()
                    .map_err(|_| "bad --measurement".to_string())?;
            }
            "--packet-len" => {
                spec.packet_len = value("--packet-len")?
                    .parse()
                    .map_err(|_| "bad --packet-len".to_string())?;
                if spec.packet_len == 0 {
                    return Err("--packet-len needs at least one flit".to_string());
                }
            }
            "--seed" => {
                spec.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--burst" => {
                let raw = value("--burst")?;
                let (on, off) = raw
                    .split_once(',')
                    .ok_or_else(|| format!("--burst '{raw}' is not ON,OFF"))?;
                let on: f64 = on.parse().map_err(|_| format!("bad burst on '{on}'"))?;
                let off: f64 = off.parse().map_err(|_| format!("bad burst off '{off}'"))?;
                if !(on >= 1.0 && off >= 1.0) {
                    return Err(format!("--burst '{raw}' dwell means must be >= 1 cycle"));
                }
                spec.burst = Some(BurstyOnOff::new(on, off));
            }
            "--saturation" => {
                spec.saturation.get_or_insert_with(SaturationSpec::default);
            }
            "--sat-range" => {
                let raw = value("--sat-range")?;
                let (lo, hi) = raw
                    .split_once(',')
                    .ok_or_else(|| format!("--sat-range '{raw}' is not LO,HI"))?;
                let lo: f64 = lo.parse().map_err(|_| format!("bad sat lo '{lo}'"))?;
                let hi: f64 = hi.parse().map_err(|_| format!("bad sat hi '{hi}'"))?;
                // The sweep JSON echoes these bounds verbatim; validate
                // them here (finiteness included — "inf" parses as a
                // perfectly ordered f64) so a degenerate range exits 1
                // instead of contaminating the artifact.
                let sat = SaturationSpec {
                    lo,
                    hi,
                    ..spec.saturation.unwrap_or_default()
                };
                sat.validate()
                    .map_err(|e| format!("--sat-range '{raw}': {e}"))?;
                spec.saturation = Some(sat);
            }
            "--sat-iters" => {
                let iters = value("--sat-iters")?
                    .parse()
                    .map_err(|_| "bad --sat-iters".to_string())?;
                spec.saturation
                    .get_or_insert_with(SaturationSpec::default)
                    .iterations = iters;
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| "bad --threads".to_string())?,
                );
            }
            "--no-fast-forward" => spec.fast_forward = false,
            "--compact-tables" => spec.compact_tables = true,
            "--max-links" => {
                let n: usize = value("--max-links")?
                    .parse()
                    .map_err(|_| "bad --max-links".to_string())?;
                if n == 0 {
                    return Err("--max-links needs at least one link".to_string());
                }
                budgets = budgets.with_max_links(n);
            }
            "--max-hops" => {
                let n: usize = value("--max-hops")?
                    .parse()
                    .map_err(|_| "bad --max-hops".to_string())?;
                if n == 0 {
                    return Err("--max-hops needs at least one hop".to_string());
                }
                budgets = budgets.with_max_hops(n);
            }
            "--out" => out = value("--out")?,
            "--no-timings" => spec.record_timings = false,
            "--list" => list = ListMode::Grid,
            "--list-topologies" => list = ListMode::Topologies,
            "--list-workloads" => list = ListMode::Workloads,
            "--list-algorithms" => list = ListMode::Algorithms,
            "--help" | "-h" => {
                usage(regs);
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok((spec, threads, out, list, budgets))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut regs = SweepRegistries::standard();
    let (spec, threads, out, list, budgets) = match parse_args(&args, &regs) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("bsor-sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if budgets != RegistryConfig::default() {
        // Rebuild the algorithm axis with the CLI budgets; the budgets
        // fold into every cache key, so plans never alias across runs
        // with different limits.
        regs.algorithms = AlgorithmRegistry::standard_with(budgets);
    }
    match list {
        ListMode::Topologies => {
            for name in regs.topologies.names() {
                println!("{name}");
            }
            for spec in regs.topologies.family_specs() {
                println!("{spec}");
            }
            return ExitCode::SUCCESS;
        }
        ListMode::Workloads => {
            for name in regs.workloads.names() {
                println!("{name}");
            }
            for spec in regs.workloads.family_specs() {
                println!("{spec}");
            }
            return ExitCode::SUCCESS;
        }
        ListMode::Algorithms => {
            for name in regs.algorithms.names() {
                println!("{name}");
            }
            return ExitCode::SUCCESS;
        }
        ListMode::Grid => {
            for c in expand(&spec) {
                println!(
                    "{} {} {} vcs={} rates={:?}",
                    c.topo.label(),
                    c.workload,
                    c.algorithm,
                    c.vcs,
                    spec.rates
                );
            }
            return ExitCode::SUCCESS;
        }
        ListMode::None => {}
    }
    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let cache = plan_cache_enabled_from_env();
    eprintln!(
        "bsor-sweep: {} cases x {} rates = {} runs on {} threads (plan cache {})",
        spec.num_cases(),
        spec.rates.len(),
        spec.num_runs(),
        threads,
        if cache { "on" } else { "off" }
    );
    let started = Instant::now();
    let outcome = run_grid_stats(&spec, threads, &regs, cache);
    let results = outcome.results;
    let total_wall_ms = if spec.record_timings {
        started.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    let doc = sweep_json(&spec, &results, threads, total_wall_ms);
    if let Err(e) = std::fs::write(&out, doc.pretty()) {
        eprintln!("bsor-sweep: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let failed = results.iter().filter(|r| r.error.is_some()).count();
    // The solve counter is the cache's audit trail: with the cache on a
    // sweep performs exactly one route solve (MILP or heuristic) per
    // case; with BSOR_PLAN_CACHE=off every rate point and saturation
    // probe re-solves (the naive per-point pipeline), with
    // byte-identical JSON.
    eprintln!(
        "bsor-sweep: route solves: {} (cache hits: {})",
        outcome.plans.solves, outcome.plans.cache_hits
    );
    eprintln!(
        "bsor-sweep: wrote {out} ({} cases, {failed} failed) in {:.1}s",
        results.len(),
        started.elapsed().as_secs_f64()
    );
    // A failed case (unroutable combination, unknown name, a route set
    // rejected by the Lemma-1 deadlock check) is recorded in the JSON
    // *and* reflected in the exit code, so CI catches route-selection
    // regressions without parsing the output.
    if failed > 0 {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
