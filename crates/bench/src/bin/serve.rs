//! `bsor-serve` — a long-lived routing-plan service over the
//! `Planner`/`PlanCache` split.
//!
//! Speaks one JSON object per line: `plan`, `evaluate`, `invalidate`
//! and `stats` requests answered on the same line (see
//! `bsor_bench::serve` for the protocol grammar). By default it serves
//! stdin → stdout until EOF, which makes it scriptable:
//!
//! ```text
//! printf '%s\n' '{"op":"plan","workload":"transpose","algorithm":"bsor-dijkstra"}' \
//!   | cargo run -p bsor_bench --release --bin bsor-serve -- --no-timings
//! ```
//!
//! With `--listen ADDR` it instead accepts TCP connections forever,
//! one thread per connection, all sharing one plan cache.
//!
//! ```text
//! cargo run -p bsor_bench --release --bin bsor-serve -- [options]
//!
//!   --listen ADDR       serve TCP on ADDR (e.g. 127.0.0.1:4800) instead of stdin
//!   --capacity N        LRU capacity in plans (default 256; 0 = unbounded)
//!   --capacity-bytes N  approximate LRU byte budget (default unbounded)
//!   --stats-every N     log a cache-stats line to stderr every N requests
//!   --no-timings        zero wall-clock response fields (byte-identical replays)
//!   --compact-tables    serve interval-compressed router tables (behaviorally
//!                       identical; per-plan table_bytes and cache bytes shrink)
//! ```
//!
//! Exit codes: 0 on clean EOF, 1 on bad arguments or transport failure.

use bsor_bench::serve::{serve_lines, serve_tcp, PlanService, ServeConfig};
use bsor_sim::PlanCacheConfig;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    listen: Option<String>,
    config: ServeConfig,
}

fn usage() {
    println!("bsor-serve: line-delimited JSON routing-plan service");
    println!();
    println!("options: --listen ADDR --capacity N --capacity-bytes N --stats-every N");
    println!("         --no-timings --compact-tables --help");
    println!("ops: plan, evaluate, invalidate, stats (one JSON object per line)");
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut listen = None;
    let mut capacity: usize = 256;
    let mut capacity_bytes: usize = 0;
    let mut stats_every: u64 = 0;
    let mut timings = true;
    let mut compact_tables = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--listen" => listen = Some(value("--listen")?),
            "--capacity" => {
                capacity = value("--capacity")?
                    .parse()
                    .map_err(|_| "bad --capacity".to_string())?;
            }
            "--capacity-bytes" => {
                capacity_bytes = value("--capacity-bytes")?
                    .parse()
                    .map_err(|_| "bad --capacity-bytes".to_string())?;
            }
            "--stats-every" => {
                stats_every = value("--stats-every")?
                    .parse()
                    .map_err(|_| "bad --stats-every".to_string())?;
            }
            "--no-timings" => timings = false,
            "--compact-tables" => compact_tables = true,
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok(Options {
        listen,
        config: ServeConfig {
            cache: PlanCacheConfig::new()
                .max_plans(capacity)
                .max_bytes(capacity_bytes),
            timings,
            stats_every,
            compact_tables,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("bsor-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let service = PlanService::new(options.config);
    match options.listen {
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(listener) => listener,
                Err(e) => {
                    eprintln!("bsor-serve: cannot listen on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("bsor-serve: listening on {addr}");
            if let Err(e) = serve_tcp(Arc::new(service), listener) {
                eprintln!("bsor-serve: accept failed: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = serve_lines(&service, stdin.lock(), stdout.lock()) {
                eprintln!("bsor-serve: transport failed: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
    }
}
