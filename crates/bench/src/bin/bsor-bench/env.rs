//! The machine and build a record was measured on.

use bsor_bench::json::Json;
use std::path::Path;

/// The `environment` block of a record.
pub fn environment(seed: u64) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::object(vec![
        ("cores", Json::from(cores)),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_rev", Json::from(git_rev(Path::new(".git")))),
        ("rustc", Json::from(rustc_version())),
        ("seed", Json::from(seed)),
    ])
}

/// What `rustc --version` prints, or `unknown` without a `rustc` on the
/// path. (`cargo run` puts the toolchain that built the binary first.)
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit `HEAD` names, read from the repository files in the
/// working directory (what `git rev-parse HEAD` prints), or `unknown`
/// outside a repository.
fn git_rev(git: &Path) -> String {
    let resolve = || -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_owned());
        };
        if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
            return Some(rev.trim().to_owned());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|line| {
            let (rev, name) = line.split_once(' ')?;
            (name == reference).then(|| rev.to_owned())
        })
    };
    resolve().unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
