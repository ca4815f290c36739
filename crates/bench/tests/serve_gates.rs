//! The plan service's headline targets as assertions, on a seeded Zipf
//! replay over a small key universe (4x4 mesh, 8 workloads x 3
//! algorithms, 2 VCs):
//!
//! 1. Two clients replay the draws through a cache-less [`Planner`]:
//!    topology, workload, scenario and route solve per request.
//! 2. They replay the identical draws against one [`PlanService`]: the
//!    hit rate is above 90%, the service solves each distinct key drawn
//!    exactly once, and the replay takes at most a fifth of the
//!    cache-less wall time.
//! 3. Failing one link evicts some plans but not all, and replaying the
//!    universe re-solves exactly the evicted ones: the survivors were
//!    re-certified, not re-planned.

use bsor_bench::json::Json;
use bsor_bench::serve::{PlanService, ServeConfig};
use bsor_bench::sweep::SweepRegistries;
use bsor_sim::{Planner, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const REQUESTS: usize = 400;
const SEED: u64 = 46347;
const SIDE: u16 = 4;
const WORKLOADS: [&str; 8] = [
    "transpose",
    "bit-complement",
    "shuffle",
    "tornado",
    "bit-reversal",
    "neighbor",
    "hotspot:2",
    "rand-perm:7",
];
/// BSOR first within each workload: a BSOR solve costs 10-20x a cached
/// lookup in a debug build and an XY solve about 5x, so the popular
/// ranks carry the solves the cache exists to amortize.
const ALGORITHMS: [&str; 3] = ["bsor-dijkstra", "xy", "yx"];

/// The key universe, workload-major, as `(workload, algorithm)`.
fn keys() -> Vec<(&'static str, &'static str)> {
    WORKLOADS
        .iter()
        .flat_map(|&w| ALGORITHMS.iter().map(move |&a| (w, a)))
        .collect()
}

fn request((workload, algorithm): (&str, &str)) -> String {
    format!(
        r#"{{"op":"plan","topology":"mesh","width":{SIDE},"height":{SIDE},"workload":"{workload}","algorithm":"{algorithm}","vcs":2}}"#
    )
}

/// Each client's key indices: Zipf(s = 1.1) over the universe's ranks.
fn draws(universe: usize) -> Vec<Vec<usize>> {
    let cumulative: Vec<f64> = (1..=universe)
        .scan(0.0, |total, rank| {
            *total += 1.0 / (rank as f64).powf(1.1);
            Some(*total)
        })
        .collect();
    let total = cumulative[universe - 1];
    (0..CLIENTS)
        .map(|client| {
            let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(client));
            (0..REQUESTS)
                .map(|_| {
                    let draw = rng.gen_range(0.0..total);
                    cumulative.partition_point(|&c| c <= draw)
                })
                .collect()
        })
        .collect()
}

/// Runs `serve` over every client's draws, one thread per client, and
/// returns the wall time.
fn replay(draws: &[Vec<usize>], serve: impl Fn(usize) + Sync) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in draws {
            let serve = &serve;
            scope.spawn(move || client.iter().for_each(|&key| serve(key)));
        }
    });
    started.elapsed()
}

#[test]
fn plan_service_meets_its_hit_rate_speedup_and_invalidation_gates() {
    let keys = keys();
    let requests: Vec<String> = keys.iter().map(|&k| request(k)).collect();
    let draws = draws(keys.len());
    let distinct: BTreeSet<usize> = draws.iter().flatten().copied().collect();

    // 1. The draws through the full per-request pipeline (first, so it
    // also absorbs the process's warm-up).
    let regs = SweepRegistries::standard();
    let planner = Planner::new();
    let uncached = replay(&draws, |key| {
        let (workload, algorithm) = keys[key];
        let topo = regs.topologies.build("mesh", SIDE, SIDE).expect("mesh");
        let flows = regs
            .workloads
            .build(&topo, workload)
            .expect("workload")
            .flows;
        let scenario = Scenario::builder(topo, flows)
            .named(workload)
            .vcs(2)
            .build()
            .expect("scenario");
        let algorithm = regs.algorithms.get(algorithm).expect("registered");
        planner.plan(&scenario, algorithm).expect("plannable");
    });

    // 2. The same draws against one service.
    let service = PlanService::new(ServeConfig::default());
    let cached = replay(&draws, |key| {
        let response = service.handle_line(&requests[key]);
        assert!(response.contains(r#""ok":true"#), "{response}");
    });
    let stats = service.cache().stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses) as f64;
    assert!(hit_rate > 0.9, "hit rate {hit_rate:.3}");
    assert_eq!(
        stats.solves,
        distinct.len() as u64,
        "one solve per distinct key drawn"
    );
    let speedup = uncached.as_secs_f64() / cached.as_secs_f64();
    assert!(
        speedup >= 5.0,
        "cached {cached:?} vs uncached {uncached:?}: {speedup:.1}x"
    );

    // 3. Selective invalidation on a service holding every key.
    let service = PlanService::new(ServeConfig::default());
    for line in &requests {
        service.handle_line(line);
    }
    let before = service.cache().stats().solves;
    // Node 0 -> node 1: the first eastward hop. Every plan but YX on
    // hotspot:2 routes demand over it.
    let response = service.handle_line(r#"{"op":"invalidate","links":[[0,1]]}"#);
    let evicted = Json::parse(&response)
        .ok()
        .and_then(|doc| doc.get("result")?.get("evicted")?.as_u64())
        .unwrap_or_else(|| panic!("invalidate answered {response}"));
    assert!(
        0 < evicted && evicted < keys.len() as u64,
        "evicted {evicted} of {} plans",
        keys.len()
    );
    for line in &requests {
        service.handle_line(line);
    }
    assert_eq!(
        service.cache().stats().solves - before,
        evicted,
        "re-solves after the invalidate"
    );
}
