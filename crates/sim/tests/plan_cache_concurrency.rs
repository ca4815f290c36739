//! Concurrency contract of the sharded single-flight [`PlanCache`]:
//! N racing planners on one key cost exactly one route solve, LRU
//! eviction holds under a capacity-1 cache, `invalidate` during an
//! in-flight solve neither deadlocks nor corrupts the cache, and
//! solver errors propagate to followers without being cached.

use bsor_routing::{Baseline, RouteSet};
use bsor_sim::{
    AlgorithmError, PlanCache, PlanCacheConfig, Planner, RouteAlgorithm, Scenario, ScenarioCtx,
};
use bsor_topology::{NodeId, Topology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Wraps XY routing with a solve counter, a configurable stall (to
/// hold the single-flight window open) and an optional injected
/// failure.
struct CountingXy {
    solves: AtomicUsize,
    stall: Duration,
    fail: bool,
}

impl CountingXy {
    fn new(stall: Duration, fail: bool) -> CountingXy {
        CountingXy {
            solves: AtomicUsize::new(0),
            stall,
            fail,
        }
    }

    fn solves(&self) -> usize {
        self.solves.load(Ordering::SeqCst)
    }
}

impl RouteAlgorithm for CountingXy {
    fn name(&self) -> &str {
        "counting-xy"
    }

    fn cache_key(&self) -> String {
        format!("counting-xy fail={}", self.fail)
    }

    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
        self.solves.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.stall);
        if self.fail {
            return Err(AlgorithmError::Failed("injected solver failure".into()));
        }
        Baseline::XY.routes(ctx)
    }
}

/// A 4x4 mesh with a half-shift pattern: every node sends across the
/// network, so every plan has broad link demand.
fn scenario() -> Scenario {
    let topo = Topology::mesh2d(4, 4);
    let mut flows = bsor_flow::FlowSet::new();
    for i in 0..16u32 {
        let j = (i + 8) % 16;
        flows.push(NodeId(i), NodeId(j), 10.0);
    }
    Scenario::builder(topo, flows)
        .named("shift")
        .vcs(2)
        .build()
        .expect("smoke scenario builds")
}

#[test]
fn racing_planners_on_one_key_cost_exactly_one_solve() {
    let s = scenario();
    let algorithm = CountingXy::new(Duration::from_millis(25), false);
    let cache = PlanCache::shared();
    let planner = Planner::new().with_cache(cache.clone());
    let threads = 8;
    let barrier = Barrier::new(threads);
    let plans = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    planner.plan(&s, &algorithm).expect("shared solve succeeds")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect::<Vec<_>>()
    });
    assert_eq!(algorithm.solves(), 1, "followers must not re-solve");
    let stats = cache.stats();
    assert_eq!(stats.solves, 1);
    assert_eq!(stats.hits + stats.dedup_waits, threads as u64 - 1);
    for plan in &plans[1..] {
        assert!(
            Arc::ptr_eq(&plans[0], plan),
            "every racer gets the one cached artifact"
        );
    }
}

#[test]
fn capacity_one_cache_is_strict_lru() {
    let s = scenario();
    let cache = PlanCache::shared_with(PlanCacheConfig::new().max_plans(1));
    let planner = Planner::new().with_cache(cache.clone());
    planner.plan(&s, &Baseline::XY).expect("plans");
    planner.plan(&s, &Baseline::YX).expect("evicts xy");
    assert_eq!(cache.len(), 1, "capacity 1 holds one plan");
    planner.plan(&s, &Baseline::XY).expect("re-solves");
    let stats = cache.stats();
    assert_eq!(
        stats.solves, 3,
        "xy was evicted, so its return is a fresh solve"
    );
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.evicted_lru, 2);
    assert_eq!(cache.len(), 1);
}

#[test]
fn invalidate_during_inflight_solve_neither_deadlocks_nor_corrupts() {
    let s = scenario();
    let algorithm = CountingXy::new(Duration::from_millis(60), false);
    let cache = PlanCache::shared_with(PlanCacheConfig::new());
    let planner = Planner::new().with_cache(cache.clone());
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| planner.plan(&s, &algorithm).expect("solve completes"));
        // Storm the cache with deltas while the solve is in flight: the
        // flight table and the entry table must not block each other.
        for _ in 0..20 {
            let outcome = cache.invalidate(&[(0, 1), (5, 6)]);
            assert_eq!(outcome.evicted + outcome.recertified, outcome.examined);
            std::thread::sleep(Duration::from_millis(2));
        }
        leader.join().expect("no deadlock, no panic")
    });
    // The solve that raced the deltas still landed in the cache...
    assert_eq!(cache.len(), 1);
    // ...and a delta arriving *after* it lands evicts it (the shift
    // pattern is purely vertical on the 4x4 mesh, so flow 0->8 demands
    // the 0->4 hop).
    let outcome = cache.invalidate(&[(0, 4)]);
    assert_eq!(outcome.examined, 1);
    assert_eq!(outcome.evicted, 1);
    assert_eq!(cache.len(), 0);
}

#[test]
fn solver_errors_reach_followers_but_are_never_cached() {
    let s = scenario();
    let algorithm = CountingXy::new(Duration::from_millis(0), true);
    let cache = PlanCache::shared();
    let planner = Planner::new().with_cache(cache.clone());
    // Sequential contract first: every retry re-runs the solver.
    planner.plan(&s, &algorithm).expect_err("injected failure");
    planner.plan(&s, &algorithm).expect_err("still failing");
    assert_eq!(algorithm.solves(), 2, "errors must not be cached");
    assert_eq!(cache.stats().solves, 2);
    assert_eq!(cache.stats().hits, 0);

    // Racing contract: one in-flight failure is broadcast to its
    // followers (no thread panics, every thread sees the error), and
    // late arrivals may retry — but a successful solve is never
    // fabricated.
    let slow = CountingXy::new(Duration::from_millis(25), true);
    let threads = 4;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                barrier.wait();
                planner
                    .plan(&s, &slow)
                    .expect_err("failure reaches every racer");
            });
        }
    });
    assert!(
        (1..=threads).contains(&slow.solves()),
        "between one shared failure and one per late joiner, got {}",
        slow.solves()
    );
    assert_eq!(cache.len(), 0, "no failed plan cached");
}
