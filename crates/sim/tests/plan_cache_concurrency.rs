//! Concurrency and budget contract of the single-flight [`PlanCache`]:
//! N racing planners on one key cost exactly one route solve, LRU
//! eviction holds under a capacity-1 cache, the plan-count and byte
//! budgets are exact totals under one LRU order, `invalidate` during an
//! in-flight solve neither deadlocks nor corrupts the cache, each
//! invalidation delta examines, evicts and keeps exactly the plans it
//! should, and solver errors propagate to followers without being
//! cached.

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

/// A standard workload on a 4x4 mesh at 2 VCs.
fn mesh4_scenario(workload: &str) -> Scenario {
    let topo = Topology::mesh2d(4, 4);
    let flows = bsor_workloads::workload_by_name(&topo, workload)
        .expect("4x4 workload builds")
        .flows;
    Scenario::builder(topo, flows)
        .named(workload)
        .vcs(2)
        .build()
        .expect("4x4 scenario builds")
}

#[test]
fn plan_budget_is_an_exact_total_under_one_lru() {
    let scenarios: Vec<Scenario> = ["transpose", "bit-complement", "shuffle", "tornado"]
        .into_iter()
        .map(mesh4_scenario)
        .collect();
    let keys: Vec<(&Scenario, Baseline)> = scenarios
        .iter()
        .flat_map(|s| [(s, Baseline::XY), (s, Baseline::YX)])
        .collect();
    let cache = PlanCache::shared_with(PlanCacheConfig::new().max_plans(8));
    let planner = Planner::new().with_cache(cache.clone());
    for (s, algorithm) in &keys {
        planner.plan(s, algorithm).expect("plans");
    }
    let stats = cache.stats();
    assert_eq!((stats.plans, stats.evicted_lru), (8, 0), "8 plans fit 8");
    // Touch all but the first key; a 9th key then evicts exactly it.
    for (s, algorithm) in &keys[1..] {
        planner.plan(s, algorithm).expect("hits");
    }
    let ninth = mesh4_scenario("neighbor");
    planner.plan(&ninth, &Baseline::XY).expect("plans");
    let before = cache.stats();
    assert_eq!((before.plans, before.evicted_lru), (8, 1));
    for (s, algorithm) in &keys[1..] {
        planner.plan(s, algorithm).expect("hits");
    }
    planner.plan(&ninth, &Baseline::XY).expect("hits");
    let after = cache.stats();
    assert_eq!(
        (after.hits - before.hits, after.solves - before.solves),
        (8, 0),
        "every key but the untouched one stayed"
    );
    let (s, algorithm) = &keys[0];
    planner.plan(s, algorithm).expect("re-solves");
    assert_eq!(cache.stats().solves, after.solves + 1);
}

#[test]
fn byte_budget_is_an_exact_total_under_one_lru() {
    let small = transpose_scenario(4);
    let equal = [Baseline::XY, Baseline::YX, Baseline::Romm { seed: 2 }];
    let bytes = Planner::new()
        .plan(&small, &equal[0])
        .expect("plans")
        .approx_bytes();
    let budget = bytes * 5 / 2;
    let cache = PlanCache::shared_with(PlanCacheConfig::new().max_bytes(budget));
    let planner = Planner::new().with_cache(cache.clone());
    for algorithm in &equal {
        let plan = planner.plan(&small, algorithm).expect("plans");
        assert_eq!(plan.approx_bytes(), bytes, "minimal routes, equal sizes");
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.plans, stats.bytes, stats.evicted_lru),
        (2, 2 * bytes as u64, 1),
        "2 of 3 plans fit 2.5 plans' bytes"
    );
    // The first plan was the LRU victim; the other two hit.
    for algorithm in &equal[1..] {
        planner.plan(&small, algorithm).expect("hits");
    }
    assert_eq!((cache.stats().hits, cache.stats().solves), (2, 3));
    // A plan over the whole budget evicts the rest and is kept alone.
    let big = planner
        .plan(&transpose_scenario(8), &Baseline::XY)
        .expect("plans");
    assert!(big.approx_bytes() > budget);
    let stats = cache.stats();
    assert_eq!(
        (stats.plans, stats.bytes, stats.evicted_lru),
        (1, big.approx_bytes() as u64, 3)
    );
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

/// The paper's transpose pattern on a `side` x `side` mesh.
fn transpose_scenario(side: u16) -> Scenario {
    let topo = Topology::mesh2d(side, side);
    let flows = bsor_workloads::transpose(&topo)
        .expect("square power-of-two mesh")
        .flows;
    Scenario::builder(topo, flows)
        .named("transpose")
        .vcs(2)
        .build()
        .expect("transpose scenario builds")
}

#[test]
fn invalidate_counts_examined_evicted_and_kept_plans_exactly() {
    let small = transpose_scenario(4);
    let large = transpose_scenario(8);
    let cache = PlanCache::shared();
    let planner = Planner::new().with_cache(cache.clone());
    // Each delta starts from the same three cached plans, XY and YX on
    // the 4x4 mesh and XY on the 8x8 mesh (evicted plans re-solve), and
    // yields ((examined, evicted, recertified), plans left).
    let invalidate = |delta: &[(u32, u32)]| {
        planner.plan(&small, &Baseline::XY).expect("plans");
        planner.plan(&small, &Baseline::YX).expect("plans");
        planner.plan(&large, &Baseline::XY).expect("plans");
        assert_eq!(cache.len(), 3);
        let outcome = cache.invalidate(delta);
        let counts = (outcome.examined, outcome.evicted, outcome.recertified);
        (counts, cache.len())
    };
    // Transpose routes demand over every link of both meshes in one
    // direction or the other, so every examined plan is evicted.
    // Node 0's east link exists on both meshes.
    assert_eq!(invalidate(&[(0, 1)]), ((3, 3, 0), 0));
    // Nodes 0 and 5 are not adjacent on either mesh.
    assert_eq!(invalidate(&[(0, 5)]), ((0, 0, 0), 3));
    // The 0-4 link is named in both directions, and a plan it crosses
    // is examined once; 0-4 and 1-5 are links of the 4x4 mesh only.
    assert_eq!(invalidate(&[(0, 4), (4, 0), (1, 5)]), ((2, 2, 0), 1));
    let stats = cache.stats();
    assert_eq!((stats.evicted_invalidated, stats.recertified), (5, 0));
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
