//! The framework-level [`RouteAlgorithm`] and the name-keyed algorithm
//! registry.
//!
//! [`BsorAlgorithm`] adapts the exploring BSOR framework
//! ([`crate::BsorBuilder`]) to the single [`RouteAlgorithm`] trait: on
//! meshes it explores the paper's CDG set (all valid turn models plus
//! three ad-hoc derivations) and keeps the minimum-MCL routes; on
//! topologies turn models reject (tori, rings, hypercubes) it explores
//! unprotected ad-hoc CDGs instead, so the same name routes every
//! registered topology.
//!
//! [`AlgorithmRegistry`] is the name → algorithm map every driver
//! enumerates. [`AlgorithmRegistry::standard`] seeds it with the nine
//! sweep-grid names (`xy`, `yx`, `romm`, `valiant`, `o1turn`,
//! `bsor-dijkstra`, `bsor-milp`, `ac-oblivious`, `random-walk`),
//! configured exactly as the sweep harness has always configured them —
//! deterministic seeds and node budgets, no wall-clock limits.

use crate::{BsorBuilder, CdgStrategy, SelectorKind};
use bsor_lp::MilpOptions;
use bsor_routing::selectors::{
    AcObliviousSelector, DijkstraSelector, MilpSelector, RandomWalkSelector,
};
use bsor_routing::{Baseline, RouteSet};
use bsor_sim::{AlgorithmError, RouteAlgorithm, ScenarioCtx};
use bsor_topology::TopologyKind;

/// Seed the registry's randomized baselines (ROMM/Valiant/O1TURN) use,
/// matching the bench harness's historical value.
pub const BASELINE_SEED: u64 = 9;

/// Number of unprotected ad-hoc CDGs [`BsorAlgorithm`] explores on
/// topologies without valid turn models.
const AD_HOC_ANY_SEEDS: u64 = 10;

/// The full BSOR framework (explore acyclic CDGs, keep the minimum-MCL
/// routes) as a plug-in [`RouteAlgorithm`].
///
/// Unlike the raw selectors — which route inside the scenario's one CDG
/// — this algorithm explores its own CDG family, which is how the
/// paper's headline numbers (Tables 6.1–6.3) are produced.
#[derive(Clone, Debug)]
pub struct BsorAlgorithm {
    name: String,
    selector: SelectorKind,
    /// Exploration set used on meshes; `None` means the
    /// [`BsorBuilder`] default (all turn models + three ad-hoc CDGs).
    strategies: Option<Vec<CdgStrategy>>,
}

impl BsorAlgorithm {
    /// The scalable Dijkstra-selector framework (`bsor-dijkstra`).
    pub fn dijkstra() -> BsorAlgorithm {
        BsorAlgorithm {
            name: "bsor-dijkstra".to_owned(),
            selector: SelectorKind::Dijkstra(DijkstraSelector::new()),
            strategies: None,
        }
    }

    /// A MILP-selector framework under `selector`'s budget, displayed as
    /// `name`.
    pub fn milp(name: impl Into<String>, selector: MilpSelector) -> BsorAlgorithm {
        BsorAlgorithm {
            name: name.into(),
            selector: SelectorKind::Milp(selector),
            strategies: None,
        }
    }

    /// A framework over an arbitrary selector, displayed as `name`.
    pub fn with_selector(name: impl Into<String>, selector: SelectorKind) -> BsorAlgorithm {
        BsorAlgorithm {
            name: name.into(),
            selector,
            strategies: None,
        }
    }

    /// Replaces the mesh exploration set.
    pub fn with_strategies(mut self, strategies: Vec<CdgStrategy>) -> BsorAlgorithm {
        self.strategies = Some(strategies);
        self
    }
}

impl RouteAlgorithm for BsorAlgorithm {
    fn name(&self) -> &str {
        &self.name
    }

    /// Includes the selector configuration and any custom exploration
    /// set — two `BsorAlgorithm`s may share a display name while
    /// routing differently.
    fn cache_key(&self) -> String {
        format!("{}:{:?}:{:?}", self.name, self.selector, self.strategies)
    }

    fn routes(&self, ctx: &ScenarioCtx<'_>) -> Result<RouteSet, AlgorithmError> {
        let mut builder = BsorBuilder::new(ctx.topo, ctx.flows).vcs(ctx.vcs);
        if let Some(strategies) = &self.strategies {
            builder = builder.strategies(strategies.clone());
        } else if ctx.topo.kind() != TopologyKind::Mesh2D {
            // Turn models exist only on meshes; elsewhere explore
            // unprotected ad-hoc CDGs (some seeds disconnect pairs —
            // exploring several finds usable ones, and failures are
            // recorded per CDG).
            let mut strategies: Vec<CdgStrategy> = (0..AD_HOC_ANY_SEEDS)
                .map(|seed| CdgStrategy::AdHocAny { seed })
                .collect();
            if matches!(
                ctx.topo.kind(),
                TopologyKind::Dragonfly
                    | TopologyKind::FatTree
                    | TopologyKind::FullMesh
                    | TopologyKind::Arbitrary
            ) {
                // Arbitrary-graph families additionally explore the
                // up*/down* escape ordering, which keeps every pair
                // routable on symmetric graphs even at one VC.
                strategies.push(CdgStrategy::UpDown);
            }
            builder = builder.strategies(strategies);
        }
        builder
            .selector(self.selector.clone())
            .run()
            .map(|result| result.routes)
            .map_err(|e| AlgorithmError::Failed(e.to_string()))
    }
}

/// Per-run budget overrides for [`AlgorithmRegistry::standard_with`].
///
/// `Default` leaves every budget at its selector default, making
/// `standard_with(RegistryConfig::default())` identical to
/// [`AlgorithmRegistry::standard`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Directed-link budget for `ac-oblivious` (`None` keeps the
    /// selector's 16-directed-link default).
    pub max_links: Option<usize>,
    /// Hop budget applied to the BSOR selector family (`bsor-dijkstra`,
    /// `bsor-milp`) and `random-walk`; routes over the budget surface as
    /// typed `HopBudgetExceeded` refusals instead of silently shipping.
    pub max_hops: Option<usize>,
}

impl RegistryConfig {
    /// A config with every budget at its selector default.
    pub fn new() -> RegistryConfig {
        RegistryConfig::default()
    }

    /// Sets the `ac-oblivious` directed-link budget.
    #[must_use]
    pub fn with_max_links(mut self, max_links: usize) -> RegistryConfig {
        self.max_links = Some(max_links);
        self
    }

    /// Sets the hop budget for the BSOR selectors and `random-walk`.
    #[must_use]
    pub fn with_max_hops(mut self, max_hops: usize) -> RegistryConfig {
        self.max_hops = Some(max_hops);
        self
    }
}

/// The deterministic MILP configuration the sweep harness uses for
/// `bsor-milp`: node budget only — a wall-clock limit would make the
/// chosen routes depend on machine speed and break reproducibility.
pub fn sweep_milp() -> MilpSelector {
    MilpSelector::new()
        .with_hop_slack(2)
        .with_max_paths(40)
        .with_options(MilpOptions {
            max_nodes: 20,
            time_limit: None,
            ..MilpOptions::default()
        })
}

/// Name-keyed registry of routing algorithms.
///
/// Stored algorithms are shared-state-free (`Send + Sync`), so one
/// registry can serve every sweep worker thread by reference.
///
/// ```
/// use bsor::AlgorithmRegistry;
/// use bsor_sim::{Planner, Scenario};
/// use bsor_topology::Topology;
/// use bsor_workloads::workload_by_name;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = AlgorithmRegistry::standard();
/// let mesh = Topology::mesh2d(4, 4);
/// let workload = workload_by_name(&mesh, "transpose")?;
/// let scenario = Scenario::builder(mesh, workload.flows).vcs(2).build()?;
/// let xy = registry.get("xy").expect("registered");
/// let plan = Planner::new().plan(&scenario, xy)?;
/// assert_eq!(plan.routes().len(), scenario.flows().len());
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct AlgorithmRegistry {
    entries: Vec<(String, Box<dyn RouteAlgorithm + Send + Sync>)>,
}

impl AlgorithmRegistry {
    /// An empty registry.
    pub fn new() -> AlgorithmRegistry {
        AlgorithmRegistry::default()
    }

    /// The nine sweep-grid algorithms: `xy`, `yx`, `romm`, `valiant`,
    /// `o1turn`, `bsor-dijkstra`, `bsor-milp`, plus the demand-oblivious
    /// counterpoints `ac-oblivious` and `random-walk`.
    pub fn standard() -> AlgorithmRegistry {
        AlgorithmRegistry::standard_with(RegistryConfig::default())
    }

    /// [`AlgorithmRegistry::standard`] with per-run budget overrides:
    /// `config.max_links` raises the `ac-oblivious` LP's directed-link
    /// budget, `config.max_hops` caps route length on the BSOR selector
    /// family and `random-walk`. Budgets flow into each algorithm's
    /// `cache_key`, so differently-budgeted plans never alias in a
    /// shared [`bsor_sim::PlanCache`].
    pub fn standard_with(config: RegistryConfig) -> AlgorithmRegistry {
        let mut dijkstra = DijkstraSelector::new();
        let mut milp = sweep_milp();
        let mut ac = AcObliviousSelector::new().with_seed(BASELINE_SEED);
        let mut walk = RandomWalkSelector::new().with_seed(BASELINE_SEED);
        if let Some(max_hops) = config.max_hops {
            dijkstra = dijkstra.with_max_hops(max_hops);
            milp = milp.with_max_hops(max_hops);
            walk = walk.with_max_hops(max_hops);
        }
        if let Some(max_links) = config.max_links {
            ac = ac.with_max_links(max_links);
        }
        let mut r = AlgorithmRegistry::new();
        r.register("xy", Baseline::XY);
        r.register("yx", Baseline::YX);
        r.register(
            "romm",
            Baseline::Romm {
                seed: BASELINE_SEED,
            },
        );
        r.register(
            "valiant",
            Baseline::Valiant {
                seed: BASELINE_SEED,
            },
        );
        r.register(
            "o1turn",
            Baseline::O1Turn {
                seed: BASELINE_SEED,
            },
        );
        r.register(
            "bsor-dijkstra",
            BsorAlgorithm::with_selector("bsor-dijkstra", SelectorKind::Dijkstra(dijkstra)),
        );
        r.register("bsor-milp", BsorAlgorithm::milp("bsor-milp", milp));
        r.register("ac-oblivious", ac);
        r.register("random-walk", walk);
        r
    }

    /// Registers (or replaces) an algorithm under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        algorithm: impl RouteAlgorithm + Send + Sync + 'static,
    ) {
        let name = name.into();
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, Box::new(algorithm)));
    }

    /// The algorithm registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&(dyn RouteAlgorithm + Send + Sync)> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| a.as_ref())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_flow::FlowSet;
    use bsor_routing::deadlock;
    use bsor_sim::{Planner, Scenario};
    use bsor_topology::{NodeId, Topology};
    use bsor_workloads::transpose;

    #[test]
    fn standard_names() {
        let r = AlgorithmRegistry::standard();
        assert_eq!(
            r.names(),
            vec![
                "xy",
                "yx",
                "romm",
                "valiant",
                "o1turn",
                "bsor-dijkstra",
                "bsor-milp",
                "ac-oblivious",
                "random-walk"
            ]
        );
        assert!(r.get("bsor-dijkstra").is_some());
        assert!(r.get("magic").is_none());
    }

    #[test]
    fn bsor_through_trait_matches_builder_on_mesh() {
        let topo = Topology::mesh2d(4, 4);
        let w = transpose(&topo).expect("square");
        let direct = BsorBuilder::new(&topo, &w.flows)
            .vcs(2)
            .run()
            .expect("routable");
        let scenario = Scenario::builder(topo, w.flows).vcs(2).build().expect("ok");
        let via_trait = Planner::new()
            .plan(&scenario, &BsorAlgorithm::dijkstra())
            .expect("routable");
        assert_eq!(&direct.routes, via_trait.routes());
    }

    #[test]
    fn bsor_algorithm_routes_non_mesh_topologies() {
        for topo in [Topology::ring(6), Topology::hypercube(3)] {
            let mut flows = FlowSet::new();
            let n = topo.num_nodes() as u32;
            for i in 0..n {
                flows.push(NodeId(i), NodeId((i + n / 2) % n), 10.0);
            }
            let scenario = Scenario::builder(topo, flows).vcs(2).build().expect("ok");
            let plan = Planner::new()
                .plan(&scenario, &BsorAlgorithm::dijkstra())
                .expect("ad-hoc exploration routes it");
            assert!(deadlock::is_deadlock_free(
                scenario.topology(),
                plan.routes(),
                2
            ));
        }
    }

    #[test]
    fn bsor_algorithm_routes_arbitrary_graph_families_on_one_vc() {
        // The up*/down* strategy guarantees a usable CDG even at a
        // single VC, where unprotected ad-hoc breaking often strands
        // pairs.
        for topo in [
            bsor_topology::dragonfly(2, 3, 2).expect("valid"),
            bsor_topology::fat_tree(4).expect("valid"),
            bsor_topology::full_mesh(6).expect("valid"),
        ] {
            let mut flows = FlowSet::new();
            let n = topo.num_nodes() as u32;
            for i in 0..n {
                flows.push(NodeId(i), NodeId((i + n / 2) % n), 10.0);
            }
            let scenario = Scenario::builder(topo, flows).vcs(1).build().expect("ok");
            let plan = Planner::new()
                .plan(&scenario, &BsorAlgorithm::dijkstra())
                .expect("up*/down* exploration routes it");
            assert!(deadlock::is_deadlock_free(
                scenario.topology(),
                plan.routes(),
                1
            ));
        }
    }

    #[test]
    fn configured_registry_applies_budgets_and_changes_cache_keys() {
        let plain = AlgorithmRegistry::standard();
        let tight = AlgorithmRegistry::standard_with(
            RegistryConfig::new().with_max_links(40).with_max_hops(2),
        );
        // Budgets are part of the selector state, so cache keys diverge
        // and a shared PlanCache cannot alias budgeted plans onto
        // unbudgeted ones.
        for name in ["bsor-dijkstra", "bsor-milp", "random-walk", "ac-oblivious"] {
            assert_ne!(
                plain.get(name).expect("registered").cache_key(),
                tight.get(name).expect("registered").cache_key(),
                "{name} cache key must fold the budget in"
            );
        }
        // Baselines carry no budget; their keys are untouched.
        assert_eq!(
            plain.get("xy").expect("registered").cache_key(),
            tight.get("xy").expect("registered").cache_key()
        );
        // A default config is exactly the standard registry.
        let default = AlgorithmRegistry::standard_with(RegistryConfig::default());
        for name in plain.names() {
            assert_eq!(
                plain.get(name).expect("registered").cache_key(),
                default.get(name).expect("registered").cache_key()
            );
        }

        // A 2-hop budget refuses the 4x4 transpose (corner flows need
        // up to 6 hops), surfacing as a typed failure through the trait.
        let topo = Topology::mesh2d(4, 4);
        let w = transpose(&topo).expect("square");
        let scenario = Scenario::builder(topo, w.flows).vcs(2).build().expect("ok");
        let err = Planner::new()
            .plan(&scenario, tight.get("bsor-dijkstra").expect("registered"))
            .expect_err("2-hop budget cannot route the transpose");
        assert!(err.to_string().contains("hop"), "typed refusal: {err}");
    }

    #[test]
    fn replacing_a_name_keeps_one_entry() {
        let mut r = AlgorithmRegistry::standard();
        let before = r.names().len();
        r.register("xy", Baseline::YX);
        assert_eq!(r.names().len(), before);
    }
}
