//! Packet injection processes: proportional Bernoulli traffic, the
//! two-stage Markov-modulated bandwidth variation of paper §5.3, on/off
//! bursty injection with geometric dwell times, and multi-phase rate
//! schedules that switch offered load at cycle boundaries.

use bsor_flow::FlowSet;
use rand::rngs::StdRng;
use rand::Rng;

/// Two-stage Markov-modulated rate variation (paper §5.3): each flow's
/// rate multiplier alternates between a *steady* stage (multiplier 1) and
/// a *deviated* stage (multiplier drawn uniformly from `1 ± fraction`);
/// each stage lasts a geometrically distributed number of cycles.
#[derive(Clone, Copy, Debug)]
pub struct MarkovVariation {
    /// Maximum relative deviation (0.10, 0.25 or 0.50 in the paper).
    pub fraction: f64,
    /// Mean dwell time in each stage, in cycles.
    pub mean_dwell: f64,
}

impl MarkovVariation {
    /// A variation process with the paper's percentages.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1` and `mean_dwell >= 1`.
    pub fn new(fraction: f64, mean_dwell: f64) -> MarkovVariation {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        assert!(mean_dwell >= 1.0, "dwell time must be at least a cycle");
        MarkovVariation {
            fraction,
            mean_dwell,
        }
    }

    /// Samples `cycles` consecutive rate multipliers of one flow's
    /// modulation process — the trace plotted in the paper's Figure 5-4
    /// ("Transpose Node 52 Injection Rates when modeling burstiness").
    pub fn sample_trace(&self, seed: u64, cycles: usize) -> Vec<f64> {
        use rand::SeedableRng;
        let mut state = VariationState::new();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cycles).map(|_| state.step(self, &mut rng)).collect()
    }
}

#[derive(Clone, Debug)]
pub(crate) struct VariationState {
    multiplier: f64,
    cycles_left: u64,
    deviated: bool,
}

impl VariationState {
    pub(crate) fn new() -> VariationState {
        VariationState {
            multiplier: 1.0,
            cycles_left: 0,
            deviated: true, // first toggle enters the steady stage
        }
    }

    /// Advances one cycle, returning the current rate multiplier.
    pub(crate) fn step(&mut self, params: &MarkovVariation, rng: &mut StdRng) -> f64 {
        if self.cycles_left == 0 {
            self.deviated = !self.deviated;
            // Geometric dwell with the configured mean (at least 1).
            let p = 1.0 / params.mean_dwell;
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            self.cycles_left = (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64;
            self.multiplier = if self.deviated {
                1.0 + rng.gen_range(-params.fraction..=params.fraction)
            } else {
                1.0
            };
        }
        self.cycles_left -= 1;
        self.multiplier
    }
}

/// On/off bursty injection: each flow alternates between an *on* stage
/// (injecting at `rate / duty`, preserving the configured mean rate) and
/// an *off* stage (silent); each stage lasts a geometrically distributed
/// number of cycles. The long-run offered load matches the flat
/// Bernoulli process with the same base rates — only the arrival
/// clustering changes, which is exactly what stresses buffer depth and
/// VC allocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstyOnOff {
    /// Mean dwell time of the injecting stage, cycles.
    pub mean_on: f64,
    /// Mean dwell time of the silent stage, cycles.
    pub mean_off: f64,
}

impl BurstyOnOff {
    /// A bursty process with the given mean dwell times.
    ///
    /// # Panics
    ///
    /// Panics unless both means are finite and at least one cycle. An
    /// infinite mean makes the duty cycle NaN or the on-stage rate
    /// infinite.
    pub fn new(mean_on: f64, mean_off: f64) -> BurstyOnOff {
        assert!(
            mean_on.is_finite() && mean_off.is_finite(),
            "dwell times must be finite"
        );
        assert!(
            mean_on >= 1.0 && mean_off >= 1.0,
            "dwell times must be at least a cycle"
        );
        BurstyOnOff { mean_on, mean_off }
    }

    /// Fraction of cycles spent in the on stage.
    pub fn duty(&self) -> f64 {
        self.mean_on / (self.mean_on + self.mean_off)
    }

    /// Rate multiplier applied while on (1/duty), so the long-run mean
    /// offered load equals the base rate.
    pub fn on_multiplier(&self) -> f64 {
        1.0 / self.duty()
    }
}

/// Per-flow on/off stage tracker (mirrors [`VariationState`]).
#[derive(Clone, Debug)]
pub(crate) struct BurstState {
    on: bool,
    cycles_left: u64,
}

impl BurstState {
    pub(crate) fn new() -> BurstState {
        BurstState {
            on: false, // first toggle enters the on stage
            cycles_left: 0,
        }
    }

    /// Advances one cycle, returning whether the flow is injecting.
    pub(crate) fn step(&mut self, params: &BurstyOnOff, rng: &mut StdRng) -> bool {
        if self.cycles_left == 0 {
            self.on = !self.on;
            let mean = if self.on {
                params.mean_on
            } else {
                params.mean_off
            };
            let p = 1.0 / mean;
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            self.cycles_left = (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64;
        }
        self.cycles_left -= 1;
        self.on
    }
}

/// One stage of a [`PhaseSchedule`]: hold the workload's rates at
/// `scale ×` their base values for `cycles` cycles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Stage length in cycles (≥ 1).
    pub cycles: u64,
    /// Rate multiplier applied to every flow during the stage.
    pub scale: f64,
}

/// A multi-phase injection schedule: the per-flow rates are scaled by
/// each phase's multiplier in turn, switching exactly at cycle
/// boundaries, and the schedule repeats once exhausted. Cycle 0 of the
/// simulation (warmup included) is cycle 0 of the first phase, so a
/// report's measurement window covers a deterministic slice of the
/// schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSchedule {
    phases: Vec<Phase>,
    total: u64,
}

impl PhaseSchedule {
    /// Builds a schedule from its phases.
    ///
    /// # Panics
    ///
    /// Panics when `phases` is empty, any phase is zero-length, or any
    /// scale is negative or non-finite.
    pub fn new(phases: Vec<Phase>) -> PhaseSchedule {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        for p in &phases {
            assert!(p.cycles >= 1, "phases must last at least a cycle");
            assert!(
                p.scale.is_finite() && p.scale >= 0.0,
                "phase scale must be finite and non-negative"
            );
        }
        let total = phases.iter().map(|p| p.cycles).sum();
        PhaseSchedule { phases, total }
    }

    /// Convenience constructor from `(cycles, scale)` pairs.
    ///
    /// # Panics
    ///
    /// As [`PhaseSchedule::new`].
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, f64)>) -> PhaseSchedule {
        PhaseSchedule::new(
            pairs
                .into_iter()
                .map(|(cycles, scale)| Phase { cycles, scale })
                .collect(),
        )
    }

    /// The phases, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Cycles in one full pass of the schedule.
    pub fn period(&self) -> u64 {
        self.total
    }

    /// The rate multiplier in force at `cycle` (the schedule repeats).
    pub fn scale_at(&self, cycle: u64) -> f64 {
        let mut t = cycle % self.total;
        for p in &self.phases {
            if t < p.cycles {
                return p.scale;
            }
            t -= p.cycles;
        }
        unreachable!("cycle {t} beyond schedule period {}", self.total)
    }
}

/// Which arrival process generates packets from the per-flow rates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum InjectionProcess {
    /// Independent Bernoulli arrivals each cycle (the paper's §6.1
    /// methodology and the historical default).
    #[default]
    Bernoulli,
    /// On/off bursty arrivals with geometric stage dwell times.
    OnOff(BurstyOnOff),
}

/// Per-flow injection rates in packets/cycle, with optional run-time
/// variation, burstiness and phase scheduling.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// Base injection rate of each flow, packets/cycle, indexed by flow.
    pub rates: Vec<f64>,
    /// Optional Markov-modulated variation applied multiplicatively.
    pub variation: Option<MarkovVariation>,
    /// The arrival process mapping rates to packet generation events.
    pub injection: InjectionProcess,
    /// Optional multi-phase rate schedule (cycle-boundary switching).
    pub phases: Option<PhaseSchedule>,
}

impl TrafficSpec {
    /// Splits a total offered rate (packets/cycle across the whole
    /// network) over the flows proportionally to their bandwidth demands —
    /// how the evaluation sweeps load while keeping the application's
    /// traffic mix.
    ///
    /// # Panics
    ///
    /// Panics if `total_rate` is negative or the flow set is empty.
    pub fn proportional(flows: &FlowSet, total_rate: f64) -> TrafficSpec {
        assert!(total_rate >= 0.0, "offered rate must be non-negative");
        assert!(!flows.is_empty(), "traffic needs at least one flow");
        let total_demand = flows.total_demand();
        TrafficSpec {
            rates: flows
                .iter()
                .map(|f| total_rate * f.demand / total_demand)
                .collect(),
            variation: None,
            injection: InjectionProcess::Bernoulli,
            phases: None,
        }
    }

    /// Uniform per-flow rate (packets/cycle each).
    pub fn uniform(flows: &FlowSet, rate_per_flow: f64) -> TrafficSpec {
        assert!(rate_per_flow >= 0.0, "rate must be non-negative");
        TrafficSpec {
            rates: vec![rate_per_flow; flows.len()],
            variation: None,
            injection: InjectionProcess::Bernoulli,
            phases: None,
        }
    }

    /// Adds Markov-modulated bandwidth variation.
    #[must_use]
    pub fn with_variation(mut self, variation: MarkovVariation) -> Self {
        self.variation = Some(variation);
        self
    }

    /// Switches the arrival process to on/off bursty injection.
    #[must_use]
    pub fn with_burst(mut self, burst: BurstyOnOff) -> Self {
        self.injection = InjectionProcess::OnOff(burst);
        self
    }

    /// Adds a multi-phase rate schedule.
    #[must_use]
    pub fn with_phases(mut self, phases: PhaseSchedule) -> Self {
        self.phases = Some(phases);
        self
    }

    /// Total offered rate in packets/cycle (base rates, before phase
    /// scaling).
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_topology::NodeId;
    use rand::SeedableRng;

    fn flows() -> FlowSet {
        let mut fs = FlowSet::new();
        fs.push(NodeId(0), NodeId(1), 30.0);
        fs.push(NodeId(1), NodeId(2), 10.0);
        fs
    }

    #[test]
    fn proportional_split() {
        let spec = TrafficSpec::proportional(&flows(), 0.4);
        assert!((spec.rates[0] - 0.3).abs() < 1e-12);
        assert!((spec.rates[1] - 0.1).abs() < 1e-12);
        assert!((spec.total_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn uniform_split() {
        let spec = TrafficSpec::uniform(&flows(), 0.05);
        assert_eq!(spec.rates, vec![0.05, 0.05]);
    }

    #[test]
    fn variation_multiplier_stays_in_band() {
        let params = MarkovVariation::new(0.25, 50.0);
        let mut state = VariationState::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_deviation = false;
        for _ in 0..10_000 {
            let m = state.step(&params, &mut rng);
            assert!(
                (0.75..=1.25).contains(&m),
                "multiplier {m} escaped the 25% band"
            );
            if (m - 1.0).abs() > 1e-9 {
                saw_deviation = true;
            }
        }
        assert!(saw_deviation, "the deviated stage must occur");
    }

    #[test]
    fn variation_dwell_times_hold_rates_constant() {
        // Paper: "each rate is kept constant for a random number of
        // cycles" — multipliers change rarely relative to cycles.
        let params = MarkovVariation::new(0.5, 100.0);
        let mut state = VariationState::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut changes = 0;
        let mut last = f64::NAN;
        for _ in 0..10_000 {
            let m = state.step(&params, &mut rng);
            if (m - last).abs() > 1e-12 {
                changes += 1;
            }
            last = m;
        }
        assert!(
            changes < 400,
            "multiplier changed {changes} times in 10k cycles"
        );
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn variation_rejects_out_of_band_fraction() {
        MarkovVariation::new(1.5, 10.0);
    }

    #[test]
    fn burst_duty_cycle_matches_dwell_means() {
        let params = BurstyOnOff::new(40.0, 60.0);
        assert!((params.duty() - 0.4).abs() < 1e-12);
        assert!((params.on_multiplier() - 2.5).abs() < 1e-12);
        let mut state = BurstState::new();
        let mut rng = StdRng::seed_from_u64(3);
        let on_cycles = (0..200_000)
            .filter(|_| state.step(&params, &mut rng))
            .count();
        let duty = on_cycles as f64 / 200_000.0;
        assert!(
            (0.35..0.45).contains(&duty),
            "observed duty {duty} far from 0.4"
        );
    }

    #[test]
    fn burst_stages_dwell_for_whole_stretches() {
        let params = BurstyOnOff::new(50.0, 50.0);
        let mut state = BurstState::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut toggles = 0;
        let mut last = None;
        for _ in 0..10_000 {
            let on = state.step(&params, &mut rng);
            if last != Some(on) {
                toggles += 1;
            }
            last = Some(on);
        }
        assert!(toggles < 400, "toggled {toggles} times in 10k cycles");
    }

    #[test]
    #[should_panic(expected = "dwell")]
    fn burst_rejects_sub_cycle_dwell() {
        BurstyOnOff::new(0.5, 10.0);
    }

    #[test]
    #[should_panic(expected = "dwell times must be finite")]
    fn burst_rejects_infinite_dwell() {
        BurstyOnOff::new(5.0, f64::INFINITY);
    }

    #[test]
    fn phase_schedule_switches_at_cycle_boundaries_and_repeats() {
        let sched = PhaseSchedule::from_pairs([(100, 1.0), (50, 0.0), (25, 2.5)]);
        assert_eq!(sched.period(), 175);
        assert_eq!(sched.phases().len(), 3);
        assert_eq!(sched.scale_at(0), 1.0);
        assert_eq!(sched.scale_at(99), 1.0);
        assert_eq!(sched.scale_at(100), 0.0);
        assert_eq!(sched.scale_at(149), 0.0);
        assert_eq!(sched.scale_at(150), 2.5);
        assert_eq!(sched.scale_at(174), 2.5);
        // Wraps around.
        assert_eq!(sched.scale_at(175), 1.0);
        assert_eq!(sched.scale_at(175 + 160), 2.5);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn phase_schedule_rejects_empty() {
        PhaseSchedule::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least a cycle")]
    fn phase_schedule_rejects_zero_length_phase() {
        PhaseSchedule::from_pairs([(0, 1.0)]);
    }

    #[test]
    fn traffic_spec_builders_compose() {
        let spec = TrafficSpec::proportional(&flows(), 0.4)
            .with_burst(BurstyOnOff::new(20.0, 80.0))
            .with_phases(PhaseSchedule::from_pairs([(10, 1.0), (10, 0.5)]));
        assert_eq!(
            spec.injection,
            InjectionProcess::OnOff(BurstyOnOff::new(20.0, 80.0))
        );
        assert_eq!(spec.phases.as_ref().map(PhaseSchedule::period), Some(20));
        assert!((spec.total_rate() - 0.4).abs() < 1e-12);
    }
}
