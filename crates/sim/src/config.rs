//! Simulator configuration.

use std::error::Error;
use std::fmt;

/// Simulation parameters (defaults follow the paper's §6.1 methodology).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Virtual channels per physical channel (1, 2, 4 or 8 in the paper).
    pub vcs: u8,
    /// Flit buffer depth per VC (paper: 16).
    pub buffer_depth: usize,
    /// Flits per packet.
    pub packet_len: usize,
    /// Warmup cycles excluded from statistics (paper: 20 000).
    pub warmup: u64,
    /// Measured cycles (paper: 100 000).
    pub measurement: u64,
    /// Extra drain cycles after measurement (packets still in flight may
    /// complete and be counted if they were injected during measurement).
    pub drain: u64,
    /// Resource↔switch bandwidth in flits/cycle (paper: 4× the
    /// switch-to-switch links, which carry 1 flit/cycle).
    pub local_bandwidth: usize,
    /// RNG seed for injection processes.
    pub seed: u64,
    /// Cycles without any flit movement (while packets are in flight)
    /// after which the run aborts and reports deadlock.
    pub watchdog: u64,
    /// Per-hop router latency in cycles. 1 models the paper's §6.1
    /// single-cycle hop; 4 models the canonical RC/VA/SA/ST pipeline of
    /// Chapter 4 (a flit sent at cycle `t` becomes usable downstream at
    /// `t + pipeline_latency`).
    pub pipeline_latency: u8,
    /// Skip the router phases on cycles where the network is provably
    /// empty (no flits buffered, queued, or in the hop pipeline). The
    /// injection-schedule RNG still steps every cycle, so reports are
    /// byte-identical with the skip on or off. Defaults to on.
    pub fast_forward: bool,
}

impl SimConfig {
    /// Configuration with the paper's defaults and the given VC count.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= vcs <= 8`.
    pub fn new(vcs: u8) -> SimConfig {
        assert!((1..=8).contains(&vcs), "vcs must be 1..=8");
        SimConfig {
            vcs,
            buffer_depth: 16,
            packet_len: 8,
            warmup: 20_000,
            measurement: 100_000,
            drain: 0,
            local_bandwidth: 4,
            seed: 0xB50B,
            watchdog: 50_000,
            pipeline_latency: 1,
            fast_forward: true,
        }
    }

    /// Sets the warmup length.
    #[must_use]
    pub fn with_warmup(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Sets the measurement length.
    #[must_use]
    pub fn with_measurement(mut self, cycles: u64) -> Self {
        self.measurement = cycles;
        self
    }

    /// Sets the packet length in flits.
    ///
    /// # Panics
    ///
    /// Panics if `flits == 0`.
    #[must_use]
    pub fn with_packet_len(mut self, flits: usize) -> Self {
        assert!(flits > 0, "packets need at least one flit");
        self.packet_len = flits;
        self
    }

    /// Sets the per-VC buffer depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    #[must_use]
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "buffers need at least one slot");
        self.buffer_depth = depth;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the no-progress watchdog threshold (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    #[must_use]
    pub fn with_watchdog(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "watchdog must be positive");
        self.watchdog = cycles;
        self
    }

    /// Sets the per-hop router pipeline latency (1 = single-cycle hop,
    /// 4 = the Chapter 4 RC/VA/SA/ST pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    #[must_use]
    pub fn with_pipeline_latency(mut self, cycles: u8) -> Self {
        assert!(cycles > 0, "pipeline latency must be at least one cycle");
        self.pipeline_latency = cycles;
        self
    }

    /// Enables or disables idle-cycle fast-forward (see
    /// [`SimConfig::fast_forward`]). Reports are byte-identical either
    /// way; the switch exists so CI can exercise both paths.
    #[must_use]
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Total simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.warmup + self.measurement + self.drain
    }
}

/// Errors constructing a [`crate::Simulator`].
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The route set does not cover every flow.
    RouteCountMismatch {
        /// Number of flows.
        flows: usize,
        /// Number of routes provided.
        routes: usize,
    },
    /// A route uses a VC index outside the configured VC count.
    VcOutOfRange {
        /// The configured VC count.
        vcs: u8,
    },
    /// The traffic specification does not cover every flow.
    TrafficCountMismatch {
        /// Number of flows.
        flows: usize,
        /// Number of per-flow rates provided.
        rates: usize,
    },
    /// A per-flow injection rate is negative or not finite.
    BadRate {
        /// Index of the offending flow.
        flow: usize,
        /// The rate supplied.
        rate: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RouteCountMismatch { flows, routes } => {
                write!(f, "route set covers {routes} flows but traffic has {flows}")
            }
            SimError::VcOutOfRange { vcs } => {
                write!(
                    f,
                    "a route references a VC outside the configured {vcs} VCs"
                )
            }
            SimError::TrafficCountMismatch { flows, rates } => {
                write!(
                    f,
                    "traffic spec covers {rates} flows but flow set has {flows}"
                )
            }
            SimError::BadRate { flow, rate } => {
                write!(f, "flow {flow} has invalid injection rate {rate}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::new(2);
        assert_eq!(c.buffer_depth, 16);
        assert_eq!(c.warmup, 20_000);
        assert_eq!(c.measurement, 100_000);
        assert_eq!(c.local_bandwidth, 4);
        assert_eq!(c.total_cycles(), 120_000);
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::new(4)
            .with_warmup(10)
            .with_measurement(20)
            .with_packet_len(4)
            .with_buffer_depth(8)
            .with_seed(7);
        assert_eq!(c.vcs, 4);
        assert_eq!(c.total_cycles(), 30);
        assert_eq!(c.packet_len, 4);
        assert_eq!(c.buffer_depth, 8);
        assert_eq!(c.seed, 7);
    }

    #[test]
    #[should_panic(expected = "vcs must be")]
    fn rejects_zero_vcs() {
        SimConfig::new(0);
    }

    #[test]
    fn engine_knobs_default_to_serial_with_fast_forward() {
        let c = SimConfig::new(2);
        assert!(c.fast_forward);
        assert!(!c.with_fast_forward(false).fast_forward);
    }

    #[test]
    fn error_display() {
        assert!(!SimError::RouteCountMismatch {
            flows: 1,
            routes: 0
        }
        .to_string()
        .is_empty());
        assert!(!SimError::VcOutOfRange { vcs: 2 }.to_string().is_empty());
        assert!(!SimError::TrafficCountMismatch { flows: 2, rates: 1 }
            .to_string()
            .is_empty());
        assert!(!SimError::BadRate {
            flow: 0,
            rate: f64::NAN
        }
        .to_string()
        .is_empty());
    }
}
