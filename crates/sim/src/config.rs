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

    /// Total simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.warmup + self.measurement + self.drain
    }

    /// Refuses a configuration the engine cannot run: `vcs` outside
    /// 1..=8, or a zero packet length, buffer depth, local bandwidth,
    /// pipeline latency or watchdog. The builders assert the same
    /// rules, but the fields are public.
    pub(crate) fn check(&self) -> Result<(), SimError> {
        if !(1..=8).contains(&self.vcs) {
            let value = u64::from(self.vcs);
            return Err(SimError::BadConfig {
                field: "vcs",
                value,
            });
        }
        let counts = [
            ("packet_len", self.packet_len as u64),
            ("buffer_depth", self.buffer_depth as u64),
            ("local_bandwidth", self.local_bandwidth as u64),
            ("pipeline_latency", u64::from(self.pipeline_latency)),
            ("watchdog", self.watchdog),
        ];
        match counts.into_iter().find(|&(_, value)| value == 0) {
            Some((field, value)) => Err(SimError::BadConfig { field, value }),
            None => Ok(()),
        }
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
    /// A [`SimConfig`] field is out of the engine's range: `vcs` outside
    /// 1..=8, or a zero packet length, buffer depth, local bandwidth,
    /// pipeline latency or watchdog.
    BadConfig {
        /// The field's name.
        field: &'static str,
        /// The value it held.
        value: u64,
    },
    /// A per-flow injection rate is negative or not finite.
    BadRate {
        /// Index of the offending flow.
        flow: usize,
        /// The rate supplied.
        rate: f64,
    },
    /// The run is larger than the engine can finish: its cycle count
    /// overflows `u64`, or its peak packet count (each flow's peak
    /// per-cycle rate, summed, × cycles) exceeds the `u32` packet-slot
    /// ids. Refused before the first cycle.
    RunTooLarge {
        /// What was measured against the bound.
        figure: &'static str,
        /// The figure's value.
        value: f64,
        /// The largest value the engine accepts.
        bound: u64,
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
            SimError::BadConfig { field, value } => {
                let range = if *field == "vcs" {
                    "1..=8"
                } else {
                    "at least 1"
                };
                write!(f, "config field '{field}' is {value}, must be {range}")
            }
            SimError::BadRate { flow, rate } => {
                write!(f, "flow {flow} has invalid injection rate {rate}")
            }
            SimError::RunTooLarge {
                figure,
                value,
                bound,
            } => {
                write!(
                    f,
                    "run too large: {figure} is {value:e}, over the engine's bound of {bound}"
                )
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
        assert_eq!(
            SimError::BadConfig {
                field: "packet_len",
                value: 0
            }
            .to_string(),
            "config field 'packet_len' is 0, must be at least 1"
        );
        assert!(!SimError::BadRate {
            flow: 0,
            rate: f64::NAN
        }
        .to_string()
        .is_empty());
        assert_eq!(
            SimError::RunTooLarge {
                figure: "cycles (warmup + measurement + drain)",
                value: 2.0f64.powi(64),
                bound: u64::MAX,
            }
            .to_string(),
            "run too large: cycles (warmup + measurement + drain) is 1.8446744073709552e19, \
             over the engine's bound of 18446744073709551615"
        );
    }
}
