//! Telemetry configuration, mirroring `ksa_desim::TraceConfig`'s
//! shape: a `Copy` struct threaded through run configs, with
//! `disabled()` as the strictly-zero-cost default.

use crate::registry::Ns;

/// Default sampling period: one sample per 100µs of simulated time.
/// Trials run for simulated milliseconds to seconds, so this yields
/// tens to thousands of points per series — enough to see intra-trial
/// pressure evolve without flooding the rings.
pub const DEFAULT_SAMPLE_PERIOD: Ns = 100_000;

/// Default per-series ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Telemetry configuration.
///
/// `enabled == false` is the zero-cost mode: every registry operation
/// reduces to one branch, no metric is allocated, and simulated
/// results are bit-identical to a build without telemetry at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch.
    pub enabled: bool,
    /// Simulated nanoseconds between ring samples. Ticks are
    /// *coalesced*: if the clock jumps several periods between
    /// updates, one sample is taken at the current time rather than
    /// back-filling the missed ticks.
    pub sample_period: Ns,
    /// Bounded capacity of each metric's time-series ring (oldest
    /// samples evicted first, evictions counted).
    pub ring_capacity: usize,
}

impl TelemetryConfig {
    /// Telemetry off: the zero-cost, bit-identical default.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_period: 0,
            ring_capacity: 0,
        }
    }

    /// Telemetry on with the default period and ring capacity.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            sample_period: DEFAULT_SAMPLE_PERIOD,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Telemetry on with an explicit period and ring capacity.
    pub fn with(sample_period: Ns, ring_capacity: usize) -> Self {
        TelemetryConfig {
            enabled: true,
            sample_period: sample_period.max(1),
            ring_capacity,
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}
