//! # ksa-telemetry — deterministic time-series metrics
//!
//! A metrics layer for the simulation stack with the same contract as
//! the trace layer (`ksa_desim::trace`): **strictly observational**.
//! Registering, updating and sampling metrics never draws from an RNG,
//! never schedules an event and never blocks a process, so enabling
//! telemetry cannot move a single simulated nanosecond — and when
//! disabled every operation is one branch on a `bool`, making the
//! disabled build bit-identical *and* cost-free (the `ablate obs`
//! gate pins both properties).
//!
//! The model:
//!
//! * a [`Registry`] holds typed metrics — monotonic [counters]
//!   (`MetricKind::Counter`), instantaneous [gauges]
//!   (`MetricKind::Gauge`) and log2-bucketed [histograms]
//!   (`MetricKind::Histogram`) — each identified by a name plus a label
//!   set (`core="3"`, `subsys="net"`, …);
//! * on **coalesced sim-time ticks** (every
//!   [`TelemetryConfig::sample_period`] simulated nanoseconds, merged
//!   when the clock jumps several periods at once) the registry copies
//!   every metric's current value into its bounded [`SeriesRing`] —
//!   the same oldest-first-eviction + drop-counter discipline as the
//!   trace rings, so a long run degrades to "most recent window"
//!   instead of unbounded memory;
//! * because ticks are driven by the *virtual* clock, the sampled
//!   series are deterministic: bit-identical under replay and for
//!   every `--jobs` pool width.
//!
//! [`export`] renders a registry three ways: Prometheus text
//! exposition, time-series JSON, and (from caller-provided folded
//! stacks, e.g. the 13-component latency taxonomy) flamegraph
//! collapsed-stack plus speedscope JSON.
//!
//! [counters]: Registry::counter
//! [gauges]: Registry::gauge
//! [histograms]: Registry::histogram

mod config;
pub mod export;
mod registry;

pub use config::TelemetryConfig;
pub use registry::{Metric, MetricId, MetricKind, Ns, Registry, SeriesRing};
