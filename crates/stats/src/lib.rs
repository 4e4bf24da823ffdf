//! Statistics toolkit for the kernel-surface-area reproduction.
//!
//! The paper's evaluation reduces raw per-invocation system-call latencies to
//! a small set of summary artifacts:
//!
//! * per-site **quantile summaries** (median / 99th percentile / worst case),
//! * **latency bucket tables** — the cumulative percentage of system calls
//!   whose median/p99/max falls below 1µs, 10µs, 100µs, 1ms and 10ms
//!   (Tables 2 and 3),
//! * **violin summaries** — extrema, quartiles and the 2.5–97.5th
//!   percentile interval of the distribution of per-site p99s (Figure 2),
//! * **log2 duration histograms**, the telemetry registry's histogram
//!   type, and
//! * the **Spearman rank correlation** that relates kernel surface area
//!   to variability (Figure 2's trend table).
//!
//! Everything in this crate is deterministic and allocation-conscious: the
//! hot path (`Samples::push`) is a plain `Vec<u64>` append; quantiles sort
//! once on demand.

pub mod buckets;
pub mod correlation;
pub mod histogram;
pub mod quantile;
pub mod samples;
pub mod violin;

pub use buckets::{BucketRow, BucketTable, LATENCY_BUCKET_EDGES_NS};
pub use correlation::spearman;
pub use histogram::{Log2Histogram, LOG2_BUCKETS};
pub use quantile::quantile_sorted;
pub use samples::Samples;
pub use violin::ViolinSummary;

/// Nanoseconds per microsecond.
pub const US: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const MS: u64 = 1_000_000;
/// Nanoseconds per second.
pub const SEC: u64 = 1_000_000_000;

/// Formats a nanosecond latency with an adaptive unit, e.g. `3.20us`, `14.1ms`.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= SEC {
        format!("{:.2}s", ns as f64 / SEC as f64)
    } else if ns >= MS {
        format!("{:.2}ms", ns as f64 / MS as f64)
    } else if ns >= US {
        format!("{:.2}us", ns as f64 / US as f64)
    } else {
        format!("{}ns", ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_unit() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(3_200), "3.20us");
        assert_eq!(fmt_ns(14_100_000), "14.10ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
    }

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(US, 1_000);
        assert_eq!(MS, 1_000 * US);
        assert_eq!(SEC, 1_000 * MS);
    }
}
