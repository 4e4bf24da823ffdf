//! Log-scaled duration histograms (the lockstat wait-time view).
//!
//! The engine records lock wait durations into power-of-two buckets
//! (bucket *i* holds values in `[2^i, 2^(i+1))`, with 0 sharing bucket
//! 0). This module aggregates, merges and summarizes those buckets:
//! they survive aggregation across locks and runs losslessly, and they
//! answer "how long are the waits" questions (approximate quantiles,
//! worst-case bucket) without retaining per-event samples.

/// Number of power-of-two buckets (covers the full `u64` range).
pub const LOG2_BUCKETS: usize = 64;

/// A histogram over power-of-two buckets: bucket `i` counts values `v`
/// with `floor(log2(v)) == i` (0 lands in bucket 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    /// Per-bucket counts.
    pub buckets: [u64; LOG2_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; LOG2_BUCKETS],
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// The half-open value range `[lo, hi)` covered by bucket `i`
    /// (`hi` saturates at `u64::MAX` for the top bucket).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
        (lo, hi)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Total recorded count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (0 ≤ p ≤ 100); `None` when empty. Log-bucketed data can only
    /// bound a quantile, so this reports the conservative (upper) edge.
    pub fn percentile_upper_bound(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_range(i).1);
            }
        }
        Some(u64::MAX)
    }

    /// Index of the highest non-empty bucket; `None` when empty.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Renders the non-empty buckets as `[lo, hi) count` lines with a
    /// proportional bar, lockstat-style.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let total = self.count();
        if total == 0 {
            out.push_str("(empty)\n");
            return out;
        }
        let peak = *self.buckets.iter().max().unwrap();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = Self::bucket_range(i);
            let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
            let _ = writeln!(out, "[{lo:>12}, {hi:>12}) {c:>10} {bar}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_matches_engine_rule() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 0);
        assert_eq!(Log2Histogram::bucket_of(2), 1);
        assert_eq!(Log2Histogram::bucket_of(3), 1);
        assert_eq!(Log2Histogram::bucket_of(1024), 10);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn ranges_tile_the_u64_line() {
        for i in 0..63 {
            let (_, hi) = Log2Histogram::bucket_range(i);
            let (lo_next, _) = Log2Histogram::bucket_range(i + 1);
            assert_eq!(hi, lo_next, "bucket {i} must abut bucket {}", i + 1);
        }
        assert_eq!(Log2Histogram::bucket_range(0).0, 0);
        assert_eq!(Log2Histogram::bucket_range(63).1, u64::MAX);
    }

    #[test]
    fn record_count_and_merge() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 700, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets[0], 2, "0 and 1 share bucket 0");
        let mut other = Log2Histogram::new();
        other.record(700);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets[Log2Histogram::bucket_of(700)], 2);
    }

    #[test]
    fn percentile_bound_walks_buckets() {
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 30); // one huge outlier
        assert_eq!(h.percentile_upper_bound(50.0), Some(128));
        assert_eq!(h.percentile_upper_bound(99.0), Some(128));
        assert_eq!(h.percentile_upper_bound(100.0), Some(1 << 31));
        assert_eq!(Log2Histogram::new().percentile_upper_bound(50.0), None);
    }

    #[test]
    fn render_shows_only_live_buckets() {
        let mut h = Log2Histogram::new();
        h.record(100);
        h.record(100);
        let s = h.render();
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("[          64,          128)"), "{s}");
        assert!(Log2Histogram::new().render().contains("(empty)"));
    }

    #[test]
    fn empty_histogram_answers_every_query() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_bucket(), None);
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile_upper_bound(p), None, "p={p}");
        }
        let mut merged = Log2Histogram::new();
        merged.merge(&h);
        assert!(merged.is_empty(), "merging empties stays empty");
    }

    #[test]
    fn single_sample_pins_every_percentile_to_its_bucket() {
        let mut h = Log2Histogram::new();
        h.record(700); // bucket 9: [512, 1024)
        assert_eq!(h.count(), 1);
        assert!(!h.is_empty());
        let (_, hi) = Log2Histogram::bucket_range(Log2Histogram::bucket_of(700));
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile_upper_bound(p), Some(hi), "p={p}");
        }
        assert_eq!(h.max_bucket(), Some(9));
    }

    #[test]
    fn top_bucket_saturates_without_overflow() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.buckets[63], 3, "all huge values land in bucket 63");
        assert_eq!(h.max_bucket(), Some(63));
        // The top bucket's upper edge saturates at u64::MAX rather than
        // wrapping to 2^64.
        assert_eq!(h.percentile_upper_bound(100.0), Some(u64::MAX));
        assert_eq!(h.render().lines().count(), 1);
    }

    #[test]
    fn percentile_upper_bound_is_monotone_in_p() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 3, 70, 700, 7_000, 1 << 20, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let mut last = 0u64;
        for tenth in 0..=1000 {
            let p = tenth as f64 / 10.0;
            let bound = h.percentile_upper_bound(p).expect("non-empty");
            assert!(
                bound >= last,
                "p={p}: bound {bound} dropped below previous {last}"
            );
            last = bound;
        }
        assert_eq!(last, u64::MAX, "p=100 reaches the top sample's bucket");
    }

    #[test]
    fn max_bucket_tracks_worst_case() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.max_bucket(), None);
        h.record(3);
        h.record(5_000_000);
        assert_eq!(h.max_bucket(), Some(Log2Histogram::bucket_of(5_000_000)));
    }
}
