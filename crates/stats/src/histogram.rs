//! Log-scaled histograms: the telemetry registry's histogram type.
//!
//! Values land in power-of-two buckets (bucket *i* holds values in
//! `[2^i, 2^(i+1))`, with 0 sharing bucket 0). Bucket counts survive
//! merging across runs losslessly, and the Prometheus exporter renders
//! them as cumulative `le` buckets from [`Log2Histogram::bucket_range`],
//! without retaining per-event samples.

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
    fn empty_histogram_answers_every_query() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
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
        assert_eq!(Log2Histogram::bucket_of(700), 9);
        assert_eq!(h.buckets[9], 1, "the sample is the only live bucket");
        assert_eq!(Log2Histogram::bucket_range(9), (512, 1024));
    }

    #[test]
    fn top_bucket_saturates_without_overflow() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.buckets[63], 3, "all huge values land in bucket 63");
        assert_eq!(h.count(), 3);
        // The top bucket's upper edge saturates at u64::MAX rather than
        // wrapping to 2^64.
        assert_eq!(Log2Histogram::bucket_range(63).1, u64::MAX);
    }
}
