//! Raw sample storage with lazily sorted views.

use crate::quantile::quantile_sorted;

/// A bag of latency samples (nanoseconds) for one measurement site.
///
/// Samples are appended unordered during a run; all queries operate on a
/// sorted copy that is materialized at most once (`freeze` / first query).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sample bag with room for `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            values: Vec::with_capacity(cap),
            sorted: false,
        }
    }

    /// Builds a bag directly from raw values.
    pub fn from_values(values: Vec<u64>) -> Self {
        Self {
            values,
            sorted: false,
        }
    }

    /// Appends one sample. O(1); never sorts.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw (possibly unsorted) view of the samples.
    pub fn raw(&self) -> &[u64] {
        &self.values
    }

    /// Sorts the underlying storage in place (idempotent).
    pub fn freeze(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0.0..=1.0) by linear interpolation.
    ///
    /// Returns `None` on an empty bag.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        self.freeze();
        quantile_sorted(&self.values, q)
    }

    /// Median latency.
    pub fn median(&mut self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 99th percentile latency.
    pub fn p99(&mut self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Worst-case (maximum) latency.
    pub fn max(&self) -> Option<u64> {
        self.values.iter().copied().max()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len() as f64)
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Samples::from_values(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bag_yields_none() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.median(), None);
        assert_eq!(s.p99(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn push_and_query() {
        let mut s = Samples::new();
        for v in [5u64, 1, 9, 3, 7] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.median(), Some(5));
        assert_eq!(s.max(), Some(9));
        s.freeze();
        assert_eq!(s.raw(), &[1, 3, 5, 7, 9]);
    }

    #[test]
    fn mean_matches_hand_computation() {
        let s = Samples::from_values(vec![2, 4, 6]);
        assert_eq!(s.mean(), Some(4.0));
    }

    #[test]
    fn from_iterator_collects() {
        let mut s: Samples = (1u64..=100).collect();
        assert_eq!(s.len(), 100);
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(100));
    }
}
