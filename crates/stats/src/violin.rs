//! Violin-plot summaries (Figure 2 of the paper).
//!
//! Each violin in the paper shows, for one VM configuration and one syscall
//! category, the distribution of per-syscall 99th percentiles.
//! [`ViolinSummary`] keeps the numbers the text/CSV renderers print: the
//! extrema, an interquartile box, a median dot, and whiskers spanning the
//! 2.5–97.5th percentile interval. It keeps no density outline.

use crate::quantile::quantile_sorted;

/// Data behind one violin: quartiles, whiskers and extrema.
#[derive(Debug, Clone)]
pub struct ViolinSummary {
    /// Label for this violin (e.g. `"8 VMs"`).
    pub label: String,
    /// Number of per-site values behind the violin.
    pub count: usize,
    /// Minimum value.
    pub min: u64,
    /// 2.5th percentile (lower end of the 95% interval whisker).
    pub whisker_lo: u64,
    /// First quartile (bottom of the box).
    pub q1: u64,
    /// Median (the white dot).
    pub median: u64,
    /// Third quartile (top of the box).
    pub q3: u64,
    /// 97.5th percentile (upper end of the 95% interval whisker).
    pub whisker_hi: u64,
    /// Maximum value (top of the violin).
    pub max: u64,
}

impl ViolinSummary {
    /// Builds a violin from unsorted per-site values. Returns `None` when
    /// `values` is empty.
    ///
    /// `_kde_points` is unused: it stays in the signature until the
    /// benchmark, which passes it, is next re-cut.
    pub fn from_values(
        label: impl Into<String>,
        values: &[u64],
        _kde_points: usize,
    ) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        Some(Self {
            label: label.into(),
            count: sorted.len(),
            min: sorted[0],
            whisker_lo: quantile_sorted(&sorted, 0.025)?,
            q1: quantile_sorted(&sorted, 0.25)?,
            median: quantile_sorted(&sorted, 0.5)?,
            q3: quantile_sorted(&sorted, 0.75)?,
            whisker_hi: quantile_sorted(&sorted, 0.975)?,
            max: sorted[sorted.len() - 1],
        })
    }

    /// One-line text rendering used by the fig2 experiment binary.
    pub fn render_line(&self) -> String {
        format!(
            "{:<10} n={:<5} min={:<10} q1={:<10} med={:<10} q3={:<10} p97.5={:<10} max={:<10}",
            self.label,
            self.count,
            crate::fmt_ns(self.min),
            crate::fmt_ns(self.q1),
            crate::fmt_ns(self.median),
            crate::fmt_ns(self.q3),
            crate::fmt_ns(self.whisker_hi),
            crate::fmt_ns(self.max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_values_yield_none() {
        assert!(ViolinSummary::from_values("x", &[], 16).is_none());
    }

    #[test]
    fn quartiles_are_ordered() {
        let vals: Vec<u64> = (1..=1000).map(|i| i * 37 % 7919 + 100).collect();
        let v = ViolinSummary::from_values("v", &vals, 64).unwrap();
        assert!(v.min <= v.whisker_lo);
        assert!(v.whisker_lo <= v.q1);
        assert!(v.q1 <= v.median);
        assert!(v.median <= v.q3);
        assert!(v.q3 <= v.whisker_hi);
        assert!(v.whisker_hi <= v.max);
    }

    #[test]
    fn render_line_mentions_label() {
        let v = ViolinSummary::from_values("8 VMs", &[1, 2, 3], 8).unwrap();
        assert!(v.render_line().contains("8 VMs"));
    }
}
