//! Quantile computation on sorted data.

/// Linear-interpolation quantile of a **sorted** slice.
///
/// Uses the same definition as numpy's default (`linear` / R type-7):
/// the `q`-quantile sits at rank `q * (n - 1)` and is linearly interpolated
/// between the neighbouring order statistics. `q` is clamped to `[0, 1]`.
///
/// Returns `None` for an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = rank - lo as f64;
    let a = sorted[lo] as f64;
    let b = sorted[hi] as f64;
    Some((a + (b - a) * frac).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn single_element_is_constant() {
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(quantile_sorted(&[42], q), Some(42));
        }
    }

    #[test]
    fn interpolates_between_ranks() {
        let v = [0u64, 10, 20, 30];
        assert_eq!(quantile_sorted(&v, 0.5), Some(15));
        assert_eq!(quantile_sorted(&v, 0.0), Some(0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(30));
        // rank 0.99 * 3 = 2.97 -> 20 + 0.97 * 10 = 29.7 -> 30 (rounded)
        assert_eq!(quantile_sorted(&v, 0.99), Some(30));
    }

    #[test]
    fn clamps_out_of_range_q() {
        let v = [1u64, 2, 3];
        assert_eq!(quantile_sorted(&v, -1.0), Some(1));
        assert_eq!(quantile_sorted(&v, 2.0), Some(3));
    }
}
