//! Order statistics for samples of one metric.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, linearly interpolated
/// between the two nearest ranks. `sorted` must be ascending and non-empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let s = sorted(values);
    [0.25, 0.5, 0.75].map(|q| quantile_sorted(&s, q))
}

/// Median of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The `pct`-th percentile of `values` as a nearest-rank order statistic:
/// the smallest sample with at least `pct` percent of the sample at or
/// below it.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let s = sorted(values);
    let rank = (pct as usize * s.len()).div_ceil(100).clamp(1, s.len());
    s[rank - 1]
}

/// Percentiles a latency may be reported at, ascending.
const PERCENTILE_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at least
/// ten of `n` samples beyond it, or `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&p| n * (100 - p as usize) >= 10 * 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 100.0);
        assert_eq!(percentile(&v, 90), 180.0);
        assert_eq!(percentile(&v, 99), 198.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(99), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }
}
