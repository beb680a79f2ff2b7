//! Order statistics for the reported figures.

/// Median of `xs` (mean of the middle two for an even count); `0.0`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` by linear interpolation between
/// closest ranks; `0.0` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentiles the tail is chosen from, in per mille, highest last.
pub const TAIL_LADDER: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it among `n`; the median when `n` is too small for
/// any of them.
pub fn tail_percentile(n: usize) -> f64 {
    let n = n as u64;
    let per_mille = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .unwrap_or(500);
    per_mille as f64 / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }
}
