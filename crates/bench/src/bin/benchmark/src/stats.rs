//! Order statistics the benchmark reports.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, so a tail figure
//! never rests on one or two outliers. Run-to-run spread is the
//! interquartile range, computed like Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method).

/// Samples a reported tail percentile must have strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [u32; 5] = [99, 95, 90, 75, 50];

/// Nearest-rank percentile `p` (0..=100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
fn beyond(n: usize, p: u32) -> usize {
    n - (p as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// The highest of p99/p95/p90/p75/p50 with at least [`MIN_BEYOND`]
/// samples beyond it, as `(percentile, value)`; `None` when even the
/// median has too few samples above it.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    let p = TAILS
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)?;
    Some((p, percentile(values, p)?))
}

/// Median; the mean of the two middle values for an even count (as
/// Python's `statistics.median`), which moves less than either of them
/// when the samples cluster by model.
pub fn median(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n % 2 == 1 {
        return percentile(values, 50);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v.get(n / 2 - 1)? + v[n / 2]) / 2.0)
}

/// First quartile, median and third quartile with linear interpolation
/// between order statistics at positions `(n + 1) * k / 4` — exactly the
/// values `statistics.quantiles(values, n=4)` returns, including its
/// extrapolation below the first and above the last sample when `n` is
/// small. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let m = (k * (n + 1)) as i64;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([at(1), at(2), at(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = seq(10);
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 99), Some(10.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 above it.
        assert_eq!(tail(&seq(1000)), Some((99, 990.0)));
        // 999 samples: p99 leaves 9, so p95 (49 above) is the tail.
        assert_eq!(tail(&seq(999)).map(|t| t.0), Some(95));
        // 40 samples: p75 leaves 10.
        assert_eq!(tail(&seq(40)), Some((75, 30.0)));
        // 39 samples: p75 leaves 9; the median leaves 19.
        assert_eq!(tail(&seq(39)).map(|t| t.0), Some(50));
        // 19 samples: even the median leaves only 9.
        assert_eq!(tail(&seq(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&seq(5)), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&seq(3)), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
