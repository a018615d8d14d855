//! Order statistics over latency samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise the sample cannot tell that percentile apart from
/// the maximum.
const MIN_BEYOND_TAIL: usize = 10;

/// The `q` quantile (0 ≤ q ≤ 1) of an ascending slice, nearest rank; 0
/// for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples of `n` lie strictly beyond the nearest-rank `q`
/// quantile.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The `q` tail percentile, or `None` when fewer than
/// [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || beyond(sorted.len(), q) < MIN_BEYOND_TAIL {
        return None;
    }
    Some(quantile_sorted(sorted, q))
}

/// Sort a sample ascending (NaN-free by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    values
}

/// The median of a sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values.to_vec());
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 999 samples has 9 beyond it: not reportable.
        let small: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&small, 0.99), None);
        // 1000 samples leave exactly 10 beyond p99.
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&enough, 0.99), Some(990.0));
        // The median is always reportable once 20 samples exist.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty, 0.5), Some(10.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[]), 0.0);
    }
}
