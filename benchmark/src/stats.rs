//! Order statistics for the benchmark's own reporting: medians,
//! nearest-rank percentiles, the "ten samples beyond" rule that decides
//! whether a tail percentile may be reported, and the quartile spread
//! the stability check is stated in.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Smallest sample a reported `latency_p99_ms` may rest on.
pub const MIN_TAIL_SAMPLES: usize = 2_000;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// 1-based nearest-rank index of percentile `p` (in `(0, 1]`) in a
/// sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (n as f64 * p).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many samples lie beyond percentile `p` in a sample of `n`; a
/// percentile is reported only when at least [`TAIL_SUPPORT`] do.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The contract's spread: distance between the first and third quartile
/// as a share of the median. 0 when the median is 0 and the quartiles
/// coincide (an exact metric that reads 0 everywhere).
pub fn relative_spread(values: &[f64]) -> f64 {
    let Some([q1, _, q3]) = quartiles(values) else {
        return 0.0;
    };
    let med = median(values);
    if q3 == q1 {
        0.0
    } else if med == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // rank(999, .99) = 990 leaves 9 beyond; 1000 leaves exactly 10.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1_000, 0.99), TAIL_SUPPORT);
        assert_eq!(beyond(0, 0.99), 0);
        // The median of 20 has 10 beyond it; of 19 only 9.
        assert_eq!((beyond(20, 0.50), beyond(19, 0.50)), (10, 9));
        // The floor under `latency_p99_ms` clears the rule twice over.
        assert!(beyond(MIN_TAIL_SAMPLES, 0.99) >= 2 * TAIL_SUPPORT);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0; 10]), 0.0);
        assert_eq!(relative_spread(&[0.0; 4]), 0.0);
    }
}
