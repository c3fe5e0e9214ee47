//! Order statistics for the benchmark's samples.

/// Median of `values` (mean of the middle pair for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones a Python reader of the result files gets. A single value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The highest of p99 and p90 that has at least ten samples beyond it,
/// as `(label, value)`; `None` with fewer than 100 samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let v = sorted(values);
    let n = v.len();
    [("p99", 99), ("p90", 90)]
        .into_iter()
        .find_map(|(label, pct)| {
            // Nearest-rank percentile: the `rank`-th smallest sample.
            let rank = (n * pct).div_ceil(100);
            (rank >= 1 && n - rank >= 10).then(|| (label, v[rank - 1]))
        })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p90", 89.0)));
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p99", 989.0)));
    }
}
