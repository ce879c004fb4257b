//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so the spread the steadiness command
//! prints is the spread an outside checker computes from the same
//! values. Tail percentiles are only reported when at least
//! [`MIN_BEYOND`] samples lie beyond them: a p99 over 200 samples
//! would be the second-largest sample, not a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three cut points `[q1, median, q3]`, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    })
}

/// The distance between the first and third quartile as a share of
/// the median — the run-to-run spread the benchmark's bounds refer to.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    if values.is_empty() {
        return None;
    }
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, s.len());
    (s.len() - rank >= MIN_BEYOND).then(|| s[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[5.0; 10]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is the 990th: exactly ten lie beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        let beyond = v.iter().filter(|&&x| x > 990.0).count();
        assert_eq!(beyond, MIN_BEYOND);
        // One sample fewer and the p99 would have only nine beyond it.
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        // The median of 20 samples has ten beyond it; of 19, nine.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&w, 50.0), Some(10.0));
        assert_eq!(tail_percentile(&w[..19], 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 99.0), Some(1980.0));
    }
}
