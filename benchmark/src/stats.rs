//! Order statistics: medians, quartiles and latency percentiles.

/// Sorts a copy of `xs` ascending (NaNs last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones an outside checker computes.
/// With fewer than two values every quartile is that value (or 0).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps float error in `p` (99.9 is inexact) from rounding
    // an exact rank up to the next sample.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency sample summarized the way the benchmark reports timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// The highest of p50/p90/p99/p99.9 with at least ten samples beyond
    /// it, as `(percentile, value)`; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles a tail is chosen from, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        let n = v.len();
        let tail = TAIL_CANDIDATES
            .iter()
            .find(|&&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
            .map(|&p| (p, percentile(&v, p)));
        Summary {
            n,
            p50: percentile(&v, 50.0),
            p90: percentile(&v, 90.0),
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0; 10]), 0.0);
        assert_eq!(iqr_share(&[0.0; 4]), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let of = |n: usize| Summary::of(&(1..=n).map(|i| i as f64).collect::<Vec<_>>());
        // 10_000 samples: p99.9 leaves exactly 10 beyond it.
        assert_eq!(of(10_000).tail, Some((99.9, 9_990.0)));
        // 9_999 samples: p99.9 leaves 9.999, so p99 is the tail.
        assert_eq!(of(9_999).tail.map(|t| t.0), Some(99.0));
        assert_eq!(of(1_000).tail, Some((99.0, 990.0)));
        assert_eq!(of(999).tail.map(|t| t.0), Some(90.0));
        assert_eq!(of(100).tail, Some((90.0, 90.0)));
        assert_eq!(of(20).tail, Some((50.0, 10.0)));
        assert_eq!(of(19).tail, None);
        let s = of(1_000);
        assert_eq!((s.n, s.p50, s.p90), (1_000, 500.0, 900.0));
    }
}
