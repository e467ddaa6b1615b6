//! Percentile machinery.
//!
//! The paper reports TTFT P50/P99 and TPOT P90/P99 (§5.1 Metrics). We use
//! the nearest-rank definition on the sorted sample, which is exact, simple
//! and matches what serving benchmarks typically report.

use serde::{Deserialize, Serialize};

/// Nearest-rank index (1-based) of quantile `q` in a sample of `len`
/// elements; `len` must be non-zero.
fn nearest_rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len)
}

/// A one-pass summary of a latency sample: mean and the percentiles the
/// paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Summarizes `values`, sorted in place, with one sort shared by every
    /// quantile: each statistic is taken by nearest rank. An empty sample
    /// returns the [`Percentiles::zero`] sentinel (reported via
    /// [`Percentiles::is_empty`]) and a single-element sample yields that
    /// element for every quantile.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve_metrics::Percentiles;
    ///
    /// let p = Percentiles::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
    /// assert_eq!((p.p50, p.p99, p.max), (3.0, 5.0, 5.0));
    /// assert!(Percentiles::of(Vec::new()).is_empty());
    /// ```
    pub fn of(mut values: Vec<f64>) -> Self {
        if values.is_empty() {
            return Self::zero();
        }
        assert!(values.iter().all(|v| !v.is_nan()), "NaN in samples");
        values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let at = |q: f64| values[nearest_rank(values.len(), q) - 1];
        Percentiles {
            count: values.len(),
            mean: values.iter().sum::<f64>() / values.len() as f64,
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: values[values.len() - 1],
        }
    }

    /// True when the summary covers no samples — the statistic fields are
    /// then placeholders (zeros), not measurements, and renderers should
    /// show "n/a" rather than a misleading `0.0000`.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// An all-zero summary for an empty sample (convenient in reports).
    pub fn zero() -> Self {
        Percentiles {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            max: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The nearest-rank reference: the `q`-quantile of a sorted copy of a
    /// non-empty `values`.
    fn percentile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[nearest_rank(sorted.len(), q) - 1]
    }

    #[test]
    fn nearest_rank_on_small_samples() {
        let p = Percentiles::of(vec![20.0, 10.0]);
        assert_eq!((p.p50, p.p90, p.max), (10.0, 20.0, 20.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.0), 10.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.51), 20.0);
    }

    #[test]
    fn summary_fields_are_ordered() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = Percentiles::of(xs);
        assert_eq!(p.count, 1000);
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.max);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p99, 990.0);
    }

    #[test]
    fn empty_sample_yields_none() {
        assert_eq!(Percentiles::of(Vec::new()), Percentiles::zero());
        assert_eq!(Percentiles::zero().count, 0);
        assert!(Percentiles::zero().is_empty());
        assert!(!Percentiles::of(vec![1.0]).is_empty());
    }

    #[test]
    fn summarize_returns_sentinel_for_empty_and_handles_singletons() {
        let empty = Percentiles::of(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty, Percentiles::zero());
        // A single sample must answer every quantile with itself — no panic
        // at q = 0.5.
        let one = Percentiles::of(vec![7.5]);
        assert_eq!(one.count, 1);
        assert_eq!((one.p50, one.p90, one.p99, one.max), (7.5, 7.5, 7.5, 7.5));
        assert_eq!(one.mean, 7.5);
    }

    #[test]
    #[should_panic(expected = "NaN in samples")]
    fn a_lone_nan_is_rejected() {
        Percentiles::of(vec![f64::NAN]);
    }

    #[test]
    fn summarize_agrees_with_reference_percentile() {
        let samples: [&[f64]; 4] = [
            &[3.0],
            &[10.0, 20.0],
            &[5.0, 1.0, 4.0, 2.0, 3.0],
            &[0.25; 100],
        ];
        for xs in samples {
            let p = Percentiles::of(xs.to_vec());
            assert_eq!(p.p50, percentile(xs, 0.50));
            assert_eq!(p.p90, percentile(xs, 0.90));
            assert_eq!(p.p99, percentile(xs, 0.99));
            assert_eq!(p.max, percentile(xs, 1.0));
        }
    }

    proptest! {
        /// Against a naive reference: percentile must equal the value at the
        /// ceil-rank index of the sorted sample.
        #[test]
        fn matches_naive_reference(mut xs in proptest::collection::vec(0.0f64..1e6, 1..300),
                                   q in 0.0f64..=1.0) {
            let got = percentile(&xs, q);
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            prop_assert_eq!(got, xs[rank - 1]);
        }

        /// The summary and the nearest-rank reference agree on arbitrary
        /// input, with zeros and duplicates.
        #[test]
        fn summarize_matches_percentile(
            raw in proptest::collection::vec((0u32..4, 0.0f64..1e6), 1..300),
        ) {
            let xs: Vec<f64> = raw
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 0.0,
                    1 => [0.25, 0.1, 7.0][(x as usize) % 3],
                    _ => x,
                })
                .collect();
            let p = Percentiles::of(xs.clone());
            prop_assert_eq!(p.count, xs.len());
            prop_assert_eq!(p.p50, percentile(&xs, 0.50));
            prop_assert_eq!(p.p90, percentile(&xs, 0.90));
            prop_assert_eq!(p.p99, percentile(&xs, 0.99));
            prop_assert_eq!(p.max, percentile(&xs, 1.0));
        }

        /// Every statistic lies inside the sample's range and the quantiles
        /// are monotone in q.
        #[test]
        fn monotone_in_q(xs in proptest::collection::vec(0.0f64..1e6, 1..300)) {
            let min = percentile(&xs, 0.0);
            let p = Percentiles::of(xs);
            prop_assert!(min <= p.p50 && p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.max);
            prop_assert!(min <= p.mean && p.mean <= p.max);
        }
    }
}
