//! Percentile machinery.
//!
//! The paper reports TTFT P50/P99 and TPOT P90/P99 (§5.1 Metrics). We use
//! the nearest-rank definition on a sorted copy, which is exact, simple and
//! matches what serving benchmarks typically report.

use serde::{Deserialize, Serialize};

/// Computes the `q`-quantile (`0.0..=1.0`) of `values` by nearest rank.
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
///
/// # Examples
///
/// ```
/// use windserve_metrics::percentile;
///
/// let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile(&xs, 0.5), Some(3.0));
/// assert_eq!(percentile(&xs, 1.0), Some(5.0));
/// assert_eq!(percentile(&[], 0.5), None);
/// ```
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if values.is_empty() {
        return None;
    }
    // Validate before cloning: rejecting bad input should not first pay for
    // an allocation proportional to the sample.
    assert!(values.iter().all(|v| !v.is_nan()), "NaN in samples");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

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
    /// Summarizes `values`; returns `None` if the sample is empty.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        Some(Self::summarize(values))
    }

    /// Summarizes `values` with one sort shared by every quantile, taking
    /// each statistic by nearest rank from the single sorted copy. Unlike
    /// [`Percentiles::of`] this never panics on sample *size*: an empty
    /// sample returns the [`Percentiles::zero`] sentinel (reported via
    /// [`Percentiles::is_empty`]) and a single-element sample yields that
    /// element for every quantile, including `q = 0.5`.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN (checked before allocating).
    pub fn summarize(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::zero();
        }
        assert!(values.iter().all(|v| !v.is_nan()), "NaN in samples");
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Self::of_sorted(&sorted)
    }

    /// [`Percentiles::summarize`] of a sample the caller hands over, sorted
    /// in place instead of copied. Values that compare equal are the same
    /// bits unless both zeros occur, so on a sample without `-0.0`, such as
    /// a run's latencies (durations), every statistic is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub(crate) fn summarize_owned(mut values: Vec<f64>) -> Self {
        if values.is_empty() {
            return Self::zero();
        }
        values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        Self::of_sorted(&values)
    }

    /// The summary of a non-empty sample in ascending order.
    fn of_sorted(sorted: &[f64]) -> Self {
        let at = |q: f64| sorted[nearest_rank(sorted.len(), q) - 1];
        Percentiles {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: *sorted.last().expect("non-empty"),
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

    #[test]
    fn nearest_rank_on_small_samples() {
        let xs = [10.0, 20.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        assert_eq!(percentile(&xs, 0.51), Some(20.0));
    }

    #[test]
    fn summary_fields_are_ordered() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = Percentiles::of(&xs).unwrap();
        assert_eq!(p.count, 1000);
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.max);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p99, 990.0);
    }

    #[test]
    fn empty_sample_yields_none() {
        assert!(Percentiles::of(&[]).is_none());
        assert_eq!(Percentiles::zero().count, 0);
        assert!(Percentiles::zero().is_empty());
        assert!(!Percentiles::of(&[1.0]).unwrap().is_empty());
    }

    #[test]
    fn summarize_returns_sentinel_for_empty_and_handles_singletons() {
        let empty = Percentiles::summarize(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty, Percentiles::zero());
        // A single sample must answer every quantile with itself — no panic
        // at q = 0.5.
        let one = Percentiles::summarize(&[7.5]);
        assert_eq!(one.count, 1);
        assert_eq!((one.p50, one.p90, one.p99, one.max), (7.5, 7.5, 7.5, 7.5));
        assert_eq!(one.mean, 7.5);
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
            let p = Percentiles::summarize(xs);
            assert_eq!(Some(p.p50), percentile(xs, 0.50));
            assert_eq!(Some(p.p90), percentile(xs, 0.90));
            assert_eq!(Some(p.p99), percentile(xs, 0.99));
            assert_eq!(Some(p.max), percentile(xs, 1.0));
        }
    }

    proptest! {
        /// Against a naive reference: percentile must equal the value at the
        /// ceil-rank index of the sorted sample.
        #[test]
        fn matches_naive_reference(mut xs in proptest::collection::vec(0.0f64..1e6, 1..300),
                                   q in 0.0f64..=1.0) {
            let got = percentile(&xs, q).unwrap();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            prop_assert_eq!(got, xs[rank - 1]);
        }

        /// Summarize and the doc-tested reference agree on arbitrary input.
        #[test]
        fn summarize_matches_percentile(xs in proptest::collection::vec(0.0f64..1e6, 1..300)) {
            let p = Percentiles::summarize(&xs);
            prop_assert_eq!(Some(p.p50), percentile(&xs, 0.50));
            prop_assert_eq!(Some(p.p90), percentile(&xs, 0.90));
            prop_assert_eq!(Some(p.p99), percentile(&xs, 0.99));
            prop_assert_eq!(Some(p.max), percentile(&xs, 1.0));
            prop_assert_eq!(Percentiles::of(&xs), Some(p));
        }

        /// The owned path sorts in place and still equals `Percentiles::of`
        /// bit for bit, on non-negative samples with zeros and duplicates.
        #[test]
        fn owned_summary_matches_of_bit_for_bit(
            raw in proptest::collection::vec((0u32..4, 0.0f64..1e3), 0..300),
        ) {
            let xs: Vec<f64> = raw
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 0.0,
                    1 => [0.25, 0.1, 7.0][(x as usize) % 3],
                    _ => x,
                })
                .collect();
            let bits = |p: Percentiles| {
                [p.count as u64, p.mean.to_bits(), p.p50.to_bits(), p.p90.to_bits(), p.p99.to_bits(), p.max.to_bits()]
            };
            let expect = Percentiles::of(&xs).unwrap_or_else(Percentiles::zero);
            prop_assert_eq!(bits(Percentiles::summarize_owned(xs)), bits(expect));
        }

        /// Percentiles are monotone in q.
        #[test]
        fn monotone_in_q(xs in proptest::collection::vec(0.0f64..1e6, 1..300)) {
            let mut last = f64::NEG_INFINITY;
            for i in 0..=10 {
                let v = percentile(&xs, i as f64 / 10.0).unwrap();
                prop_assert!(v >= last);
                last = v;
            }
        }
    }
}
