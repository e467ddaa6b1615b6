//! Fixed-interval time series.
//!
//! Runs can sample instance state (KV usage, queue depths, running batch
//! size) on a fixed cadence; the resulting series are what the paper's
//! over-time plots (e.g. Fig. 1a's decode-queueing growth) are made of.

use serde::{Deserialize, Serialize};
use windserve_sim::{SimDuration, SimTime};

/// A time series sampled at a fixed interval starting at t = 0.
///
/// # Examples
///
/// ```
/// use windserve_metrics::Series;
/// use windserve_sim::{SimDuration, SimTime};
///
/// let mut s = Series::new(SimDuration::from_millis(100));
/// s.push(SimTime::from_secs_f64(0.0), 1.0);
/// s.push(SimTime::from_secs_f64(0.1), 3.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    interval: SimDuration,
    values: Vec<f64>,
}

impl Series {
    /// Creates an empty series with the given sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        Series {
            interval,
            values: Vec::new(),
        }
    }

    /// Appends a sample taken at `at`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if samples arrive off-cadence: sample `i`
    /// must be taken at `i * interval`.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert_eq!(
            at.as_micros(),
            self.values.len() as u64 * self.interval.as_micros(),
            "sample off cadence"
        );
        self.values.push(value);
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The samples in order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum (0 for an empty series).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

/// Sampled state of one instance over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceSeries {
    /// Instance name.
    pub name: String,
    /// Fraction of KV blocks in use, 0..=1.
    pub kv_used: Series,
    /// Prompts waiting for prefill.
    pub waiting_prefill: Series,
    /// Sequences waiting for decode admission.
    pub waiting_decode: Series,
    /// Actively decoding sequences.
    pub running: Series,
}

impl InstanceSeries {
    /// Creates empty series for an instance.
    pub fn new(name: impl Into<String>, interval: SimDuration) -> Self {
        InstanceSeries {
            name: name.into(),
            kv_used: Series::new(interval),
            waiting_prefill: Series::new(interval),
            waiting_decode: Series::new(interval),
            running: Series::new(interval),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadenced_samples_accumulate() {
        let mut s = Series::new(SimDuration::from_millis(50));
        for i in 0..10u64 {
            s.push(SimTime::from_micros(i * 50_000), i as f64);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.mean(), 4.5);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_series_is_well_behaved() {
        let s = Series::new(SimDuration::from_millis(1));
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_rejected() {
        let _ = Series::new(SimDuration::ZERO);
    }

    #[test]
    fn instance_series_share_one_cadence() {
        let is = InstanceSeries::new("decode", SimDuration::from_millis(100));
        assert_eq!(is.kv_used.interval(), is.running.interval());
        assert_eq!(is.name, "decode");
    }
}
