//! Service-level objectives.
//!
//! The paper's Table 4 fixes absolute SLOs per model/scenario, and §5.1
//! defines the *SLO attainment rate* as "the percentage of requests meeting
//! both TTFT and TPOT SLOs".

use crate::record::RequestRecord;
use serde::{Deserialize, Serialize};
use windserve_sim::SimDuration;

/// A (TTFT, TPOT) objective pair.
///
/// # Examples
///
/// ```
/// use windserve_metrics::SloSpec;
///
/// let slo = SloSpec::opt_13b_sharegpt();
/// assert_eq!(slo.ttft.as_secs_f64(), 0.25);
/// assert_eq!(slo.tpot.as_secs_f64(), 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Time-to-first-token objective.
    pub ttft: SimDuration,
    /// Time-per-output-token objective.
    pub tpot: SimDuration,
}

impl SloSpec {
    /// Creates an SLO pair.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(ttft: SimDuration, tpot: SimDuration) -> Self {
        assert!(!ttft.is_zero() && !tpot.is_zero(), "SLOs must be positive");
        SloSpec { ttft, tpot }
    }

    /// Table 4: OPT-13B on ShareGPT — TTFT 0.25 s, TPOT 0.1 s.
    pub fn opt_13b_sharegpt() -> Self {
        SloSpec::new(SimDuration::from_millis(250), SimDuration::from_millis(100))
    }

    /// Table 4: OPT-66B on ShareGPT — TTFT 0.8 s, TPOT 0.15 s.
    pub fn opt_66b_sharegpt() -> Self {
        SloSpec::new(SimDuration::from_millis(800), SimDuration::from_millis(150))
    }

    /// Table 4: LLaMA2-13B on LongBench — TTFT 4 s, TPOT 0.1 s.
    pub fn llama2_13b_longbench() -> Self {
        SloSpec::new(SimDuration::from_secs(4), SimDuration::from_millis(100))
    }

    /// Table 4: LLaMA2-70B on LongBench — TTFT 15 s, TPOT 0.5 s.
    pub fn llama2_70b_longbench() -> Self {
        SloSpec::new(SimDuration::from_secs(15), SimDuration::from_millis(500))
    }

    /// True if the record meets the TTFT objective.
    pub(crate) fn meets_ttft(&self, record: &RequestRecord) -> bool {
        record.ttft() <= self.ttft.as_secs_f64() + 1e-12
    }

    /// True if the record meets the TPOT objective (requests with a single
    /// output token trivially pass).
    pub(crate) fn meets_tpot(&self, record: &RequestRecord) -> bool {
        record
            .tpot()
            .map(|t| t <= self.tpot.as_secs_f64() + 1e-12)
            .unwrap_or(true)
    }

    /// True if the record meets both objectives.
    pub fn meets_both(&self, record: &RequestRecord) -> bool {
        self.meets_ttft(record) && self.meets_tpot(record)
    }
}

/// Attainment rates over a set of completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloAttainment {
    /// Fraction of requests meeting the TTFT objective.
    pub ttft: f64,
    /// Fraction meeting the TPOT objective.
    pub tpot: f64,
    /// Fraction meeting both (the paper's headline metric).
    pub both: f64,
}

impl SloAttainment {
    /// Attainment of `completed` requests of which `ttft`, `tpot` and
    /// `both` meet the TTFT objective, the TPOT objective and both.
    pub(crate) fn of_counts(completed: usize, ttft: usize, tpot: usize, both: usize) -> Self {
        if completed == 0 {
            return SloAttainment {
                ttft: 1.0,
                tpot: 1.0,
                both: 1.0,
            };
        }
        let n = completed as f64;
        SloAttainment {
            ttft: ttft as f64 / n,
            tpot: tpot as f64 / n,
            both: both as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PrefillSite;
    use windserve_sim::SimTime;
    use windserve_workload::RequestId;

    fn record(ttft_s: f64, tpot_s: f64) -> RequestRecord {
        let arrival = SimTime::from_secs_f64(1.0);
        let first = arrival + SimDuration::from_secs_f64(ttft_s);
        let steps = 10u32;
        RequestRecord {
            id: RequestId(0),
            prompt_tokens: 100,
            output_tokens: steps + 1,
            arrival,
            prefill_start: arrival,
            first_token: first,
            decode_enqueue: first,
            decode_start: first,
            completion: first + SimDuration::from_secs_f64(tpot_s * f64::from(steps)),
            prefill_site: PrefillSite::PrefillInstance,
            swap_outs: 0,
            migrations: 0,
            session: None,
            cached_prefix_tokens: 0,
        }
    }

    #[test]
    fn both_requires_both() {
        let slo = SloSpec::opt_13b_sharegpt();
        assert!(slo.meets_both(&record(0.2, 0.05)));
        assert!(!slo.meets_both(&record(0.3, 0.05)));
        assert!(!slo.meets_both(&record(0.2, 0.15)));
    }

    #[test]
    fn attainment_counts_fractions() {
        let slo = SloSpec::opt_13b_sharegpt();
        let records = vec![record(0.1, 0.05), record(0.5, 0.05), record(0.1, 0.2)];
        let a = crate::LatencySummary::of(slo, &records).slo;
        assert!((a.ttft - 2.0 / 3.0).abs() < 1e-9);
        assert!((a.tpot - 2.0 / 3.0).abs() < 1e-9);
        assert!((a.both - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_attains_trivially() {
        let a = crate::LatencySummary::of(SloSpec::opt_13b_sharegpt(), &[]).slo;
        assert_eq!(a.both, 1.0);
    }

    #[test]
    fn table4_presets_are_as_published() {
        assert_eq!(SloSpec::opt_66b_sharegpt().ttft.as_secs_f64(), 0.8);
        assert_eq!(SloSpec::llama2_13b_longbench().ttft.as_secs_f64(), 4.0);
        assert_eq!(SloSpec::llama2_70b_longbench().tpot.as_secs_f64(), 0.5);
    }

    #[test]
    fn exact_boundary_passes() {
        let slo = SloSpec::opt_13b_sharegpt();
        assert!(slo.meets_ttft(&record(0.25, 0.05)));
    }
}
