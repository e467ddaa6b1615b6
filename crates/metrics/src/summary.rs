//! Run-level latency summaries.

use crate::percentile::Percentiles;
use crate::record::{PrefillSite, RequestRecord};
use crate::slo::{SloAttainment, SloSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything the paper's end-to-end figures plot, computed from a run's
/// completed-request records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Completed requests.
    pub completed: usize,
    /// TTFT distribution, seconds.
    pub ttft: Percentiles,
    /// TPOT distribution, seconds (requests with ≥2 output tokens).
    pub tpot: Percentiles,
    /// Prefill queueing delay distribution, seconds.
    pub prefill_queue: Percentiles,
    /// Decode queueing delay distribution, seconds.
    pub decode_queue: Percentiles,
    /// SLO attainment under the supplied objectives.
    pub slo: SloAttainment,
    /// Completed requests meeting *both* objectives — the goodput
    /// numerator (goodput = `slo_attaining / duration`).
    pub slo_attaining: usize,
    /// Requests whose prefill was dispatched to the decode instance.
    pub dispatched_prefills: usize,
    /// Requests migrated by dynamic rescheduling at least once.
    pub migrated_requests: usize,
    /// Total KV swap-out events across all requests.
    pub total_swap_outs: u64,
}

impl LatencySummary {
    /// Summarizes `records` against `slo`.
    ///
    /// # Panics
    ///
    /// Panics if any record fails [`RequestRecord::validate`] — a malformed
    /// record indicates a simulator bug, not bad input.
    pub fn of(slo: SloSpec, records: &[RequestRecord]) -> Self {
        // One pass over the records collects the four samples and every
        // count; each sample is then sorted in place.
        let n = records.len();
        let mut ttft = Vec::with_capacity(n);
        let mut tpot = Vec::with_capacity(n);
        let mut prefill_queue = Vec::with_capacity(n);
        let mut decode_queue = Vec::with_capacity(n);
        let (mut meets_ttft, mut meets_tpot, mut meets_both) = (0, 0, 0);
        let (mut dispatched_prefills, mut migrated_requests, mut total_swap_outs) = (0, 0, 0);
        for r in records {
            r.validate().expect("malformed request record");
            ttft.push(r.ttft());
            tpot.extend(r.tpot());
            prefill_queue.push(r.prefill_queue_delay());
            decode_queue.push(r.decode_queue_delay());
            let (t, p) = (slo.meets_ttft(r), slo.meets_tpot(r));
            meets_ttft += usize::from(t);
            meets_tpot += usize::from(p);
            meets_both += usize::from(t && p);
            dispatched_prefills += usize::from(r.prefill_site == PrefillSite::DecodeInstance);
            migrated_requests += usize::from(r.migrations > 0);
            total_swap_outs += u64::from(r.swap_outs);
        }
        LatencySummary {
            completed: n,
            ttft: Percentiles::of(ttft),
            tpot: Percentiles::of(tpot),
            prefill_queue: Percentiles::of(prefill_queue),
            decode_queue: Percentiles::of(decode_queue),
            slo: SloAttainment::of_counts(n, meets_ttft, meets_tpot, meets_both),
            slo_attaining: meets_both,
            dispatched_prefills,
            migrated_requests,
            total_swap_outs,
        }
    }

    /// Summarizes `records` partitioned by `key` — e.g. per tenant, per
    /// priority tier, or per prefill site. Groups come back in key order;
    /// every record lands in exactly one group, so the groups' `completed`
    /// counts sum to `records.len()`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LatencySummary::of`].
    pub fn grouped_by<K, F>(
        slo: SloSpec,
        records: &[RequestRecord],
        key: F,
    ) -> BTreeMap<K, LatencySummary>
    where
        K: Ord,
        F: Fn(&RequestRecord) -> K,
    {
        let mut groups: BTreeMap<K, Vec<RequestRecord>> = BTreeMap::new();
        for r in records {
            groups.entry(key(r)).or_default().push(*r);
        }
        groups
            .into_iter()
            .map(|(k, rs)| (k, LatencySummary::of(slo, &rs)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windserve_sim::{SimDuration, SimTime};
    use windserve_workload::RequestId;

    fn record(i: u64, ttft_s: f64, tpot_s: f64, site: PrefillSite) -> RequestRecord {
        let arrival = SimTime::from_secs_f64(i as f64);
        let first = arrival + SimDuration::from_secs_f64(ttft_s);
        RequestRecord {
            id: RequestId(i),
            prompt_tokens: 64,
            output_tokens: 21,
            arrival,
            prefill_start: arrival,
            first_token: first,
            decode_enqueue: first,
            decode_start: first,
            completion: first + SimDuration::from_secs_f64(tpot_s * 20.0),
            prefill_site: site,
            swap_outs: (i % 2) as u32,
            migrations: 0,
            session: None,
            cached_prefix_tokens: 0,
        }
    }

    #[test]
    fn summary_aggregates_everything() {
        let slo = SloSpec::opt_13b_sharegpt();
        let records: Vec<_> = (0..10)
            .map(|i| {
                let site = if i < 3 {
                    PrefillSite::DecodeInstance
                } else {
                    PrefillSite::PrefillInstance
                };
                record(i, 0.1 + i as f64 * 0.01, 0.02, site)
            })
            .collect();
        let s = LatencySummary::of(slo, &records);
        assert_eq!(s.completed, 10);
        assert_eq!(s.dispatched_prefills, 3);
        assert_eq!(s.total_swap_outs, 5);
        assert!(s.ttft.p50 >= 0.1 && s.ttft.p99 <= 0.2);
        assert_eq!(s.slo.tpot, 1.0);
        // The goodput numerator counts exactly the both-SLO records.
        let slo2 = SloSpec::opt_13b_sharegpt();
        let expect = records.iter().filter(|r| slo2.meets_both(r)).count();
        assert_eq!(s.slo_attaining, expect);
    }

    #[test]
    fn grouped_summaries_partition_the_records() {
        let slo = SloSpec::opt_13b_sharegpt();
        let records: Vec<_> = (0..9)
            .map(|i| record(i, 0.1, 0.02, PrefillSite::PrefillInstance))
            .collect();
        // Key by id modulo 3 — three groups of three.
        let groups = LatencySummary::grouped_by(slo, &records, |r| r.id.0 % 3);
        assert_eq!(groups.len(), 3);
        assert!(groups.values().all(|s| s.completed == 3));
        let total: usize = groups.values().map(|s| s.completed).sum();
        assert_eq!(total, records.len());
    }

    /// The summary as it was computed before the one-pass rewrite: a pass
    /// per statistic over the records, each sample copied to be sorted.
    fn per_statistic_passes(slo: SloSpec, records: &[RequestRecord]) -> LatencySummary {
        let ttfts: Vec<f64> = records.iter().map(|r| r.ttft()).collect();
        let tpots: Vec<f64> = records.iter().filter_map(|r| r.tpot()).collect();
        let pq: Vec<f64> = records.iter().map(|r| r.prefill_queue_delay()).collect();
        let dq: Vec<f64> = records.iter().map(|r| r.decode_queue_delay()).collect();
        let count =
            |pred: &dyn Fn(&RequestRecord) -> bool| records.iter().filter(|r| pred(r)).count();
        LatencySummary {
            completed: records.len(),
            ttft: Percentiles::of(ttfts),
            tpot: Percentiles::of(tpots),
            prefill_queue: Percentiles::of(pq),
            decode_queue: Percentiles::of(dq),
            slo: SloAttainment::of_counts(
                records.len(),
                count(&|r| slo.meets_ttft(r)),
                count(&|r| slo.meets_tpot(r)),
                count(&|r| slo.meets_both(r)),
            ),
            slo_attaining: records.iter().filter(|r| slo.meets_both(r)).count(),
            dispatched_prefills: records
                .iter()
                .filter(|r| r.prefill_site == PrefillSite::DecodeInstance)
                .count(),
            migrated_requests: records.iter().filter(|r| r.migrations > 0).count(),
            total_swap_outs: records.iter().map(|r| u64::from(r.swap_outs)).sum(),
        }
    }

    proptest::proptest! {
        /// The one-pass summary equals the per-statistic passes, on records
        /// with zero and repeated stage gaps, one-token outputs and both
        /// prefill sites.
        #[test]
        fn one_pass_matches_per_statistic_passes(
            raw in proptest::collection::vec(
                ((0u64..4, 0u64..400_000), (0u64..4, 0u64..300_000), 1u32..40, 0u32..3),
                0..120,
            ),
        ) {
            let gap = |(kind, us): (u64, u64)| {
                SimDuration::from_micros(match kind {
                    0 => 0,
                    1 => 250_000,
                    _ => us,
                })
            };
            let records: Vec<RequestRecord> = raw
                .iter()
                .enumerate()
                .map(|(i, &(a, b, output_tokens, k))| {
                    let arrival = SimTime::from_secs_f64(i as f64 * 0.01);
                    let prefill_start = arrival + gap(b);
                    let first_token = prefill_start + gap(a);
                    let decode_start = first_token + gap((u64::from(k), 40_000));
                    RequestRecord {
                        id: RequestId(i as u64),
                        prompt_tokens: 64,
                        output_tokens,
                        arrival,
                        prefill_start,
                        first_token,
                        decode_enqueue: first_token,
                        decode_start,
                        completion: decode_start + gap((a.0, u64::from(output_tokens) * 30_000)),
                        prefill_site: if k == 0 {
                            PrefillSite::DecodeInstance
                        } else {
                            PrefillSite::PrefillInstance
                        },
                        swap_outs: k,
                        migrations: k % 2,
                        session: None,
                        cached_prefix_tokens: 0,
                    }
                })
                .collect();
            let slo = SloSpec::opt_13b_sharegpt();
            proptest::prop_assert_eq!(
                LatencySummary::of(slo, &records),
                per_statistic_passes(slo, &records)
            );
        }
    }

    #[test]
    fn empty_run_summarizes_to_zeroes() {
        let s = LatencySummary::of(SloSpec::opt_13b_sharegpt(), &[]);
        assert_eq!(s.completed, 0);
        assert_eq!(s.ttft.count, 0);
        assert_eq!(s.slo.both, 1.0);
    }
}
