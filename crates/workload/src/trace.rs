//! Trace generation and statistics.
//!
//! A [`Trace`] is the fully materialized input to one simulation run: a
//! time-ordered list of [`Request`]s. Traces are deterministic functions of
//! `(dataset, arrival process, n, seed)` so experiments are replayable.

use crate::arrival::ArrivalProcess;
use crate::dataset::Dataset;
use crate::request::{Request, RequestId, TenantId};
use serde::{Deserialize, Serialize};
use windserve_sim::{SimRng, SimTime};

/// A replayable request trace.
///
/// # Examples
///
/// ```
/// use windserve_workload::{ArrivalProcess, Dataset, Scenario};
///
/// let trace = Scenario::single_shot(
///     Dataset::sharegpt(2048),
///     ArrivalProcess::poisson(4.0),
///     100,
/// )
/// .generate(42)
/// .unwrap();
/// assert_eq!(trace.requests().len(), 100);
/// let stats = trace.stats();
/// assert!(stats.prompt.mean > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    requests: Vec<Request>,
}

/// Single-shot trace generation: `n` requests from `dataset` issued by
/// `arrivals`, seeded by `seed`. Length draws and arrival draws use
/// independent RNG streams, so changing the arrival process does not change
/// the sampled lengths. This is the generation path behind
/// [`Scenario::SingleShot`](crate::Scenario::SingleShot).
pub(crate) fn generate_single_shot(
    dataset: &Dataset,
    arrivals: &ArrivalProcess,
    n: usize,
    seed: u64,
) -> Trace {
    let root = SimRng::seed_from_u64(seed);
    let mut len_rng = root.fork(1);
    let mut gap_rng = root.fork(2);
    let gaps = arrivals.gaps(n, &mut gap_rng);
    let mut t = SimTime::ZERO;
    let mut requests = Vec::with_capacity(n);
    for (i, gap) in gaps.into_iter().enumerate() {
        t += gap;
        requests.push(dataset.sample_request(RequestId(i as u64), t, &mut len_rng));
    }
    Trace { requests }
}

/// A copy of `r` with a new id and arrival time; every other tag (tier,
/// tenant, session) rides along. The trace-rebuilding combinators below all
/// funnel through this, so new request metadata survives them by default.
fn retagged(r: &Request, id: RequestId, arrival: SimTime) -> Request {
    let mut out = *r;
    out.id = id;
    out.arrival = arrival;
    out
}

/// Summary statistics of one token-length column (Table 2 format).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LengthStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (P50).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
}

/// Prompt and output statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Prompt-token statistics.
    pub prompt: LengthStats,
    /// Output-token statistics.
    pub output: LengthStats,
    /// Observed mean arrival rate, req/s.
    pub arrival_rate: f64,
}

impl Trace {
    /// Builds a trace from explicit requests (must be time-ordered).
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not non-decreasing or ids are not unique and
    /// ascending.
    pub fn from_requests(requests: Vec<Request>) -> Self {
        for w in requests.windows(2) {
            assert!(w[1].arrival >= w[0].arrival, "trace must be time-ordered");
            assert!(w[1].id > w[0].id, "request ids must ascend");
        }
        Trace { requests }
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Time span from first to last arrival.
    pub fn span(&self) -> f64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(a), Some(b)) => b.arrival.saturating_since(a.arrival).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// A sub-trace of the requests with indices in `range`, re-identified
    /// from zero and re-based so the first request arrives at its original
    /// offset from the slice start.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Trace {
        let window = &self.requests[range];
        let base = window.first().map(|r| r.arrival).unwrap_or(SimTime::ZERO);
        let requests = window
            .iter()
            .enumerate()
            .map(|(i, r)| {
                retagged(
                    r,
                    RequestId(i as u64),
                    SimTime::ZERO + r.arrival.saturating_since(base),
                )
            })
            .collect();
        Trace { requests }
    }

    /// The same requests with all inter-arrival gaps scaled by
    /// `1 / rate_factor`: a factor of 2 doubles the offered rate.
    ///
    /// # Panics
    ///
    /// Panics if the factor is not strictly positive and finite.
    pub fn with_rate_scaled(&self, rate_factor: f64) -> Trace {
        assert!(
            rate_factor.is_finite() && rate_factor > 0.0,
            "invalid rate factor {rate_factor}"
        );
        let requests = self
            .requests
            .iter()
            .map(|r| {
                retagged(
                    r,
                    r.id,
                    SimTime::from_secs_f64(r.arrival.as_secs_f64() / rate_factor),
                )
            })
            .collect();
        Trace { requests }
    }

    /// Interleaves two traces by arrival time into one (ids reassigned in
    /// the merged order) — e.g. to mix a chatbot and a summarization
    /// tenant on one deployment. Tenant tags and tiers are preserved; ties
    /// in arrival time keep `self` before `other` (the sort is stable), so
    /// merging is deterministic.
    pub fn merge(&self, other: &Trace) -> Trace {
        let mut all: Vec<&Request> = self.requests.iter().chain(&other.requests).collect();
        all.sort_by_key(|r| r.arrival);
        let requests = all
            .into_iter()
            .enumerate()
            .map(|(i, r)| retagged(r, RequestId(i as u64), r.arrival))
            .collect();
        Trace { requests }
    }

    /// Interleaves any number of tenant traces into one deployment trace:
    /// each source trace is tagged with its [`TenantId`] and the union is
    /// merged by arrival time with ids reassigned in the merged order.
    /// Arrival-time ties resolve in slice order, so the merge is a
    /// deterministic function of its inputs.
    pub fn merge_tagged(sources: &[(TenantId, Trace)]) -> Trace {
        let mut all: Vec<Request> = Vec::new();
        for (tenant, trace) in sources {
            all.extend(trace.requests.iter().map(|r| r.with_tenant(*tenant)));
        }
        all.sort_by_key(|r| r.arrival);
        let requests = all
            .into_iter()
            .enumerate()
            .map(|(i, r)| retagged(&r, RequestId(i as u64), r.arrival))
            .collect();
        Trace { requests }
    }

    /// The same trace with every request tagged as belonging to `tenant`.
    pub fn with_tenant(&self, tenant: TenantId) -> Trace {
        let requests = self
            .requests
            .iter()
            .map(|r| r.with_tenant(tenant))
            .collect();
        Trace { requests }
    }

    /// The tenants present in this trace, ascending and deduplicated.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut tenants: Vec<TenantId> = self.requests.iter().map(|r| r.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants
    }

    /// Assigns each request a priority tier in `0..n_tiers`, deterministic
    /// in `(seed, request id)`. Tiers come from a pure hash rather than an
    /// RNG stream, so the sampled lengths and arrival times of the trace
    /// are byte-identical to the untier-ed trace.
    ///
    /// # Panics
    ///
    /// Panics if `n_tiers` is zero.
    pub fn with_tiers(&self, n_tiers: u8, seed: u64) -> Trace {
        assert!(n_tiers > 0, "need at least one tier");
        let requests = self
            .requests
            .iter()
            .map(|r| {
                // SplitMix64-style finalizer over (seed, id): uniform enough
                // for tier assignment, no RNG state consumed.
                let mut x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(r.id.0.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                // `r` already carries its tenant; with_tier keeps it.
                r.with_tier((x % u64::from(n_tiers)) as u8)
            })
            .collect();
        Trace { requests }
    }

    /// Table 2-style statistics of the trace.
    pub fn stats(&self) -> TraceStats {
        let column = |f: fn(&Request) -> u32| {
            let mut xs: Vec<u32> = self.requests.iter().map(f).collect();
            xs.sort_unstable();
            let n = xs.len().max(1);
            LengthStats {
                mean: xs.iter().map(|&x| f64::from(x)).sum::<f64>() / n as f64,
                median: xs.get(n / 2).copied().map(f64::from).unwrap_or(0.0),
                p90: xs
                    .get(((n as f64) * 0.9) as usize)
                    .copied()
                    .map(f64::from)
                    .unwrap_or(0.0),
            }
        };
        let span = self.span();
        TraceStats {
            prompt: column(|r| r.prompt_tokens),
            output: column(|r| r.output_tokens),
            arrival_rate: if span > 0.0 {
                (self.requests.len().saturating_sub(1)) as f64 / span
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SessionId;
    use crate::Scenario;

    fn generate(d: &Dataset, a: &ArrivalProcess, n: usize, seed: u64) -> Trace {
        Scenario::single_shot(d.clone(), a.clone(), n)
            .generate(seed)
            .expect("valid single-shot scenario")
    }

    #[test]
    fn session_tags_survive_trace_combinators() {
        let base = Trace::from_requests(vec![
            Request::new(RequestId(0), SimTime::ZERO, 100, 10).with_session(SessionId(4), 0, 0),
            Request::new(RequestId(1), SimTime::from_micros(3), 120, 10).with_session(
                SessionId(4),
                1,
                90,
            ),
        ]);
        let tags = |t: &Trace| -> Vec<_> { t.requests().iter().map(|r| r.session).collect() };
        let expected = tags(&base);
        assert_eq!(tags(&base.slice(0..2)), expected);
        assert_eq!(tags(&base.with_rate_scaled(2.0)), expected);
        assert_eq!(tags(&base.merge(&Trace::from_requests(vec![]))), expected);
        assert_eq!(
            tags(&Trace::merge_tagged(&[(TenantId(1), base.clone())])),
            expected
        );
        assert_eq!(tags(&base.with_tiers(2, 7)), expected);
        assert_eq!(tags(&base.with_tenant(TenantId(2))), expected);
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let d = Dataset::sharegpt(2048);
        let a = ArrivalProcess::poisson(4.0);
        let t1 = generate(&d, &a, 500, 7);
        let t2 = generate(&d, &a, 500, 7);
        let t3 = generate(&d, &a, 500, 8);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn lengths_are_independent_of_arrival_process() {
        let d = Dataset::sharegpt(2048);
        let t1 = generate(&d, &ArrivalProcess::poisson(4.0), 100, 7);
        let t2 = generate(&d, &ArrivalProcess::uniform(9.0), 100, 7);
        let lens = |t: &Trace| -> Vec<(u32, u32)> {
            t.requests()
                .iter()
                .map(|r| (r.prompt_tokens, r.output_tokens))
                .collect()
        };
        assert_eq!(lens(&t1), lens(&t2));
    }

    #[test]
    fn arrivals_are_monotone_and_rate_matches() {
        let d = Dataset::sharegpt(2048);
        let t = generate(&d, &ArrivalProcess::poisson(10.0), 20_000, 3);
        for w in t.requests().windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        let rate = t.stats().arrival_rate;
        assert!((rate / 10.0 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn stats_reproduce_table2_within_tolerance() {
        let d = Dataset::longbench(4096);
        let t = generate(&d, &ArrivalProcess::poisson(1.0), 50_000, 11);
        let s = t.stats();
        assert!((s.prompt.mean / 2890.4 - 1.0).abs() < 0.05);
        assert!((s.output.median / 12.0 - 1.0).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_requests_rejected() {
        let r1 = Request::new(RequestId(0), SimTime::from_micros(10), 5, 1);
        let r2 = Request::new(RequestId(1), SimTime::from_micros(5), 5, 1);
        let _ = Trace::from_requests(vec![r1, r2]);
    }

    #[test]
    fn slicing_rebases_and_renumbers() {
        let d = Dataset::sharegpt(2048);
        let t = generate(&d, &ArrivalProcess::poisson(5.0), 100, 13);
        let s = t.slice(20..50);
        assert_eq!(s.requests().len(), 30);
        assert_eq!(s.requests()[0].id, RequestId(0));
        assert_eq!(s.requests()[0].arrival, SimTime::ZERO);
        // Gaps are preserved.
        let orig_gap = t.requests()[21]
            .arrival
            .saturating_since(t.requests()[20].arrival);
        let new_gap = s.requests()[1]
            .arrival
            .saturating_since(s.requests()[0].arrival);
        assert_eq!(orig_gap, new_gap);
    }

    #[test]
    fn rate_scaling_compresses_gaps() {
        let d = Dataset::sharegpt(2048);
        let t = generate(&d, &ArrivalProcess::poisson(4.0), 2_000, 13);
        let fast = t.with_rate_scaled(2.0);
        assert!((fast.stats().arrival_rate / t.stats().arrival_rate - 2.0).abs() < 0.01);
        // Lengths untouched.
        assert_eq!(
            t.requests()[7].prompt_tokens,
            fast.requests()[7].prompt_tokens
        );
    }

    #[test]
    fn merged_traces_are_time_ordered_supersets() {
        let d = Dataset::sharegpt(2048);
        let a = generate(&d, &ArrivalProcess::poisson(3.0), 50, 1);
        let b = generate(
            &Dataset::longbench(2048),
            &ArrivalProcess::poisson(2.0),
            30,
            2,
        );
        let m = a.merge(&b);
        assert_eq!(m.requests().len(), 80);
        for w in m.requests().windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
            assert!(w[1].id > w[0].id);
        }
    }

    #[test]
    fn tier_assignment_is_pure_and_preserves_the_trace() {
        let d = Dataset::sharegpt(2048);
        let t = generate(&d, &ArrivalProcess::poisson(4.0), 400, 21);
        let tiered = t.with_tiers(3, 99);
        let again = t.with_tiers(3, 99);
        assert_eq!(tiered, again);
        // Lengths and arrivals are byte-identical to the source trace.
        for (a, b) in t.requests().iter().zip(tiered.requests()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.prompt_tokens, b.prompt_tokens);
            assert_eq!(a.output_tokens, b.output_tokens);
            assert!(b.tier < 3);
        }
        // All tiers are actually populated.
        for tier in 0..3u8 {
            assert!(tiered.requests().iter().any(|r| r.tier == tier));
        }
        // Tiers survive slicing, rate scaling and merging.
        let sliced = tiered.slice(10..60);
        assert!(sliced.requests().iter().any(|r| r.tier > 0));
        let fast = tiered.with_rate_scaled(2.0);
        assert_eq!(
            tiered.requests()[7].tier,
            fast.requests()[7].tier,
            "rate scaling must not touch tiers"
        );
        let merged = tiered.slice(0..10).merge(&tiered.slice(10..20));
        assert!(merged.requests().iter().any(|r| r.tier > 0));
    }

    #[test]
    fn tagged_merge_preserves_tenants_and_orders_by_arrival() {
        let d = Dataset::sharegpt(2048);
        let chat = generate(&d, &ArrivalProcess::poisson(3.0), 40, 1);
        let summ = generate(
            &Dataset::longbench(2048),
            &ArrivalProcess::poisson(2.0),
            25,
            2,
        );
        let merged =
            Trace::merge_tagged(&[(TenantId(0), chat.clone()), (TenantId(1), summ.clone())]);
        assert_eq!(merged.requests().len(), 65);
        assert_eq!(merged.tenants(), vec![TenantId(0), TenantId(1)]);
        for w in merged.requests().windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
            assert!(w[1].id > w[0].id);
        }
        // Per-tenant counts survive the merge.
        let count = |t: u16| {
            merged
                .requests()
                .iter()
                .filter(|r| r.tenant == TenantId(t))
                .count()
        };
        assert_eq!(count(0), 40);
        assert_eq!(count(1), 25);
        // Tagging a whole trace is equivalent to tagging its requests.
        let tagged = chat.with_tenant(TenantId(7));
        assert!(tagged.requests().iter().all(|r| r.tenant == TenantId(7)));
        assert_eq!(tagged.tenants(), vec![TenantId(7)]);
        // Determinism: same inputs, same merge.
        let again = Trace::merge_tagged(&[(TenantId(0), chat), (TenantId(1), summ)]);
        assert_eq!(merged, again);
    }

    #[test]
    fn empty_trace_has_zero_stats() {
        let t = Trace::from_requests(vec![]);
        assert_eq!(t.span(), 0.0);
        assert_eq!(t.stats().arrival_rate, 0.0);
    }
}
