//! The Global Scheduler's Coordinator (paper §3.2.2).
//!
//! The Coordinator collaborates with the Profiler to run the two dynamic
//! scheduling strategies:
//!
//! * **Dynamic Prefill Dispatch** (Algorithm 1): on arrival, if the
//!   predicted TTFT in the prefill instance exceeds the threshold `thrd`
//!   and the decode instance has enough *slots* (budgeted prefill tokens +
//!   KV blocks), the prompt is processed on the decode instance instead.
//! * **Dynamic Rescheduling**: when the decode instance's KV blocks near
//!   exhaustion, the longest-context running request is migrated to the
//!   prefill instance (stall-free, §3.3).

use crate::config::VictimPolicy;
use crate::profiler::Profiler;
use serde::{Deserialize, Serialize};
use windserve_engine::Instance;
use windserve_sim::{SimDuration, SimTime};
use windserve_trace::DispatchVerdict;
use windserve_workload::RequestId;

/// Fraction of a decode replica's KV blocks that must stay free for decode
/// growth before Algorithm 1 offers any slots (the reproduction's default).
const KV_RESERVE_FRACTION: f64 = 0.15;

/// Decode-replica free-block fraction below which dynamic rescheduling
/// starts (§3.3's watermark; the reproduction's default). The cluster's
/// migration trigger and the decode run-ahead's floor read it too.
pub(crate) const RESCHED_WATERMARK: f64 = 0.10;

/// Dispatch and rescheduling policy state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coordinator {
    /// Algorithm 1's `thrd`: predicted-TTFT threshold that marks the
    /// prefill instance overloaded.
    pub dispatch_threshold: SimDuration,
    /// The calibrated budget: max guest-prefill tokens in flight on the
    /// decode instance.
    pub aux_budget_tokens: u32,
    /// Minimum context for migration victims (WindServe migrates *long*
    /// sequences, unlike Llumnix).
    pub long_context_tokens: u32,
    /// Which end of the context distribution to migrate first.
    pub victim_policy: VictimPolicy,
}

impl Coordinator {
    /// Algorithm 1, line 1: `TTFT_pred` for a new request of
    /// `prompt_tokens`, from the waiting-queue backlog and the remaining
    /// time of the currently prefilling batch.
    pub fn predict_ttft(
        &self,
        profiler: &Profiler,
        prefill: &Instance,
        prompt_tokens: u32,
        now: SimTime,
    ) -> SimDuration {
        profiler.predict_ttft(
            prefill.prefill_backlog_tokens(),
            u64::from(prompt_tokens),
            prefill.earliest_availability(now),
        )
    }

    /// Algorithm 1, line 3: slots the decode instance can offer, in prefill
    /// tokens. Zero whenever the decode side shows any sign of pressure —
    /// queued or swapped sequences, or KV below the reserve ("if the KV
    /// blocks in the decoding instance are inadequate, the available slot
    /// is set to 0").
    pub fn available_slots(&self, decode: &Instance) -> u64 {
        if decode.waiting_decode_len() > 0 || decode.swapped_len() > 0 {
            return 0;
        }
        if decode.kv_free_fraction() < KV_RESERVE_FRACTION {
            return 0;
        }
        let reserve = (decode.kv().total_blocks() as f64 * KV_RESERVE_FRACTION) as u64
            * u64::from(decode.kv().block_tokens());
        let spare_kv = decode.kv_free_tokens().saturating_sub(reserve);
        u64::from(self.aux_budget_tokens)
            .saturating_sub(decode.guest_prefill_backlog_tokens())
            .min(spare_kv)
    }

    /// Algorithm 1, lines 5-8: the dispatch verdict for a new request of
    /// `prompt_tokens` whose prefill replica predicts `ttft_pred`, given
    /// the decode replicas' best slot offer. It dispatches only when the
    /// prediction exceeds `thrd` and the offer holds the whole prompt;
    /// `NoSlots` marks an overload no decode replica could absorb.
    pub fn should_dispatch(
        &self,
        ttft_pred: SimDuration,
        best_offer: u64,
        prompt_tokens: u32,
    ) -> DispatchVerdict {
        if ttft_pred <= self.dispatch_threshold {
            DispatchVerdict::BelowThreshold
        } else if best_offer >= u64::from(prompt_tokens) {
            DispatchVerdict::Dispatched
        } else {
            DispatchVerdict::NoSlots
        }
    }

    /// True when the decode instance's KV blocks are nearly exhausted and
    /// dynamic rescheduling should free space: free blocks below the
    /// watermark, or sequences already pushed out to host memory. (A
    /// non-empty decode waiting queue alone is *not* pressure — every KV
    /// handoff passes through it briefly.)
    pub fn needs_rescheduling(&self, decode: &Instance) -> bool {
        decode.kv_free_fraction() < RESCHED_WATERMARK || decode.swapped_len() > 0
    }

    /// Picks the migration victim among running decodes at or above the
    /// long-context bar: the longest context under WindServe's policy, the
    /// shortest under the Llumnix-style alternative.
    pub fn pick_victim(&self, decode: &Instance) -> Option<(RequestId, u32)> {
        let candidates = decode
            .running_decodes()
            .into_iter()
            .filter(|&(_, ctx)| ctx >= self.long_context_tokens);
        match self.victim_policy {
            VictimPolicy::LongestContext => {
                candidates.max_by_key(|&(id, ctx)| (ctx, std::cmp::Reverse(id)))
            }
            VictimPolicy::ShortestContext => candidates.min_by_key(|&(id, ctx)| (ctx, id)),
        }
    }

    /// True if the prefill instance has comfortable room to host a migrant
    /// of `ctx` tokens (its own prompts take priority).
    pub fn destination_can_host(&self, prefill: &Instance, ctx: u32) -> bool {
        prefill.kv_free_tokens() >= 2 * u64::from(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windserve_engine::{InstanceConfig, SeqState};
    use windserve_gpu::{GpuSpec, StreamSharing};
    use windserve_model::{CostModel, ModelSpec, Parallelism};

    fn coordinator() -> Coordinator {
        Coordinator {
            dispatch_threshold: SimDuration::from_millis(225),
            aux_budget_tokens: 2048,
            long_context_tokens: 512,
            victim_policy: VictimPolicy::LongestContext,
        }
    }

    fn decode_instance() -> Instance {
        let cost = CostModel::new(
            ModelSpec::opt_13b(),
            GpuSpec::a800_80gb(),
            Parallelism::tp(2),
        )
        .unwrap();
        Instance::new(
            InstanceConfig::decode("d"),
            cost,
            StreamSharing::default(),
            20e9,
        )
        .unwrap()
    }

    #[test]
    fn idle_decode_instance_offers_the_full_budget() {
        let c = coordinator();
        let d = decode_instance();
        assert_eq!(c.available_slots(&d), 2048);
    }

    #[test]
    fn queued_decodes_zero_the_slots() {
        let c = coordinator();
        let mut d = decode_instance();
        d.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(1), 700, 10, 1, 0));
        assert_eq!(c.available_slots(&d), 0);
    }

    #[test]
    fn guest_backlog_consumes_slots() {
        let c = coordinator();
        let mut d = decode_instance();
        d.enqueue_prefill(RequestId(5), 800, 10);
        assert_eq!(c.available_slots(&d), 2048 - 800);
    }

    #[test]
    fn dispatch_requires_overload_and_slots() {
        let c = coordinator();
        let thrd = c.dispatch_threshold;
        let over = thrd + SimDuration::from_micros(1);
        // A prediction at the threshold is not overload, whatever the offer.
        assert_eq!(
            c.should_dispatch(thrd, 2048, 700),
            DispatchVerdict::BelowThreshold
        );
        // Past it, an offer of exactly the prompt dispatches...
        assert_eq!(
            c.should_dispatch(over, 700, 700),
            DispatchVerdict::Dispatched
        );
        // ...and one token short does not.
        assert_eq!(c.should_dispatch(over, 699, 700), DispatchVerdict::NoSlots);
        // The offer comes from `available_slots`: an idle decode replica
        // offers its full budget, a prompt past it gets no slots.
        let offer = c.available_slots(&decode_instance());
        assert_eq!(
            c.should_dispatch(over, offer, 2048),
            DispatchVerdict::Dispatched
        );
        assert_eq!(
            c.should_dispatch(over, offer, 2049),
            DispatchVerdict::NoSlots
        );
    }

    #[test]
    fn victim_is_longest_context_running_decode() {
        let c = coordinator();
        let mut d = decode_instance();
        for (i, ctx) in [(1u64, 600u32), (2, 1800), (3, 900)] {
            d.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(i), ctx, 50, 1, 0));
        }
        d.try_start(SimTime::ZERO);
        let (victim, ctx) = c.pick_victim(&d).unwrap();
        assert_eq!(victim, RequestId(2));
        assert!(ctx >= 1800);
    }

    #[test]
    fn short_contexts_are_not_migrated() {
        let c = coordinator();
        let mut d = decode_instance();
        d.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(1), 100, 50, 1, 0));
        d.try_start(SimTime::ZERO);
        assert!(c.pick_victim(&d).is_none());
    }

    #[test]
    fn fresh_decode_instance_needs_no_rescheduling() {
        let c = coordinator();
        let d = decode_instance();
        assert!(!c.needs_rescheduling(&d));
    }
}
