//! Per-sequence state tracked by a serving instance.

use serde::{Deserialize, Serialize};
use windserve_sim::SimTime;
use windserve_workload::RequestId;

/// Lifecycle phase of a sequence within one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeqPhase {
    /// Waiting for (or undergoing) prompt processing.
    Prefilling,
    /// Waiting in the decode queue (KV may still be in flight).
    DecodeWaiting,
    /// Actively decoding in a lane.
    Decoding,
    /// KV swapped out to host; waiting for re-admission.
    Swapped,
    /// All output tokens produced.
    Finished,
}

/// Mutable state of one request inside an instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqState {
    /// The request this sequence belongs to.
    pub id: RequestId,
    /// Prompt length, tokens.
    pub prompt_tokens: u32,
    /// Output target, tokens (including the first token from the prefill).
    pub output_target: u32,
    /// Prompt tokens processed so far (for chunked prefill). Starts at
    /// [`cached`](Self::cached): cached-prefix tokens count as already
    /// processed.
    pub prefilled: u32,
    /// Prompt tokens served from a session prefix cache: their KV was
    /// already resident when the sequence was enqueued, so prefill charges
    /// compute only for the `prompt_tokens - cached` suffix (attention
    /// still spans the full context — `past_tokens` covers the prefix).
    pub cached: u32,
    /// Output tokens produced so far.
    pub generated: u32,
    /// Current phase.
    pub phase: SeqPhase,
    /// When the first decode iteration started (for records).
    pub decode_start: Option<SimTime>,
    /// Swap-out events suffered by this sequence.
    pub swap_outs: u32,
    /// Cross-instance migrations suffered by this sequence.
    pub migrations: u32,
}

impl SeqState {
    /// A fresh sequence whose first `cached` prompt tokens are served from
    /// a session prefix cache: prefill starts at the suffix.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate sequence or if the cached prefix covers the
    /// whole prompt (a prefill always has at least one token to compute).
    pub(crate) fn new_with_cached(
        id: RequestId,
        prompt_tokens: u32,
        cached: u32,
        output_target: u32,
    ) -> Self {
        assert!(
            prompt_tokens > 0 && output_target > 0,
            "degenerate sequence"
        );
        assert!(
            cached < prompt_tokens,
            "cached prefix must leave a suffix to prefill"
        );
        SeqState {
            id,
            prompt_tokens,
            output_target,
            prefilled: cached,
            cached,
            generated: 0,
            phase: SeqPhase::Prefilling,
            decode_start: None,
            swap_outs: 0,
            migrations: 0,
        }
    }

    /// A sequence arriving mid-life (KV handoff or migration): prompt fully
    /// prefilled, `generated` tokens already produced elsewhere.
    pub fn arriving_for_decode(
        id: RequestId,
        prompt_tokens: u32,
        output_target: u32,
        generated: u32,
        migrations: u32,
    ) -> Self {
        SeqState {
            id,
            prompt_tokens,
            output_target,
            prefilled: prompt_tokens,
            cached: 0,
            generated,
            phase: SeqPhase::DecodeWaiting,
            decode_start: None,
            swap_outs: 0,
            migrations,
        }
    }

    /// True while the sequence is queued for prefill and no work has been
    /// done beyond its cached prefix — i.e. it has not yet been picked up
    /// by a prefill step and can still be cancelled or re-routed.
    pub(crate) fn prefill_untouched(&self) -> bool {
        self.prefilled == self.cached
    }

    /// Context length for attention purposes (prompt processed + tokens
    /// generated).
    pub(crate) fn context(&self) -> u32 {
        self.prefilled + self.generated
    }

    /// True once all output tokens exist.
    pub(crate) fn is_done(&self) -> bool {
        self.generated >= self.output_target
    }

    /// Remaining prompt tokens to prefill.
    pub(crate) fn prompt_remaining(&self) -> u32 {
        self.prompt_tokens - self.prefilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_sequence_starts_empty() {
        let s = SeqState::new_with_cached(RequestId(1), 100, 0, 20);
        assert_eq!(s.context(), 0);
        assert_eq!(s.prompt_remaining(), 100);
        assert!(!s.is_done());
    }

    #[test]
    fn arriving_sequence_is_mid_life() {
        let s = SeqState::arriving_for_decode(RequestId(1), 100, 20, 5, 1);
        assert_eq!(s.context(), 105);
        assert_eq!(s.prompt_remaining(), 0);
        assert_eq!(s.migrations, 1);
        assert_eq!(s.phase, SeqPhase::DecodeWaiting);
    }

    #[test]
    fn done_when_target_reached() {
        let mut s = SeqState::arriving_for_decode(RequestId(1), 10, 3, 1, 0);
        s.generated = 3;
        assert!(s.is_done());
    }

    #[test]
    fn cached_prefix_starts_prefill_at_the_suffix() {
        let s = SeqState::new_with_cached(RequestId(1), 100, 80, 20);
        assert_eq!(s.prompt_remaining(), 20);
        assert_eq!(s.context(), 80, "cached KV is attendable context");
        assert!(s.prefill_untouched(), "no suffix work done yet");
        let mut started = s.clone();
        started.prefilled += 5;
        assert!(!started.prefill_untouched());
        // An uncached sequence is untouched exactly at prefilled == 0.
        assert!(SeqState::new_with_cached(RequestId(2), 10, 0, 1).prefill_untouched());
    }

    #[test]
    #[should_panic(expected = "suffix")]
    fn fully_cached_prompt_rejected() {
        let _ = SeqState::new_with_cached(RequestId(1), 100, 100, 20);
    }
}
