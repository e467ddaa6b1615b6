//! Per-request lifecycle records.
//!
//! The simulator timestamps every stage of a request exactly as the paper's
//! harness does ("recorded timestamps at each stage for further analysis",
//! §5.1). TTFT and TPOT derive from these timestamps:
//!
//! * **TTFT** — issue → first output token (queueing + prompt processing);
//! * **TPOT** — (completion − first token) / (output − 1): it folds in
//!   decode queueing delay, decode execution and any migration stalls,
//!   which is how decode-side congestion shows up as TPOT degradation.

use serde::{Deserialize, Serialize};
use windserve_sim::SimTime;
use windserve_workload::{RequestId, SessionTag};

/// Where a request's prefill ultimately ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefillSite {
    /// The dedicated prefill instance (normal path).
    PrefillInstance,
    /// The decode instance, via dynamic prefill dispatch.
    DecodeInstance,
    /// A colocated instance (vLLM-style baseline).
    Colocated,
}

/// Completed-request record with all stage timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// The request id.
    pub id: RequestId,
    /// Prompt length, tokens.
    pub prompt_tokens: u32,
    /// Output length, tokens.
    pub output_tokens: u32,
    /// Issue time.
    pub arrival: SimTime,
    /// When the prefill computation started.
    pub prefill_start: SimTime,
    /// When the first output token emerged (prefill completion).
    pub first_token: SimTime,
    /// When the request entered the decode instance's waiting queue (equals
    /// `first_token` for dispatched/colocated prefills; later when the KV
    /// handoff had to finish first).
    pub decode_enqueue: SimTime,
    /// When the first decode iteration started.
    pub decode_start: SimTime,
    /// When the final token was produced.
    pub completion: SimTime,
    /// Where the prefill ran.
    pub prefill_site: PrefillSite,
    /// Times this request's KV was swapped out to host memory.
    pub swap_outs: u32,
    /// Times this request was migrated across instances (dynamic
    /// rescheduling).
    pub migrations: u32,
    /// The conversational session this request belongs to (`None` for
    /// single-shot workloads).
    pub session: Option<SessionTag>,
    /// Prompt tokens served from a session prefix cache (0 on a miss or
    /// when caching is off): prefill computed only
    /// `prompt_tokens - cached_prefix_tokens`.
    pub cached_prefix_tokens: u32,
}

impl RequestRecord {
    /// Time to first token, seconds.
    pub fn ttft(&self) -> f64 {
        self.first_token
            .saturating_since(self.arrival)
            .as_secs_f64()
    }

    /// Time per output token, seconds. `None` when only one token was
    /// generated (the paper's TPOT excludes the first token).
    pub fn tpot(&self) -> Option<f64> {
        let steps = self.output_tokens.saturating_sub(1);
        if steps == 0 {
            return None;
        }
        let span = self
            .completion
            .saturating_since(self.first_token)
            .as_secs_f64();
        Some(span / f64::from(steps))
    }

    /// Prefill queueing delay: issue → prefill start.
    pub(crate) fn prefill_queue_delay(&self) -> f64 {
        self.prefill_start
            .saturating_since(self.arrival)
            .as_secs_f64()
    }

    /// Decode queueing delay: entered decode queue → first decode step.
    pub(crate) fn decode_queue_delay(&self) -> f64 {
        self.decode_start
            .saturating_since(self.decode_enqueue)
            .as_secs_f64()
    }

    /// End-to-end latency, seconds.
    pub fn e2e(&self) -> f64 {
        self.completion.saturating_since(self.arrival).as_secs_f64()
    }

    /// Internal consistency of the timestamp chain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRecord`](crate::Error::InvalidRecord) naming
    /// the ordering constraint that is violated.
    pub fn validate(&self) -> crate::Result<()> {
        let chain = [
            ("arrival<=prefill_start", self.arrival <= self.prefill_start),
            (
                "prefill_start<=first_token",
                self.prefill_start <= self.first_token,
            ),
            (
                "first_token<=decode_enqueue",
                self.first_token <= self.decode_enqueue,
            ),
            (
                "decode_enqueue<=decode_start",
                self.decode_enqueue <= self.decode_start,
            ),
            (
                "decode_start<=completion",
                self.decode_start <= self.completion,
            ),
        ];
        for (constraint, ok) in chain {
            if !ok {
                return Err(crate::Error::InvalidRecord {
                    id: self.id,
                    constraint,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RequestRecord {
        RequestRecord {
            id: RequestId(1),
            prompt_tokens: 100,
            output_tokens: 11,
            arrival: SimTime::from_secs_f64(1.0),
            prefill_start: SimTime::from_secs_f64(1.2),
            first_token: SimTime::from_secs_f64(1.3),
            decode_enqueue: SimTime::from_secs_f64(1.35),
            decode_start: SimTime::from_secs_f64(1.4),
            completion: SimTime::from_secs_f64(2.3),
            prefill_site: PrefillSite::PrefillInstance,
            swap_outs: 0,
            migrations: 0,
            session: None,
            cached_prefix_tokens: 0,
        }
    }

    #[test]
    fn metrics_derive_from_timestamps() {
        let r = record();
        assert!((r.ttft() - 0.3).abs() < 1e-9);
        assert!((r.tpot().unwrap() - 0.1).abs() < 1e-9);
        assert!((r.prefill_queue_delay() - 0.2).abs() < 1e-9);
        assert!((r.decode_queue_delay() - 0.05).abs() < 1e-9);
        assert!((r.e2e() - 1.3).abs() < 1e-9);
        r.validate().unwrap();
    }

    #[test]
    fn single_token_request_has_no_tpot() {
        let mut r = record();
        r.output_tokens = 1;
        assert!(r.tpot().is_none());
    }

    #[test]
    fn validation_detects_time_travel() {
        let mut r = record();
        r.decode_start = SimTime::ZERO;
        assert!(r.validate().is_err());
    }
}
