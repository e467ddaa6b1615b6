//! Step lifecycle types exchanged between an instance and the cluster
//! event loop.

use crate::seq::SeqState;
use serde::{Deserialize, Serialize};
use windserve_sim::{SimDuration, SimTime};
use windserve_workload::RequestId;

/// Identifies one execution context of an instance: a pipeline lane or the
/// auxiliary stream used by stream-based disaggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LaneRef {
    /// Pipeline lane `i` (one of the `pp` in-flight batch slots).
    Main(usize),
    /// The guest-prefill CUDA stream on a decode instance (§3.4).
    Aux,
}

/// What kind of work a step performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    /// Pure prompt processing.
    Prefill,
    /// Pure decoding.
    Decode,
    /// Single-stream mixed batch (chunked prefill / regular batching).
    Hybrid,
    /// Guest prefill running in the auxiliary stream.
    AuxPrefill,
}

/// A step the instance just launched; the cluster schedules its completion
/// event at `ends_at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StartedStep {
    /// Which execution context started.
    pub lane: LaneRef,
    /// Completion time.
    pub ends_at: SimTime,
    /// Sequences whose first decode iteration begins with this step.
    pub newly_decoding: Vec<RequestId>,
    /// Requests whose prompt processing begins with this step (first
    /// chunk) — used to timestamp prefill queueing delay.
    pub newly_prefilling: Vec<RequestId>,
}

/// A prompt that finished processing in the completed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FinishedPrefill {
    /// The request.
    pub id: RequestId,
    /// Its (now fully processed) prompt length.
    pub prompt_tokens: u32,
}

/// A sequence that produced its final token in the completed step. The
/// engine has already released its KV and forgotten it; the cluster turns
/// this into a request record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedSeq {
    /// The request.
    pub id: RequestId,
    /// Output tokens produced in total.
    pub generated: u32,
    /// Swap-outs suffered here.
    pub swap_outs: u32,
    /// Migrations recorded on the sequence.
    pub migrations: u32,
    /// When its first decode iteration started here (if it decoded here).
    pub decode_start: Option<SimTime>,
}

/// A sequence paused at a step boundary for stall-free migration; its KV
/// has been released at the source and the cluster now owns it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PausedSeq {
    /// The sequence state at pause time.
    pub state: SeqState,
}

/// Everything that happened in one completed step.
///
/// Every decode member of the step gained one output token; a caller that
/// needs their ids reads [`Instance::step_members`] before the step
/// completes, here or in a decode run-ahead.
///
/// [`Instance::step_members`]: crate::Instance::step_members
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Which execution context completed.
    pub lane: LaneRef,
    /// The work mix it ran.
    pub kind: StepKind,
    /// Wall-clock duration, including contention and charged swap delays.
    pub duration: SimDuration,
    /// Prompts that finished processing (first token produced).
    pub finished_prefills: Vec<FinishedPrefill>,
    /// Sequences that completed and left the instance.
    pub completed: Vec<CompletedSeq>,
    /// Sequences paused for migration at this boundary.
    pub paused: Vec<PausedSeq>,
}
