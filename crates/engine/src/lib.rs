//! # windserve-engine
//!
//! The serving-instance engine of the WindServe reproduction. An
//! [`Instance`] is one model replica with a local FCFS scheduler,
//! continuous batching, a paged KV cache, chunked prefill, vLLM-style swap
//! preemption, pipeline lanes, and (for decode instances) the auxiliary
//! CUDA stream used by stream-based disaggregation.
//!
//! Instances are passive: the cluster event loop (in the `windserve` core
//! crate) enqueues work, calls [`Instance::try_start`], and delivers
//! [`Instance::complete_step`] at the scheduled times, wiring transfers and
//! migrations between instances.
//!
//! # Examples
//!
//! Driving a standalone prefill instance by hand:
//!
//! ```
//! use windserve_engine::{Instance, InstanceConfig, LaneRef};
//! use windserve_gpu::{GpuSpec, StreamSharing};
//! use windserve_model::{CostModel, ModelSpec, Parallelism};
//! use windserve_sim::SimTime;
//! use windserve_workload::RequestId;
//!
//! # fn main() -> windserve_engine::Result<()> {
//! let cost = CostModel::new(ModelSpec::opt_13b(), GpuSpec::a800_80gb(),
//!                           Parallelism::tp(2))?;
//! let mut inst = Instance::new(InstanceConfig::prefill("prefill-0"), cost,
//!                              StreamSharing::default(), 20e9)?;
//! inst.enqueue_prefill(RequestId(0), 768, 100);
//! let started = inst.try_start(SimTime::ZERO);
//! let outcome = inst.complete_step(started[0].lane, started[0].ends_at);
//! assert_eq!(outcome.finished_prefills.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod instance;
mod ledger;
mod outcome;
mod run_ahead;
mod seq;
mod stats;
mod step;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;

pub use config::{InstanceConfig, InstanceRole, PreemptionMode};
pub use error::{Error, Result};
pub use instance::Instance;
pub use outcome::{
    CompletedSeq, FinishedPrefill, LaneRef, PausedSeq, StartedStep, StepKind, StepOutcome,
};
pub use run_ahead::{Leap, LeapStep, RunAhead};
pub use seq::{SeqPhase, SeqState};
pub use stats::InstanceStats;
