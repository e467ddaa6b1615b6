//! # windserve-trace
//!
//! A structured, zero-cost-when-disabled recorder for the scheduling
//! decisions of a WindServe run.
//!
//! The serving simulator makes hundreds of policy decisions per second of
//! simulated time — Algorithm 1 dispatch verdicts, rescheduling triggers,
//! victim choices, KV-handoff routing, autoscaler actions. This crate
//! gives every one of them a typed event ([`TraceEvent`]) stamped with
//! its [`windserve_sim::SimTime`], so a run can be audited after the fact
//! and visualized on a timeline.
//!
//! * [`Tracer`] — the recorder handle threaded through the cluster event
//!   loop; build one with [`Tracer::for_mode`] from the [`TraceMode`] in
//!   the serving configuration. [`TraceMode::Off`] (the default) records
//!   nothing and never constructs an event payload; [`TraceMode::Ring`]
//!   keeps a bounded tail; [`TraceMode::Full`] keeps every event.
//! * [`TraceLog`] — the collected events, with per-request audit helpers
//!   and a Chrome `trace_event` JSON exporter
//!   ([`TraceLog::to_chrome_json`]) loadable in Perfetto or
//!   `chrome://tracing`.
//!
//! # Examples
//!
//! ```
//! use windserve_trace::{DispatchDecision, DispatchVerdict, TraceEvent, TraceMode, Tracer};
//! use windserve_sim::SimTime;
//! use windserve_workload::RequestId;
//!
//! let mut tracer = Tracer::for_mode(TraceMode::Full);
//! tracer.emit(SimTime::from_micros(125_000), || {
//!     TraceEvent::Dispatch(DispatchDecision {
//!         request: RequestId(7),
//!         prompt_tokens: 768,
//!         ttft_pred_secs: 0.31,
//!         threshold_secs: 0.225,
//!         slots_free: 2048,
//!         verdict: DispatchVerdict::Dispatched,
//!         target: 1,
//!     })
//! });
//! let log = tracer.finish();
//! assert_eq!(log.dispatch_decisions().len(), 1);
//! assert!(log.to_chrome_json().contains("\"dispatch\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod log;
mod sink;

pub use event::{
    AdmissionDecision, AdmissionVerdict, DispatchDecision, DispatchVerdict, Lane, LeaseAction,
    StepClass, TimedEvent, TraceEvent,
};
pub use log::TraceLog;
pub use sink::{TraceMode, Tracer};
