//! # windserve-workload
//!
//! Workload synthesis for the WindServe reproduction:
//!
//! * [`Request`] / [`RequestId`] — the unit of work;
//! * [`Dataset`] / [`QuantileSampler`] — token-length distributions tuned
//!   to the paper's Table 2 statistics for ShareGPT (chatbot) and LongBench
//!   (summarization);
//! * [`ArrivalProcess`] — Poisson (as in the paper), uniform and bursty
//!   arrivals;
//! * [`Scenario`] — the unified workload description: single-shot traces,
//!   multi-turn [`SessionsScenario`] conversations with shared-prefix
//!   follow-ups, or explicit trace-driven replays;
//! * [`Trace`] — a deterministic, replayable request schedule with
//!   Table 2-style statistics.
//!
//! # Examples
//!
//! ```
//! use windserve_workload::{ArrivalProcess, Dataset, Scenario};
//!
//! // 16 req/s aggregate over a 4-GPU placement = 4 req/s per GPU.
//! let scenario = Scenario::single_shot(
//!     Dataset::sharegpt(2048),
//!     ArrivalProcess::poisson(16.0),
//!     1_000,
//! );
//! let trace = scenario.generate(0xC0FFEE).unwrap();
//! let stats = trace.stats();
//! assert!((stats.prompt.median - 695.0).abs() < 80.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod dataset;
mod error;
mod request;
mod scenario;
mod session;
mod trace;

pub use arrival::ArrivalProcess;
pub use dataset::{Dataset, QuantileSampler};
pub use error::{Error, Result};
pub use request::{Request, RequestId, SessionId, SessionTag, TenantId};
pub use scenario::{DatasetSpec, Scenario};
pub use session::{SessionsBuilder, SessionsScenario};
pub use trace::{LengthStats, Trace, TraceStats};
