//! # windserve
//!
//! A full reproduction of **WindServe: Efficient Phase-Disaggregated LLM
//! Serving with Stream-based Dynamic Scheduling** (Feng et al., ISCA 2025)
//! as a deterministic discrete-event simulation.
//!
//! The crate assembles the substrate crates (`windserve-sim`, `-gpu`,
//! `-model`, `-workload`, `-kvcache`, `-metrics`, `-engine`) into the
//! paper's system:
//!
//! * [`Profiler`] — Eq. 1/2 regression for batch-time prediction (§3.2.1);
//! * [`Coordinator`] — Dynamic Prefill Dispatch (Algorithm 1) and Dynamic
//!   Rescheduling decisions (§3.2.2);
//! * [`Cluster`] — the event loop wiring instances, KV handoffs,
//!   stall-free migrations (§3.3) and stream-based disaggregation (§3.4);
//! * [`ServeConfig`] / [`SystemKind`] — Table 3/4 presets, WindServe's
//!   ablations (`-no-split`, `-no-resche`) and the DistServe / vLLM
//!   baselines;
//! * [`RunReport`] — latency percentiles, SLO attainment, utilizations and
//!   scheduling counters for every figure in the paper;
//! * [`trace`] — a zero-cost-when-disabled structured recorder of every
//!   scheduling decision, exportable as Chrome `trace_event` JSON.
//!
//! # Examples
//!
//! Serve a ShareGPT-like chatbot workload on OPT-13B at 4 req/s per GPU
//! and compare WindServe with DistServe:
//!
//! ```
//! use windserve::{Cluster, ServeConfig, SystemKind};
//! use windserve_workload::{ArrivalProcess, Dataset, Scenario};
//!
//! # fn main() -> windserve::Result<()> {
//! let trace = Scenario::single_shot(
//!     Dataset::sharegpt(2048),
//!     ArrivalProcess::poisson(16.0), // 4 req/s x 4 GPUs
//!     200,
//! )
//! .generate(7)?;
//! let (wind, _) = Cluster::new(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe))?
//!     .run(&trace)?;
//! let (dist, _) = Cluster::new(ServeConfig::opt_13b_sharegpt(SystemKind::DistServe))?
//!     .run(&trace)?;
//! assert!(wind.summary.ttft.p50 <= dist.summary.ttft.p50 * 1.05);
//! # Ok(())
//! # }
//! ```
//!
//! Capture the scheduling decisions behind a run (see the README's
//! "Tracing a run" walkthrough):
//!
//! ```
//! use windserve::prelude::*;
//!
//! # fn main() -> windserve::Result<()> {
//! let cfg = ServeConfig {
//!     trace: TraceMode::Full,
//!     ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
//! };
//! let trace = Scenario::single_shot(
//!     Dataset::sharegpt(2048), ArrivalProcess::poisson(16.0), 50)
//!     .generate(7)?;
//! let (report, log) = Cluster::new(cfg)?.run(&trace)?;
//! assert_eq!(report.summary.completed, 50);
//! assert!(!log.dispatch_decisions().is_empty());
//! let _json = log.to_chrome_json(); // load in Perfetto / chrome://tracing
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod tests;

mod budget;
mod builder;
mod cluster;
mod config;
pub mod configfile;
mod coordinator;
mod error;
pub mod fleet;
mod parallel;
mod profiler;
mod report;

pub use budget::calibrate_aux_budget;
pub use builder::ServeConfigBuilder;
pub use cluster::{Cluster, ClusterSession, InstanceSnapshot, LiveEvent, SessionSnapshot};
pub use config::{
    AutoscaleConfig, OverloadConfig, PrefixCacheConfig, Replica, ServeConfig, SystemKind,
    VictimPolicy, WorkloadSpec,
};
pub use coordinator::Coordinator;
pub use error::{Error, Result};
pub use fleet::{
    ArbiterConfig, DeploymentConfig, DeploymentReport, Fleet, FleetConfig, FleetReport, PoolReport,
    TenantReport, TenantRoute, TenantSpec,
};
pub use parallel::parallel_map;
pub use profiler::Profiler;
pub use report::{InstanceReport, RunReport, TtftPrediction};

// Re-export the sub-crate surfaces downstream users need most, so `use
// windserve::...` suffices for common workflows.
pub use windserve_faults::{FaultEvent, FaultKind, FaultPlan};
pub use windserve_metrics::{
    DropReason, DroppedRequest, LatencySummary, Percentiles, SloAttainment, SloSpec,
};
pub use windserve_model::{ModelSpec, Parallelism};
pub use windserve_trace as trace;
pub use windserve_trace::{TraceLog, TraceMode};
pub use windserve_workload::{
    ArrivalProcess, Dataset, DatasetSpec, Request, RequestId, Scenario, SessionId, SessionTag,
    SessionsScenario, Trace,
};

/// One-stop imports for driving a simulation end to end.
///
/// ```
/// use windserve::prelude::*;
/// ```
pub mod prelude {
    pub use crate::{
        ArbiterConfig, Cluster, DeploymentConfig, Error, FaultKind, FaultPlan, Fleet, FleetConfig,
        FleetReport, OverloadConfig, PrefixCacheConfig, Result, RunReport, ServeConfig, SystemKind,
        TenantSpec, VictimPolicy,
    };
    pub use windserve_metrics::SloSpec;
    pub use windserve_model::{ModelSpec, Parallelism};
    pub use windserve_trace::{TraceLog, TraceMode};
    pub use windserve_workload::{
        ArrivalProcess, Dataset, Request, RequestId, Scenario, SessionsScenario, Trace,
    };
}
