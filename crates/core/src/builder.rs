//! Fluent construction of [`ServeConfig`].
//!
//! [`ServeConfigBuilder`] starts from the paper's default operating point
//! (OPT-13B / ShareGPT / `[TP-2, TP-2]` / WindServe) and validates the
//! assembled configuration at [`build`](ServeConfigBuilder::build), so an
//! infeasible placement or out-of-range knob is caught before any
//! simulation state is constructed.

use windserve_engine::PreemptionMode;
use windserve_faults::FaultPlan;
use windserve_gpu::{GpuSpec, Topology};
use windserve_metrics::SloSpec;
use windserve_model::{ModelSpec, Parallelism};
use windserve_sim::SimDuration;
use windserve_trace::TraceMode;

use crate::config::{
    AutoscaleConfig, OverloadConfig, PrefixCacheConfig, ServeConfig, SystemKind, VictimPolicy,
    WorkloadSpec,
};

/// Builder for [`ServeConfig`].
///
/// # Examples
///
/// ```
/// use windserve::{ServeConfig, SystemKind, TraceMode};
///
/// let cfg = ServeConfig::builder()
///     .system(SystemKind::WindServe)
///     .decode_replicas(2)
///     .with_trace(TraceMode::Full)
///     .build()?;
/// assert_eq!(cfg.decode_replicas, 2);
/// # Ok::<(), windserve::Error>(())
/// ```
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the ServeConfig"]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl Default for ServeConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeConfigBuilder {
    /// Starts from the paper's default operating point: OPT-13B, the
    /// ShareGPT SLOs, `[TP-2, TP-2]`, full WindServe.
    pub fn new() -> Self {
        ServeConfigBuilder {
            cfg: ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
        }
    }

    /// Starts from an existing configuration.
    pub fn from_config(cfg: ServeConfig) -> Self {
        ServeConfigBuilder { cfg }
    }

    /// The served model.
    pub fn model(mut self, model: ModelSpec) -> Self {
        self.cfg.model = model;
        self
    }

    /// GPU type of every device in the node.
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.cfg.gpu = gpu;
        self
    }

    /// Different GPU type for prefill instances (the paper's §7 scenario).
    pub fn prefill_gpu(mut self, gpu: GpuSpec) -> Self {
        self.cfg.prefill_gpu = Some(gpu);
        self
    }

    /// Node interconnect topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Prefill-instance placement.
    pub fn prefill_parallelism(mut self, p: Parallelism) -> Self {
        self.cfg.prefill_parallelism = p;
        self
    }

    /// Decode-instance placement.
    pub fn decode_parallelism(mut self, p: Parallelism) -> Self {
        self.cfg.decode_parallelism = p;
        self
    }

    /// Number of prefill replicas.
    pub fn prefill_replicas(mut self, n: usize) -> Self {
        self.cfg.prefill_replicas = n;
        self
    }

    /// Number of decode replicas.
    pub fn decode_replicas(mut self, n: usize) -> Self {
        self.cfg.decode_replicas = n;
        self
    }

    /// Latency objectives.
    pub fn slo(mut self, slo: SloSpec) -> Self {
        self.cfg.slo = slo;
        self
    }

    /// System variant under test.
    pub fn system(mut self, system: SystemKind) -> Self {
        self.cfg.system = system;
        self
    }

    /// Algorithm 1's `thrd`; unset selects 90% of the TTFT SLO.
    pub fn dispatch_threshold(mut self, thrd: SimDuration) -> Self {
        self.cfg.dispatch_threshold = Some(thrd);
        self
    }

    /// Free-block fraction below which dynamic rescheduling activates.
    pub fn resched_watermark(mut self, w: f64) -> Self {
        self.cfg.resched_watermark = w;
        self
    }

    /// Prefill free-block fraction that backups must preserve.
    pub fn backup_watermark(mut self, w: f64) -> Self {
        self.cfg.backup_watermark = w;
        self
    }

    /// Decode free-block fraction below which backups start.
    pub fn backup_trigger(mut self, w: f64) -> Self {
        self.cfg.backup_trigger = w;
        self
    }

    /// Minimum context length for backup / migration eligibility.
    pub fn long_context_tokens(mut self, tokens: u32) -> Self {
        self.cfg.long_context_tokens = tokens;
        self
    }

    /// Remaining-token threshold at which a migration pauses.
    pub fn pause_threshold_tokens(mut self, tokens: u32) -> Self {
        self.cfg.pause_threshold_tokens = tokens;
        self
    }

    /// Concurrent migrations allowed.
    pub fn max_concurrent_migrations(mut self, n: usize) -> Self {
        self.cfg.max_concurrent_migrations = n;
        self
    }

    /// Chunk size for chunked prefill.
    pub fn chunk_tokens(mut self, tokens: u32) -> Self {
        self.cfg.chunk_tokens = tokens;
        self
    }

    /// Override for the Algorithm 1 token budget.
    pub fn aux_budget_override(mut self, tokens: u32) -> Self {
        self.cfg.aux_budget_override = Some(tokens);
        self
    }

    /// Victim selection for dynamic rescheduling.
    pub fn victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.cfg.victim_policy = policy;
        self
    }

    /// Place prefill and decode replicas on different nodes.
    pub fn split_phases_across_nodes(mut self, split: bool) -> Self {
        self.cfg.split_phases_across_nodes = split;
        self
    }

    /// KV-pressure preemption mode.
    pub fn preemption(mut self, mode: PreemptionMode) -> Self {
        self.cfg.preemption = mode;
        self
    }

    /// Sampling cadence for per-instance time series.
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        self.cfg.sample_interval = Some(interval);
        self
    }

    /// Enables autoscaling with the given policy.
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve::{AutoscaleConfig, ServeConfig};
    ///
    /// let cfg = ServeConfig::builder()
    ///     .with_autoscale(AutoscaleConfig::default())
    ///     .build()?;
    /// assert!(cfg.autoscale.is_some());
    /// # Ok::<(), windserve::Error>(())
    /// ```
    pub fn with_autoscale(mut self, auto: AutoscaleConfig) -> Self {
        self.cfg.autoscale = Some(auto);
        self
    }

    /// Scheduling-decision trace capture mode.
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve::{ServeConfig, TraceMode};
    ///
    /// let cfg = ServeConfig::builder()
    ///     .with_trace(TraceMode::Full)
    ///     .build()?;
    /// assert_eq!(cfg.trace, TraceMode::Full);
    /// # Ok::<(), windserve::Error>(())
    /// ```
    pub fn with_trace(mut self, mode: TraceMode) -> Self {
        self.cfg.trace = mode;
        self
    }

    /// Attaches a seeded fault-injection plan.
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve::{FaultPlan, ServeConfig};
    ///
    /// let cfg = ServeConfig::builder()
    ///     .with_faults(FaultPlan::flaky_transfers(7))
    ///     .build()?;
    /// assert!(cfg.faults.is_some());
    /// # Ok::<(), windserve::Error>(())
    /// ```
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Enables overload control (admission caps, SLO-aware shedding,
    /// KV-pressure preemption, deadline watchdog, invariant auditor).
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve::{OverloadConfig, ServeConfig};
    ///
    /// let cfg = ServeConfig::builder()
    ///     .with_overload(OverloadConfig::default())
    ///     .build()?;
    /// assert!(cfg.overload.is_some());
    /// # Ok::<(), windserve::Error>(())
    /// ```
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.cfg.overload = Some(overload);
        self
    }

    /// Enables session prefix caching over the KV retained on prefill
    /// instances (and, via [`PrefixCacheConfig::affinity`], prefix-aware
    /// routing of follow-up turns).
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve::{PrefixCacheConfig, ServeConfig};
    ///
    /// let cfg = ServeConfig::builder()
    ///     .with_prefix_cache(PrefixCacheConfig::default())
    ///     .build()?;
    /// assert!(cfg.prefix_cache.is_some());
    /// # Ok::<(), windserve::Error>(())
    /// ```
    pub fn with_prefix_cache(mut self, prefix: PrefixCacheConfig) -> Self {
        self.cfg.prefix_cache = Some(prefix);
        self
    }

    /// Attaches a first-party workload description (the config file's
    /// `[workload.scenario]` section).
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve::ServeConfig;
    /// use windserve_workload::{SessionsScenario, Scenario};
    ///
    /// let sessions = SessionsScenario::builder().sessions(50).build().unwrap();
    /// let cfg = ServeConfig::builder()
    ///     .with_scenario(Scenario::sessions(sessions))
    ///     .build()?;
    /// assert!(cfg.workload.is_some());
    /// # Ok::<(), windserve::Error>(())
    /// ```
    pub fn with_scenario(mut self, scenario: windserve_workload::Scenario) -> Self {
        self.cfg.workload = Some(WorkloadSpec { scenario });
        self
    }

    /// Validates and returns the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error::Config) (or a wrapped
    /// substrate error) describing the first invalid field — the same
    /// checks as [`ServeConfig::validate`].
    pub fn build(self) -> crate::Result<ServeConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_preset() {
        let built = ServeConfigBuilder::new().build().unwrap();
        let preset = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        assert_eq!(built, preset);
    }

    #[test]
    fn builder_applies_setters() {
        let cfg = ServeConfig::builder()
            .system(SystemKind::DistServe)
            .decode_replicas(2)
            .chunk_tokens(256)
            .with_trace(TraceMode::Ring(1024))
            .build()
            .unwrap();
        assert_eq!(cfg.system, SystemKind::DistServe);
        assert_eq!(cfg.decode_replicas, 2);
        assert_eq!(cfg.chunk_tokens, 256);
        assert_eq!(cfg.trace, TraceMode::Ring(1024));
    }

    #[test]
    fn builder_rejects_invalid_at_build() {
        let err = ServeConfig::builder().chunk_tokens(0).build().unwrap_err();
        assert!(matches!(err, crate::Error::Config { .. }));
    }

    #[test]
    fn with_spellings_apply_optional_subsystems() {
        let cfg = ServeConfig::builder()
            .with_autoscale(AutoscaleConfig::default())
            .with_overload(OverloadConfig::default())
            .with_trace(TraceMode::Full)
            .with_faults(FaultPlan::flaky_transfers(7))
            .build()
            .unwrap();
        assert!(cfg.autoscale.is_some());
        assert!(cfg.overload.is_some());
        assert_eq!(cfg.trace, TraceMode::Full);
        assert!(cfg.faults.is_some());
    }

    #[test]
    fn to_builder_round_trips() {
        let base = ServeConfig::opt_66b_sharegpt(SystemKind::WindServeNoSplit);
        let derived = base.to_builder().build().unwrap();
        assert_eq!(base, derived);
    }
}
