//! Serving-system configuration.
//!
//! [`ServeConfig`] assembles everything a run needs: model, hardware,
//! placement (Table 3), SLOs (Table 4), the system variant under test
//! (WindServe, its ablations, or a baseline) and the scheduling knobs that
//! vary between runs (`thrd`, the long-context bar, the victim policy).
//! Thresholds no run varies are named constants next to their readers.

use serde::{Deserialize, Serialize};
use windserve_engine::{InstanceRole, PreemptionMode};
use windserve_faults::FaultPlan;
use windserve_gpu::{GpuId, GpuSpec, Topology};
use windserve_metrics::SloSpec;
use windserve_model::{ModelSpec, Parallelism};
use windserve_sim::SimDuration;
use windserve_trace::TraceMode;

/// Which request dynamic rescheduling migrates first (§3.3 contrasts
/// WindServe's choice with Llumnix's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum VictimPolicy {
    /// WindServe: migrate the longest-context request — frees the most KV
    /// blocks per migration and minimizes prefill-decode interference at
    /// the destination.
    #[default]
    LongestContext,
    /// Llumnix-style: migrate the shortest-context request — minimizes
    /// per-migration transfer volume and fragmentation, at the cost of
    /// needing many more migrations to relieve the same pressure.
    ShortestContext,
}

/// Autoscaling policy (paper §7 future work): replicas beyond the minimum
/// are activated when every active replica of a phase is overloaded and
/// drained/deactivated when load recedes. Activation pays a warmup delay
/// (model load + engine start); the check interval, the warmup and the
/// decode KV threshold are constants of the scaler (`cluster/autoscale.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleConfig {
    /// Always-active prefill replicas (>= 1).
    pub min_prefill: usize,
    /// Always-active decode replicas (>= 1).
    pub min_decode: usize,
    /// Scale prefill up when every active replica's predicted TTFT exceeds
    /// this fraction of the dispatch threshold.
    pub up_ttft_fraction: f64,
    /// Scale prefill down when aggregate predicted TTFT falls below this
    /// fraction of the dispatch threshold (and a replica is empty).
    pub down_ttft_fraction: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_prefill: 1,
            min_decode: 1,
            up_ttft_fraction: 0.8,
            down_ttft_fraction: 0.2,
        }
    }
}

impl AutoscaleConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error::Config) describing the first
    /// invalid field.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        let config = |reason: String| crate::Error::Config { reason };
        if self.min_prefill == 0 || self.min_decode == 0 {
            return Err(config("autoscale minimums must be at least 1".into()));
        }
        for (label, v) in [
            ("up_ttft_fraction", self.up_ttft_fraction),
            ("down_ttft_fraction", self.down_ttft_fraction),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(config(format!("{label} must be positive, got {v}")));
            }
        }
        if self.down_ttft_fraction >= self.up_ttft_fraction {
            return Err(config(
                "down threshold must sit below the up threshold".into(),
            ));
        }
        Ok(())
    }
}

/// Overload control: admission caps, SLO-aware shedding, KV-pressure
/// preemption, a deadline watchdog, and the cluster-wide invariant
/// auditor. `None` on [`ServeConfig::overload`] keeps the legacy
/// accept-everything behaviour bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Cap on resident (queued or running) requests; an arrival past the
    /// cap is rejected with a typed outcome. `None` = unbounded (legacy).
    pub max_queued_requests: Option<usize>,
    /// Cap on queued prefill tokens summed across routable instances; an
    /// arrival finding the budget exhausted is rejected. `None` = no
    /// token budget.
    pub max_queued_tokens: Option<u64>,
    /// SLO-aware load shedding: when an arrival's predicted TTFT exceeds
    /// `shed_ttft_factor ×` the TTFT SLO, the lowest-tier not-yet-started
    /// queued prefill (or the arrival itself) is shed. Phase-disaggregated
    /// systems only — colocated deployments have no TTFT predictor.
    pub shedding: bool,
    /// Shed threshold as a multiple of the TTFT SLO. The Algorithm 1
    /// dispatch threshold sits at 0.9× the SLO, so factors ≥ 1.0 shed only
    /// work that dispatch could not save.
    pub shed_ttft_factor: f64,
    /// Decode-replica free-KV fraction below which running decodes are
    /// preempted (lowest tier, then shortest progress first) until
    /// pressure clears. `None` disables pressure preemption.
    pub preempt_kv_watermark: Option<f64>,
    /// Wall-clock budget after which a resident request that is not
    /// actively executing is aborted by the watchdog. `None` disables the
    /// watchdog.
    pub deadline: Option<SimDuration>,
    /// Run the cluster-wide invariant auditor every N processed events
    /// (and once at drain). `None` disables auditing.
    pub audit_interval_events: Option<u64>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_queued_requests: Some(512),
            max_queued_tokens: None,
            shedding: true,
            shed_ttft_factor: 1.5,
            preempt_kv_watermark: None,
            deadline: None,
            audit_interval_events: None,
        }
    }
}

impl OverloadConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error::Config) describing the first
    /// invalid field.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        let config = |reason: String| crate::Error::Config { reason };
        if self.max_queued_requests == Some(0) {
            return Err(config("max_queued_requests must be at least 1".into()));
        }
        if self.max_queued_tokens == Some(0) {
            return Err(config("max_queued_tokens must be at least 1".into()));
        }
        if !(self.shed_ttft_factor.is_finite() && self.shed_ttft_factor > 0.0) {
            return Err(config(format!(
                "shed_ttft_factor must be positive, got {}",
                self.shed_ttft_factor
            )));
        }
        if let Some(w) = self.preempt_kv_watermark {
            if !(0.0..=1.0).contains(&w) {
                return Err(config(format!(
                    "preempt_kv_watermark must be in [0, 1], got {w}"
                )));
            }
        }
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return Err(config("watchdog deadline must be positive".into()));
        }
        if self.audit_interval_events == Some(0) {
            return Err(config("audit_interval_events must be at least 1".into()));
        }
        Ok(())
    }

    /// The shed threshold in seconds for a given TTFT SLO.
    pub(crate) fn shed_threshold(&self, slo: SloSpec) -> SimDuration {
        slo.ttft.mul_f64(self.shed_ttft_factor)
    }
}

/// Session prefix caching over the KV retained on prefill instances.
/// WindServe keeps a finished prefill's KV on the prefill instance anyway
/// (it is the migration source); this turns that residue into reusable
/// work for multi-turn sessions: a follow-up routed to an instance holding
/// its session's KV charges prefill only for the fresh suffix. `None` on
/// [`ServeConfig::prefix_cache`] disables caching entirely (legacy
/// behaviour, bit-for-bit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefixCacheConfig {
    /// Per-instance budget of retained session KV, tokens. Least-recently
    /// used sessions are evicted past it.
    pub capacity_tokens: u64,
    /// Idle time after which a session's retained KV expires.
    pub ttl: SimDuration,
    /// Route follow-ups to the instance holding the longest live prefix of
    /// their session (falling back to load-based placement on a miss).
    /// With affinity off the cache still serves hits that land on the
    /// right instance by chance — the ablation arm of the `sessions`
    /// experiment.
    pub affinity: bool,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        PrefixCacheConfig {
            capacity_tokens: 200_000,
            ttl: SimDuration::from_secs(300),
            affinity: true,
        }
    }
}

impl PrefixCacheConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error::Config) describing the first
    /// invalid field.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        let config = |reason: String| crate::Error::Config { reason };
        if self.capacity_tokens == 0 {
            return Err(config("prefix cache capacity must be positive".into()));
        }
        if self.ttl.is_zero() {
            return Err(config("prefix cache TTL must be positive".into()));
        }
        Ok(())
    }
}

/// First-party workload description carried inside the config file: the
/// `[workload.scenario]` section. When present, `windserve run` (and the
/// bench harness helpers that honour it) generate the trace from this
/// [`Scenario`](windserve_workload::Scenario) instead of the CLI's
/// dataset/rate flags — one file then fully describes an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The scenario to generate.
    pub scenario: windserve_workload::Scenario,
}

/// Which serving system to run — WindServe, an ablation, or a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SystemKind {
    /// Full WindServe: dynamic prefill dispatch + dynamic rescheduling +
    /// stall-free migration + stream-based disaggregation + overlapped KV
    /// handoff.
    WindServe,
    /// WindServe without stream-based disaggregation (Fig. 13a): dispatched
    /// prefills fuse into the decode batch.
    WindServeNoSplit,
    /// WindServe without dynamic rescheduling (Fig. 13b): memory pressure
    /// falls back to vLLM-style swapping.
    WindServeNoResche,
    /// DistServe-like static phase disaggregation: no dispatch, no
    /// rescheduling, KV handoff transferred after prefill completion, KV
    /// never retained on the prefill instance.
    DistServe,
    /// vLLM-like colocated serving with chunked prefill, one replica per
    /// GPU group, least-loaded routing.
    VllmColocated,
}

impl SystemKind {
    /// Dynamic prefill dispatch enabled (Algorithm 1)?
    pub(crate) fn dispatch_enabled(self) -> bool {
        matches!(
            self,
            SystemKind::WindServe | SystemKind::WindServeNoSplit | SystemKind::WindServeNoResche
        )
    }

    /// Dynamic rescheduling (and KV backups) enabled?
    pub(crate) fn resched_enabled(self) -> bool {
        matches!(self, SystemKind::WindServe | SystemKind::WindServeNoSplit)
    }

    /// Stream-based disaggregation enabled on the decode instance?
    pub(crate) fn sbd_enabled(self) -> bool {
        matches!(self, SystemKind::WindServe | SystemKind::WindServeNoResche)
    }

    /// KV handoff overlapped with prefill computation?
    pub(crate) fn overlapped_transfer(self) -> bool {
        self.dispatch_enabled()
    }

    /// Colocated (non-disaggregated) deployment?
    pub(crate) fn colocated(self) -> bool {
        matches!(self, SystemKind::VllmColocated)
    }

    /// Display name used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::WindServe => "WindServe",
            SystemKind::WindServeNoSplit => "WindServe-no-split",
            SystemKind::WindServeNoResche => "WindServe-no-resche",
            SystemKind::DistServe => "DistServe",
            SystemKind::VllmColocated => "vLLM",
        }
    }
}

/// One replica of a deployment: what it serves and the GPUs it occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replica {
    /// The phase the replica serves.
    pub role: InstanceRole,
    /// Replica index within its role.
    pub index: usize,
    /// Topology GPU ids of the replica's shards, in shard order.
    pub gpus: Vec<GpuId>,
}

impl Replica {
    /// The role as instance names and the status endpoint spell it:
    /// `prefill`, `decode` or `colocated`.
    pub fn phase(&self) -> &'static str {
        match self.role {
            InstanceRole::Prefill => "prefill",
            InstanceRole::Decode => "decode",
            InstanceRole::Colocated => "colocated",
        }
    }

    /// The instance name: `prefill-i`, `decode-i` or `colocated-i`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.phase(), self.index)
    }
}

/// Full configuration of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// The served model.
    pub model: ModelSpec,
    /// GPU type of every device in the node.
    pub gpu: GpuSpec,
    /// Optional different GPU type for the prefill instance — the paper's
    /// §7 future-work scenario (e.g. RTX-4090 prefill: high compute, low
    /// bandwidth, no NVLink). `None` uses `gpu` everywhere.
    pub prefill_gpu: Option<GpuSpec>,
    /// Node interconnect topology.
    pub topology: Topology,
    /// Prefill-instance placement (Table 3 left column).
    pub prefill_parallelism: Parallelism,
    /// Decode-instance placement (Table 3 right column).
    pub decode_parallelism: Parallelism,
    /// Number of prefill replicas (paper §7 future work: multi-instance
    /// load balancing). The Global Scheduler routes arrivals to the least
    /// predicted-TTFT replica.
    pub prefill_replicas: usize,
    /// Number of decode replicas; KV handoffs go to the replica with the
    /// most free KV.
    pub decode_replicas: usize,
    /// Latency objectives (Table 4).
    pub slo: SloSpec,
    /// System variant under test.
    pub system: SystemKind,
    /// Algorithm 1's `thrd`; `None` selects the paper's default of
    /// "slightly below the TTFT SLO" (90% of it).
    pub dispatch_threshold: Option<SimDuration>,
    /// Minimum context length for a request to be backed up / migrated
    /// (rescheduling targets long-context requests).
    pub long_context_tokens: u32,
    /// Victim selection for dynamic rescheduling.
    pub victim_policy: VictimPolicy,
    /// On multi-node topologies, place all prefill replicas on node 0 and
    /// all decode replicas on node 1 so every KV handoff crosses the
    /// inter-node fabric (the paper's §7 multi-node study).
    pub split_phases_across_nodes: bool,
    /// KV-pressure preemption mode on every instance.
    pub preemption: PreemptionMode,
    /// When set, sample every instance's KV usage and queue depths on this
    /// cadence; the series land in [`crate::RunReport::series`].
    pub sample_interval: Option<SimDuration>,
    /// When set, replicas beyond the autoscale minimums are activated and
    /// drained on demand; `prefill_replicas`/`decode_replicas` become the
    /// *maximums*.
    pub autoscale: Option<AutoscaleConfig>,
    /// Scheduling-decision trace capture (see [`crate::trace`]). Defaults
    /// to [`TraceMode::Off`], which records nothing and adds no overhead.
    pub trace: TraceMode,
    /// Seeded fault-injection plan (replica crashes, flaky/degraded
    /// transfers, stragglers). `None` runs fault-free.
    pub faults: Option<FaultPlan>,
    /// Overload control (admission caps, shedding, KV-pressure preemption,
    /// deadline watchdog, invariant auditor). `None` keeps the legacy
    /// accept-everything behaviour.
    pub overload: Option<OverloadConfig>,
    /// Session prefix caching over retained prefill KV. `None` disables it
    /// (legacy behaviour, bit-for-bit).
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// First-party workload description (`[workload.scenario]` in config
    /// files). `None` leaves workload selection to the caller (CLI flags,
    /// bench harness).
    pub workload: Option<WorkloadSpec>,
}

impl ServeConfig {
    /// A config with the paper's defaults for the given model/SLO/placement
    /// and system variant.
    pub fn new(
        model: ModelSpec,
        slo: SloSpec,
        prefill: Parallelism,
        decode: Parallelism,
        system: SystemKind,
    ) -> Self {
        ServeConfig {
            model,
            gpu: GpuSpec::a800_80gb(),
            prefill_gpu: None,
            topology: Topology::a800_testbed(),
            prefill_parallelism: prefill,
            decode_parallelism: decode,
            prefill_replicas: 1,
            decode_replicas: 1,
            slo,
            system,
            dispatch_threshold: None,
            long_context_tokens: 512,
            victim_policy: VictimPolicy::LongestContext,
            split_phases_across_nodes: false,
            preemption: PreemptionMode::Swap,
            sample_interval: None,
            autoscale: None,
            trace: TraceMode::Off,
            faults: None,
            overload: None,
            prefix_cache: None,
            workload: None,
        }
    }

    /// A builder seeded with this configuration, for deriving variants
    /// (see [`ServeConfigBuilder`](crate::ServeConfigBuilder) for who uses it).
    pub fn to_builder(&self) -> crate::ServeConfigBuilder {
        crate::ServeConfigBuilder { cfg: self.clone() }
    }

    /// Table 3 + Table 4 preset: OPT-13B, ShareGPT, `[TP-2, TP-2]`.
    pub fn opt_13b_sharegpt(system: SystemKind) -> Self {
        ServeConfig::new(
            ModelSpec::opt_13b(),
            SloSpec::opt_13b_sharegpt(),
            Parallelism::new(2, 1),
            Parallelism::new(2, 1),
            system,
        )
    }

    /// Table 3 + Table 4 preset: OPT-66B, ShareGPT, `[TP-2 PP-2, TP-2 PP-2]`.
    pub fn opt_66b_sharegpt(system: SystemKind) -> Self {
        ServeConfig::new(
            ModelSpec::opt_66b(),
            SloSpec::opt_66b_sharegpt(),
            Parallelism::new(2, 2),
            Parallelism::new(2, 2),
            system,
        )
    }

    /// Table 3 + Table 4 preset: LLaMA2-13B, LongBench, `[TP-2, TP-2]`.
    pub fn llama2_13b_longbench(system: SystemKind) -> Self {
        ServeConfig::new(
            ModelSpec::llama2_13b(),
            SloSpec::llama2_13b_longbench(),
            Parallelism::new(2, 1),
            Parallelism::new(2, 1),
            system,
        )
    }

    /// Table 3 + Table 4 preset: LLaMA2-70B, LongBench, `[TP-2 PP-2, TP-2 PP-2]`.
    pub fn llama2_70b_longbench(system: SystemKind) -> Self {
        ServeConfig::new(
            ModelSpec::llama2_70b(),
            SloSpec::llama2_70b_longbench(),
            Parallelism::new(2, 2),
            Parallelism::new(2, 2),
            system,
        )
    }

    /// The effective Algorithm 1 threshold: configured value or 90% of the
    /// TTFT SLO ("we set the threshold slightly below the TTFT SLO").
    pub fn effective_dispatch_threshold(&self) -> SimDuration {
        self.dispatch_threshold
            .unwrap_or_else(|| self.slo.ttft.mul_f64(0.9))
    }

    /// The GPU type backing the prefill instance.
    pub(crate) fn prefill_gpu(&self) -> GpuSpec {
        self.prefill_gpu.clone().unwrap_or_else(|| self.gpu.clone())
    }

    /// GPUs consumed by the whole deployment.
    pub fn total_gpus(&self) -> usize {
        self.prefill_parallelism.n_gpus() * self.prefill_replicas
            + self.decode_parallelism.n_gpus() * self.decode_replicas
    }

    /// The deployment's replicas in instance order, each on its GPU group:
    /// the one place the layout is decided.
    ///
    /// - Colocated systems run `total_gpus / group` replicas (at least
    ///   one) on sequential prefill-parallelism groups.
    /// - An unsplit 1P+1D deployment takes the topology's paired placement.
    /// - Otherwise prefill replicas take sequential groups from GPU 0 and
    ///   decode replicas follow them, or start on node 1 under
    ///   `split_phases_across_nodes`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error::Config) when the placement
    /// needs more GPUs than the topology has, a group runs off the
    /// topology, or two groups share a GPU.
    pub fn layout(&self) -> crate::Result<Vec<Replica>> {
        use InstanceRole::{Colocated, Decode, Prefill};
        let config = |reason: String| crate::Error::Config { reason };
        let n_gpus = self.topology.n_gpus();
        let (pn, dn) = (
            self.prefill_parallelism.n_gpus(),
            self.decode_parallelism.n_gpus(),
        );
        if self.total_gpus() > n_gpus {
            return Err(config(format!(
                "placement needs {} GPUs, node has {n_gpus}",
                self.total_gpus()
            )));
        }
        if pn == 0 || dn == 0 {
            return Err(config("every replica needs at least one GPU".into()));
        }
        let replica = |role, index, gpus| Replica { role, index, gpus };
        // Replica `index` of `role` on the `index`-th `size`-GPU group from `first`.
        let seq = |role, first: usize, size: usize, index: usize| {
            let gpus = (first + index * size..first + (index + 1) * size).map(GpuId);
            replica(role, index, gpus.collect())
        };
        let layout: Vec<Replica> = if self.system.colocated() {
            (0..(self.total_gpus() / pn).max(1))
                .map(|r| seq(Colocated, 0, pn, r))
                .collect()
        } else if self.prefill_replicas == 1
            && self.decode_replicas == 1
            && !self.split_phases_across_nodes
        {
            let (p, d) = self.topology.paired_placement(pn, dn);
            vec![replica(Prefill, 0, p), replica(Decode, 0, d)]
        } else {
            let n_nodes = self.topology.n_nodes();
            let decode_base = if self.split_phases_across_nodes && n_nodes > 1 {
                n_gpus / n_nodes
            } else {
                pn * self.prefill_replicas
            };
            let prefill = (0..self.prefill_replicas).map(|r| seq(Prefill, 0, pn, r));
            let decode = (0..self.decode_replicas).map(|r| seq(Decode, decode_base, dn, r));
            prefill.chain(decode).collect()
        };
        let mut owner: Vec<Option<usize>> = vec![None; n_gpus];
        for (i, replica) in layout.iter().enumerate() {
            for &GpuId(g) in &replica.gpus {
                let reason = match owner.get_mut(g) {
                    None => format!("needs GPU {g}, beyond the topology's {n_gpus} GPUs"),
                    Some(Some(other)) => format!("shares GPU {g} with {}", layout[*other].name()),
                    Some(slot) => {
                        *slot = Some(i);
                        continue;
                    }
                };
                return Err(config(format!("{} {reason}", replica.name())));
            }
        }
        Ok(layout)
    }

    /// Converts a per-GPU rate (the paper's x-axis) into an aggregate rate.
    pub fn total_rate(&self, per_gpu_rate: f64) -> f64 {
        per_gpu_rate * self.total_gpus() as f64
    }

    /// Validates parameter ranges and placement feasibility.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error::Config) (or a wrapped
    /// substrate error) describing the first invalid field.
    pub fn validate(&self) -> crate::Result<()> {
        let config = |reason: String| crate::Error::Config { reason };
        self.topology.validate()?;
        self.model.validate()?;
        self.gpu.validate()?;
        if let Some(pg) = &self.prefill_gpu {
            pg.validate()?;
        }
        let n_instances = self.layout()?.len();
        if self.slo.ttft.is_zero() || self.slo.tpot.is_zero() {
            return Err(config("slo.ttft and slo.tpot must be positive".into()));
        }
        if !self.system.colocated() && (self.prefill_replicas == 0 || self.decode_replicas == 0) {
            return Err(config(
                "PD systems need at least one replica per phase".into(),
            ));
        }
        if let Some(auto) = &self.autoscale {
            auto.validate()?;
            if auto.min_prefill > self.prefill_replicas || auto.min_decode > self.decode_replicas {
                return Err(config(
                    "autoscale minimums exceed the replica maximums".into(),
                ));
            }
        }
        if let Some(overload) = &self.overload {
            overload.validate()?;
        }
        if let Some(prefix) = &self.prefix_cache {
            prefix.validate()?;
        }
        if let Some(workload) = &self.workload {
            workload
                .scenario
                .validate()
                .map_err(|e| config(format!("workload scenario: {e}")))?;
        }
        if let Some(faults) = &self.faults {
            faults
                .validate()
                .map_err(|reason| config(format!("fault plan: {reason}")))?;
            let mut targets = faults.events.iter().filter_map(|e| e.kind.instance());
            if let Some(inst) = targets.find(|&i| i as usize >= n_instances) {
                return Err(config(format!(
                    "fault plan targets instance {inst}, cluster has {n_instances}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_match_table3() {
        for cfg in [
            ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
            ServeConfig::opt_66b_sharegpt(SystemKind::DistServe),
            ServeConfig::llama2_13b_longbench(SystemKind::VllmColocated),
            ServeConfig::llama2_70b_longbench(SystemKind::WindServeNoSplit),
        ] {
            cfg.validate().unwrap();
        }
        // Table 3: 13B-class models use [TP-2, TP-2]; large models add PP-2.
        assert_eq!(
            ServeConfig::opt_13b_sharegpt(SystemKind::WindServe).total_gpus(),
            4
        );
        assert_eq!(
            ServeConfig::opt_66b_sharegpt(SystemKind::WindServe).total_gpus(),
            8
        );
    }

    #[test]
    fn system_kinds_gate_the_right_features() {
        use SystemKind::*;
        assert!(
            WindServe.dispatch_enabled() && WindServe.resched_enabled() && WindServe.sbd_enabled()
        );
        assert!(!WindServeNoSplit.sbd_enabled() && WindServeNoSplit.resched_enabled());
        assert!(!WindServeNoResche.resched_enabled() && WindServeNoResche.sbd_enabled());
        assert!(!DistServe.dispatch_enabled() && !DistServe.overlapped_transfer());
        assert!(VllmColocated.colocated());
    }

    #[test]
    fn default_threshold_is_slightly_below_ttft_slo() {
        let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let thrd = cfg.effective_dispatch_threshold();
        assert!(thrd < cfg.slo.ttft);
        assert!(thrd.as_secs_f64() > 0.8 * cfg.slo.ttft.as_secs_f64());
    }

    #[test]
    fn rate_conversions_are_inverse() {
        let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let total = cfg.total_rate(4.0);
        assert_eq!(total, 16.0);
        assert_eq!(total / cfg.total_gpus() as f64, 4.0);
    }

    #[test]
    fn overload_config_validates_ranges() {
        OverloadConfig::default().validate().unwrap();
        let bad = OverloadConfig {
            max_queued_requests: Some(0),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = OverloadConfig {
            shed_ttft_factor: -1.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = OverloadConfig {
            preempt_kv_watermark: Some(1.5),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = OverloadConfig {
            deadline: Some(SimDuration::ZERO),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = OverloadConfig {
            audit_interval_events: Some(0),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        // The overload sub-config is checked by ServeConfig::validate.
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.overload = Some(bad);
        assert!(cfg.validate().is_err());
        cfg.overload = Some(OverloadConfig::default());
        cfg.validate().unwrap();
        // Shed threshold scales the TTFT SLO.
        let slo = SloSpec::opt_13b_sharegpt();
        let thrd = OverloadConfig::default().shed_threshold(slo);
        assert!((thrd.as_secs_f64() - 0.375).abs() < 1e-9);
    }

    #[test]
    fn to_builder_applies_setters() {
        let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::DistServe)
            .to_builder()
            .topology(Topology::a800_multi_node(2))
            .prefill_replicas(2)
            .decode_replicas(3)
            .with_prefix_cache(PrefixCacheConfig::default())
            .build()
            .unwrap();
        assert_eq!(cfg.system, SystemKind::DistServe);
        assert_eq!(cfg.topology, Topology::a800_multi_node(2));
        assert_eq!((cfg.prefill_replicas, cfg.decode_replicas), (2, 3));
        assert_eq!(cfg.prefix_cache, Some(PrefixCacheConfig::default()));
    }

    #[test]
    fn invalid_fields_are_config_errors_at_validate_and_build() {
        let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let zero_ttft = SloSpec {
            ttft: SimDuration::ZERO,
            ..base.slo
        };
        let zero_tpot = SloSpec {
            tpot: SimDuration::ZERO,
            ..base.slo
        };
        for bad in [
            ServeConfig {
                slo: zero_ttft,
                ..base.clone()
            },
            ServeConfig {
                slo: zero_tpot,
                ..base.clone()
            },
        ] {
            assert!(matches!(bad.validate(), Err(crate::Error::Config { .. })));
        }
        let err = base.to_builder().decode_replicas(0).build().unwrap_err();
        assert!(matches!(err, crate::Error::Config { .. }));
    }

    #[test]
    fn optional_subsystems_validate() {
        let cfg = ServeConfig {
            autoscale: Some(AutoscaleConfig::default()),
            overload: Some(OverloadConfig::default()),
            trace: TraceMode::Full,
            faults: Some(FaultPlan::flaky_transfers(7)),
            ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn oversubscribed_placement_rejected() {
        let mut cfg = ServeConfig::opt_66b_sharegpt(SystemKind::WindServe);
        cfg.prefill_parallelism = Parallelism::new(4, 2);
        assert!(cfg.validate().is_err());
    }
}
