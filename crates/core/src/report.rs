//! Run reports.

use crate::config::SystemKind;
use serde::{Deserialize, Serialize};
use windserve_metrics::{
    DroppedRequest, InstanceSeries, LatencySummary, RequestRecord, Utilization,
};

/// One Algorithm 1 prediction paired with the eventual ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TtftPrediction {
    /// The request id's raw value.
    pub request: u64,
    /// `TTFT_pred` at arrival time, seconds (for the replica the request
    /// was routed to).
    pub predicted: f64,
    /// The realized TTFT, seconds.
    pub actual: f64,
    /// Whether the request was dispatched to the decode instance (its
    /// prediction then refers to the *rejected* prefill-instance plan).
    pub dispatched: bool,
}

/// Per-instance execution summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceReport {
    /// Instance name.
    pub name: String,
    /// Mean resource utilization over the run (Fig. 2).
    pub utilization: Utilization,
    /// KV swap-out events.
    pub swap_outs: u64,
    /// KV swap-in events.
    pub swap_ins: u64,
    /// Pure prefill steps executed.
    pub prefill_steps: u64,
    /// Pure decode steps executed.
    pub decode_steps: u64,
    /// Single-stream hybrid steps executed.
    pub hybrid_steps: u64,
    /// Aux-stream (guest prefill) steps executed.
    pub aux_steps: u64,
}

/// The result of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// System variant that ran.
    pub system: SystemKind,
    /// Latency and SLO summary over completed requests.
    pub summary: LatencySummary,
    /// Per-request records (sorted by request id).
    pub records: Vec<RequestRecord>,
    /// Wall-clock span of the run, seconds.
    pub duration_secs: f64,
    /// Per-instance summaries.
    pub instances: Vec<InstanceReport>,
    /// Requests whose prefill was dispatched to the decode instance.
    pub dispatched_prefills: u64,
    /// Dynamic-rescheduling migrations started.
    pub migrations_started: u64,
    /// Migrations that completed (request resumed at the destination).
    pub migrations_completed: u64,
    /// KV bytes moved across instances (handoffs + migrations).
    pub kv_bytes_transferred: u64,
    /// KV backups retained on the prefill instance.
    pub backups_created: u64,
    /// Migration transfers shrunk by a backup hit.
    pub backup_hits: u64,
    /// Fault-plan events injected (crashes, recoveries, link degradations,
    /// stragglers). Zero on fault-free runs.
    pub faults_injected: u64,
    /// Requests re-placed after a replica crash or an exhausted transfer.
    pub requests_rescheduled: u64,
    /// KV transfers retried after an injected failure.
    pub transfer_retries: u64,
    /// Per-instance sampled state over time (empty unless
    /// [`crate::ServeConfig::sample_interval`] was set).
    pub series: Vec<InstanceSeries>,
    /// Algorithm 1's TTFT predictions vs realized TTFTs (PD systems only).
    pub ttft_predictions: Vec<TtftPrediction>,
    /// Replica activations + deactivations performed by the autoscaler.
    pub autoscale_events: u64,
    /// GPU-seconds held by active (incl. warming) replicas — the cost side
    /// of the autoscaling trade-off.
    pub gpu_seconds_active: f64,
    /// Simulator events processed by the run's event loop (perf telemetry;
    /// together with wall-clock this yields events/sec). Counts every
    /// delivered event, including the decode steps the decode run-ahead
    /// applies without passing them through the event queue, so
    /// it equals the number of events a one-at-a-time loop would pop.
    pub events_processed: u64,
    /// Always 0: the cost model prices every step in closed form and has
    /// no step cache. The field keeps its key for readers of the
    /// serialized report that look counters up by name (the benchmark's
    /// `model.cost_cache_*` metrics) and goes when they do.
    pub cost_cache_hits: u64,
    /// Always 0, like [`RunReport::cost_cache_hits`].
    pub cost_cache_misses: u64,
    /// Requests that terminated without completing (admission rejection,
    /// shedding, watchdog abort), each with its typed reason. Sorted by
    /// request id. Empty without overload control.
    pub dropped: Vec<DroppedRequest>,
    /// Arrivals rejected at admission (queue cap or token budget).
    pub requests_rejected: u64,
    /// Requests shed by SLO-aware load shedding.
    pub requests_shed: u64,
    /// Running decodes preempted by KV-pressure preemption.
    pub requests_preempted: u64,
    /// Requests aborted by the deadline watchdog.
    pub watchdog_aborts: u64,
    /// Cluster-wide invariant audits executed (all passed — a failed audit
    /// aborts the run with [`crate::Error::Invariant`]).
    pub invariant_checks: u64,
    /// Peak number of resident (queued or running) requests observed — the
    /// p100 queue-depth bound the admission cap enforces.
    pub peak_pending: usize,
    /// Session follow-ups whose shared prefix was served from an
    /// instance's prefix cache. Zero without prefix caching.
    pub prefix_hits: u64,
    /// Session follow-ups that probed a prefix cache and found too little
    /// of their shared prefix. Zero without prefix caching.
    pub prefix_misses: u64,
    /// Retained session prefixes evicted (capacity pressure, TTL expiry,
    /// or a replica crash).
    pub prefix_evictions: u64,
    /// Total prompt tokens served from prefix caches instead of being
    /// prefilled — the compute the cache saved.
    pub prefix_cached_tokens: u64,
}

impl RunReport {
    /// Throughput: completed requests per second over the run.
    pub fn throughput(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.summary.completed as f64 / self.duration_secs
        } else {
            0.0
        }
    }

    /// Goodput (DistServe's metric): requests per second that met *both*
    /// SLOs.
    pub fn goodput(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.summary.slo_attaining as f64 / self.duration_secs
        } else {
            0.0
        }
    }

    /// Requests dropped with the given typed reason.
    pub fn dropped_with(&self, reason: windserve_metrics::DropReason) -> usize {
        self.dropped.iter().filter(|d| d.reason == reason).count()
    }

    /// Total swap-outs across instances (Fig. 1a's swapping signal).
    pub fn total_swap_outs(&self) -> u64 {
        self.instances.iter().map(|i| i.swap_outs).sum()
    }

    /// Mean absolute relative error of Algorithm 1's TTFT predictions over
    /// requests that were *not* dispatched (their prediction describes the
    /// path actually taken). `None` without any such prediction.
    pub fn ttft_prediction_error(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .ttft_predictions
            .iter()
            .filter(|p| !p.dispatched && p.actual > 0.0)
            .map(|p| ((p.predicted - p.actual) / p.actual).abs())
            .collect();
        if errs.is_empty() {
            None
        } else {
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
    }

    /// Mean GPUs held over the run (equals the static allocation when
    /// autoscaling is off).
    pub fn mean_active_gpus(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.gpu_seconds_active / self.duration_secs
        } else {
            0.0
        }
    }

    /// Prefix-cache hit rate over session follow-ups that probed a cache
    /// (0 with no probes).
    pub fn prefix_hit_rate(&self) -> f64 {
        let probes = self.prefix_hits + self.prefix_misses;
        if probes == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / probes as f64
        }
    }

    /// Latency summaries per conversational session, keyed by the raw
    /// session id. Requests without a session tag (single-shot workloads)
    /// group under `None`, so the groups partition the records and their
    /// `completed` counts sum to `records.len()`. Each group's `ttft` and
    /// `tpot` percentiles are the per-session TTFT/TBT figures a
    /// multi-turn report plots.
    pub fn summary_by_session(
        &self,
        slo: windserve_metrics::SloSpec,
    ) -> std::collections::BTreeMap<Option<u64>, LatencySummary> {
        LatencySummary::grouped_by(slo, &self.records, |r| r.session.map(|t| t.session.0))
    }

    /// A latency summary restricted to requests whose prefill ran at the
    /// given site (e.g. only dispatched prefills).
    pub fn summary_by_site(
        &self,
        slo: windserve_metrics::SloSpec,
        site: windserve_metrics::PrefillSite,
    ) -> LatencySummary {
        let records: Vec<RequestRecord> = self
            .records
            .iter()
            .filter(|r| r.prefill_site == site)
            .copied()
            .collect();
        LatencySummary::of(slo, &records)
    }
}
