//! Typed scheduling-trace events.
//!
//! Every event carries the scheduler state that produced a decision, not
//! just its outcome — the point of the trace layer is that a run can be
//! audited after the fact ("why was request 42 dispatched?") without
//! re-running the simulation under a debugger.

use serde::{Deserialize, Serialize};
use windserve_sim::SimTime;
use windserve_workload::RequestId;

/// One execution context of an instance, as seen by the trace layer.
///
/// Mirrors the engine's lane notion without depending on the engine crate,
/// so the trace layer stays at the bottom of the dependency stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Lane {
    /// Pipeline lane `i` (one of the `pp` in-flight batch slots).
    Main(u32),
    /// The guest-prefill CUDA stream on a decode instance (§3.4).
    Aux,
}

impl Lane {
    /// A small stable integer for exporters that need a thread id.
    pub(crate) fn slot(self) -> u32 {
        match self {
            Lane::Main(i) => i,
            Lane::Aux => 15,
        }
    }

    /// Short display label (`lane0`, `aux`).
    pub(crate) fn label(self) -> String {
        match self {
            Lane::Main(i) => format!("lane{i}"),
            Lane::Aux => "aux".to_string(),
        }
    }
}

/// The work mix of a completed step, for stream-occupancy intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepClass {
    /// Pure prompt processing.
    Prefill,
    /// Pure decoding.
    Decode,
    /// Single-stream mixed batch.
    Hybrid,
    /// Guest prefill in the auxiliary stream.
    AuxPrefill,
}

impl StepClass {
    /// Display label used by exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            StepClass::Prefill => "prefill",
            StepClass::Decode => "decode",
            StepClass::Hybrid => "hybrid",
            StepClass::AuxPrefill => "aux-prefill",
        }
    }
}

/// Outcome of one Algorithm 1 evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchVerdict {
    /// `TTFT_pred <= thrd`: the prefill instance is not overloaded; the
    /// request stays on the prefill side.
    BelowThreshold,
    /// Overloaded and a decode replica had the slots: guest prefill.
    Dispatched,
    /// Overloaded but no decode replica could offer enough slots — the
    /// dispatch was *rejected* and the request queues on the prefill side.
    NoSlots,
}

impl DispatchVerdict {
    /// Display label used by exporters and the CLI audit.
    pub fn label(self) -> &'static str {
        match self {
            DispatchVerdict::BelowThreshold => "below-threshold",
            DispatchVerdict::Dispatched => "dispatched",
            DispatchVerdict::NoSlots => "no-slots",
        }
    }
}

/// One Algorithm 1 decision with the inputs that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DispatchDecision {
    /// The arriving request.
    pub request: RequestId,
    /// Its prompt length (the slot demand).
    pub prompt_tokens: u32,
    /// `TTFT_pred` for the chosen prefill replica, seconds.
    pub ttft_pred_secs: f64,
    /// Algorithm 1's `thrd`, seconds.
    pub threshold_secs: f64,
    /// Best slot offer across routable decode replicas, in prefill tokens.
    pub slots_free: u64,
    /// The verdict.
    pub verdict: DispatchVerdict,
    /// Instance the request was ultimately routed to.
    pub target: u32,
}

/// Outcome of the overload admission/shedding check for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionVerdict {
    /// Admitted without displacing anything.
    Admitted,
    /// Rejected at the door: the resident-request cap was full.
    RejectedQueueFull,
    /// Rejected at the door: the queued-prefill token budget was exhausted.
    RejectedTokenBudget,
    /// Predicted TTFT exceeded the shed threshold and the arrival itself
    /// was the lowest-value candidate: it was dropped.
    ShedArrival,
    /// Predicted TTFT exceeded the shed threshold; a lower-tier queued
    /// request was shed to make room for this arrival.
    ShedVictim,
}

impl AdmissionVerdict {
    /// Display label used by exporters and the CLI audit.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionVerdict::Admitted => "admitted",
            AdmissionVerdict::RejectedQueueFull => "rejected-queue-full",
            AdmissionVerdict::RejectedTokenBudget => "rejected-token-budget",
            AdmissionVerdict::ShedArrival => "shed-arrival",
            AdmissionVerdict::ShedVictim => "shed-victim",
        }
    }
}

/// One overload admission decision with the state that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionDecision {
    /// The arriving request.
    pub request: RequestId,
    /// Its priority tier.
    pub tier: u8,
    /// Resident (queued or running) requests at decision time.
    pub queued_requests: usize,
    /// Queued prefill tokens across routable instances at decision time.
    pub queued_tokens: u64,
    /// Predicted TTFT for the arrival, seconds (`None` for colocated
    /// deployments, where Algorithm 1 does not run).
    pub ttft_pred_secs: Option<f64>,
    /// The shed threshold in effect, seconds (`None` when shedding is off).
    pub shed_threshold_secs: Option<f64>,
    /// The verdict.
    pub verdict: AdmissionVerdict,
    /// The queued request shed to admit this arrival (verdict
    /// [`AdmissionVerdict::ShedVictim`] only).
    pub victim: Option<RequestId>,
}

/// What the fleet arbiter did with a block of leased GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseAction {
    /// GPUs moved from the shared pool to a deployment.
    Granted,
    /// GPUs reclaimed from an underloaded deployment back to the pool.
    Reclaimed,
    /// GPUs handed back to the pool at deployment wind-down.
    Returned,
}

impl LeaseAction {
    /// Display label used by exporters and the CLI audit.
    pub(crate) fn label(self) -> &'static str {
        match self {
            LeaseAction::Granted => "granted",
            LeaseAction::Reclaimed => "reclaimed",
            LeaseAction::Returned => "returned",
        }
    }
}

/// A structured trace event. All instance references are cluster-wide
/// instance indices; timestamps live on the enclosing [`TimedEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A request arrived and joined a waiting queue.
    Queued {
        /// The request.
        id: RequestId,
        /// Prompt length.
        prompt_tokens: u32,
        /// Requested output length.
        output_tokens: u32,
        /// Instance it was routed to.
        inst: u32,
    },
    /// Algorithm 1 ran for an arrival (phase-disaggregated systems only).
    Dispatch(DispatchDecision),
    /// Prompt processing started (first chunk launched).
    PrefillStarted {
        /// The request.
        id: RequestId,
        /// Hosting instance.
        inst: u32,
    },
    /// Prompt fully processed; the first token exists.
    PrefillFinished {
        /// The request.
        id: RequestId,
        /// Hosting instance.
        inst: u32,
    },
    /// Prefill→decode KV handoff submitted to the interconnect.
    KvTransferStarted {
        /// The request.
        id: RequestId,
        /// Source (prefill) instance.
        src: u32,
        /// Destination (decode) instance.
        dst: u32,
        /// Bytes still on the wire (the last layer's tail when the
        /// transfer overlapped prefill computation).
        wire_bytes: u64,
        /// Full KV size of the prompt.
        full_bytes: u64,
        /// Whether the transfer overlapped prefill computation.
        overlapped: bool,
        /// Whether the source retains a backup copy for later migration.
        keep_backup: bool,
    },
    /// KV handoff finished; the request joins the decode queue.
    KvTransferFinished {
        /// The request.
        id: RequestId,
        /// Destination instance.
        dst: u32,
    },
    /// A KV backup was retained on the prefill instance.
    BackupCreated {
        /// The request.
        id: RequestId,
        /// Instance holding the backup.
        inst: u32,
    },
    /// First decode iteration launched.
    DecodeStarted {
        /// The request.
        id: RequestId,
        /// Hosting instance.
        inst: u32,
    },
    /// Decode-side KV pressure crossed the watermark; dynamic
    /// rescheduling is looking for a victim.
    ReschedTriggered {
        /// The pressured decode instance.
        inst: u32,
        /// Its free-block fraction at the trigger.
        kv_free_fraction: f64,
        /// The configured watermark.
        watermark: f64,
    },
    /// Stall-free migration started (background bulk phase).
    MigrationStarted {
        /// The victim request.
        id: RequestId,
        /// Source decode instance.
        src: u32,
        /// Destination prefill instance.
        dst: u32,
        /// Victim context length at selection time.
        context_tokens: u32,
        /// Tokens moved by the background phase.
        bulk_tokens: u32,
        /// Whether a KV backup shrank the transfer.
        backup_hit: bool,
    },
    /// Background phase drained; the request paused for the tail flush.
    MigrationPaused {
        /// The migrating request.
        id: RequestId,
        /// Tail tokens the pause phase must flush.
        tail_tokens: u32,
    },
    /// Migration complete; the request resumed at the destination.
    MigrationFinished {
        /// The migrated request.
        id: RequestId,
        /// Destination instance.
        dst: u32,
    },
    /// The request produced its final token and left the system.
    Finished {
        /// The request.
        id: RequestId,
    },
    /// A step launched on an execution context (stream busy from now).
    StepStarted {
        /// Hosting instance.
        inst: u32,
        /// Execution context.
        lane: Lane,
        /// Scheduled completion time.
        ends_at: SimTime,
    },
    /// A step completed; `[now - duration, now]` is one occupancy
    /// interval of the stream.
    StepFinished {
        /// Hosting instance.
        inst: u32,
        /// Execution context.
        lane: Lane,
        /// Work mix.
        class: StepClass,
        /// Step duration, microseconds.
        duration_us: u64,
    },
    /// The autoscaler activated or deactivated a replica.
    Autoscale {
        /// The affected instance.
        inst: u32,
        /// `true` = activated (warming), `false` = drained + released.
        activated: bool,
    },
    /// A planned fault fired (crash, recovery, link change, straggler).
    FaultInjected {
        /// The fault's stable label (`replica_crash`, `link_degrade`, ...).
        fault: String,
        /// The targeted instance, when the fault targets one.
        inst: Option<u32>,
    },
    /// A request displaced by a fault was re-placed on a healthy replica.
    RequestRescheduled {
        /// The displaced request.
        id: RequestId,
        /// The crashed (or unreachable) instance it was displaced from.
        from: u32,
        /// The healthy instance it now targets.
        to: u32,
        /// `true` when a KV backup allowed a delta-only re-migration;
        /// `false` means a full re-prefill from the prompt.
        backup_hit: bool,
    },
    /// A failed KV transfer was resubmitted after backoff.
    TransferRetried {
        /// The affected request, when the transfer carries one.
        id: Option<RequestId>,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Backoff waited before this attempt, microseconds.
        backoff_us: u64,
    },
    /// The overload admission controller ruled on an arrival. Emitted only
    /// when overload control is configured.
    Admission(AdmissionDecision),
    /// A running decode was preempted because its replica's KV pressure
    /// crossed the high-water mark; the victim's KV was swapped to host
    /// memory (or marked for recompute) and it re-queues for admission.
    RequestPreempted {
        /// The preempted request.
        id: RequestId,
        /// The pressured decode instance.
        inst: u32,
        /// Victim priority tier.
        tier: u8,
        /// Free-block fraction at the trigger.
        kv_free_fraction: f64,
        /// The configured preemption watermark.
        watermark: f64,
    },
    /// The fleet placement planner or fair-share arbiter moved GPUs
    /// between the shared pool and a deployment's lease.
    FleetLease {
        /// The affected deployment's index within the fleet.
        deployment: u32,
        /// What happened to the lease.
        action: LeaseAction,
        /// Number of GPUs moved.
        gpus: u32,
        /// The deployment's lease size after the move.
        lease_after: u32,
        /// Free GPUs left in the shared pool after the move.
        pool_free: u32,
    },
    /// The deadline watchdog aborted a request stuck past its wall-clock
    /// budget (stranded transfer, starved re-queue).
    WatchdogAborted {
        /// The aborted request.
        id: RequestId,
        /// How long the request had been resident, seconds.
        waited_secs: f64,
        /// The configured deadline, seconds.
        deadline_secs: f64,
    },
    /// The serving gateway turned a live HTTP completion into a sim
    /// arrival.
    GatewaySubmitted {
        /// The request id the gateway assigned.
        id: RequestId,
        /// Prompt length, tokens.
        prompt_tokens: u32,
        /// Requested output length, tokens.
        output_tokens: u32,
        /// `true` for SSE streaming responses, `false` for unary ones.
        streamed: bool,
    },
    /// The gateway closed a live response stream (all tokens delivered,
    /// the request was dropped, or the client went away).
    GatewayStreamClosed {
        /// The request whose stream closed.
        id: RequestId,
        /// Output tokens actually delivered to the client.
        delivered_tokens: u32,
    },
    /// The gateway's health state machine moved
    /// (`healthy`/`degraded`/`draining`).
    GatewayHealthChanged {
        /// State label before the transition.
        from: String,
        /// State label after the transition.
        to: String,
        /// Rolling admission-error rate that drove the transition.
        error_rate: f64,
    },
    /// The gateway's admission circuit breaker changed state
    /// (`closed`/`open`/`half-open`).
    GatewayBreaker {
        /// New breaker state label.
        state: String,
        /// Consecutive admission failures at the transition.
        consecutive_failures: u32,
    },
    /// A seeded network fault fired at the gateway (from a
    /// `NetFaultPlan`).
    GatewayNetFault {
        /// The connection (accept order, from 0) the fault hit.
        conn: u64,
        /// The fault kind label (`conn-reset`, `worker-panic`, ...).
        kind: String,
    },
    /// A session follow-up found part of its shared prefix in the target
    /// instance's prefix cache; prefill computes only the suffix.
    PrefixHit {
        /// The arriving request.
        id: RequestId,
        /// The instance whose cache served the prefix.
        inst: u32,
        /// Prompt tokens served from the cache.
        cached_tokens: u32,
        /// Full prompt length, tokens.
        prompt_tokens: u32,
    },
    /// A session follow-up probed the target instance's prefix cache and
    /// found none of its shared prefix (evicted, expired, or first turn
    /// landed elsewhere).
    PrefixMiss {
        /// The arriving request.
        id: RequestId,
        /// The instance whose cache was probed.
        inst: u32,
    },
    /// A prefix-cache insert (or TTL sweep) evicted retained session KV
    /// to stay inside the instance's capacity budget.
    PrefixEvicted {
        /// The instance whose cache evicted.
        inst: u32,
        /// Retained tokens released by this eviction round.
        evicted_tokens: u64,
    },
}

impl TraceEvent {
    /// The request this event concerns, if any.
    pub(crate) fn request_id(&self) -> Option<RequestId> {
        match self {
            TraceEvent::Queued { id, .. }
            | TraceEvent::PrefillStarted { id, .. }
            | TraceEvent::PrefillFinished { id, .. }
            | TraceEvent::KvTransferStarted { id, .. }
            | TraceEvent::KvTransferFinished { id, .. }
            | TraceEvent::BackupCreated { id, .. }
            | TraceEvent::DecodeStarted { id, .. }
            | TraceEvent::MigrationStarted { id, .. }
            | TraceEvent::MigrationPaused { id, .. }
            | TraceEvent::MigrationFinished { id, .. }
            | TraceEvent::RequestRescheduled { id, .. }
            | TraceEvent::RequestPreempted { id, .. }
            | TraceEvent::WatchdogAborted { id, .. }
            | TraceEvent::GatewaySubmitted { id, .. }
            | TraceEvent::GatewayStreamClosed { id, .. }
            | TraceEvent::PrefixHit { id, .. }
            | TraceEvent::PrefixMiss { id, .. }
            | TraceEvent::Finished { id } => Some(*id),
            TraceEvent::Dispatch(d) => Some(d.request),
            TraceEvent::Admission(a) => Some(a.request),
            TraceEvent::TransferRetried { id, .. } => *id,
            _ => None,
        }
    }

    /// Short kebab-case name of the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Queued { .. } => "queued",
            TraceEvent::Dispatch(_) => "dispatch",
            TraceEvent::PrefillStarted { .. } => "prefill-started",
            TraceEvent::PrefillFinished { .. } => "prefill-finished",
            TraceEvent::KvTransferStarted { .. } => "kv-transfer-started",
            TraceEvent::KvTransferFinished { .. } => "kv-transfer-finished",
            TraceEvent::BackupCreated { .. } => "backup-created",
            TraceEvent::DecodeStarted { .. } => "decode-started",
            TraceEvent::ReschedTriggered { .. } => "resched-triggered",
            TraceEvent::MigrationStarted { .. } => "migration-started",
            TraceEvent::MigrationPaused { .. } => "migration-paused",
            TraceEvent::MigrationFinished { .. } => "migration-finished",
            TraceEvent::Finished { .. } => "finished",
            TraceEvent::StepStarted { .. } => "step-started",
            TraceEvent::StepFinished { .. } => "step-finished",
            TraceEvent::Autoscale { .. } => "autoscale",
            TraceEvent::FaultInjected { .. } => "fault-injected",
            TraceEvent::RequestRescheduled { .. } => "request-rescheduled",
            TraceEvent::TransferRetried { .. } => "transfer-retried",
            TraceEvent::Admission(_) => "admission",
            TraceEvent::RequestPreempted { .. } => "request-preempted",
            TraceEvent::FleetLease { .. } => "fleet-lease",
            TraceEvent::WatchdogAborted { .. } => "watchdog-aborted",
            TraceEvent::GatewaySubmitted { .. } => "gateway-submitted",
            TraceEvent::GatewayStreamClosed { .. } => "gateway-stream-closed",
            TraceEvent::GatewayHealthChanged { .. } => "gateway-health-changed",
            TraceEvent::GatewayBreaker { .. } => "gateway-breaker",
            TraceEvent::GatewayNetFault { .. } => "gateway-net-fault",
            TraceEvent::PrefixHit { .. } => "prefix-hit",
            TraceEvent::PrefixMiss { .. } => "prefix-miss",
            TraceEvent::PrefixEvicted { .. } => "prefix-evicted",
        }
    }
}

/// A trace event stamped with its simulation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}
