//! The cluster event loop.
//!
//! [`Cluster`] assembles the serving deployment described by a
//! [`ServeConfig`] — one or more prefill and decode instances for
//! phase-disaggregated systems (multi-replica load balancing is the paper's
//! §7 future work, implemented here), or colocated replicas for the vLLM
//! baseline — and replays a request [`Trace`] through it on the
//! discrete-event simulator, applying the Global Scheduler's decisions:
//!
//! * arrivals route to the least-loaded prefill replica and through
//!   Dynamic Prefill Dispatch (Algorithm 1);
//! * prefill→decode KV handoffs ride the interconnect (overlapped with
//!   prefill computation for WindServe, serialized after it for
//!   DistServe), targeting the decode replica with the most free KV;
//! * decode-side memory pressure triggers Dynamic Rescheduling with
//!   stall-free migration (§3.3) and opportunistic KV backups;
//! * every stage of every request is timestamped into a
//!   [`RequestRecord`].
//!
//! # Fault injection and recovery
//!
//! When a [`FaultPlan`] is attached (see
//! [`ServeConfigBuilder::faults`](crate::ServeConfigBuilder::faults)), its
//! events ride the same clock as the workload:
//!
//! * a **replica crash** drops the instance's entire working state — queues,
//!   running steps, KV blocks, backups — and re-places every lost request:
//!   a surviving KV backup on another replica shrinks the recovery to a
//!   delta re-migration, otherwise the prompt (plus tokens already
//!   streamed) is prefilled again from scratch. With nowhere left to run,
//!   requests park until a replica recovers.
//! * **flaky transfers** retry with linear backoff up to the plan's bound;
//!   an exhausted KV handoff degrades to decoding in place on the prefill
//!   replica, an exhausted migration aborts back to its source.
//! * **link degradation** stretches every subsequently submitted transfer.
//!
//! Fault verdicts are pure functions of the plan's seed, so the same plan
//! over the same trace replays byte-identically.

use crate::budget::calibrate_aux_budget;
use crate::config::ServeConfig;
use crate::coordinator::Coordinator;
use crate::pending::PendingTable;
use crate::profiler::Profiler;
use crate::report::{InstanceReport, RunReport, TtftPrediction};
use windserve_engine::{
    Instance, InstanceConfig, LaneRef, PausedSeq, RunAhead, SeqState, StartedStep, StepKind,
    StepOutcome,
};
use windserve_faults::{FaultEvent, FaultKind, FaultPlan};
use windserve_gpu::{GpuId, RouteId, StreamSharing, TransferEngine};
use windserve_kvcache::{PrefixStore, StallFreeMigration};
use windserve_metrics::{DropReason, DroppedRequest, LatencySummary, PrefillSite, RequestRecord};
use windserve_model::CostModel;
use windserve_sim::hash::FxHashMap;
use windserve_sim::{EventQueue, Scheduled, SimDuration, SimTime};
use windserve_trace::{
    AdmissionDecision, AdmissionVerdict, DispatchDecision, DispatchVerdict, Lane, StepClass,
    TraceEvent, TraceLog, Tracer,
};
use windserve_workload::{Request, RequestId, Trace};

/// Engine lane → trace lane (the trace crate mirrors the notion without
/// depending on the engine).
fn trace_lane(lane: LaneRef) -> Lane {
    match lane {
        LaneRef::Main(i) => Lane::Main(i as u32),
        LaneRef::Aux => Lane::Aux,
    }
}

/// Engine step kind → trace step class.
fn trace_class(kind: StepKind) -> StepClass {
    match kind {
        StepKind::Prefill => StepClass::Prefill,
        StepKind::Decode => StepClass::Decode,
        StepKind::Hybrid => StepClass::Hybrid,
        StepKind::AuxPrefill => StepClass::AuxPrefill,
    }
}

/// Hard cap on processed events — a runaway-simulation backstop far above
/// any legitimate run.
const MAX_EVENTS: u64 = 200_000_000;

/// Consecutive cool autoscaler ticks required before a scale-down — the
/// hysteresis that stops activate/deactivate thrash under bursty load.
const DRAIN_TICKS: u32 = 12;

/// Sentinel "previous placement" for requests that never had one (parked at
/// arrival because every replica was down).
const NO_INSTANCE: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(usize),
    StepDone {
        inst: usize,
        lane: LaneRef,
        /// Crash epoch of the instance when the step launched. A crash
        /// bumps the epoch, invalidating completions for steps the crash
        /// destroyed.
        epoch: u64,
    },
    TransferDone(u64),
    /// Index into the cluster's sorted fault-plan events.
    Fault(usize),
    Sample,
    AutoscaleTick,
    /// Deadline-watchdog sweep (overload control only).
    WatchdogTick,
}

#[derive(Debug)]
enum TransferAction {
    /// Prefill→decode KV handoff; on completion the request joins the
    /// decode queue and the prefill side releases (or backs up) its copy.
    KvHandoff {
        state: SeqState,
        src: usize,
        dst: usize,
        keep_backup: bool,
    },
    /// Stall-free migration phase 1 (bulk) finished: pause the request.
    MigrationPhase1 { id: RequestId },
    /// Migration tail flushed: resume the request at the destination.
    MigrationPhase2 { state: SeqState },
    /// Crash recovery: a surviving KV backup streams from its holder to a
    /// decode replica, where the request resumes decoding.
    BackupRestore {
        state: SeqState,
        src: usize,
        dst: usize,
    },
}

impl TransferAction {
    fn request_id(&self) -> Option<RequestId> {
        match self {
            TransferAction::KvHandoff { state, .. }
            | TransferAction::MigrationPhase2 { state }
            | TransferAction::BackupRestore { state, .. } => Some(state.id),
            TransferAction::MigrationPhase1 { id } => Some(*id),
        }
    }
}

/// An in-flight transfer plus everything needed to retry it after an
/// injected failure.
#[derive(Debug)]
struct PendingTransfer {
    action: TransferAction,
    route: RouteId,
    /// Logical payload bytes (before link-degradation scaling).
    bytes: u64,
    /// Zero-based delivery attempt; bumped on every injected failure.
    attempt: u32,
}

#[derive(Debug)]
struct MigrationCtl {
    state: StallFreeMigration,
    /// Source decode instance.
    src: usize,
    /// Destination prefill instance.
    dst: usize,
}

/// One token-level milestone in a request's life, emitted by a
/// [`ClusterSession`] with live events enabled. Front-ends (the serving
/// gateway) translate these into per-stream deliveries; batch replays never
/// allocate them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveEvent {
    /// The request's first output token was produced (its prefill finished).
    FirstToken {
        /// The request.
        id: RequestId,
        /// Virtual time of the milestone.
        at: SimTime,
    },
    /// One additional output token was decoded.
    Token {
        /// The request.
        id: RequestId,
        /// Virtual time of the milestone.
        at: SimTime,
    },
    /// The request finished its full output.
    Finished {
        /// The request.
        id: RequestId,
        /// Virtual time of the milestone.
        at: SimTime,
    },
    /// The request was dropped with a typed terminal reason (admission
    /// rejection, shedding, or a watchdog abort).
    Dropped {
        /// The request.
        id: RequestId,
        /// Why it was dropped.
        reason: DropReason,
        /// Virtual time of the drop.
        at: SimTime,
    },
}

impl LiveEvent {
    /// The request this event belongs to.
    pub fn request_id(&self) -> RequestId {
        match self {
            LiveEvent::FirstToken { id, .. }
            | LiveEvent::Token { id, .. }
            | LiveEvent::Finished { id, .. }
            | LiveEvent::Dropped { id, .. } => *id,
        }
    }

    /// Virtual time of the milestone.
    pub fn at(&self) -> SimTime {
        match self {
            LiveEvent::FirstToken { at, .. }
            | LiveEvent::Token { at, .. }
            | LiveEvent::Finished { at, .. }
            | LiveEvent::Dropped { at, .. } => *at,
        }
    }
}

/// Appends to the live-event buffer when (and only when) a session enabled
/// it. A free function over the field so call sites inside `Cluster`
/// methods do not take a whole-`self` borrow.
fn push_live(live: &mut Option<Vec<LiveEvent>>, ev: LiveEvent) {
    if let Some(buf) = live.as_mut() {
        buf.push(ev);
    }
}

#[derive(Debug, Default)]
struct Counters {
    dispatched: u64,
    migrations_started: u64,
    migrations_completed: u64,
    kv_bytes: u64,
    backups_created: u64,
    backup_hits: u64,
    faults_injected: u64,
    requests_rescheduled: u64,
    transfer_retries: u64,
    requests_rejected: u64,
    requests_shed: u64,
    requests_preempted: u64,
    watchdog_aborts: u64,
    invariant_checks: u64,
    prefix_hits: u64,
    prefix_misses: u64,
    prefix_evictions: u64,
    prefix_cached_tokens: u64,
}

/// A fully assembled serving deployment, ready to replay traces.
#[derive(Debug)]
pub struct Cluster {
    cfg: ServeConfig,
    pub(crate) instances: Vec<Instance>,
    /// Indices of prefill instances (empty for colocated systems).
    prefill_idxs: Vec<usize>,
    /// Indices of decode instances (empty for colocated systems).
    decode_idxs: Vec<usize>,
    transfers: TransferEngine,
    /// Directed inter-instance routes, keyed by `(src, dst)` indices.
    routes: FxHashMap<(usize, usize), RouteId>,
    profiler: Profiler,
    coordinator: Coordinator,
    counters: Counters,
    pending: PendingTable,
    /// Per-instance session prefix caches, index-aligned with
    /// `instances`. Empty when [`crate::PrefixCacheConfig`] is absent, so
    /// non-session runs pay nothing.
    prefix: Vec<PrefixStore>,
    migrations: FxHashMap<u64, MigrationCtl>,
    actions: FxHashMap<u64, PendingTransfer>,
    next_transfer: u64,
    /// Events produced inside handlers, drained into the queue by `run`.
    deferred: Vec<(SimTime, Event)>,
    /// Sampled per-instance state (when sampling is enabled).
    series: Vec<windserve_metrics::InstanceSeries>,
    /// Algorithm 1 predictions paired with eventual truth.
    ttft_predictions: Vec<TtftPrediction>,
    /// Per-instance activation: `Some(ready_at)` = active (warming until
    /// `ready_at`); `None` = deactivated (GPUs released). Without
    /// autoscaling every instance is active from t = 0.
    active: Vec<Option<SimTime>>,
    /// Cached GPU count across active instances; recomputed on activation
    /// changes so per-event accounting is O(1).
    active_gpus: usize,
    autoscale_events: u64,
    gpu_seconds_active: f64,
    last_gpu_account: SimTime,
    /// Consecutive cool autoscaler ticks per phase (hysteresis against
    /// activate/deactivate thrash).
    cool_ticks_prefill: u32,
    cool_ticks_decode: u32,
    /// The fault plan's events, sorted by time; `Event::Fault` indexes here.
    fault_events: Vec<FaultEvent>,
    /// Per-instance crash flag (crashed replicas are unroutable and their
    /// stale step completions are discarded).
    crashed: Vec<bool>,
    /// Per-instance crash epoch, stamped into every `StepDone`.
    step_epoch: Vec<u64>,
    /// Current link-degradation multiplier on transfer payloads (1.0 =
    /// healthy).
    link_factor: f64,
    /// Requests with nowhere to run: `(id, tokens already streamed, last
    /// placement)`. Re-placed when a replica recovers.
    parked: Vec<(u64, u32, usize)>,
    /// Typed terminal outcomes for requests that never completed
    /// (admission rejection, shedding, watchdog abort).
    dropped: Vec<DroppedRequest>,
    /// Peak resident (queued or running) request count observed.
    peak_pending: usize,
    /// Completed requests meeting both SLOs, counted as records are pushed
    /// so a live snapshot need not re-summarize every record.
    slo_attaining: usize,
    /// Scheduling-decision recorder; a no-op unless `cfg.trace` enables it.
    tracer: Tracer,
    /// Token-level milestone buffer; `None` (the batch default) makes
    /// emission free. [`ClusterSession::enable_live_events`] turns it on.
    live: Option<Vec<LiveEvent>>,
}

impl Cluster {
    /// Builds the deployment for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the model does
    /// not fit the placement.
    pub fn new(cfg: ServeConfig) -> crate::Result<Self> {
        cfg.validate()?;
        let tracer = Tracer::for_mode(cfg.trace);
        let sharing = StreamSharing::default();
        let mut instances = Vec::new();
        let mut transfers = TransferEngine::new();
        let mut prefill_idxs = Vec::new();
        let mut decode_idxs = Vec::new();
        let mut routes = FxHashMap::default();
        let mut calibrated_budget = 0u32;

        let typical_context = cfg.model.max_context / 2;
        let profile_cost = CostModel::new(
            cfg.model.clone(),
            cfg.prefill_gpu(),
            cfg.prefill_parallelism,
        )?;
        let profiler = Profiler::fit(&profile_cost);

        if cfg.system.colocated() {
            // One replica per prefill-parallelism-sized GPU group.
            let group = cfg.prefill_parallelism.n_gpus();
            let replicas = (cfg.total_gpus() / group).max(1);
            let per_gpu_host = cfg.topology.host_route(&[GpuId(0)]);
            for r in 0..replicas {
                let cost =
                    CostModel::new(cfg.model.clone(), cfg.gpu.clone(), cfg.prefill_parallelism)?;
                let mut icfg = InstanceConfig::colocated(format!("colocated-{r}"));
                icfg.chunk_tokens = cfg.chunk_tokens;
                icfg.max_prefill_tokens = cfg.model.max_context;
                icfg.preemption = cfg.preemption;
                instances.push(Instance::new(
                    icfg,
                    cost,
                    sharing,
                    per_gpu_host.bandwidth * group as f64,
                )?);
            }
        } else {
            // Carve GPU groups for every replica. The classic 1x1 deployment
            // keeps the NVLink-paired placement (shard i of prefill across
            // a bridge from shard i of decode); multi-replica deployments
            // take sequential groups.
            let pn = cfg.prefill_parallelism.n_gpus();
            let dn = cfg.decode_parallelism.n_gpus();
            let (p_groups, d_groups): (Vec<Vec<GpuId>>, Vec<Vec<GpuId>>) = if cfg.prefill_replicas
                == 1
                && cfg.decode_replicas == 1
                && !cfg.split_phases_across_nodes
            {
                let (p, d) = cfg.topology.paired_placement(pn, dn);
                (vec![p], vec![d])
            } else {
                let node_gpus = cfg.topology.n_gpus() / cfg.topology.n_nodes().max(1);
                let decode_base = if cfg.split_phases_across_nodes && cfg.topology.n_nodes() > 1 {
                    node_gpus
                } else {
                    pn * cfg.prefill_replicas
                };
                let p = (0..cfg.prefill_replicas)
                    .map(|r| (r * pn..(r + 1) * pn).map(GpuId).collect())
                    .collect();
                let d = (0..cfg.decode_replicas)
                    .map(|r| {
                        (decode_base + r * dn..decode_base + (r + 1) * dn)
                            .map(GpuId)
                            .collect()
                    })
                    .collect();
                (p, d)
            };

            for (r, gpus) in p_groups.iter().enumerate() {
                let p_cost = CostModel::new(
                    cfg.model.clone(),
                    cfg.prefill_gpu(),
                    cfg.prefill_parallelism,
                )?;
                let mut p_cfg = InstanceConfig::prefill(format!("prefill-{r}"));
                p_cfg.chunk_tokens = cfg.chunk_tokens;
                p_cfg.max_prefill_tokens = cfg.model.max_context;
                p_cfg.preemption = cfg.preemption;
                let host = cfg.topology.host_route(gpus);
                prefill_idxs.push(instances.len());
                instances.push(Instance::new(p_cfg, p_cost, sharing, host.bandwidth)?);
            }
            for (r, gpus) in d_groups.iter().enumerate() {
                let d_cost =
                    CostModel::new(cfg.model.clone(), cfg.gpu.clone(), cfg.decode_parallelism)?;
                let mut d_cfg = InstanceConfig::decode(format!("decode-{r}"));
                d_cfg.stream_disaggregation = cfg.system.sbd_enabled();
                d_cfg.chunk_tokens = cfg.chunk_tokens;
                d_cfg.max_prefill_tokens = cfg.model.max_context;
                d_cfg.preemption = cfg.preemption;
                // The budget is always calibrated under the stream-sharing
                // model: the no-split ablation (Fig. 13a) removes only the
                // execution-level stream separation, not the dispatch
                // policy, which is exactly why its TPOT suffers.
                let budget = cfg.aux_budget_override.unwrap_or_else(|| {
                    calibrate_aux_budget(
                        &d_cost,
                        &sharing,
                        true,
                        &cfg.slo,
                        typical_context,
                        2 * cfg.model.max_context,
                    )
                });
                d_cfg.aux_budget_tokens = budget;
                calibrated_budget = budget;
                let host = cfg.topology.host_route(gpus);
                decode_idxs.push(instances.len());
                instances.push(Instance::new(d_cfg, d_cost, sharing, host.bandwidth)?);
            }
            // Directed routes between every prefill/decode pair.
            for (pi, p_gpus) in prefill_idxs.iter().zip(&p_groups) {
                for (di, d_gpus) in decode_idxs.iter().zip(&d_groups) {
                    routes.insert(
                        (*pi, *di),
                        transfers.add_route(cfg.topology.route_between(p_gpus, d_gpus)),
                    );
                    routes.insert(
                        (*di, *pi),
                        transfers.add_route(cfg.topology.route_between(d_gpus, p_gpus)),
                    );
                }
            }
        }

        let coordinator = Coordinator {
            dispatch_threshold: cfg.effective_dispatch_threshold(),
            aux_budget_tokens: calibrated_budget,
            kv_reserve_fraction: 0.15,
            resched_watermark: cfg.resched_watermark,
            long_context_tokens: cfg.long_context_tokens,
            victim_policy: cfg.victim_policy,
        };

        let prefix = match cfg.prefix_cache {
            Some(pc) => (0..instances.len())
                .map(|_| PrefixStore::new(pc.capacity_tokens, pc.ttl))
                .collect(),
            None => Vec::new(),
        };
        let n_instances = instances.len();
        let all_gpus = instances
            .iter()
            .map(|inst| inst.cost_model().parallelism().n_gpus())
            .sum();
        Ok(Cluster {
            cfg,
            instances,
            prefill_idxs,
            decode_idxs,
            transfers,
            routes,
            profiler,
            coordinator,
            counters: Counters::default(),
            pending: PendingTable::default(),
            prefix,
            migrations: FxHashMap::default(),
            actions: FxHashMap::default(),
            next_transfer: 0,
            deferred: Vec::new(),
            series: Vec::new(),
            ttft_predictions: Vec::new(),
            active: Vec::new(),
            active_gpus: all_gpus,
            autoscale_events: 0,
            gpu_seconds_active: 0.0,
            last_gpu_account: SimTime::ZERO,
            cool_ticks_prefill: 0,
            cool_ticks_decode: 0,
            fault_events: Vec::new(),
            crashed: vec![false; n_instances],
            step_epoch: vec![0; n_instances],
            link_factor: 1.0,
            parked: Vec::new(),
            dropped: Vec::new(),
            peak_pending: 0,
            slo_attaining: 0,
            tracer,
            live: None,
        })
    }

    /// The fitted profiler (exposed for experiments/tests).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The calibrated Algorithm 1 budget, in tokens.
    pub fn aux_budget_tokens(&self) -> u32 {
        self.coordinator.aux_budget_tokens
    }

    /// Number of serving instances in the deployment.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Replays `trace` to completion, returning the report together with
    /// the collected scheduling trace.
    ///
    /// With [`TraceMode::Off`](windserve_trace::TraceMode::Off) (the
    /// default) the returned [`TraceLog`] is empty and recording costs
    /// nothing; enable capture via
    /// [`ServeConfig::trace`](crate::ServeConfig) or
    /// [`ServeConfigBuilder::with_trace`](crate::ServeConfigBuilder::with_trace).
    ///
    /// # Errors
    ///
    /// Returns an error if the simulation deadlocks (requests left
    /// incomplete with no events pending) or exceeds the event backstop.
    pub fn run(self, trace: &Trace) -> crate::Result<(RunReport, TraceLog)> {
        let mut session = self.into_session();
        session.records.reserve(trace.requests().len());
        for req in trace.requests() {
            session.inject(*req);
        }
        session.pump_to_drain()?;
        session.finish()
    }

    /// Converts the assembled deployment into an incrementally driven
    /// [`ClusterSession`]: the same event loop as [`Cluster::run`], but
    /// with arrivals injected over time and virtual time advanced in
    /// bounded slices. Replaying a whole trace through a session is
    /// byte-identical to `run`.
    pub fn into_session(self) -> ClusterSession {
        let audit_every = self.cfg.overload.and_then(|o| o.audit_interval_events);
        ClusterSession {
            cluster: self,
            events: EventQueue::new(),
            requests: Vec::new(),
            records: Vec::new(),
            started_scratch: Vec::new(),
            outcome_scratch: StepOutcome::default(),
            decoded_scratch: Vec::new(),
            leap_scratch: Vec::new(),
            swap_waiting: false,
            #[cfg(test)]
            quiet_deliveries: 0,
            processed: 0,
            end_time: SimTime::ZERO,
            live_work: 0,
            audit_every,
            started: false,
            sample_armed: false,
            autoscale_armed: false,
            watchdog_armed: false,
        }
    }

    // ------------------------------------------------------------------
    // Replica selection
    // ------------------------------------------------------------------

    /// True if instance `idx` is active, not crashed and past its warmup at
    /// `now`.
    fn is_routable(&self, idx: usize, now: SimTime) -> bool {
        if self.crashed.get(idx).copied().unwrap_or(false) {
            return false;
        }
        match self.active.get(idx) {
            Some(Some(ready)) => *ready <= now,
            Some(None) => false,
            None => true, // before run() everything routes
        }
    }

    /// The prefix-affinity signal: among `candidates`, the routable
    /// instance retaining the longest live prefix of `req`'s session
    /// context, with the retained length. `None` when caching or affinity
    /// is off, the request is not a session follow-up, or no candidate
    /// holds at least `min_hit_tokens`. Candidates are scanned in the
    /// given order and ties keep the earliest, so routing is
    /// deterministic.
    fn best_prefix_site(
        &self,
        req: &Request,
        candidates: impl Iterator<Item = usize>,
        now: SimTime,
    ) -> Option<(usize, u32)> {
        let pc = self.cfg.prefix_cache?;
        if !pc.affinity || self.prefix.is_empty() {
            return None;
        }
        let tag = req.session?;
        if tag.shared_prefix_tokens < pc.min_hit_tokens {
            return None;
        }
        let mut best: Option<(usize, u32)> = None;
        for i in candidates {
            if !self.is_routable(i, now) {
                continue;
            }
            let held = self.prefix[i].peek(tag.session.0, tag.shared_prefix_tokens, now);
            if held >= pc.min_hit_tokens && best.is_none_or(|(_, b)| held > b) {
                best = Some((i, held));
            }
        }
        best
    }

    /// Serves `req`'s shared session prefix from the routed instance's
    /// cache, returning the token count prefill may skip (0 without
    /// caching, a session tag, or a sufficient hit). Mutates the store
    /// (LRU/TTL refresh) and records the hit or miss.
    fn prefix_serve(&mut self, req: &Request, inst: usize, now: SimTime) -> u32 {
        let Some(pc) = self.cfg.prefix_cache else {
            return 0;
        };
        let Some(tag) = req.session else {
            return 0;
        };
        if self.prefix.is_empty() || tag.shared_prefix_tokens < pc.min_hit_tokens {
            return 0;
        }
        let id = req.id;
        let served = self.prefix[inst].lookup(tag.session.0, tag.shared_prefix_tokens, now);
        if served >= pc.min_hit_tokens {
            // `with_session` clamps the shared prefix below the prompt,
            // but keep the suffix invariant local too.
            let cached = served.min(req.prompt_tokens.saturating_sub(1));
            self.counters.prefix_hits += 1;
            self.counters.prefix_cached_tokens += u64::from(cached);
            self.pending.set_cached_prefix(id.0, cached);
            let prompt_tokens = req.prompt_tokens;
            self.tracer.emit(now, || TraceEvent::PrefixHit {
                id,
                inst: inst as u32,
                cached_tokens: cached,
                prompt_tokens,
            });
            cached
        } else {
            self.counters.prefix_misses += 1;
            self.tracer.emit(now, || TraceEvent::PrefixMiss {
                id,
                inst: inst as u32,
            });
            0
        }
    }

    /// Retains `tokens` of session KV in `inst`'s prefix cache after a
    /// prefill completed there, recording any evictions the insert (or
    /// its TTL sweep) caused.
    fn prefix_retain(&mut self, session: u64, tokens: u32, inst: usize, now: SimTime) {
        if self.prefix.is_empty() {
            return;
        }
        let before = self.prefix[inst].stats();
        self.prefix[inst].insert(session, tokens, now);
        let after = self.prefix[inst].stats();
        self.counters.prefix_evictions += after.evictions - before.evictions;
        let evicted_tokens = after.evicted_tokens - before.evicted_tokens;
        if evicted_tokens > 0 {
            self.tracer.emit(now, || TraceEvent::PrefixEvicted {
                inst: inst as u32,
                evicted_tokens,
            });
        }
    }

    /// The prefill replica with the smallest predicted TTFT for `prompt`,
    /// or `None` when every prefill replica is down.
    fn pick_prefill(&self, prompt: u32, now: SimTime) -> Option<usize> {
        self.prefill_idxs
            .iter()
            .filter(|&&i| self.is_routable(i, now))
            .min_by_key(|&&i| {
                self.coordinator
                    .predict_ttft(&self.profiler, &self.instances[i], prompt, now)
            })
            .copied()
    }

    /// The decode replica with the most slots, if any can host `prompt`
    /// guest-prefill tokens.
    fn pick_decode_for_dispatch(&self, prompt: u32, now: SimTime) -> Option<usize> {
        self.decode_idxs
            .iter()
            .filter(|&&i| self.is_routable(i, now))
            .map(|&i| (self.coordinator.available_slots(&self.instances[i]), i))
            .filter(|&(slots, _)| slots >= u64::from(prompt))
            .max_by_key(|&(slots, i)| (slots, std::cmp::Reverse(i)))
            .map(|(_, i)| i)
    }

    /// The decode replica with the most free KV (ties: fewest waiting), or
    /// `None` when every decode replica is down.
    fn pick_decode_for_handoff(&self, now: SimTime) -> Option<usize> {
        self.decode_idxs
            .iter()
            .filter(|&&i| self.is_routable(i, now))
            .max_by_key(|&&i| {
                let inst = &self.instances[i];
                (
                    inst.kv_free_tokens(),
                    std::cmp::Reverse(inst.waiting_decode_len()),
                )
            })
            .copied()
    }

    /// The prefill replica best able to host a migrant of `ctx` tokens.
    fn pick_prefill_for_migration(&self, ctx: u32, now: SimTime) -> Option<usize> {
        self.prefill_idxs
            .iter()
            .copied()
            .filter(|&i| self.is_routable(i, now))
            .filter(|&i| {
                self.coordinator
                    .destination_can_host(&self.instances[i], ctx)
            })
            .max_by_key(|&i| self.instances[i].kv_free_tokens())
    }

    fn route(&self, src: usize, dst: usize) -> crate::Result<RouteId> {
        self.routes
            .get(&(src, dst))
            .copied()
            .ok_or(crate::Error::NoRoute { src, dst })
    }

    /// Wire bytes after applying the current link-degradation factor.
    fn wire_scaled(&self, bytes: u64) -> u64 {
        if self.link_factor > 1.0 {
            (bytes as f64 * self.link_factor).ceil() as u64
        } else {
            bytes
        }
    }

    /// Launches a transfer and registers its completion action. `bytes` is
    /// the logical payload; link degradation scales the wire time.
    fn submit_transfer(
        &mut self,
        action: TransferAction,
        route: RouteId,
        bytes: u64,
        now: SimTime,
    ) {
        let done = self.transfers.submit(route, self.wire_scaled(bytes), now);
        let tid = self.next_transfer;
        self.next_transfer += 1;
        self.actions.insert(
            tid,
            PendingTransfer {
                action,
                route,
                bytes,
                attempt: 0,
            },
        );
        self.schedule_transfer_done(tid, done);
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, req: Request, now: SimTime) {
        let placement = self.route_arrival(&req, now);
        let (id, prompt_tokens, output_tokens) = (req.id, req.prompt_tokens, req.output_tokens);
        // Record Algorithm 1's prediction for later accuracy analysis. A
        // prefix-affinity hit shrinks the predicted prefill to the uncached
        // suffix — the same frame `route_arrival` decides in.
        let predicted_ttft = if self.cfg.system.colocated() {
            None
        } else {
            let affinity = self.best_prefix_site(&req, self.prefill_idxs.iter().copied(), now);
            affinity
                .map(|(i, _)| i)
                .or_else(|| self.pick_prefill(req.prompt_tokens, now))
                .map(|p| {
                    let prompt = affinity
                        .map(|(_, held)| req.prompt_tokens.saturating_sub(held).max(1))
                        .unwrap_or(req.prompt_tokens);
                    self.coordinator
                        .predict_ttft(&self.profiler, &self.instances[p], prompt, now)
                        .as_secs_f64()
                })
        };
        if self.cfg.overload.is_some() && !self.admit(&req, &placement, predicted_ttft, now) {
            // Rejected or shed: the typed outcome is already recorded and
            // the request never becomes resident.
            return;
        }
        let site = placement.as_ref().map(|&(_, site, _)| site).unwrap_or(
            if self.cfg.system.colocated() {
                PrefillSite::Colocated
            } else {
                PrefillSite::PrefillInstance
            },
        );
        self.pending.insert(req, site, predicted_ttft);
        self.peak_pending = self.peak_pending.max(self.pending.len());
        match placement {
            Some((inst, site, decision)) => {
                self.tracer.emit(now, || TraceEvent::Queued {
                    id,
                    prompt_tokens,
                    output_tokens,
                    inst: inst as u32,
                });
                if let Some(d) = decision {
                    self.tracer.emit(now, || TraceEvent::Dispatch(d));
                }
                let cached = self.prefix_serve(&req, inst, now);
                self.instances[inst].enqueue_prefill_cached(
                    id,
                    prompt_tokens,
                    cached,
                    output_tokens,
                );
                if site == PrefillSite::DecodeInstance {
                    self.counters.dispatched += 1;
                }
            }
            None => {
                // Every replica is down: park until a recovery.
                self.parked.push((id.0, 0, NO_INSTANCE));
            }
        }
    }

    fn route_arrival(
        &self,
        req: &Request,
        now: SimTime,
    ) -> Option<(usize, PrefillSite, Option<DispatchDecision>)> {
        if self.cfg.system.colocated() {
            // A live shared prefix beats load balance: recomputing it
            // costs more than a slightly longer queue.
            if let Some((idx, _)) = self.best_prefix_site(req, 0..self.instances.len(), now) {
                return Some((idx, PrefillSite::Colocated, None));
            }
            // Least-outstanding-work routing across replicas.
            let idx = (0..self.instances.len())
                .filter(|&i| self.is_routable(i, now))
                .min_by_key(|&i| {
                    let inst = &self.instances[i];
                    inst.waiting_prefill_len()
                        + inst.waiting_decode_len()
                        + inst.running_decode_count()
                        + inst.swapped_len()
                })?;
            return Some((idx, PrefillSite::Colocated, None));
        }
        // Prefix affinity: prefer the prefill replica retaining the longest
        // live prefix of this session's context; TTFT-based placement is
        // the fallback. Algorithm 1 still arbitrates below, over the
        // uncached suffix.
        let affinity = self.best_prefix_site(req, self.prefill_idxs.iter().copied(), now);
        let Some(p) = affinity
            .map(|(i, _)| i)
            .or_else(|| self.pick_prefill(req.prompt_tokens, now))
        else {
            // Every prefill replica is down: a decode replica hosts the
            // whole request (guest prefill + decode) until one recovers.
            let d = self
                .decode_idxs
                .iter()
                .copied()
                .filter(|&i| self.is_routable(i, now))
                .min_by_key(|&i| (self.instances[i].waiting_prefill_len(), i))?;
            return Some((d, PrefillSite::DecodeInstance, None));
        };
        if self.cfg.system.dispatch_enabled() {
            // With a live prefix at `p` only the suffix needs computing;
            // predicting over the full prompt would overestimate TTFT and
            // dispatch work away from the very cache that makes it cheap.
            let effective_prompt = affinity
                .map(|(_, held)| req.prompt_tokens.saturating_sub(held).max(1))
                .unwrap_or(req.prompt_tokens);
            let ttft_pred = self.coordinator.predict_ttft(
                &self.profiler,
                &self.instances[p],
                effective_prompt,
                now,
            );
            let threshold = self.coordinator.dispatch_threshold;
            // Best slot offer across routable decode replicas — recorded
            // even for rejections, so an audit shows *why* Algorithm 1
            // refused ("wanted 700 tokens, best offer was 0").
            let slots_free = self
                .decode_idxs
                .iter()
                .filter(|&&i| self.is_routable(i, now))
                .map(|&i| self.coordinator.available_slots(&self.instances[i]))
                .max()
                .unwrap_or(0);
            let mut decision = DispatchDecision {
                request: req.id,
                prompt_tokens: req.prompt_tokens,
                ttft_pred_secs: ttft_pred.as_secs_f64(),
                threshold_secs: threshold.as_secs_f64(),
                slots_free,
                verdict: DispatchVerdict::BelowThreshold,
                target: p as u32,
            };
            if ttft_pred.as_secs_f64() > threshold.as_secs_f64() {
                if let Some(d) = self.pick_decode_for_dispatch(req.prompt_tokens, now) {
                    decision.verdict = DispatchVerdict::Dispatched;
                    decision.target = d as u32;
                    return Some((d, PrefillSite::DecodeInstance, Some(decision)));
                }
                decision.verdict = DispatchVerdict::NoSlots;
            }
            return Some((p, PrefillSite::PrefillInstance, Some(decision)));
        }
        Some((p, PrefillSite::PrefillInstance, None))
    }

    // ------------------------------------------------------------------
    // Overload control
    // ------------------------------------------------------------------

    /// Admission + SLO-aware shedding gate for one arrival. `true` means
    /// the arrival proceeds to enqueue (possibly after shedding a queued
    /// lower-tier victim to make room); `false` means it was rejected or
    /// shed, with the typed outcome already recorded.
    fn admit(
        &mut self,
        req: &Request,
        placement: &Option<(usize, PrefillSite, Option<DispatchDecision>)>,
        predicted_ttft: Option<f64>,
        now: SimTime,
    ) -> bool {
        let overload = self.cfg.overload.expect("caller checked");
        let queued_requests = self.pending.len();
        let queued_tokens: u64 = (0..self.instances.len())
            .filter(|&i| self.is_routable(i, now))
            .map(|i| self.instances[i].prefill_backlog_tokens())
            .sum();
        let shed_threshold_secs = overload
            .shedding
            .then(|| overload.shed_threshold(self.cfg.slo).as_secs_f64());
        let mut decision = AdmissionDecision {
            request: req.id,
            tier: req.tier,
            queued_requests,
            queued_tokens,
            ttft_pred_secs: predicted_ttft,
            shed_threshold_secs,
            verdict: AdmissionVerdict::Admitted,
            victim: None,
        };

        if overload
            .max_queued_requests
            .is_some_and(|cap| queued_requests >= cap)
        {
            decision.verdict = AdmissionVerdict::RejectedQueueFull;
            self.counters.requests_rejected += 1;
            self.dropped.push(DroppedRequest {
                id: req.id,
                tier: req.tier,
                at: now,
                reason: DropReason::QueueFull,
            });
            push_live(
                &mut self.live,
                LiveEvent::Dropped {
                    id: req.id,
                    reason: DropReason::QueueFull,
                    at: now,
                },
            );
            self.tracer.emit(now, || TraceEvent::Admission(decision));
            return false;
        }
        if overload
            .max_queued_tokens
            .is_some_and(|budget| queued_tokens + u64::from(req.prompt_tokens) > budget)
        {
            decision.verdict = AdmissionVerdict::RejectedTokenBudget;
            self.counters.requests_rejected += 1;
            self.dropped.push(DroppedRequest {
                id: req.id,
                tier: req.tier,
                at: now,
                reason: DropReason::TokenBudget,
            });
            push_live(
                &mut self.live,
                LiveEvent::Dropped {
                    id: req.id,
                    reason: DropReason::TokenBudget,
                    at: now,
                },
            );
            self.tracer.emit(now, || TraceEvent::Admission(decision));
            return false;
        }

        // SLO-aware shedding. Only prefill-instance placements shed: their
        // Algorithm 1 prediction describes the path actually taken, while
        // dispatched work already escaped the hot replica and colocated
        // systems have no predictor.
        if let (Some(threshold), Some(pred)) = (shed_threshold_secs, predicted_ttft) {
            if let Some(&(inst, PrefillSite::PrefillInstance, _)) = placement.as_ref() {
                if pred > threshold {
                    // Candidates: every not-yet-started queued prefill on
                    // the target replica, plus the arrival itself. Shed
                    // the lowest tier; the newest id among equals, so the
                    // arrival loses ties.
                    let mut victim = (req.tier, std::cmp::Reverse(req.id.0), None::<RequestId>);
                    for qid in self.instances[inst].queued_prefill_ids() {
                        let Some(qreq) = self.pending.req(qid.0) else {
                            continue;
                        };
                        let key = (qreq.tier, std::cmp::Reverse(qid.0));
                        if key < (victim.0, victim.1) {
                            victim = (key.0, key.1, Some(qid));
                        }
                    }
                    match victim.2 {
                        None => {
                            decision.verdict = AdmissionVerdict::ShedArrival;
                            self.counters.requests_shed += 1;
                            self.dropped.push(DroppedRequest {
                                id: req.id,
                                tier: req.tier,
                                at: now,
                                reason: DropReason::Shed,
                            });
                            push_live(
                                &mut self.live,
                                LiveEvent::Dropped {
                                    id: req.id,
                                    reason: DropReason::Shed,
                                    at: now,
                                },
                            );
                            self.tracer.emit(now, || TraceEvent::Admission(decision));
                            return false;
                        }
                        Some(qid) => {
                            if self.instances[inst].cancel_queued_prefill(qid) {
                                self.pending.remove(qid.0);
                                self.counters.requests_shed += 1;
                                self.dropped.push(DroppedRequest {
                                    id: qid,
                                    tier: victim.0,
                                    at: now,
                                    reason: DropReason::Shed,
                                });
                                push_live(
                                    &mut self.live,
                                    LiveEvent::Dropped {
                                        id: qid,
                                        reason: DropReason::Shed,
                                        at: now,
                                    },
                                );
                                decision.verdict = AdmissionVerdict::ShedVictim;
                                decision.victim = Some(qid);
                            }
                        }
                    }
                }
            }
        }
        self.tracer.emit(now, || TraceEvent::Admission(decision));
        true
    }

    /// KV-pressure preemption: while the decode replica's free-block
    /// fraction sits below the watermark, preempt the lowest-value running
    /// decode (lowest tier, then least progress, then id) until pressure
    /// clears or no eligible victim remains. Victims re-enter through the
    /// engine's swapped queue when blocks free up.
    fn preempt_under_pressure(&mut self, inst: usize, watermark: f64, now: SimTime) {
        loop {
            let kv_free_fraction = self.instances[inst].kv_free_fraction();
            if kv_free_fraction >= watermark {
                return;
            }
            let mut candidates: Vec<(u8, u32, u64)> = self.instances[inst]
                .running_decodes()
                .into_iter()
                .filter_map(|(id, ctx)| {
                    let req = self.pending.req(id.0)?;
                    let progress = ctx.saturating_sub(req.prompt_tokens);
                    Some((req.tier, progress, id.0))
                })
                .collect();
            candidates.sort_unstable();
            let mut preempted = None;
            for &(tier, _, raw) in &candidates {
                if self.instances[inst].preempt_for_pressure(RequestId(raw)) {
                    preempted = Some((tier, RequestId(raw)));
                    break;
                }
            }
            let Some((tier, id)) = preempted else {
                // Every running decode is migrating or pausing: nothing
                // safe to preempt this round.
                return;
            };
            self.counters.requests_preempted += 1;
            self.tracer.emit(now, || TraceEvent::RequestPreempted {
                id,
                inst: inst as u32,
                tier,
                kv_free_fraction,
                watermark,
            });
        }
    }

    /// One deadline-watchdog sweep: aborts every resident request stuck
    /// past the wall-clock budget that is not actively executing a step
    /// anywhere. Parked requests (every replica down with no recovery in
    /// the fault plan) are the canonical case — without the watchdog they
    /// turn into a drain-time deadlock.
    fn watchdog_sweep(&mut self, deadline: SimDuration, now: SimTime) {
        let mut stuck: Vec<u64> = self
            .pending
            .iter_req()
            .filter(|(_, req)| now.saturating_since(req.arrival) > deadline)
            .map(|(id, _)| id)
            .collect();
        stuck.sort_unstable();
        for raw in stuck {
            let id = RequestId(raw);
            // A request making forward progress on a GPU is not stuck;
            // aborting mid-step would corrupt the lane.
            if (0..self.instances.len()).any(|i| self.instances[i].in_running_step(id)) {
                continue;
            }
            self.abort_request(id, deadline, now);
        }
    }

    /// Tears down every trace of `id` across the cluster — in-flight
    /// transfers, migration control, engine state, backups, the parked
    /// list — and records the typed terminal outcome.
    fn abort_request(&mut self, id: RequestId, deadline: SimDuration, now: SimTime) {
        let mut tids: Vec<u64> = self
            .actions
            .iter()
            .filter(|(_, pt)| pt.action.request_id() == Some(id))
            .map(|(&tid, _)| tid)
            .collect();
        tids.sort_unstable();
        for tid in tids {
            // The bytes stay on the wire; delivery finds no action and
            // becomes a no-op.
            self.actions.remove(&tid);
        }
        if let Some(m) = self.migrations.remove(&id.0) {
            self.instances[m.src].unmark_migrating(id);
            self.instances[m.src].cancel_pause(id);
        }
        for i in 0..self.instances.len() {
            self.instances[i].abort_sequence(id);
        }
        self.parked.retain(|&(pid, _, _)| pid != id.0);
        let Some(rec) = self.pending.remove(id.0) else {
            return;
        };
        self.counters.watchdog_aborts += 1;
        let waited_secs = now.saturating_since(rec.req.arrival).as_secs_f64();
        let deadline_secs = deadline.as_secs_f64();
        self.dropped.push(DroppedRequest {
            id,
            tier: rec.req.tier,
            at: now,
            reason: DropReason::DeadlineExceeded,
        });
        push_live(
            &mut self.live,
            LiveEvent::Dropped {
                id,
                reason: DropReason::DeadlineExceeded,
                at: now,
            },
        );
        self.tracer.emit(now, || TraceEvent::WatchdogAborted {
            id,
            waited_secs,
            deadline_secs,
        });
    }

    /// Cluster-wide invariant audit: per-instance engine/KV consistency
    /// (block conservation, no dual queue membership, phase/location
    /// agreement), residency of every pending request (nothing silently
    /// lost, nothing duplicated across replicas), and per-request
    /// timestamp monotonicity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`](crate::Error::Invariant) describing
    /// the first violated invariant.
    fn audit_invariants(&mut self) -> crate::Result<()> {
        self.counters.invariant_checks += 1;
        let violated = |reason: String| crate::Error::Invariant { reason };
        for inst in &self.instances {
            inst.check_invariants()
                .map_err(|reason| violated(format!("{}: {reason}", inst.name())))?;
        }
        let ids = self.pending.sorted_ids();
        for raw in ids {
            let id = RequestId(raw);
            let holders = (0..self.instances.len())
                .filter(|&i| self.instances[i].has_sequence(id))
                .count();
            if holders > 1 {
                return Err(violated(format!(
                    "request {raw} resident on {holders} instances"
                )));
            }
            // MigrationPhase1 carries no sequence state (the victim still
            // lives at its source), so it does not count as residency.
            let in_transfer = self.actions.values().any(|pt| match &pt.action {
                TransferAction::KvHandoff { state, .. }
                | TransferAction::MigrationPhase2 { state }
                | TransferAction::BackupRestore { state, .. } => state.id == id,
                TransferAction::MigrationPhase1 { .. } => false,
            });
            let is_parked = self.parked.iter().any(|&(pid, _, _)| pid == raw);
            if holders == 0 && !in_transfer && !is_parked {
                return Err(violated(format!(
                    "request {raw} is pending but resident nowhere"
                )));
            }
            let rec = self.pending.get(raw).expect("id just listed");
            let mut last = rec.req.arrival;
            for (label, stamp) in [
                ("prefill_start", rec.prefill_start),
                ("first_token", rec.first_token),
                ("decode_enqueue", rec.decode_enqueue),
                ("decode_start", rec.decode_start),
            ] {
                if let Some(t) = stamp {
                    if t < last {
                        return Err(violated(format!(
                            "request {raw}: {label} precedes an earlier stage"
                        )));
                    }
                    last = t;
                }
            }
        }
        Ok(())
    }

    fn register_steps(&mut self, inst: usize, started: &[StartedStep], now: SimTime) {
        for step in started {
            self.deferred.push((
                step.ends_at,
                Event::StepDone {
                    inst,
                    lane: step.lane,
                    epoch: self.step_epoch[inst],
                },
            ));
            self.tracer.emit(now, || TraceEvent::StepStarted {
                inst: inst as u32,
                lane: trace_lane(step.lane),
                ends_at: step.ends_at,
            });
            for id in &step.newly_prefilling {
                self.pending.stamp_prefill_start(id.0, now);
                self.tracer.emit(now, || TraceEvent::PrefillStarted {
                    id: *id,
                    inst: inst as u32,
                });
            }
            for id in &step.newly_decoding {
                self.pending.stamp_decode_start(id.0, now);
                self.tracer.emit(now, || TraceEvent::DecodeStarted {
                    id: *id,
                    inst: inst as u32,
                });
            }
        }
    }

    /// Reacts to a completed step. `decoded` holds the step's members,
    /// read before its completion, when live listeners or migrations need
    /// their tokens (empty otherwise).
    fn on_step_outcome(
        &mut self,
        inst: usize,
        outcome: &StepOutcome,
        decoded: &[RequestId],
        now: SimTime,
        records: &mut Vec<RequestRecord>,
    ) -> crate::Result<()> {
        self.tracer.emit(now, || TraceEvent::StepFinished {
            inst: inst as u32,
            lane: trace_lane(outcome.lane),
            class: trace_class(outcome.kind),
            duration_us: outcome.duration.as_micros(),
        });
        for fp in &outcome.finished_prefills {
            self.on_finished_prefill(inst, fp.id, now, records)?;
        }
        for id in decoded {
            push_live(&mut self.live, LiveEvent::Token { id: *id, at: now });
            if let Some(m) = self.migrations.get_mut(&id.0) {
                if m.state.phase() == windserve_kvcache::MigrationPhase::Background {
                    m.state.on_tokens_generated(1);
                }
            }
        }
        for c in &outcome.completed {
            self.migrations.remove(&c.id.0);
            self.finalize_record(c.id, c.swap_outs, now, records);
        }
        for p in &outcome.paused {
            self.on_paused(p.clone(), now)?;
        }
        if self.decode_idxs.contains(&inst) && self.cfg.system.resched_enabled() {
            self.maybe_reschedule(inst, now)?;
        }
        if let Some(watermark) = self.cfg.overload.and_then(|o| o.preempt_kv_watermark) {
            if self.decode_idxs.contains(&inst) || self.cfg.system.colocated() {
                self.preempt_under_pressure(inst, watermark, now);
            }
        }
        Ok(())
    }

    fn on_finished_prefill(
        &mut self,
        inst: usize,
        id: RequestId,
        now: SimTime,
        records: &mut Vec<RequestRecord>,
    ) -> crate::Result<()> {
        let Some(req) = self.pending.req(id.0).copied() else {
            // Stale completion for a request that was already finalized
            // (e.g. re-placed around a crash); nothing left to record.
            return Ok(());
        };
        let newly_first = self.pending.stamp_first_token(id.0, now);
        // A recovery re-prefill folds already-streamed tokens into the
        // engine-side prompt; everything below must use the engine's frame,
        // or a recovered request whose remainder is one token would be
        // promoted to decode after it already finished.
        let resumed = self.pending.resumed(id.0);
        let output_target = req.output_tokens.saturating_sub(resumed).max(1);
        let prompt = req.prompt_tokens + resumed;
        self.tracer.emit(now, || TraceEvent::PrefillFinished {
            id,
            inst: inst as u32,
        });
        // The prompt's KV now lives at the prefill site; retain it for the
        // session's follow-up turn (WindServe keeps KV at the prefill
        // instance, which is exactly what makes this residue reusable).
        if let Some(tag) = req.session {
            self.prefix_retain(tag.session.0, prompt, inst, now);
        }
        if newly_first {
            // A recovery re-prefill regenerates a first token the client
            // already has; only the first delivery is a milestone.
            push_live(&mut self.live, LiveEvent::FirstToken { id, at: now });
        }
        if output_target == 1 {
            // The prefill's token was the whole response.
            self.pending.stamp_decode_enqueue(id.0, now);
            self.pending.stamp_decode_start(id.0, now);
            self.instances[inst].release_sequence(id);
            self.finalize_record(id, 0, now, records);
            return Ok(());
        }
        if self.prefill_idxs.contains(&inst) {
            // KV handoff to a decode replica. WindServe overlaps the
            // transfer with prefill computation layer-by-layer, so only the
            // last layer's tail remains; DistServe moves the whole cache
            // after the prefill, serialized on the link.
            let Some(dst) = self.pick_decode_for_handoff(now) else {
                // No decode replica standing: decode in place until the
                // autoscaler or a recovery restores capacity.
                self.pending.stamp_decode_enqueue(id.0, now);
                self.instances[inst].promote_to_decode(id);
                return Ok(());
            };
            let kv_per_token = self.instances[inst].kv_bytes_per_token();
            let full_bytes = u64::from(prompt) * kv_per_token;
            let wire_bytes = if self.cfg.system.overlapped_transfer() {
                full_bytes / u64::from(self.cfg.model.n_layers.max(1))
            } else {
                full_bytes
            };
            self.counters.kv_bytes += full_bytes;
            let keep_backup = self.cfg.system.resched_enabled()
                && prompt >= self.cfg.long_context_tokens
                && self.instances[dst].kv_free_fraction() < self.cfg.backup_trigger;
            let overlapped = self.cfg.system.overlapped_transfer();
            self.tracer.emit(now, || TraceEvent::KvTransferStarted {
                id,
                src: inst as u32,
                dst: dst as u32,
                wire_bytes,
                full_bytes,
                overlapped,
                keep_backup,
            });
            let state = SeqState::arriving_for_decode(id, prompt, output_target, 1, 0);
            let route = self.route(inst, dst)?;
            self.submit_transfer(
                TransferAction::KvHandoff {
                    state,
                    src: inst,
                    dst,
                    keep_backup,
                },
                route,
                wire_bytes,
                now,
            );
        } else {
            // Dispatched (decode instance) or colocated: KV already lives
            // where decoding happens — no transfer at all.
            self.pending.stamp_decode_enqueue(id.0, now);
            self.instances[inst].promote_to_decode(id);
        }
        Ok(())
    }

    fn on_paused(&mut self, paused: PausedSeq, now: SimTime) -> crate::Result<()> {
        let id = paused.state.id;
        let Some(migration) = self.migrations.get_mut(&id.0) else {
            // Pause without a live migration: the request completed in the
            // same step; nothing to do.
            return Ok(());
        };
        let tail_tokens = migration.state.begin_pause();
        let (src, dst) = (migration.src, migration.dst);
        self.tracer
            .emit(now, || TraceEvent::MigrationPaused { id, tail_tokens });
        let kv_per_token = self.instances[src].kv_bytes_per_token();
        let bytes = u64::from(tail_tokens) * kv_per_token;
        self.counters.kv_bytes += bytes;
        let mut state = paused.state;
        state.migrations += 1;
        self.pending.add_swap_outs(id.0, state.swap_outs);
        self.pending.bump_migrations(id.0);
        state.swap_outs = 0;
        let route = self.route(src, dst)?;
        self.submit_transfer(TransferAction::MigrationPhase2 { state }, route, bytes, now);
        Ok(())
    }

    fn on_transfer_done(&mut self, tid: u64, now: SimTime) -> crate::Result<()> {
        let Some(pt) = self.actions.remove(&tid) else {
            // Cancelled while the bytes were in flight (a replica crash
            // re-placed this transfer's request).
            return Ok(());
        };
        // Failure verdicts are pure in (plan seed, tid, attempt), so replays
        // are byte-identical regardless of event interleaving. Zero-byte
        // transfers (empty migration bulks) have nothing to lose on the
        // wire and always succeed.
        let failed = self
            .cfg
            .faults
            .as_ref()
            .is_some_and(|plan| pt.bytes > 0 && plan.transfer_fails(tid, pt.attempt));
        if failed {
            let plan = self.cfg.faults.as_ref().expect("checked above");
            if pt.attempt < plan.max_transfer_retries {
                let attempt = pt.attempt + 1;
                let backoff = plan.backoff_for(attempt);
                let id = pt.action.request_id();
                self.counters.transfer_retries += 1;
                self.tracer.emit(now, || TraceEvent::TransferRetried {
                    id,
                    attempt,
                    backoff_us: backoff.as_micros(),
                });
                let done =
                    self.transfers
                        .submit(pt.route, self.wire_scaled(pt.bytes), now + backoff);
                self.actions.insert(tid, PendingTransfer { attempt, ..pt });
                self.schedule_transfer_done(tid, done);
                return Ok(());
            }
            return self.on_transfer_exhausted(pt.action, now);
        }
        self.deliver_transfer(pt.action, now)
    }

    /// Applies a successfully delivered transfer's effects.
    fn deliver_transfer(&mut self, action: TransferAction, now: SimTime) -> crate::Result<()> {
        match action {
            TransferAction::KvHandoff {
                state,
                src,
                dst,
                keep_backup,
            } => {
                let id = state.id;
                if keep_backup {
                    if self.instances[src].convert_to_backup(id, self.cfg.backup_watermark) {
                        self.counters.backups_created += 1;
                        self.tracer.emit(now, || TraceEvent::BackupCreated {
                            id,
                            inst: src as u32,
                        });
                    }
                } else {
                    self.instances[src].release_sequence(id);
                }
                self.pending.stamp_decode_enqueue(id.0, now);
                self.tracer.emit(now, || TraceEvent::KvTransferFinished {
                    id,
                    dst: dst as u32,
                });
                self.instances[dst].enqueue_decode_arrival(state);
            }
            TransferAction::MigrationPhase1 { id } => {
                if self.pending.contains(id.0) {
                    if let Some(m) = self.migrations.get(&id.0) {
                        let src = m.src;
                        if let Some(paused) = self.instances[src].request_pause(id) {
                            self.on_paused(paused, now)?;
                        }
                    }
                } else {
                    self.migrations.remove(&id.0);
                }
            }
            TransferAction::MigrationPhase2 { state } => {
                let id = state.id;
                let Some(m) = self.migrations.remove(&id.0) else {
                    return Ok(());
                };
                self.instances[m.dst].drop_backup(id);
                if self.pending.contains(id.0) {
                    self.instances[m.dst].enqueue_decode_arrival(state);
                    self.counters.migrations_completed += 1;
                    self.tracer.emit(now, || TraceEvent::MigrationFinished {
                        id,
                        dst: m.dst as u32,
                    });
                }
            }
            TransferAction::BackupRestore { state, src, dst } => {
                let id = state.id;
                self.instances[src].drop_backup(id);
                if self.pending.contains(id.0) {
                    self.pending.stamp_decode_enqueue(id.0, now);
                    self.tracer.emit(now, || TraceEvent::KvTransferFinished {
                        id,
                        dst: dst as u32,
                    });
                    self.instances[dst].enqueue_decode_arrival(state);
                }
            }
        }
        Ok(())
    }

    /// A transfer burned through every retry: fall back without the wire.
    fn on_transfer_exhausted(&mut self, action: TransferAction, now: SimTime) -> crate::Result<()> {
        match action {
            TransferAction::KvHandoff {
                state, src, dst, ..
            } => {
                // The KV is still resident at the prefill source: decode in
                // place rather than lose the request.
                let id = state.id;
                self.pending.stamp_decode_enqueue(id.0, now);
                self.counters.requests_rescheduled += 1;
                self.tracer.emit(now, || TraceEvent::RequestRescheduled {
                    id,
                    from: dst as u32,
                    to: src as u32,
                    backup_hit: false,
                });
                self.instances[src].promote_to_decode(id);
                Ok(())
            }
            TransferAction::MigrationPhase1 { id } => {
                // Abort the migration; the victim keeps decoding at its
                // source as if it was never selected.
                if let Some(m) = self.migrations.remove(&id.0) {
                    self.instances[m.src].unmark_migrating(id);
                }
                Ok(())
            }
            action @ TransferAction::MigrationPhase2 { .. } => {
                // The paused sequence exists only inside this transfer;
                // there is no source to fall back to, so the final attempt
                // is deemed delivered.
                self.deliver_transfer(action, now)
            }
            TransferAction::BackupRestore { state, src, .. } => {
                // The backup is unreachable: drop it and recover through a
                // full re-prefill instead.
                let id = state.id;
                self.instances[src].drop_backup(id);
                self.recover_request(id, state.generated, src, now)
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    fn on_fault(&mut self, idx: usize, now: SimTime) -> crate::Result<()> {
        let kind = self.fault_events[idx].kind;
        self.counters.faults_injected += 1;
        let label = kind.label().to_string();
        let target = kind.instance();
        self.tracer.emit(now, || TraceEvent::FaultInjected {
            fault: label,
            inst: target,
        });
        match kind {
            FaultKind::ReplicaCrash { inst } => self.crash_replica(inst as usize, now)?,
            FaultKind::ReplicaRecover { inst } => self.recover_replica(inst as usize, now)?,
            FaultKind::LinkDegrade { factor } => self.link_factor = factor.max(1.0),
            FaultKind::LinkRestore => self.link_factor = 1.0,
            FaultKind::Straggler { inst, delay } => {
                let i = inst as usize;
                if i < self.instances.len() && !self.crashed[i] {
                    self.instances[i].inject_delay(delay);
                }
            }
            // `FaultKind` is non-exhaustive: unknown future kinds are
            // recorded in the trace but otherwise ignored.
            _ => {}
        }
        Ok(())
    }

    /// Crashes replica `c`: every queue, running step, KV block and backup
    /// it held is lost, and each affected request is re-placed (or parked).
    /// Crashing an already-crashed replica is a no-op.
    fn crash_replica(&mut self, c: usize, now: SimTime) -> crate::Result<()> {
        if c >= self.instances.len() || self.crashed[c] {
            return Ok(());
        }
        self.crashed[c] = true;
        self.active[c] = None;
        self.recount_active_gpus();
        // Invalidate completion events for steps the crash destroyed.
        self.step_epoch[c] += 1;
        // Retained session prefixes died with the replica's KV.
        if let Some(store) = self.prefix.get_mut(c) {
            let before = store.stats();
            store.clear();
            let after = store.stats();
            self.counters.prefix_evictions += after.evictions - before.evictions;
            let evicted_tokens = after.evicted_tokens - before.evicted_tokens;
            if evicted_tokens > 0 {
                self.tracer.emit(now, || TraceEvent::PrefixEvicted {
                    inst: c as u32,
                    evicted_tokens,
                });
            }
        }

        // In-flight transfers touching the crashed replica, in tid order so
        // recovery is deterministic.
        let mut tids: Vec<u64> = self.actions.keys().copied().collect();
        tids.sort_unstable();
        for tid in tids {
            let involved = match &self.actions[&tid].action {
                TransferAction::KvHandoff { src, dst, .. } => *src == c || *dst == c,
                TransferAction::MigrationPhase1 { id } => self
                    .migrations
                    .get(&id.0)
                    .is_some_and(|m| m.src == c || m.dst == c),
                // A tail already on the wire survives a source crash; only
                // a destination crash strands it.
                TransferAction::MigrationPhase2 { state } => {
                    self.migrations.get(&state.id.0).is_some_and(|m| m.dst == c)
                }
                TransferAction::BackupRestore { src, dst, .. } => *src == c || *dst == c,
            };
            if !involved {
                continue;
            }
            let pt = self.actions.remove(&tid).expect("key just listed");
            match pt.action {
                TransferAction::KvHandoff {
                    state,
                    src,
                    dst,
                    keep_backup,
                } => {
                    if src == c {
                        // The source's KV died with it; the drain pass
                        // below re-places the request from scratch.
                        continue;
                    }
                    // Destination crashed: the KV is still resident at the
                    // source — re-target the handoff, or decode in place.
                    let id = state.id;
                    if let Some(nd) = self.pick_decode_for_handoff(now) {
                        if let Ok(route) = self.route(src, nd) {
                            self.counters.requests_rescheduled += 1;
                            self.tracer.emit(now, || TraceEvent::RequestRescheduled {
                                id,
                                from: dst as u32,
                                to: nd as u32,
                                backup_hit: false,
                            });
                            self.submit_transfer(
                                TransferAction::KvHandoff {
                                    state,
                                    src,
                                    dst: nd,
                                    keep_backup,
                                },
                                route,
                                pt.bytes,
                                now,
                            );
                            continue;
                        }
                    }
                    self.pending.stamp_decode_enqueue(id.0, now);
                    self.counters.requests_rescheduled += 1;
                    self.tracer.emit(now, || TraceEvent::RequestRescheduled {
                        id,
                        from: dst as u32,
                        to: src as u32,
                        backup_hit: false,
                    });
                    self.instances[src].promote_to_decode(id);
                }
                TransferAction::MigrationPhase1 { id } => {
                    if let Some(m) = self.migrations.remove(&id.0) {
                        if m.src != c {
                            // The destination died; the victim keeps
                            // decoding where it is.
                            self.instances[m.src].unmark_migrating(id);
                        }
                        // src == c: the drain pass recovers the victim.
                    }
                }
                TransferAction::MigrationPhase2 { state } => {
                    // The paused sequence was headed to the crashed
                    // destination; it lives only in this transfer.
                    let id = state.id;
                    self.migrations.remove(&id.0);
                    self.recover_request(id, state.generated, c, now)?;
                }
                TransferAction::BackupRestore { state, .. } => {
                    self.recover_request(state.id, state.generated, c, now)?;
                }
            }
        }

        // Migrations between transfers (bulk delivered, pause not yet
        // consumed at a step boundary).
        let mut mids: Vec<u64> = self.migrations.keys().copied().collect();
        mids.sort_unstable();
        for mid in mids {
            let (src, dst) = {
                let m = &self.migrations[&mid];
                (m.src, m.dst)
            };
            if src != c && dst != c {
                continue;
            }
            self.migrations.remove(&mid);
            if src != c {
                // The destination is gone; withdraw the pause before the
                // next step boundary detaches the victim into the void.
                let id = RequestId(mid);
                self.instances[src].unmark_migrating(id);
                self.instances[src].cancel_pause(id);
            }
            // src == c: the drain pass recovers the victim itself.
        }

        // Everything resident on the replica is lost; re-place each
        // request (sorted by id inside fail_and_drain).
        let lost = self.instances[c].fail_and_drain();
        for state in lost {
            self.migrations.remove(&state.id.0);
            self.recover_request(state.id, state.generated, c, now)?;
        }
        Ok(())
    }

    /// Brings a crashed replica back (empty, immediately routable) and
    /// re-places any parked requests. A no-op unless `c` is crashed.
    fn recover_replica(&mut self, c: usize, now: SimTime) -> crate::Result<()> {
        if c >= self.instances.len() || !self.crashed[c] {
            return Ok(());
        }
        self.crashed[c] = false;
        self.active[c] = Some(now);
        self.recount_active_gpus();
        let parked = std::mem::take(&mut self.parked);
        for (id, generated, from) in parked {
            if self.pending.contains(id) {
                self.recover_request(RequestId(id), generated, from, now)?;
            }
        }
        Ok(())
    }

    /// Re-places a request whose working state was lost (replica crash or
    /// unrecoverable transfer). A surviving KV backup shrinks the recovery
    /// to a delta re-migration; otherwise the prompt — plus the tokens
    /// already streamed to the client — is prefilled again from scratch.
    /// With nowhere to run, the request parks until a replica recovers.
    fn recover_request(
        &mut self,
        id: RequestId,
        generated: u32,
        from: usize,
        now: SimTime,
    ) -> crate::Result<()> {
        let Some(req) = self.pending.req(id.0) else {
            return Ok(());
        };
        let prompt = req.prompt_tokens;
        let output_target = req.output_tokens;
        // `generated` is in the engine's (possibly folded) frame; add any
        // tokens a previous recovery already folded into the prompt.
        let generated = self.pending.resumed(id.0) + generated;

        if !self.cfg.system.colocated() {
            let holder = (0..self.instances.len()).find(|&i| {
                self.is_routable(i, now) && self.instances[i].backup_tokens_of(id).is_some()
            });
            if let Some(src) = holder {
                if let Some(dst) = self.pick_decode_for_handoff(now) {
                    if let Ok(route) = self.route(src, dst) {
                        let tokens = self.instances[src].backup_tokens_of(id).unwrap_or(prompt);
                        // Tokens generated after the snapshot died with the
                        // replica; decoding resumes from the backup's
                        // frontier.
                        let resumed = tokens
                            .saturating_sub(prompt)
                            .min(output_target.saturating_sub(1));
                        let kv_per_token = self.instances[src].kv_bytes_per_token();
                        let bytes = u64::from(tokens) * kv_per_token;
                        self.counters.kv_bytes += bytes;
                        self.counters.backup_hits += 1;
                        self.counters.requests_rescheduled += 1;
                        self.tracer.emit(now, || TraceEvent::RequestRescheduled {
                            id,
                            from: from as u32,
                            to: dst as u32,
                            backup_hit: true,
                        });
                        let state =
                            SeqState::arriving_for_decode(id, prompt, output_target, resumed, 0);
                        self.submit_transfer(
                            TransferAction::BackupRestore { state, src, dst },
                            route,
                            bytes,
                            now,
                        );
                        // The restored state is back in the request's
                        // original frame: nothing stays folded away.
                        self.pending.set_resumed(id.0, 0);
                        return Ok(());
                    }
                }
            }
        }

        // No backup to restore from: full re-prefill of the lost context.
        let target = if self.cfg.system.colocated() {
            (0..self.instances.len())
                .filter(|&i| self.is_routable(i, now))
                .min_by_key(|&i| {
                    let inst = &self.instances[i];
                    inst.waiting_prefill_len()
                        + inst.waiting_decode_len()
                        + inst.running_decode_count()
                        + inst.swapped_len()
                })
        } else if let Some(p) = self.pick_prefill(prompt, now) {
            Some(p)
        } else {
            self.decode_idxs
                .iter()
                .copied()
                .filter(|&i| self.is_routable(i, now))
                .min_by_key(|&i| (self.instances[i].waiting_prefill_len(), i))
        };
        let Some(t) = target else {
            // The parked tuple carries the full delivered count; no engine
            // state exists while parked.
            self.pending.set_resumed(id.0, 0);
            self.parked.push((id.0, generated, from));
            return Ok(());
        };
        // A stale backup of this request would collide with a fresh one
        // created after the re-prefilled handoff.
        self.instances[t].drop_backup(id);
        self.counters.requests_rescheduled += 1;
        self.tracer.emit(now, || TraceEvent::RequestRescheduled {
            id,
            from: from as u32,
            to: t as u32,
            backup_hit: false,
        });
        // Tokens already streamed to the client become part of the context
        // to re-prefill; only the remainder is generated again. Remember
        // how many were folded so later accounting (prefill completion,
        // another crash) can translate back to the request's frame.
        self.pending.set_resumed(id.0, generated);
        self.instances[t].enqueue_prefill(
            id,
            prompt + generated,
            output_target.saturating_sub(generated).max(1),
        );
        Ok(())
    }

    fn maybe_reschedule(&mut self, decode_idx: usize, now: SimTime) -> crate::Result<()> {
        while self.migrations.len() < self.cfg.max_concurrent_migrations
            && self
                .coordinator
                .needs_rescheduling(&self.instances[decode_idx])
        {
            let kv_free_fraction = self.instances[decode_idx].kv_free_fraction();
            let watermark = self.cfg.resched_watermark;
            self.tracer.emit(now, || TraceEvent::ReschedTriggered {
                inst: decode_idx as u32,
                kv_free_fraction,
                watermark,
            });
            let Some((victim, ctx)) = self.coordinator.pick_victim(&self.instances[decode_idx])
            else {
                return Ok(());
            };
            let Some(dst) = self.pick_prefill_for_migration(ctx, now) else {
                return Ok(());
            };
            self.start_migration(victim, ctx, decode_idx, dst, now)?;
        }
        Ok(())
    }

    fn start_migration(
        &mut self,
        id: RequestId,
        ctx: u32,
        src: usize,
        dst: usize,
        now: SimTime,
    ) -> crate::Result<()> {
        self.instances[src].mark_migrating(id);
        // Backups shrink the bulk phase: only the delta since the snapshot
        // must move.
        let delta = self.instances[dst].backup_delta_tokens(id, ctx);
        let backup_hit = delta < ctx;
        if backup_hit {
            self.counters.backup_hits += 1;
        }
        let migration = StallFreeMigration::new(ctx, self.cfg.pause_threshold_tokens.min(delta));
        let bulk_tokens = delta.saturating_sub(self.cfg.pause_threshold_tokens);
        self.tracer.emit(now, || TraceEvent::MigrationStarted {
            id,
            src: src as u32,
            dst: dst as u32,
            context_tokens: ctx,
            bulk_tokens,
            backup_hit,
        });
        let kv_per_token = self.instances[src].kv_bytes_per_token();
        let bytes = u64::from(bulk_tokens) * kv_per_token;
        self.counters.kv_bytes += bytes;
        self.migrations.insert(
            id.0,
            MigrationCtl {
                state: migration,
                src,
                dst,
            },
        );
        self.counters.migrations_started += 1;
        let route = self.route(src, dst)?;
        self.submit_transfer(TransferAction::MigrationPhase1 { id }, route, bytes, now);
        Ok(())
    }

    /// The free-KV floor a decode run-ahead on `inst` must stay above: the
    /// fraction below which the `StepDone` handler would start dynamic
    /// rescheduling or KV-pressure preemption (`0.0` when neither is on).
    fn leap_floor(&self, inst: usize) -> f64 {
        let decode = self.decode_idxs.contains(&inst);
        let mut floor = 0.0f64;
        if decode
            && self.cfg.system.resched_enabled()
            && self.migrations.len() < self.cfg.max_concurrent_migrations
        {
            floor = floor.max(self.coordinator.resched_watermark);
        }
        if let Some(watermark) = self.cfg.overload.and_then(|o| o.preempt_kv_watermark) {
            if decode || self.cfg.system.colocated() {
                floor = floor.max(watermark);
            }
        }
        floor
    }

    /// Integrates GPU-seconds held by active (incl. warming) instances.
    /// The active-GPU count is cached ([`Cluster::recount_active_gpus`])
    /// because this runs on every event and activation changes only on
    /// rare autoscale/crash/recover transitions.
    fn account_gpu_seconds(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_gpu_account).as_secs_f64();
        if dt > 0.0 {
            self.gpu_seconds_active += dt * self.active_gpus as f64;
        }
        self.last_gpu_account = now;
    }

    /// Recomputes the cached active-GPU count after an activation change
    /// (autoscale, crash, recovery, or session arm).
    fn recount_active_gpus(&mut self) {
        self.active_gpus = self
            .instances
            .iter()
            .enumerate()
            .filter(|(i, _)| self.active.get(*i).is_none_or(|a| a.is_some()))
            .map(|(_, inst)| inst.cost_model().parallelism().n_gpus())
            .sum();
    }

    /// One autoscaler evaluation: activate a replica when every active one
    /// of a phase is overloaded; drain and deactivate an idle one when load
    /// recedes. At most one action per phase per tick. Crashed replicas
    /// are invisible to the scaler: lost capacity flows through the same
    /// policy as organic load shifts (graceful degradation).
    fn autoscale_tick(&mut self, now: SimTime) {
        let Some(auto) = self.cfg.autoscale else {
            return;
        };
        let events_before = self.autoscale_events;
        let thrd = self.coordinator.dispatch_threshold.as_secs_f64();

        // --- prefill scaling ---
        let active_p: Vec<usize> = self
            .prefill_idxs
            .iter()
            .copied()
            .filter(|&i| self.active[i].is_some())
            .collect();
        let pred = |cluster: &Self, i: usize| {
            cluster
                .coordinator
                .predict_ttft(&cluster.profiler, &cluster.instances[i], 1, now)
                .as_secs_f64()
        };
        let all_hot = active_p
            .iter()
            .all(|&i| pred(self, i) > auto.up_ttft_fraction * thrd);
        let all_cool = active_p
            .iter()
            .all(|&i| pred(self, i) < auto.down_ttft_fraction * thrd);
        self.cool_ticks_prefill = if all_cool {
            self.cool_ticks_prefill + 1
        } else {
            0
        };
        if all_hot {
            if let Some(&idle) = self
                .prefill_idxs
                .iter()
                .find(|&&i| self.active[i].is_none() && !self.crashed[i])
            {
                self.active[idle] = Some(now + auto.warmup);
                self.autoscale_events += 1;
                self.cool_ticks_prefill = 0;
                self.tracer.emit(now, || TraceEvent::Autoscale {
                    inst: idle as u32,
                    activated: true,
                });
            } else if let Some(&idle) = self
                .decode_idxs
                .iter()
                .find(|&&i| self.active[i].is_none() && !self.crashed[i])
            {
                // No prefill replica left to add: grow dispatch capacity
                // instead — another decode replica brings another guest
                // stream budget (and its idle tensor cores).
                self.active[idle] = Some(now + auto.warmup);
                self.autoscale_events += 1;
                self.cool_ticks_prefill = 0;
                self.tracer.emit(now, || TraceEvent::Autoscale {
                    inst: idle as u32,
                    activated: true,
                });
            }
        } else if active_p.len() > auto.min_prefill && self.cool_ticks_prefill >= DRAIN_TICKS {
            let dwelled: Vec<usize> = active_p
                .iter()
                .rev()
                .copied()
                .filter(|&i| self.past_dwell(i, now, &auto))
                .collect();
            if let Some(&victim) = dwelled.iter().find(|&&i| {
                self.instances[i].is_drained() || {
                    self.instances[i].clear_backups();
                    self.instances[i].is_drained()
                }
            }) {
                self.active[victim] = None;
                self.autoscale_events += 1;
                self.cool_ticks_prefill = 0;
                self.tracer.emit(now, || TraceEvent::Autoscale {
                    inst: victim as u32,
                    activated: false,
                });
            }
        }

        // --- decode scaling ---
        let active_d: Vec<usize> = self
            .decode_idxs
            .iter()
            .copied()
            .filter(|&i| self.active[i].is_some())
            .collect();
        let all_tight = active_d.iter().all(|&i| {
            let inst = &self.instances[i];
            inst.kv_free_fraction() < auto.decode_up_kv_fraction
                || inst.waiting_decode_len() > 0
                || inst.swapped_len() > 0
        });
        self.cool_ticks_decode = if all_tight {
            0
        } else {
            self.cool_ticks_decode + 1
        };
        if all_tight {
            if let Some(&idle) = self
                .decode_idxs
                .iter()
                .find(|&&i| self.active[i].is_none() && !self.crashed[i])
            {
                self.active[idle] = Some(now + auto.warmup);
                self.autoscale_events += 1;
                self.tracer.emit(now, || TraceEvent::Autoscale {
                    inst: idle as u32,
                    activated: true,
                });
            }
        } else if active_d.len() > auto.min_decode && self.cool_ticks_decode >= DRAIN_TICKS {
            if let Some(&victim) = active_d
                .iter()
                .rev()
                .filter(|&&i| self.past_dwell(i, now, &auto))
                .find(|&&i| self.instances[i].is_drained())
            {
                self.active[victim] = None;
                self.autoscale_events += 1;
                self.cool_ticks_decode = 0;
                self.tracer.emit(now, || TraceEvent::Autoscale {
                    inst: victim as u32,
                    activated: false,
                });
            }
        }
        if self.autoscale_events != events_before {
            self.recount_active_gpus();
        }
    }

    /// True once a replica has been ready long enough to have received
    /// work — freshly activated replicas are immune to scale-down, or the
    /// scaler would kill them the moment their warmup ends.
    fn past_dwell(&self, idx: usize, now: SimTime, auto: &crate::AutoscaleConfig) -> bool {
        match self.active[idx] {
            Some(ready) => now >= ready + auto.check_interval * u64::from(DRAIN_TICKS),
            None => false,
        }
    }

    fn finalize_record(
        &mut self,
        id: RequestId,
        swap_outs: u32,
        now: SimTime,
        records: &mut Vec<RequestRecord>,
    ) {
        let Some(rec) = self.pending.remove(id.0) else {
            // Already finalized (stale completion after a recovery race).
            return;
        };
        // A request can complete without a surviving first-token stamp only
        // through a recovery corner (e.g. its prefill finished on a replica
        // that crashed in the same instant); degrade its TTFT to the
        // completion time instead of tearing the run down.
        let first_token = rec.first_token.unwrap_or(now);
        if let Some(predicted) = rec.predicted_ttft {
            self.ttft_predictions.push(TtftPrediction {
                request: id.0,
                predicted,
                actual: first_token.saturating_since(rec.req.arrival).as_secs_f64(),
                dispatched: rec.site == PrefillSite::DecodeInstance,
            });
        }
        let decode_enqueue = rec.decode_enqueue.unwrap_or(first_token);
        self.tracer.emit(now, || TraceEvent::Finished { id });
        push_live(&mut self.live, LiveEvent::Finished { id, at: now });
        let record = RequestRecord {
            id,
            prompt_tokens: rec.req.prompt_tokens,
            output_tokens: rec.req.output_tokens,
            arrival: rec.req.arrival,
            prefill_start: rec.prefill_start.unwrap_or(rec.req.arrival),
            first_token,
            decode_enqueue,
            decode_start: rec.decode_start.unwrap_or(decode_enqueue),
            completion: now,
            prefill_site: rec.site,
            swap_outs: rec.swap_outs + swap_outs,
            migrations: rec.migrations,
            session: rec.req.session,
            cached_prefix_tokens: rec.cached_prefix,
        };
        self.slo_attaining += usize::from(self.cfg.slo.meets_both(&record));
        records.push(record);
    }

    fn schedule_transfer_done(&mut self, tid: u64, at: SimTime) {
        self.deferred.push((at, Event::TransferDone(tid)));
    }
}

/// Point-in-time view of one serving instance inside a live session.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InstanceSnapshot {
    /// Instance name (`prefill-0`, `decode-1`, `colocated-0`, ...).
    pub name: String,
    /// Active (not autoscaled away) at the snapshot instant.
    pub active: bool,
    /// Crashed by an injected fault and not yet recovered.
    pub crashed: bool,
    /// Fraction of KV blocks in use (1.0 = under full memory pressure).
    pub kv_used_fraction: f64,
    /// Requests queued for prefill.
    pub waiting_prefill: usize,
    /// Requests queued for decode.
    pub waiting_decode: usize,
    /// Requests actively decoding.
    pub running_decodes: usize,
}

/// Point-in-time view of a live [`ClusterSession`], the payload behind the
/// gateway's `/v1/cluster/status` control-plane endpoint.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionSnapshot {
    /// Virtual (simulated) time, seconds.
    pub virtual_now_secs: f64,
    /// Requests resident (queued or running) right now.
    pub pending_requests: usize,
    /// Requests completed so far.
    pub completed_requests: usize,
    /// Completed requests that met both SLOs.
    pub slo_attaining: usize,
    /// SLO-attaining completions per virtual second.
    pub goodput_rps: f64,
    /// Requests dropped with a typed terminal reason.
    pub dropped_requests: usize,
    /// Arrivals rejected at admission (queue cap or token budget).
    pub requests_rejected: u64,
    /// Requests shed by SLO-aware load shedding.
    pub requests_shed: u64,
    /// Requests aborted by the deadline watchdog.
    pub watchdog_aborts: u64,
    /// Simulator events processed so far.
    pub events_processed: u64,
    /// Peak resident request count observed.
    pub peak_pending: usize,
    /// Session prefix-cache hits so far (0 without prefix caching).
    pub prefix_hits: u64,
    /// Session prefix-cache misses so far (0 without prefix caching).
    pub prefix_misses: u64,
    /// Prefix-cache hit rate so far (0.0 with no probes).
    pub prefix_hit_rate: f64,
    /// Per-instance state.
    pub instances: Vec<InstanceSnapshot>,
}

/// An incrementally driven serving deployment: the exact event loop of
/// [`Cluster::run`], re-cut into inject / pump / drain phases so a
/// front-end (the HTTP gateway's `SimDriver`) can feed arrivals in as they
/// happen and advance virtual time faster than real time.
///
/// Lifecycle: [`Cluster::into_session`] → any interleaving of
/// [`inject`](ClusterSession::inject) and
/// [`pump_until`](ClusterSession::pump_until) (collecting
/// [`drain_live_events`](ClusterSession::drain_live_events) between slices)
/// → [`finish`](ClusterSession::finish) for the final [`RunReport`].
#[derive(Debug)]
pub struct ClusterSession {
    cluster: Cluster,
    events: EventQueue<Event>,
    /// Session-owned arrivals; `Event::Arrival` indexes here.
    requests: Vec<Request>,
    records: Vec<RequestRecord>,
    /// Reused across the per-event instance sweep so the hot loop does not
    /// allocate a fresh Vec per (event, instance) pair.
    started_scratch: Vec<StartedStep>,
    /// Reused step-outcome buffers; refilled in place on every completion.
    outcome_scratch: StepOutcome,
    /// Reused list of a completing step's members, read for live tokens
    /// and background migrations.
    decoded_scratch: Vec<RequestId>,
    /// Reused step boundaries of one decode run-ahead.
    leap_scratch: Vec<SimTime>,
    /// Whether the last end-of-event sweep left a swapped sequence on any
    /// instance; `try_start` acts on those without any event, so no
    /// decode lane runs ahead while one waits.
    swap_waiting: bool,
    /// Decode completions delivered through the run-ahead.
    #[cfg(test)]
    pub(crate) quiet_deliveries: u64,
    processed: u64,
    end_time: SimTime,
    /// Periodic ticks (sampling, autoscaling) and injected faults must not
    /// keep the run alive on their own: count the *work* events remaining.
    live_work: u64,
    audit_every: Option<u64>,
    /// Whether the one-time start events (faults, periodic ticks) have been
    /// armed. Deferred to the first pump so a whole-trace replay schedules
    /// them *after* every arrival, exactly like the original closed loop
    /// (event order within an instant is FIFO by insertion).
    started: bool,
    sample_armed: bool,
    autoscale_armed: bool,
    watchdog_armed: bool,
}

// The gateway builds a session on the caller's thread and moves it into
// the driver thread that owns it from then on. This holds (and must keep
// holding) because every layer below — instances, KV trackers, RNGs,
// tracer — owns its state outright.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ClusterSession>();
};

impl ClusterSession {
    /// Turns on token-level [`LiveEvent`] collection. Off by default so
    /// batch replays never pay for it.
    pub fn enable_live_events(&mut self) {
        self.cluster.live.get_or_insert_with(Vec::new);
    }

    /// Takes every [`LiveEvent`] emitted since the last drain, in emission
    /// order. Empty unless [`enable_live_events`] was called.
    ///
    /// [`enable_live_events`]: ClusterSession::enable_live_events
    pub fn drain_live_events(&mut self) -> Vec<LiveEvent> {
        match self.cluster.live.as_mut() {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// Current virtual time (the timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Firing time of the next pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Requests currently resident (queued or running).
    pub fn pending_requests(&self) -> usize {
        self.cluster.pending.len()
    }

    /// Records a front-end event (e.g. a gateway submission) into the
    /// session's scheduling trace at the current virtual time. A no-op
    /// unless the config enabled tracing.
    pub fn emit_trace(&mut self, event: TraceEvent) {
        let now = self.events.now();
        self.cluster.tracer.emit(now, || event);
    }

    /// Adds one arrival to the session. The request is scheduled at its
    /// own `arrival` stamp, clamped forward to the session's current
    /// virtual time (events cannot fire in the past).
    pub fn inject(&mut self, req: Request) -> RequestId {
        let at = req.arrival.max(self.events.now());
        let idx = self.requests.len();
        self.requests.push(req);
        self.events.schedule(at, Event::Arrival(idx));
        self.live_work += 1;
        if self.started {
            self.rearm_ticks();
        }
        req.id
    }

    /// Periodic ticks stop self-rescheduling once the system drains; a
    /// live session that goes idle and then receives new work must bring
    /// them back.
    fn rearm_ticks(&mut self) {
        let now = self.events.now();
        if self.cluster.cfg.sample_interval.is_some() && !self.sample_armed {
            self.events.schedule(now, Event::Sample);
            self.sample_armed = true;
        }
        if self.cluster.cfg.autoscale.is_some() && !self.autoscale_armed {
            self.events.schedule(now, Event::AutoscaleTick);
            self.autoscale_armed = true;
        }
        if let Some(deadline) = self.cluster.cfg.overload.and_then(|o| o.deadline) {
            if !self.watchdog_armed {
                self.events
                    .schedule(now + deadline.mul_f64(0.25), Event::WatchdogTick);
                self.watchdog_armed = true;
            }
        }
    }

    /// One-time start: sorts and schedules fault-plan events, initializes
    /// sampling series and instance activation, and arms the periodic
    /// ticks. Runs on the first pump so that a whole-trace replay inserts
    /// these *after* all arrivals (FIFO tie-break parity with the original
    /// closed loop).
    fn arm(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let now = self.events.now();
        self.cluster.fault_events = self
            .cluster
            .cfg
            .faults
            .as_ref()
            .map(FaultPlan::sorted_events)
            .unwrap_or_default();
        let fault_times: Vec<SimTime> = self.cluster.fault_events.iter().map(|f| f.at).collect();
        for (i, at) in fault_times.into_iter().enumerate() {
            self.events.schedule(at.max(now), Event::Fault(i));
        }
        if let Some(interval) = self.cluster.cfg.sample_interval {
            self.cluster.series = self
                .cluster
                .instances
                .iter()
                .map(|inst| windserve_metrics::InstanceSeries::new(inst.name(), interval))
                .collect();
            self.events.schedule(now, Event::Sample);
            self.sample_armed = true;
        }
        self.cluster.active = vec![Some(SimTime::ZERO); self.cluster.instances.len()];
        if let Some(auto) = self.cluster.cfg.autoscale {
            for (slot, &idx) in self.cluster.prefill_idxs.iter().enumerate() {
                if slot >= auto.min_prefill {
                    self.cluster.active[idx] = None;
                }
            }
            for (slot, &idx) in self.cluster.decode_idxs.iter().enumerate() {
                if slot >= auto.min_decode {
                    self.cluster.active[idx] = None;
                }
            }
            self.events.schedule(now, Event::AutoscaleTick);
            self.autoscale_armed = true;
        }
        self.cluster.recount_active_gpus();
        if let Some(deadline) = self.cluster.cfg.overload.and_then(|o| o.deadline) {
            // Sweep at a quarter of the budget: a stuck request is caught
            // at most 1.25x its deadline after arrival.
            self.events
                .schedule(now + deadline.mul_f64(0.25), Event::WatchdogTick);
            self.watchdog_armed = true;
        }
    }

    /// Processes every event scheduled at or before `horizon`, advancing
    /// virtual time exactly as far as the horizon allows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cluster::run`]: an invariant-audit failure or
    /// the event backstop.
    pub fn pump_until(&mut self, horizon: SimTime) -> crate::Result<()> {
        self.arm();
        let ahead = horizon + SimDuration::from_micros(1);
        while self.events.peek_time().is_some_and(|t| t <= horizon) {
            let scheduled = self.events.pop().expect("peeked event");
            self.step(scheduled, ahead)?;
        }
        Ok(())
    }

    /// Processes every pending event until the queue drains (all injected
    /// work complete).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterSession::pump_until`].
    pub fn pump_to_drain(&mut self) -> crate::Result<()> {
        self.arm();
        while let Some(scheduled) = self.events.pop() {
            self.step(scheduled, SimTime::MAX)?;
        }
        Ok(())
    }

    /// Delivers one scheduled event.
    ///
    /// A main-lane `StepDone` of the current epoch goes to the quiet-decode
    /// run-ahead first, which applies its step and the lane's next quiet
    /// steps that end before every queued event and before `ahead` (just
    /// past the pump's horizon). Every other event, and a step that is not
    /// quiet, runs the general body.
    fn step(&mut self, scheduled: Scheduled<Event>, ahead: SimTime) -> crate::Result<()> {
        self.processed += 1;
        if !matches!(
            scheduled.event,
            Event::Sample | Event::AutoscaleTick | Event::Fault(_) | Event::WatchdogTick
        ) {
            // Every work event was credited exactly once (inject or the
            // deferred flush); an uncredited debit means the event
            // classification drifted, and letting it wrap would wedge the
            // idle-detection checks below instead of failing loudly.
            self.live_work =
                self.live_work
                    .checked_sub(1)
                    .ok_or_else(|| crate::Error::Invariant {
                        reason: format!(
                            "live_work underflow: {:?} at {} debited with no matching credit",
                            scheduled.event, scheduled.at
                        ),
                    })?;
        }
        if self.processed > MAX_EVENTS {
            return Err(crate::Error::EventBackstop {
                pending: self.cluster.pending.len(),
            });
        }
        let leapt = match scheduled.event {
            Event::StepDone {
                inst,
                lane: lane @ LaneRef::Main(_),
                epoch,
            } => epoch == self.cluster.step_epoch[inst] && self.run_ahead(inst, lane, epoch, ahead),
            _ => false,
        };
        if !leapt {
            self.deliver(scheduled)?;
        }
        if let Some(n) = self.audit_every {
            if self.processed.is_multiple_of(n) {
                self.cluster.audit_invariants()?;
            }
        }
        Ok(())
    }

    /// The general body of one event: apply it, give every instance a
    /// chance to start steps, and queue what that scheduled.
    fn deliver(&mut self, scheduled: Scheduled<Event>) -> crate::Result<()> {
        let now = scheduled.at;
        if !matches!(scheduled.event, Event::Fault(_) | Event::WatchdogTick) {
            // A recovery scheduled after the last request completed, or
            // a coarse watchdog sweep outliving the workload, must not
            // stretch the measured run.
            self.end_time = now;
        }
        self.cluster.account_gpu_seconds(now);
        match scheduled.event {
            Event::Arrival(i) => self.cluster.on_arrival(self.requests[i], now),
            Event::StepDone { inst, lane, epoch } => {
                // A crash bumps the epoch: completions for steps the
                // crash destroyed are stale and must be dropped.
                if epoch == self.cluster.step_epoch[inst] {
                    let cluster = &mut self.cluster;
                    let mut outcome = std::mem::take(&mut self.outcome_scratch);
                    let mut decoded = std::mem::take(&mut self.decoded_scratch);
                    decoded.clear();
                    // The common case has no live listeners and no migration
                    // in flight; skip reading the step's members then.
                    if cluster.live.is_some() || !cluster.migrations.is_empty() {
                        decoded.extend(cluster.instances[inst].step_members(lane));
                    }
                    cluster.instances[inst].complete_step_into(lane, now, &mut outcome);
                    let applied =
                        cluster.on_step_outcome(inst, &outcome, &decoded, now, &mut self.records);
                    self.outcome_scratch = outcome;
                    self.decoded_scratch = decoded;
                    applied?;
                }
            }
            Event::TransferDone(tid) => self.cluster.on_transfer_done(tid, now)?,
            Event::Fault(i) => self.cluster.on_fault(i, now)?,
            Event::AutoscaleTick => {
                self.autoscale_armed = false;
                self.cluster.autoscale_tick(now);
                if self.live_work > 0 || !self.cluster.pending.is_empty() {
                    if let Some(auto) = self.cluster.cfg.autoscale {
                        self.cluster
                            .deferred
                            .push((now + auto.check_interval, Event::AutoscaleTick));
                        self.autoscale_armed = true;
                    }
                }
            }
            Event::Sample => {
                self.sample_armed = false;
                for (inst, series) in self.cluster.instances.iter().zip(&mut self.cluster.series) {
                    series.kv_used.push(now, 1.0 - inst.kv_free_fraction());
                    series
                        .waiting_prefill
                        .push(now, inst.waiting_prefill_len() as f64);
                    series
                        .waiting_decode
                        .push(now, inst.waiting_decode_len() as f64);
                    series.running.push(now, inst.running_decode_count() as f64);
                }
                // Keep sampling while work remains in the system.
                if self.live_work > 0 || !self.cluster.pending.is_empty() {
                    if let Some(interval) = self.cluster.cfg.sample_interval {
                        self.cluster.deferred.push((now + interval, Event::Sample));
                        self.sample_armed = true;
                    }
                }
            }
            Event::WatchdogTick => {
                self.watchdog_armed = false;
                if let Some(deadline) = self.cluster.cfg.overload.and_then(|o| o.deadline) {
                    self.cluster.watchdog_sweep(deadline, now);
                    // The sweep may have aborted the last resident
                    // requests; only keep ticking while work remains.
                    if self.live_work > 0 || !self.cluster.pending.is_empty() {
                        self.cluster
                            .deferred
                            .push((now + deadline.mul_f64(0.25), Event::WatchdogTick));
                        self.watchdog_armed = true;
                    }
                }
            }
        }
        // State changed somewhere: give every instance a chance to
        // launch steps (cheap — the instance count is tiny).
        let mut swap_waiting = false;
        for idx in 0..self.cluster.instances.len() {
            self.started_scratch.clear();
            self.cluster.instances[idx].try_start_into(now, &mut self.started_scratch);
            self.cluster.register_steps(idx, &self.started_scratch, now);
            swap_waiting |= self.cluster.instances[idx].swapped_len() > 0;
        }
        self.swap_waiting = swap_waiting;
        let mut deferred = std::mem::take(&mut self.cluster.deferred);
        for (at, ev) in deferred.drain(..) {
            self.schedule(at.max(now), ev);
        }
        // Hand the (now empty) buffer back so its capacity is reused.
        std::mem::swap(&mut self.cluster.deferred, &mut deferred);
        Ok(())
    }

    /// Puts `ev` on the future-event list, crediting work events to the
    /// idle-detection count.
    fn schedule(&mut self, at: SimTime, ev: Event) {
        if !matches!(
            ev,
            Event::Sample | Event::AutoscaleTick | Event::Fault(_) | Event::WatchdogTick
        ) {
            self.live_work += 1;
        }
        self.events.schedule(at, ev);
    }

    /// Quiet-decode run-ahead from the `StepDone` of `inst`'s main `lane`,
    /// just popped. The engine applies that step and the lane's
    /// further quiet steps ending before the next queued event and
    /// `ahead`; for each one this does what the general body would have
    /// done (event count, run end, GPU-time integral, trace events and live
    /// tokens, in order), then queues the step left running. Returns
    /// whether the event was delivered; when the engine finds its step not
    /// quiet nothing changes and the general body runs.
    ///
    /// Exactness: a quiet step changes only its own lane, and until the
    /// next queued event nothing else can observe or change any instance.
    /// The end-of-event sweep would find every other instance as the last
    /// sweep left it, and `try_start` on such an instance is a no-op
    /// unless a preemption left its swap queue non-empty; while one does,
    /// nothing runs ahead.
    fn run_ahead(&mut self, inst: usize, lane: LaneRef, epoch: u64, ahead: SimTime) -> bool {
        if self.swap_waiting {
            return false;
        }
        // The delivered step is event `processed`; each further step is
        // one more.
        let mut max_steps = MAX_EVENTS - self.processed + 1;
        if let Some(n) = self.audit_every {
            // End at the next audit point at the latest: the audit runs
            // after its event, on the state that event left, and a leap
            // leaves its last step's state.
            max_steps = max_steps.min(self.processed.next_multiple_of(n) - self.processed + 1);
        }
        let bounds = RunAhead {
            until: self.events.peek_time().map_or(ahead, |t| t.min(ahead)),
            max_steps,
            min_free_fraction: self.cluster.leap_floor(inst),
        };
        let mut ends = std::mem::take(&mut self.leap_scratch);
        let applied = self.cluster.instances[inst].run_ahead(lane, bounds, &mut ends);
        if applied > 0 {
            // `ends` is the first applied step's start, each applied step's
            // end, then the end of the step left running.
            self.processed += applied - 1;
            #[cfg(test)]
            {
                self.quiet_deliveries += applied;
            }
            self.end_time = ends[ends.len() - 2];
            let cluster = &mut self.cluster;
            let observed = cluster.tracer.enabled() || cluster.live.is_some();
            for pair in ends.windows(3) {
                let &[started, end, next_end] = pair else {
                    unreachable!("windows of three")
                };
                cluster.account_gpu_seconds(end);
                if !observed {
                    continue;
                }
                cluster.tracer.emit(end, || TraceEvent::StepFinished {
                    inst: inst as u32,
                    lane: trace_lane(lane),
                    class: StepClass::Decode,
                    duration_us: (end - started).as_micros(),
                });
                if cluster.live.is_some() {
                    for id in cluster.instances[inst].step_members(lane) {
                        push_live(&mut cluster.live, LiveEvent::Token { id, at: end });
                    }
                }
                cluster.tracer.emit(end, || TraceEvent::StepStarted {
                    inst: inst as u32,
                    lane: trace_lane(lane),
                    ends_at: next_end,
                });
            }
            self.events.advance_to(self.end_time);
            self.schedule(ends[ends.len() - 1], Event::StepDone { inst, lane, epoch });
        }
        self.leap_scratch = ends;
        applied > 0
    }

    /// Point-in-time view of the live deployment for the control plane.
    pub fn snapshot(&self) -> SessionSnapshot {
        let slo_attaining = self.cluster.slo_attaining;
        let virtual_now_secs = self.events.now().as_secs_f64();
        let goodput_rps = if virtual_now_secs > 0.0 {
            slo_attaining as f64 / virtual_now_secs
        } else {
            0.0
        };
        let instances = self
            .cluster
            .instances
            .iter()
            .enumerate()
            .map(|(i, inst)| InstanceSnapshot {
                name: inst.name().to_string(),
                active: self.cluster.active.get(i).is_none_or(|a| a.is_some()),
                crashed: self.cluster.crashed.get(i).copied().unwrap_or(false),
                kv_used_fraction: 1.0 - inst.kv_free_fraction(),
                waiting_prefill: inst.waiting_prefill_len(),
                waiting_decode: inst.waiting_decode_len(),
                running_decodes: inst.running_decode_count(),
            })
            .collect();
        SessionSnapshot {
            virtual_now_secs,
            pending_requests: self.cluster.pending.len(),
            completed_requests: self.records.len(),
            slo_attaining,
            goodput_rps,
            dropped_requests: self.cluster.dropped.len(),
            requests_rejected: self.cluster.counters.requests_rejected,
            requests_shed: self.cluster.counters.requests_shed,
            watchdog_aborts: self.cluster.counters.watchdog_aborts,
            events_processed: self.processed,
            peak_pending: self.cluster.peak_pending,
            prefix_hits: self.cluster.counters.prefix_hits,
            prefix_misses: self.cluster.counters.prefix_misses,
            prefix_hit_rate: {
                let probes =
                    self.cluster.counters.prefix_hits + self.cluster.counters.prefix_misses;
                if probes == 0 {
                    0.0
                } else {
                    self.cluster.counters.prefix_hits as f64 / probes as f64
                }
            },
            instances,
        }
    }

    /// Finalizes the session: audits, checks for deadlock, and assembles
    /// the [`RunReport`] and [`TraceLog`] exactly as a closed-loop
    /// [`Cluster::run`] would.
    ///
    /// # Errors
    ///
    /// Returns an error if resident requests remain (the simulation
    /// deadlocked or the session was finished before draining) or a final
    /// invariant audit fails.
    pub fn finish(self) -> crate::Result<(RunReport, TraceLog)> {
        let ClusterSession {
            mut cluster,
            mut records,
            processed,
            end_time,
            audit_every,
            ..
        } = self;
        if audit_every.is_some() {
            // One final audit over the drained cluster.
            cluster.audit_invariants()?;
        }

        if !cluster.pending.is_empty() {
            let ids = cluster.pending.sorted_ids();
            return Err(crate::Error::Deadlock {
                incomplete: ids.len(),
                first: ids.iter().take(5).map(|&i| RequestId(i)).collect(),
            });
        }

        records.sort_by_key(|r| r.id);
        let duration_secs = end_time.as_secs_f64();
        let summary = LatencySummary::of(cluster.cfg.slo, &records);
        let instances = cluster
            .instances
            .iter()
            .map(|inst| InstanceReport {
                name: inst.name().to_string(),
                utilization: inst
                    .stats()
                    .utilization(duration_secs, inst.cost_model().parallelism().lanes()),
                swap_outs: inst.kv().swap_out_count(),
                swap_ins: inst.kv().swap_in_count(),
                prefill_steps: inst.stats().prefill_steps,
                decode_steps: inst.stats().decode_steps,
                hybrid_steps: inst.stats().hybrid_steps,
                aux_steps: inst.stats().aux_steps,
            })
            .collect();
        let log = std::mem::replace(&mut cluster.tracer, Tracer::disabled()).finish();
        let cache_stats = cluster
            .instances
            .iter()
            .map(|inst| inst.cost_model().step_cache_stats())
            .fold((0u64, 0u64), |(h, m), s| (h + s.hits, m + s.misses));
        let report = RunReport {
            system: cluster.cfg.system,
            summary,
            records,
            duration_secs,
            instances,
            dispatched_prefills: cluster.counters.dispatched,
            migrations_started: cluster.counters.migrations_started,
            migrations_completed: cluster.counters.migrations_completed,
            kv_bytes_transferred: cluster.counters.kv_bytes,
            backups_created: cluster.counters.backups_created,
            backup_hits: cluster.counters.backup_hits,
            faults_injected: cluster.counters.faults_injected,
            requests_rescheduled: cluster.counters.requests_rescheduled,
            transfer_retries: cluster.counters.transfer_retries,
            series: cluster.series,
            ttft_predictions: {
                let mut v = cluster.ttft_predictions;
                v.sort_by_key(|p| p.request);
                v
            },
            autoscale_events: cluster.autoscale_events,
            gpu_seconds_active: cluster.gpu_seconds_active,
            events_processed: processed,
            cost_cache_hits: cache_stats.0,
            cost_cache_misses: cache_stats.1,
            dropped: {
                let mut d = cluster.dropped;
                d.sort_by_key(|x| x.id);
                d
            },
            requests_rejected: cluster.counters.requests_rejected,
            requests_shed: cluster.counters.requests_shed,
            requests_preempted: cluster.counters.requests_preempted,
            watchdog_aborts: cluster.counters.watchdog_aborts,
            invariant_checks: cluster.counters.invariant_checks,
            peak_pending: cluster.peak_pending,
            prefix_hits: cluster.counters.prefix_hits,
            prefix_misses: cluster.counters.prefix_misses,
            prefix_evictions: cluster.counters.prefix_evictions,
            prefix_cached_tokens: cluster.counters.prefix_cached_tokens,
        };
        Ok((report, log))
    }
}

#[cfg(test)]
impl ClusterSession {
    /// Records completed so far, in completion order.
    pub(crate) fn records(&self) -> &[RequestRecord] {
        &self.records
    }
}
