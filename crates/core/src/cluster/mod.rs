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
//! When a [`FaultPlan`](windserve_faults::FaultPlan) is attached (the
//! [`ServeConfig::faults`](crate::ServeConfig::faults) field), its events
//! ride the same clock as the workload:
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
//!
//! # Layout
//!
//! This module holds the deployment's state and the step-outcome handlers.
//! Each other concern has its own module: `routing` (arrivals, prefix
//! affinity, Algorithm 1), `transfer` (KV handoffs and migrations),
//! `recovery` (faults), `overload` (admission, shedding, preemption, the
//! watchdog and the invariant auditor), `autoscale`, and `session` (the
//! event loop, the live snapshot and report assembly).

mod autoscale;
mod overload;
mod recovery;
mod routing;
mod session;
mod transfer;

use crate::budget::calibrate_aux_budget;
use crate::config::ServeConfig;
use crate::coordinator::Coordinator;
use crate::profiler::Profiler;
use crate::report::{RunReport, TtftPrediction};
use autoscale::Activation;
use routing::PrefixCache;
use session::Event;
use transfer::{MigrationCtl, Transfers};
use windserve_engine::{
    Instance, InstanceConfig, InstanceRole, LaneRef, Leap, StepKind, StepOutcome,
};
use windserve_faults::FaultEvent;
use windserve_gpu::{GpuId, TransferEngine};
use windserve_kvcache::PrefixStore;
use windserve_metrics::{DropReason, DroppedRequest, PrefillSite, RequestRecord};
use windserve_model::CostModel;
use windserve_sim::hash::FxHashMap;
use windserve_sim::{EventQueue, KeyedSlab, Scheduled, SimDuration, SimTime};
use windserve_trace::{Lane, StepClass, TraceEvent, TraceLog, Tracer};
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

/// Sentinel "previous placement" for requests that never had one (parked at
/// arrival because every replica was down).
const NO_INSTANCE: usize = usize::MAX;

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
}

/// Where the cluster has placed a resident request. Whether it is queued,
/// running, swapped or paused there is the engine's to say.
#[derive(Debug, Clone)]
enum Phase {
    /// Queued or prefilling on `inst` (a decode replica for a guest prefill).
    Prefill { inst: usize },
    /// Its KV on the wire in transfer `tid`: a handoff or a backup restore.
    Handoff { tid: u64 },
    /// Queued, running or swapped out for decode on `inst`. Entering it
    /// stamps `decode_enqueue`.
    Decode { inst: usize },
    /// Decoding at its source while the KV copies to its destination
    /// (boxed: most records never migrate).
    Migrating(Box<MigrationCtl>),
    /// Nowhere to run, with `generated` tokens streamed and last placed on
    /// `from`. Re-placed in `order` when a replica recovers.
    Parked {
        generated: u32,
        from: usize,
        order: u64,
    },
}

/// A named change to a resident request's lifecycle.
#[derive(Debug)]
enum Transition {
    /// A step on `inst` started its prefill.
    PrefillStarted { inst: usize },
    /// Its prefill finished.
    FirstToken,
    /// A step on `inst` started decoding it.
    DecodeStarted { inst: usize },
    /// It moved to another phase.
    To(Phase),
}

impl Phase {
    /// Whether a request in this phase may take `t` (checked in debug
    /// builds). A recovery may re-place it from anywhere.
    fn allows(&self, t: &Transition) -> bool {
        use Phase::{Decode, Handoff, Migrating, Prefill};
        use Transition::{DecodeStarted, FirstToken, PrefillStarted, To};
        match (self, t) {
            (Prefill { inst }, PrefillStarted { inst: at } | To(Decode { inst: at }))
            | (Decode { inst }, DecodeStarted { inst: at }) => inst == at,
            (Prefill { .. }, FirstToken) | (Handoff { .. }, To(Decode { .. })) => true,
            (Migrating(m), DecodeStarted { inst } | To(Decode { inst })) => {
                [m.src, m.dst].contains(inst)
            }
            (Decode { inst }, To(Migrating(m))) => m.src == *inst,
            (Migrating(a), To(Migrating(b))) => (a.src, a.dst) == (b.src, b.dst),
            (_, To(next)) => !matches!(next, Decode { .. } | Migrating(_)),
            _ => false,
        }
    }
}

/// One resident request, from admission to its terminal outcome. Its
/// phase and stage stamps change only through [`Cluster::transition`].
#[derive(Debug)]
struct Pending {
    req: Request,
    site: PrefillSite,
    phase: Phase,
    /// Algorithm 1's TTFT prediction at arrival, in seconds.
    predicted_ttft: Option<f64>,
    prefill_start: Option<SimTime>,
    first_token: Option<SimTime>,
    decode_enqueue: Option<SimTime>,
    decode_start: Option<SimTime>,
    swap_outs: u32,
    migrations: u32,
    /// Tokens folded into the engine-side prompt by recoveries.
    resumed: u32,
    /// Prompt tokens the routed instance served from its prefix cache.
    cached_prefix: u32,
}

impl Pending {
    fn admitted(req: Request, site: PrefillSite, ttft: Option<f64>, phase: Phase) -> Self {
        Pending {
            req,
            site,
            phase,
            predicted_ttft: ttft,
            prefill_start: None,
            first_token: None,
            decode_enqueue: None,
            decode_start: None,
            swap_outs: 0,
            migrations: 0,
            resumed: 0,
            cached_prefix: 0,
        }
    }
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
    /// The interconnect and every transfer in flight on it.
    transfers: Transfers,
    profiler: Profiler,
    coordinator: Coordinator,
    counters: Counters,
    /// Resident (queued or running) requests, one record each.
    pending: KeyedSlab<Pending>,
    /// Per-instance session prefix caches and their counters.
    prefix: PrefixCache,
    /// Resident requests in [`Phase::Migrating`].
    migrating: usize,
    /// Requests parked so far, for [`Phase::Parked`]'s order.
    parks: u64,
    /// Aborted requests left inside a running step: `(instance, id)`.
    reaping: Vec<(usize, RequestId)>,
    /// Events produced inside handlers, drained into the queue by `run`.
    deferred: Vec<(SimTime, Event)>,
    /// Sampled per-instance state (when sampling is enabled).
    series: Vec<windserve_metrics::InstanceSeries>,
    /// Algorithm 1 predictions paired with eventual truth.
    ttft_predictions: Vec<TtftPrediction>,
    /// Per-instance activation and the GPU-seconds it holds.
    activation: Activation,
    /// The fault plan's events, sorted by time; `Event::Fault` indexes here.
    fault_events: Vec<FaultEvent>,
    /// Per-instance crash flag (crashed replicas are unroutable and their
    /// stale step completions are discarded).
    crashed: Vec<bool>,
    /// Per-instance crash epoch, stamped into every `StepDone`.
    step_epoch: Vec<u64>,
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
        let mut instances = Vec::new();
        let mut engine = TransferEngine::new();
        let mut prefill_idxs = Vec::new();
        let mut decode_idxs = Vec::new();
        let mut routes = FxHashMap::default();
        let mut calibrated_budget = 0u32;

        let typical_context = cfg.model.max_context / 2;
        let tuned = |mut icfg: InstanceConfig| {
            icfg.preemption = cfg.preemption;
            icfg
        };
        let cost_model = |gpu, parallelism| CostModel::new(cfg.model.clone(), gpu, parallelism);
        let profiler = Profiler::fit(&cost_model(cfg.prefill_gpu(), cfg.prefill_parallelism)?);

        let layout = cfg.layout()?;
        for replica in &layout {
            let idx = instances.len();
            let name = replica.name();
            let host = cfg.topology.host_route(&replica.gpus).bandwidth;
            let instance = match replica.role {
                InstanceRole::Colocated => {
                    // Priced per GPU, times the group: the vLLM golden rows
                    // pin this expression.
                    let host =
                        cfg.topology.host_route(&[GpuId(0)]).bandwidth * replica.gpus.len() as f64;
                    let cost = cost_model(cfg.gpu.clone(), cfg.prefill_parallelism)?;
                    Instance::new(tuned(InstanceConfig::colocated(name)), cost, host)?
                }
                InstanceRole::Prefill => {
                    let p_cost = cost_model(cfg.prefill_gpu(), cfg.prefill_parallelism)?;
                    prefill_idxs.push(idx);
                    Instance::new(tuned(InstanceConfig::prefill(name)), p_cost, host)?
                }
                InstanceRole::Decode => {
                    let d_cost = cost_model(cfg.gpu.clone(), cfg.decode_parallelism)?;
                    let mut d_cfg = tuned(InstanceConfig::decode(name));
                    d_cfg.stream_disaggregation = cfg.system.sbd_enabled();
                    // The budget is always calibrated under the stream-sharing
                    // model: the no-split ablation (Fig. 13a) removes only the
                    // execution-level stream separation, not the dispatch
                    // policy, which is exactly why its TPOT suffers.
                    let budget = calibrate_aux_budget(
                        &d_cost,
                        true,
                        &cfg.slo,
                        typical_context,
                        2 * cfg.model.max_context,
                    );
                    d_cfg.aux_budget_tokens = budget;
                    calibrated_budget = budget;
                    decode_idxs.push(idx);
                    Instance::new(d_cfg, d_cost, host)?
                }
            };
            instances.push(instance);
        }
        // Directed routes between every prefill/decode pair.
        for &pi in &prefill_idxs {
            for &di in &decode_idxs {
                for (src, dst) in [(pi, di), (di, pi)] {
                    let route = cfg
                        .topology
                        .route_between(&layout[src].gpus, &layout[dst].gpus);
                    routes.insert((src, dst), engine.add_route(route));
                }
            }
        }

        let coordinator = Coordinator {
            dispatch_threshold: cfg.effective_dispatch_threshold(),
            aux_budget_tokens: calibrated_budget,
            long_context_tokens: cfg.long_context_tokens,
            victim_policy: cfg.victim_policy,
        };

        let prefix_stores = match cfg.prefix_cache {
            Some(pc) => (0..instances.len())
                .map(|_| PrefixStore::new(pc.capacity_tokens, pc.ttl))
                .collect(),
            None => Vec::new(),
        };
        let n_instances = instances.len();
        Ok(Cluster {
            cfg,
            instances,
            prefill_idxs,
            decode_idxs,
            transfers: Transfers::new(engine, routes),
            profiler,
            coordinator,
            counters: Counters::default(),
            pending: KeyedSlab::new(),
            prefix: PrefixCache {
                stores: prefix_stores,
                ..PrefixCache::default()
            },
            migrating: 0,
            parks: 0,
            reaping: Vec::new(),
            deferred: Vec::new(),
            series: Vec::new(),
            ttft_predictions: Vec::new(),
            activation: Activation::new(layout.iter().map(|r| r.gpus.len()).collect()),
            fault_events: Vec::new(),
            crashed: vec![false; n_instances],
            step_epoch: vec![0; n_instances],
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

    /// Replays `trace` to completion, returning the report together with
    /// the collected scheduling trace.
    ///
    /// With [`TraceMode::Off`](windserve_trace::TraceMode::Off) (the
    /// default) the returned [`TraceLog`] is empty and recording costs
    /// nothing; enable capture via
    /// [`ServeConfig::trace`](crate::ServeConfig::trace).
    ///
    /// # Errors
    ///
    /// Returns an error if the simulation deadlocks (requests left
    /// incomplete with no events pending) or exceeds the event backstop.
    pub fn run(self, trace: &Trace) -> crate::Result<(RunReport, TraceLog)> {
        let mut session = self.into_session();
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
            records: Vec::new(),
            decoded_scratch: Vec::new(),
            leap_scratch: Leap::default(),
            swap_waiting: false,
            #[cfg(test)]
            leap_deliveries: 0,
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
        self.trace_step_finished(inst, outcome.lane, outcome.kind, outcome.duration, now);
        self.reap();
        for fp in &outcome.finished_prefills {
            self.on_finished_prefill(inst, fp.id, now, records)?;
        }
        self.on_decoded(decoded, &outcome.completed, now, records);
        for p in &outcome.paused {
            self.on_paused(p.clone(), now)?;
        }
        let (resched, preempt_watermark) = self.pressure_reactions(inst);
        if resched {
            self.maybe_reschedule(inst, now)?;
        }
        if let Some(watermark) = preempt_watermark {
            self.preempt_under_pressure(inst, watermark, now);
        }
        Ok(())
    }

    /// Traces the end of the step that ran `duration` on `inst`'s `lane`.
    fn trace_step_finished(
        &mut self,
        inst: usize,
        lane: LaneRef,
        kind: StepKind,
        duration: SimDuration,
        now: SimTime,
    ) {
        self.tracer.emit(now, || TraceEvent::StepFinished {
            inst: inst as u32,
            lane: trace_lane(lane),
            class: trace_class(kind),
            duration_us: duration.as_micros(),
        });
    }

    /// The decode half of a step completed at `now`: a live token for each
    /// member in `decoded`, credited to its background migration if any,
    /// then a record for each sequence it `completed`.
    #[inline]
    fn on_decoded(
        &mut self,
        decoded: &[RequestId],
        completed: &[windserve_engine::CompletedSeq],
        now: SimTime,
        records: &mut Vec<RequestRecord>,
    ) {
        for id in decoded {
            push_live(&mut self.live, LiveEvent::Token { id: *id, at: now });
            if self.migrating == 0 {
                continue;
            }
            if let Some(Phase::Migrating(m)) = self.pending.get_mut(id.0).map(|p| &mut p.phase) {
                if m.state.phase() == windserve_kvcache::MigrationPhase::Background {
                    m.state.on_tokens_generated(1);
                }
            }
        }
        for c in completed {
            self.finalize_record(c.id, c.swap_outs, now, records);
        }
    }

    /// The KV-pressure reactions a completed step on `inst` may trigger:
    /// dynamic rescheduling, and preemption below a watermark. The decode
    /// run-ahead's floor reads the same rule.
    fn pressure_reactions(&self, inst: usize) -> (bool, Option<f64>) {
        let decode = self.decode_idxs.contains(&inst);
        let preempt = self
            .cfg
            .overload
            .and_then(|o| o.preempt_kv_watermark)
            .filter(|_| decode || self.cfg.system.colocated());
        (decode && self.cfg.system.resched_enabled(), preempt)
    }

    fn on_finished_prefill(
        &mut self,
        inst: usize,
        id: RequestId,
        now: SimTime,
        records: &mut Vec<RequestRecord>,
    ) -> crate::Result<()> {
        let Some(&Pending { req, resumed, .. }) = self.pending.get(id.0) else {
            // Stale completion for a request that was already finalized
            // (e.g. re-placed around a crash); nothing left to record.
            return Ok(());
        };
        let newly_first = self.transition(id, Transition::FirstToken, now);
        // A recovery re-prefill folds already-streamed tokens into the
        // engine-side prompt; everything below must use the engine's frame,
        // or a recovered request whose remainder is one token would be
        // promoted to decode after it already finished.
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
            self.transition(id, Transition::To(Phase::Decode { inst }), now);
            self.transition(id, Transition::DecodeStarted { inst }, now);
            self.instances[inst].release_sequence(id);
            self.finalize_record(id, 0, now, records);
            return Ok(());
        }
        if self.prefill_idxs.contains(&inst) {
            if let Some(dst) = self.pick_decode_for_handoff(now) {
                return self.start_handoff(id, prompt, output_target, inst, dst, now);
            }
            // No decode replica standing: decode in place until the
            // autoscaler or a recovery restores capacity.
        }
        // Dispatched (decode instance) or colocated: KV already lives where
        // decoding happens — no transfer at all.
        self.transition(id, Transition::To(Phase::Decode { inst }), now);
        self.instances[inst].promote_to_decode(id);
        Ok(())
    }

    fn finalize_record(
        &mut self,
        id: RequestId,
        swap_outs: u32,
        now: SimTime,
        records: &mut Vec<RequestRecord>,
    ) {
        let Some(rec) = self.retire(id) else {
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

    /// Applies `t` to resident request `id` at `now`: the one place a phase
    /// changes or a stage is stamped. A stamp is first-write-wins; returns
    /// whether `t` set one. A request that is not resident is left alone.
    #[inline]
    fn transition(&mut self, id: RequestId, t: Transition, now: SimTime) -> bool {
        let Some(p) = self.pending.get_mut(id.0) else {
            return false;
        };
        debug_assert!(p.phase.allows(&t), "{id}: {:?} cannot take {t:?}", p.phase);
        let stage = match t {
            Transition::PrefillStarted { .. } => &mut p.prefill_start,
            Transition::FirstToken => &mut p.first_token,
            Transition::DecodeStarted { .. } => &mut p.decode_start,
            Transition::To(next) => {
                let migrating = |phase: &Phase| usize::from(matches!(phase, Phase::Migrating(_)));
                self.migrating = self.migrating + migrating(&next) - migrating(&p.phase);
                p.phase = next;
                match p.phase {
                    Phase::Decode { .. } => &mut p.decode_enqueue,
                    _ => return false,
                }
            }
        };
        let newly = stage.is_none();
        stage.get_or_insert(now);
        newly
    }

    /// Removes resident request `id` at its terminal.
    fn retire(&mut self, id: RequestId) -> Option<Pending> {
        let p = self.pending.remove(id.0)?;
        self.migrating -= usize::from(matches!(p.phase, Phase::Migrating(_)));
        Some(p)
    }

    /// Resident request `id`'s migration, if it is migrating.
    fn migration(&self, id: RequestId) -> Option<&MigrationCtl> {
        match &self.pending.get(id.0)?.phase {
            Phase::Migrating(m) => Some(m.as_ref()),
            _ => None,
        }
    }

    /// The phase of a request parked now, after every earlier one.
    fn parked(&mut self, generated: u32, from: usize) -> Phase {
        self.parks += 1;
        Phase::Parked {
            generated,
            from,
            order: self.parks,
        }
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
/// The event loop itself lives in the `session` module.
#[derive(Debug)]
pub struct ClusterSession {
    cluster: Cluster,
    /// Scheduled events in a heap, and every injected request not yet
    /// delivered, by value, in the queue's arrival lane: the session's one
    /// copy of each request until it is admitted.
    events: EventQueue<Event, Request>,
    records: Vec<RequestRecord>,
    /// Reused list of the members of a completing step, or of each step a
    /// leap applies, for live tokens and background migrations.
    decoded_scratch: Vec<RequestId>,
    /// Reused report of one decode run-ahead.
    leap_scratch: Leap,
    /// Whether the last end-of-event sweep left a swapped sequence on any
    /// instance; `try_start` acts on those without any event, so no
    /// decode lane runs ahead while one waits.
    swap_waiting: bool,
    /// Decode completions delivered through the run-ahead.
    #[cfg(test)]
    pub(crate) leap_deliveries: u64,
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

// A request waits in the event queue's arrival lane, as one
// `Scheduled<Request>`, from injection until it is admitted: that entry is
// the session's whole per-request cost until then.
const _: () = assert!(std::mem::size_of::<Scheduled<Request>>() <= 72);

#[cfg(test)]
mod tests {
    use super::*;
    use windserve_kvcache::StallFreeMigration;

    fn req(id: u64) -> Request {
        Request::new(RequestId(id), SimTime::from_micros(id), 10, 4)
    }

    /// OPT-13B/ShareGPT WindServe 1P+1D: instance 0 prefills, 1 decodes.
    fn cluster() -> Cluster {
        let cfg = ServeConfig::opt_13b_sharegpt(crate::SystemKind::WindServe);
        Cluster::new(cfg).expect("a valid preset")
    }

    fn admitted(id: u64, inst: usize) -> Pending {
        let phase = Phase::Prefill { inst };
        Pending::admitted(req(id), PrefillSite::PrefillInstance, None, phase)
    }

    #[test]
    fn slots_recycle_through_the_free_list() {
        let mut t = KeyedSlab::new();
        t.insert(1, admitted(1, 0));
        t.insert(2, admitted(2, 0));
        assert_eq!(t.len(), 2);
        let e = t.remove(1).expect("resident");
        assert_eq!(e.req.id.0, 1);
        // The freed slot is reused and its record fully reset.
        let phase = Phase::Prefill { inst: 0 };
        let slot = t.insert(
            3,
            Pending::admitted(req(3), PrefillSite::PrefillInstance, Some(0.5), phase),
        );
        assert_eq!(slot, 0);
        assert_eq!(t.len(), 2);
        let e3 = t.get(3).expect("resident");
        assert_eq!(e3.predicted_ttft, Some(0.5));
        assert_eq!((e3.swap_outs, e3.resumed), (0, 0));
        assert!(e3.first_token.is_none());
        let mut ids: Vec<u64> = t.keys().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn stamps_are_first_write_wins() {
        let mut c = cluster();
        let id = RequestId(7);
        let at = SimTime::from_micros;
        c.pending.insert(7, admitted(7, 0));
        assert!(c.transition(id, Transition::PrefillStarted { inst: 0 }, at(5)));
        assert!(c.transition(id, Transition::FirstToken, at(10)));
        assert!(!c.transition(id, Transition::FirstToken, at(20)));
        assert!(c.transition(id, Transition::To(Phase::Decode { inst: 0 }), at(25)));
        assert!(c.transition(id, Transition::DecodeStarted { inst: 0 }, at(30)));
        // A crash re-prefills it on the decode replica: the phase moves
        // and every stage keeps its first stamp.
        assert!(!c.transition(id, Transition::To(Phase::Prefill { inst: 1 }), at(35)));
        assert!(!c.transition(id, Transition::PrefillStarted { inst: 1 }, at(36)));
        assert!(!c.transition(id, Transition::FirstToken, at(40)));
        assert!(!c.transition(id, Transition::To(Phase::Decode { inst: 1 }), at(45)));
        assert!(!c.transition(id, Transition::DecodeStarted { inst: 1 }, at(50)));
        let e = c.pending.get(7).expect("resident");
        assert!(
            matches!(e.phase, Phase::Decode { inst: 1 }),
            "{:?}",
            e.phase
        );
        let stamps = [
            e.prefill_start,
            e.first_token,
            e.decode_enqueue,
            e.decode_start,
        ];
        assert_eq!(stamps, [5, 10, 25, 30].map(|t| Some(at(t))));
        // Entering and leaving a migration keeps the count.
        let state = StallFreeMigration::new(100, 10);
        let m = MigrationCtl {
            state,
            src: 1,
            dst: 0,
            tid: None,
        };
        c.transition(id, Transition::To(Phase::Migrating(Box::new(m))), at(55));
        assert_eq!(c.migrating, 1);
        c.transition(id, Transition::To(Phase::Decode { inst: 1 }), at(60));
        assert_eq!(c.migrating, 0);
        // A request that is not resident is left alone, not a panic.
        assert!(!c.transition(RequestId(99), Transition::FirstToken, at(1)));
        assert!(!c.pending.contains_key(99));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cannot take")]
    fn a_transition_its_phase_does_not_allow_panics_in_debug_builds() {
        let mut c = cluster();
        c.pending.insert(7, admitted(7, 0));
        c.transition(
            RequestId(7),
            Transition::DecodeStarted { inst: 0 },
            SimTime::ZERO,
        );
    }

    #[test]
    fn a_phase_that_disagrees_with_the_engine_fails_the_audit() {
        let mut session = cluster().into_session();
        session.inject(req(0));
        session.pump_until(SimTime::from_micros(1)).expect("runs");
        let c = &mut session.cluster;
        c.audit_invariants().expect("a consistent cluster");
        c.pending.get_mut(0).expect("resident").phase = Phase::Decode { inst: 1 };
        let err = c
            .audit_invariants()
            .expect_err("the phase names the wrong replica");
        assert!(matches!(err, crate::Error::Invariant { .. }), "{err}");
    }

    #[test]
    fn an_abort_mid_step_leaves_at_once_and_frees_the_kv_when_the_step_lands() {
        let mut session = cluster().into_session();
        session.enable_live_events();
        let id = session.inject(Request::new(RequestId(0), SimTime::ZERO, 64, 1024));
        session
            .pump_until(SimTime::from_micros(1_000_000))
            .expect("runs");
        assert!(session.abort(id));
        assert!(!session.abort(id), "aborted once");
        assert_eq!(session.pending_requests(), 0);
        // It was decoding: the engine lets go when the step lands.
        assert_eq!(session.cluster.reaping, vec![(1, id)]);
        session.cluster.audit_invariants().expect("consistent");
        session.pump_to_drain().expect("drains");
        assert!(session.cluster.reaping.is_empty());
        assert!(session.cluster.instances.iter().all(|i| i.is_drained()));
        assert!(session
            .cluster
            .instances
            .iter()
            .all(|i| i.kv_free_fraction() == 1.0));
        let cancelled = |e: &LiveEvent| {
            matches!(
                e,
                LiveEvent::Dropped {
                    reason: DropReason::Cancelled,
                    ..
                }
            ) && e.request_id() == id
        };
        assert_eq!(
            session
                .drain_live_events()
                .iter()
                .filter(|e| cancelled(e))
                .count(),
            1
        );
        let (report, _) = session.finish().expect("a clean drain");
        assert!(report.records.is_empty());
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].reason, DropReason::Cancelled);
        assert_eq!((report.watchdog_aborts, report.requests_rejected), (0, 0));
    }
}
