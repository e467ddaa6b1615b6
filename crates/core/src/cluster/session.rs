//! The event loop: arrivals and ticks in, step completions through the
//! decode run-ahead, the live snapshot, and the final report.

use super::autoscale::CHECK_INTERVAL;
use super::transfer::MAX_CONCURRENT_MIGRATIONS;
use super::{trace_lane, Cluster, ClusterSession, LiveEvent, Transition};
use super::{InstanceSnapshot, SessionSnapshot};
use crate::coordinator::RESCHED_WATERMARK;
use crate::report::{InstanceReport, RunReport};
use windserve_engine::{LaneRef, RunAhead, StartedStep, StepKind};
use windserve_faults::FaultPlan;
use windserve_metrics::{DropReason, LatencySummary};
use windserve_sim::{Delivery, Scheduled, SimDuration, SimTime};
use windserve_trace::{TraceEvent, TraceLog};
use windserve_workload::{Request, RequestId};

/// Hard cap on processed events — a runaway-simulation backstop far above
/// any legitimate run.
const MAX_EVENTS: u64 = 200_000_000;

#[derive(Debug, Clone, Copy)]
pub(super) enum Event {
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

impl Event {
    /// Periodic ticks and injected faults: events that must not keep the
    /// run alive on their own, so they are not counted as work.
    fn is_tick(&self) -> bool {
        matches!(
            self,
            Event::Sample | Event::AutoscaleTick | Event::Fault(_) | Event::WatchdogTick
        )
    }
}

impl Cluster {
    /// Queues the completion of every step the end-of-event sweep started
    /// on `inst`, and does each one's start half.
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
            let (prefilling, decoding) = (&step.newly_prefilling, &step.newly_decoding);
            self.on_step_started(inst, step.lane, step.ends_at, prefilling, decoding, now);
        }
    }

    /// The start half of a step formed on `inst`'s `lane` at `now`, ending
    /// at `ends_at`: traces it and stamps the requests it starts serving.
    // The leap calls this once per step; left out of line it cost long
    // leaps several percent of their throughput.
    #[inline(always)]
    fn on_step_started(
        &mut self,
        inst: usize,
        lane: LaneRef,
        ends_at: SimTime,
        newly_prefilling: &[RequestId],
        newly_decoding: &[RequestId],
        now: SimTime,
    ) {
        self.tracer.emit(now, || TraceEvent::StepStarted {
            inst: inst as u32,
            lane: trace_lane(lane),
            ends_at,
        });
        for &id in newly_prefilling {
            self.transition(id, Transition::PrefillStarted { inst }, now);
            self.tracer.emit(now, || TraceEvent::PrefillStarted {
                id,
                inst: inst as u32,
            });
        }
        for &id in newly_decoding {
            self.transition(id, Transition::DecodeStarted { inst }, now);
            self.tracer.emit(now, || TraceEvent::DecodeStarted {
                id,
                inst: inst as u32,
            });
        }
    }

    /// The free-KV floor a decode run-ahead on `inst` must stay above: the
    /// fraction below which the `StepDone` handler would start dynamic
    /// rescheduling or KV-pressure preemption (`0.0` when neither is on).
    fn leap_floor(&self, inst: usize) -> f64 {
        let (resched, preempt_watermark) = self.pressure_reactions(inst);
        let mut floor = preempt_watermark.unwrap_or(0.0);
        if resched && self.migrating < MAX_CONCURRENT_MIGRATIONS {
            floor = floor.max(RESCHED_WATERMARK);
        }
        floor
    }
}

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

    /// Firing time of the next pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Requests currently resident (queued or running).
    pub fn pending_requests(&self) -> usize {
        self.cluster.pending.len()
    }

    /// Ends resident request `id` for the front end (a client gone, or its
    /// deadline passed): it leaves with a [`DropReason::Cancelled`]
    /// outcome, and its KV is freed now or when the step it is in lands.
    /// Returns whether `id` was resident; an injected request not yet
    /// delivered is not.
    pub fn abort(&mut self, id: RequestId) -> bool {
        let now = self.events.now();
        self.cluster.abort(id, DropReason::Cancelled, now)
    }

    /// Records a front-end event (e.g. a gateway submission) into the
    /// session's scheduling trace at the current virtual time. A no-op
    /// unless the config enabled tracing.
    pub fn emit_trace(&mut self, event: TraceEvent) {
        let now = self.events.now();
        self.cluster.tracer.emit(now, || event);
    }

    /// Adds one arrival to the session. The request joins the event
    /// queue's arrival lane at its own `arrival` stamp, clamped forward to
    /// the session's current virtual time (events cannot fire in the past),
    /// and the lane holds it until it is delivered.
    pub fn inject(&mut self, req: Request) -> RequestId {
        let at = req.arrival.max(self.events.now());
        self.events.arrive(at, req);
        self.live_work += 1;
        if self.started {
            self.rearm_ticks();
        }
        req.id
    }

    /// Whether work remains: a work event queued or a request resident.
    /// Periodic ticks reschedule themselves only while it does.
    fn work_remains(&self) -> bool {
        self.live_work > 0 || !self.cluster.pending.is_empty()
    }

    /// Schedules each enabled periodic tick that is not already queued.
    /// Ticks stop self-rescheduling once the system drains; a live session
    /// that goes idle and then receives new work must bring them back.
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
                // Sweep at a quarter of the budget: a stuck request is
                // caught at most 1.25x its deadline after arrival.
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
        let cluster = &mut self.cluster;
        // Every injected request ends in a record, most with a TTFT
        // prediction: one allocation each instead of growing while the run
        // goes. Before the first pump the only work queued is the injected
        // arrivals.
        let left = self.live_work as usize;
        self.records.reserve(left);
        cluster.ttft_predictions.reserve(left);
        cluster.fault_events = cluster
            .cfg
            .faults
            .as_ref()
            .map(FaultPlan::sorted_events)
            .unwrap_or_default();
        for (i, fault) in cluster.fault_events.iter().enumerate() {
            self.events.schedule(fault.at.max(now), Event::Fault(i));
        }
        if let Some(interval) = cluster.cfg.sample_interval {
            cluster.series = cluster
                .instances
                .iter()
                .map(|inst| windserve_metrics::InstanceSeries::new(inst.name(), interval))
                .collect();
        }
        if let Some(auto) = cluster.cfg.autoscale {
            cluster.start_at_minimum(&auto);
        }
        self.rearm_ticks();
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
    /// A main-lane `StepDone` of the current epoch goes to the decode
    /// run-ahead first, which applies its step and the lane's next steps
    /// that end before every queued event and before `ahead` (just past
    /// the pump's horizon). Every other event, and a step the run-ahead
    /// does not take, runs the general body.
    fn step(
        &mut self,
        scheduled: Scheduled<Delivery<Event, Request>>,
        ahead: SimTime,
    ) -> crate::Result<()> {
        self.processed += 1;
        if !matches!(scheduled.event, Delivery::Event(ev) if ev.is_tick()) {
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
            Delivery::Event(Event::StepDone {
                inst,
                lane: lane @ LaneRef::Main(_),
                epoch,
            }) => {
                epoch == self.cluster.step_epoch[inst] && self.run_ahead(inst, lane, epoch, ahead)
            }
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
    fn deliver(&mut self, scheduled: Scheduled<Delivery<Event, Request>>) -> crate::Result<()> {
        let now = scheduled.at;
        if !matches!(
            scheduled.event,
            Delivery::Event(Event::Fault(_) | Event::WatchdogTick)
        ) {
            // A recovery scheduled after the last request completed, or
            // a coarse watchdog sweep outliving the workload, must not
            // stretch the measured run.
            self.end_time = now;
        }
        self.cluster.activation.account(now);
        match scheduled.event {
            Delivery::Arrival(req) => self.cluster.on_arrival(req, now),
            Delivery::Event(event) => self.apply(event, now)?,
        }
        // State changed somewhere: give every instance a chance to
        // launch steps (cheap — the instance count is tiny).
        let mut swap_waiting = false;
        for idx in 0..self.cluster.instances.len() {
            let started = self.cluster.instances[idx].try_start(now);
            self.cluster.register_steps(idx, &started, now);
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

    /// Applies one scheduled event at `now`.
    fn apply(&mut self, event: Event, now: SimTime) -> crate::Result<()> {
        match event {
            Event::StepDone { inst, lane, epoch } => {
                // A crash bumps the epoch: completions for steps the
                // crash destroyed are stale and must be dropped.
                if epoch == self.cluster.step_epoch[inst] {
                    let cluster = &mut self.cluster;
                    let decoded = &mut self.decoded_scratch;
                    decoded.clear();
                    // The common case has no live listeners and no migration
                    // in flight; skip reading the step's members then.
                    if cluster.live.is_some() || cluster.migrating > 0 {
                        decoded.extend(cluster.instances[inst].step_members(lane));
                    }
                    let outcome = cluster.instances[inst].complete_step(lane, now);
                    cluster.on_step_outcome(inst, &outcome, decoded, now, &mut self.records)?;
                }
            }
            Event::TransferDone(tid) => self.cluster.on_transfer_done(tid, now)?,
            Event::Fault(i) => self.cluster.on_fault(i, now)?,
            Event::AutoscaleTick => {
                self.autoscale_armed = false;
                self.cluster.autoscale_tick(now);
                if self.work_remains() && self.cluster.cfg.autoscale.is_some() {
                    self.cluster
                        .deferred
                        .push((now + CHECK_INTERVAL, Event::AutoscaleTick));
                    self.autoscale_armed = true;
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
                if self.work_remains() {
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
                    if self.work_remains() {
                        self.cluster
                            .deferred
                            .push((now + deadline.mul_f64(0.25), Event::WatchdogTick));
                        self.watchdog_armed = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// Puts `ev` on the future-event list, crediting work events to the
    /// idle-detection count.
    fn schedule(&mut self, at: SimTime, ev: Event) {
        if !ev.is_tick() {
            self.live_work += 1;
        }
        self.events.schedule(at, ev);
    }

    /// Decode run-ahead from the `StepDone` of `inst`'s main `lane`, just
    /// popped. The engine applies that step and the lane's further steps
    /// ending before the next queued event and `ahead` that its ledger
    /// completes on its own; for each one this does what the general body
    /// would have done, in its order and through the same helpers: event
    /// count, run end and GPU-time integral; `trace_step_finished`;
    /// `on_decoded` for its members and completions; `on_step_started` for
    /// the step formed at its end. Then it queues the step left running,
    /// if any. Returns whether the event was delivered; when the engine
    /// finds its step does not qualify nothing changes and the general
    /// body runs.
    ///
    /// Live tokens name each step's members, read once before the leap:
    /// each step's completions leave them and its joiners follow. Only live
    /// events read them: no leaping member is a migration source (the leap
    /// needs an empty `migrating` set), so `on_decoded` credits none.
    ///
    /// Exactness: such a step changes only its own lane and the records
    /// of the requests it finishes, and until the next queued event
    /// nothing else can observe or change any instance. The end-of-event
    /// sweep would find every other instance as the last sweep left it,
    /// and `try_start` on such an instance is a no-op unless a preemption
    /// left its swap queue non-empty; while one does, nothing runs ahead.
    /// Nor does anything while an aborted request waits to be reaped at
    /// the end of its step. The pressure reactions a completion triggers stay off because the
    /// engine keeps free KV at or above `leap_floor`.
    fn run_ahead(&mut self, inst: usize, lane: LaneRef, epoch: u64, ahead: SimTime) -> bool {
        if self.swap_waiting || !self.cluster.reaping.is_empty() {
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
        let cluster = &mut self.cluster;
        let bounds = RunAhead {
            until: self.events.peek_time().map_or(ahead, |t| t.min(ahead)),
            max_steps,
            min_free_fraction: cluster.leap_floor(inst),
        };
        let live = cluster.live.is_some();
        let members = &mut self.decoded_scratch;
        members.clear();
        if live {
            members.extend(cluster.instances[inst].step_members(lane));
        }
        let leap = &mut self.leap_scratch;
        let applied = cluster.instances[inst].run_ahead(lane, bounds, leap);
        for step in leap.steps() {
            let end = step.ended;
            self.end_time = end;
            cluster.activation.account(end);
            cluster.trace_step_finished(inst, lane, StepKind::Decode, end - step.started, end);
            cluster.on_decoded(members, step.completed, end, &mut self.records);
            if live {
                // The completions are a subsequence of the members.
                let mut done = step.completed.iter().peekable();
                members.retain(|&id| done.next_if(|c| c.id == id).is_none());
                debug_assert!(done.next().is_none(), "a completion that was no member");
                members.extend_from_slice(step.joined);
            }
            if let Some(next_end) = step.next_ends_at {
                cluster.on_step_started(inst, lane, next_end, &[], step.newly_decoding, end);
            }
        }
        if applied > 0 {
            self.processed += applied - 1;
            #[cfg(test)]
            {
                self.leap_deliveries += applied;
            }
            self.events.advance_to(self.end_time);
            if let Some(end) = leap.running() {
                self.schedule(end, Event::StepDone { inst, lane, epoch });
            }
        }
        applied > 0
    }

    /// Point-in-time view of the live deployment for the control plane.
    pub fn snapshot(&self) -> SessionSnapshot {
        let cluster = &self.cluster;
        let slo_attaining = cluster.slo_attaining;
        let virtual_now_secs = self.events.now().as_secs_f64();
        let goodput_rps = if virtual_now_secs > 0.0 {
            slo_attaining as f64 / virtual_now_secs
        } else {
            0.0
        };
        let instances = cluster
            .instances
            .iter()
            .enumerate()
            .map(|(i, inst)| InstanceSnapshot {
                name: inst.name().to_string(),
                active: cluster.activation.is_active(i),
                crashed: cluster.crashed.get(i).copied().unwrap_or(false),
                kv_used_fraction: 1.0 - inst.kv_free_fraction(),
                waiting_prefill: inst.waiting_prefill_len(),
                waiting_decode: inst.waiting_decode_len(),
                running_decodes: inst.running_decode_count(),
            })
            .collect();
        let prefix = &cluster.prefix;
        let probes = prefix.hits + prefix.misses;
        SessionSnapshot {
            virtual_now_secs,
            pending_requests: cluster.pending.len(),
            completed_requests: self.records.len(),
            slo_attaining,
            goodput_rps,
            dropped_requests: cluster.dropped.len(),
            requests_rejected: cluster.counters.requests_rejected,
            requests_shed: cluster.counters.requests_shed,
            watchdog_aborts: cluster.counters.watchdog_aborts,
            events_processed: self.processed,
            peak_pending: cluster.peak_pending,
            prefix_hits: prefix.hits,
            prefix_misses: prefix.misses,
            prefix_hit_rate: if probes == 0 {
                0.0
            } else {
                prefix.hits as f64 / probes as f64
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
    /// Returns an error if injected requests remain incomplete, resident
    /// or never delivered (the simulation deadlocked or the session was
    /// finished before draining), or a final invariant audit fails.
    pub fn finish(self) -> crate::Result<(RunReport, TraceLog)> {
        let ClusterSession {
            mut cluster,
            mut events,
            mut records,
            processed,
            end_time,
            audit_every,
            ..
        } = self;
        // An arrival still queued is as incomplete as a resident request.
        // Free the spent queue before the records are sorted and summarized.
        let mut incomplete: Vec<u64> = cluster.pending.keys().collect();
        while let Some(scheduled) = events.pop() {
            if let Delivery::Arrival(req) = scheduled.event {
                incomplete.push(req.id.0);
            }
        }
        drop(events);
        if audit_every.is_some() {
            // One final audit over the drained cluster.
            cluster.audit_invariants()?;
        }

        if !incomplete.is_empty() {
            incomplete.sort_unstable();
            return Err(crate::Error::Deadlock {
                incomplete: incomplete.len(),
                first: incomplete.iter().take(5).map(|&i| RequestId(i)).collect(),
            });
        }

        // Records were pushed at the monotone event time and an id is never
        // resident twice, so `(id, completion)` orders them exactly as a
        // stable sort by id would, without an n-record scratch buffer.
        records.sort_unstable_by_key(|r| (r.id, r.completion));
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
        let log = std::mem::take(&mut cluster.tracer).finish();
        cluster.ttft_predictions.sort_by_key(|p| p.request);
        cluster.dropped.sort_by_key(|x| x.id);
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
            ttft_predictions: cluster.ttft_predictions,
            autoscale_events: cluster.activation.events,
            gpu_seconds_active: cluster.activation.gpu_seconds,
            events_processed: processed,
            cost_cache_hits: 0,
            cost_cache_misses: 0,
            dropped: cluster.dropped,
            requests_rejected: cluster.counters.requests_rejected,
            requests_shed: cluster.counters.requests_shed,
            requests_preempted: cluster.counters.requests_preempted,
            watchdog_aborts: cluster.counters.watchdog_aborts,
            invariant_checks: cluster.counters.invariant_checks,
            peak_pending: cluster.peak_pending,
            prefix_hits: cluster.prefix.hits,
            prefix_misses: cluster.prefix.misses,
            prefix_evictions: cluster.prefix.evictions,
            prefix_cached_tokens: cluster.prefix.cached_tokens,
        };
        Ok((report, log))
    }
}

#[cfg(test)]
impl ClusterSession {
    /// Records completed so far, in completion order.
    pub(crate) fn records(&self) -> &[windserve_metrics::RequestRecord] {
        &self.records
    }

    /// Slots the event queue's arrival lane has allocated.
    pub(crate) fn arrival_capacity(&self) -> usize {
        self.events.arrival_capacity()
    }
}
