//! Overload control: admission caps, SLO-aware shedding, KV-pressure
//! preemption, the deadline watchdog, and the cluster-wide invariant
//! auditor.

use super::routing::Placement;
use super::transfer::TransferAction;
use super::{push_live, Cluster, LiveEvent, Phase};
use std::cmp::Reverse;
use windserve_metrics::{DropReason, DroppedRequest, PrefillSite};
use windserve_sim::{SimDuration, SimTime};
use windserve_trace::{AdmissionDecision, AdmissionVerdict, TraceEvent};
use windserve_workload::{Request, RequestId};

impl Cluster {
    /// Admission + SLO-aware shedding gate for one arrival. `true` means
    /// the arrival proceeds to enqueue (possibly after shedding a queued
    /// lower-tier victim to make room); `false` means it was rejected or
    /// shed, with the typed outcome already recorded.
    pub(super) fn admit(
        &mut self,
        req: &Request,
        placement: Option<&Placement>,
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

        let rejected = if overload
            .max_queued_requests
            .is_some_and(|cap| queued_requests >= cap)
        {
            Some((AdmissionVerdict::RejectedQueueFull, DropReason::QueueFull))
        } else if overload
            .max_queued_tokens
            .is_some_and(|budget| queued_tokens + u64::from(req.prompt_tokens) > budget)
        {
            Some((
                AdmissionVerdict::RejectedTokenBudget,
                DropReason::TokenBudget,
            ))
        } else {
            None
        };
        if let Some((verdict, reason)) = rejected {
            decision.verdict = verdict;
            self.record_drop(req.id, req.tier, reason, now);
            self.tracer.emit(now, || TraceEvent::Admission(decision));
            return false;
        }

        // SLO-aware shedding. Only prefill-instance placements shed: their
        // Algorithm 1 prediction describes the path actually taken, while
        // dispatched work already escaped the hot replica and colocated
        // systems have no predictor.
        if let (Some(threshold), Some(pred), Some(&Placement { inst, site, .. })) =
            (shed_threshold_secs, predicted_ttft, placement)
        {
            if site == PrefillSite::PrefillInstance && pred > threshold {
                // Candidates: every not-yet-started queued prefill on the
                // target replica, plus the arrival itself. Shed the lowest
                // tier; the newest id among equals, so the arrival loses
                // ties.
                let queued = self.instances[inst].queued_prefill_ids().into_iter();
                let (tier, _, victim) = std::iter::once((req.tier, Reverse(req.id.0), None))
                    .chain(queued.filter_map(|qid| {
                        Some((self.pending.get(qid.0)?.req.tier, Reverse(qid.0), Some(qid)))
                    }))
                    .min_by_key(|&(tier, newest, _)| (tier, newest))
                    .expect("the arrival is a candidate");
                match victim {
                    None => {
                        decision.verdict = AdmissionVerdict::ShedArrival;
                        self.record_drop(req.id, req.tier, DropReason::Shed, now);
                        self.tracer.emit(now, || TraceEvent::Admission(decision));
                        return false;
                    }
                    Some(qid) => {
                        if self.instances[inst].cancel_queued_prefill(qid) {
                            self.retire(qid);
                            self.record_drop(qid, tier, DropReason::Shed, now);
                            decision.verdict = AdmissionVerdict::ShedVictim;
                            decision.victim = Some(qid);
                        }
                    }
                }
            }
        }
        self.tracer.emit(now, || TraceEvent::Admission(decision));
        true
    }

    /// Records `id`'s typed terminal outcome: the counter for `reason`, the
    /// drop record and the live event. The caller traces the decision.
    fn record_drop(&mut self, id: RequestId, tier: u8, reason: DropReason, now: SimTime) {
        match reason {
            DropReason::Shed => self.counters.requests_shed += 1,
            DropReason::DeadlineExceeded => self.counters.watchdog_aborts += 1,
            DropReason::Cancelled => {}
            _ => self.counters.requests_rejected += 1,
        }
        self.dropped.push(DroppedRequest {
            id,
            tier,
            at: now,
            reason,
        });
        let live = LiveEvent::Dropped {
            id,
            reason,
            at: now,
        };
        push_live(&mut self.live, live);
    }

    /// KV-pressure preemption: while the decode replica's free-block
    /// fraction sits below the watermark, preempt the lowest-value running
    /// decode (lowest tier, then least progress, then id) until pressure
    /// clears or no eligible victim remains. Victims re-enter through the
    /// engine's swapped queue when blocks free up.
    pub(super) fn preempt_under_pressure(&mut self, inst: usize, watermark: f64, now: SimTime) {
        loop {
            let kv_free_fraction = self.instances[inst].kv_free_fraction();
            if kv_free_fraction >= watermark {
                return;
            }
            let mut candidates: Vec<(u8, u32, u64)> = self.instances[inst]
                .running_decodes()
                .into_iter()
                .filter_map(|(id, ctx)| {
                    let req = &self.pending.get(id.0)?.req;
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
    pub(super) fn watchdog_sweep(&mut self, deadline: SimDuration, now: SimTime) {
        let mut stuck: Vec<(u64, SimTime)> = self
            .pending
            .iter()
            .filter(|(_, p)| now.saturating_since(p.req.arrival) > deadline)
            .map(|(id, p)| (id, p.req.arrival))
            .collect();
        stuck.sort_unstable();
        for (raw, arrival) in stuck {
            let id = RequestId(raw);
            // A request making forward progress on a GPU is not stuck;
            // aborting mid-step would corrupt the lane.
            if (0..self.instances.len()).any(|i| self.instances[i].in_running_step(id)) {
                continue;
            }
            self.abort(id, DropReason::DeadlineExceeded, now);
            let waited_secs = now.saturating_since(arrival).as_secs_f64();
            let deadline_secs = deadline.as_secs_f64();
            self.tracer.emit(now, || TraceEvent::WatchdogAborted {
                id,
                waited_secs,
                deadline_secs,
            });
        }
    }

    /// Ends resident request `id` with `reason`: tears it down through the
    /// owner its phase names, drops its backups everywhere and records the
    /// typed outcome. Returns whether `id` was resident.
    pub(super) fn abort(&mut self, id: RequestId, reason: DropReason, now: SimTime) -> bool {
        let Some(rec) = self.retire(id) else {
            return false;
        };
        // A transfer's bytes stay on the wire; its delivery finds no
        // action and becomes a no-op.
        let owner = match rec.phase {
            Phase::Prefill { inst } | Phase::Decode { inst } => Some(inst),
            Phase::Handoff { tid } => match self.transfers.actions.remove(&tid).map(|t| t.action) {
                Some(TransferAction::KvHandoff { src, .. }) => Some(src),
                _ => None,
            },
            Phase::Migrating(m) => {
                if let Some(tid) = m.tid {
                    self.transfers.actions.remove(&tid);
                }
                self.instances[m.src].unmark_migrating(id);
                self.instances[m.src].cancel_pause(id);
                Some(m.src)
            }
            Phase::Parked { .. } => None,
        };
        self.reaping.extend(owner.map(|inst| (inst, id)));
        self.reap();
        for inst in &mut self.instances {
            inst.drop_backup(id);
        }
        self.record_drop(id, rec.req.tier, reason, now);
        true
    }

    /// Frees the engine state aborted requests left behind, each once the
    /// step it was in has landed.
    pub(super) fn reap(&mut self) {
        let instances = &mut self.instances;
        self.reaping
            .retain(|&(i, id)| !instances[i].abort_sequence(id) && instances[i].has_sequence(id));
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
    pub(super) fn audit_invariants(&mut self) -> crate::Result<()> {
        self.counters.invariant_checks += 1;
        let violated = |reason: String| crate::Error::Invariant { reason };
        for inst in &self.instances {
            inst.check_invariants()
                .map_err(|reason| violated(format!("{}: {reason}", inst.name())))?;
        }
        let mut ids: Vec<u64> = self.pending.keys().collect();
        ids.sort_unstable();
        for raw in ids {
            let id = RequestId(raw);
            let rec = self.pending.get(raw).expect("id just listed");
            let holds = |i: usize| self.instances[i].has_sequence(id);
            let holders = (0..self.instances.len()).filter(|&i| holds(i)).count();
            let carries = |tid: &u64| match self.transfers.actions.get(tid).map(|pt| &pt.action) {
                // A migration's bulk carries no sequence state: the victim
                // still lives at its source.
                Some(TransferAction::MigrationPhase1 { .. }) | None => false,
                Some(action) => action.request_id() == id,
            };
            let placed = match &rec.phase {
                Phase::Prefill { inst } | Phase::Decode { inst } => holders == 1 && holds(*inst),
                Phase::Handoff { tid } => holders <= 1 && carries(tid),
                Phase::Migrating(m) => {
                    holders == 1 && holds(m.src)
                        || holders == 0 && m.tid.as_ref().is_some_and(carries)
                }
                Phase::Parked { .. } => {
                    let mut transfers = self.transfers.actions.values();
                    holders == 0 && !transfers.any(|pt| pt.action.request_id() == id)
                }
            };
            if !placed {
                return Err(violated(format!(
                    "request {raw} is not where its phase says: {:?}, on {holders} instances",
                    rec.phase
                )));
            }
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
}
