//! Fault injection and recovery: replica crashes and recoveries, link
//! degradation and stragglers, and re-placing every request a fault
//! stranded.

use super::transfer::TransferAction;
use super::{Cluster, Phase, Transition};
use windserve_engine::SeqState;
use windserve_faults::FaultKind;
use windserve_sim::SimTime;
use windserve_trace::TraceEvent;
use windserve_workload::RequestId;

impl Cluster {
    pub(super) fn on_fault(&mut self, idx: usize, now: SimTime) -> crate::Result<()> {
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
            FaultKind::LinkDegrade { factor } => self.transfers.link_factor = factor.max(1.0),
            FaultKind::LinkRestore => self.transfers.link_factor = 1.0,
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

    /// Counts one re-placement of `id` from instance `from` to `to` and
    /// records it in the trace.
    pub(super) fn note_rescheduled(
        &mut self,
        id: RequestId,
        from: usize,
        to: usize,
        backup_hit: bool,
        now: SimTime,
    ) {
        self.counters.requests_rescheduled += 1;
        self.tracer.emit(now, || TraceEvent::RequestRescheduled {
            id,
            from: from as u32,
            to: to as u32,
            backup_hit,
        });
    }

    /// Crashes replica `c`: every queue, running step, KV block and backup
    /// it held is lost, and each affected request is re-placed (or parked).
    /// Crashing an already-crashed replica is a no-op.
    fn crash_replica(&mut self, c: usize, now: SimTime) -> crate::Result<()> {
        if c >= self.instances.len() || self.crashed[c] {
            return Ok(());
        }
        self.crashed[c] = true;
        self.activation.set(c, None);
        // Invalidate completion events for steps the crash destroyed.
        self.step_epoch[c] += 1;
        // Retained session prefixes died with the replica's KV.
        self.prefix
            .evicting(c, now, &mut self.tracer, |store| store.clear());

        // In-flight transfers touching the crashed replica, in tid order so
        // recovery is deterministic.
        let mut tids: Vec<u64> = self.transfers.actions.keys().copied().collect();
        tids.sort_unstable();
        for tid in tids {
            let involved = match &self.transfers.actions[&tid].action {
                TransferAction::KvHandoff { src, dst, .. }
                | TransferAction::BackupRestore { src, dst, .. } => *src == c || *dst == c,
                TransferAction::MigrationPhase1 { id } => self
                    .migration(*id)
                    .is_some_and(|m| m.src == c || m.dst == c),
                // A tail already on the wire survives a source crash; only
                // a destination crash strands it.
                TransferAction::MigrationPhase2 { state } => {
                    self.migration(state.id).is_some_and(|m| m.dst == c)
                }
            };
            if !involved {
                continue;
            }
            let pt = self
                .transfers
                .actions
                .remove(&tid)
                .expect("key just listed");
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
                    let retarget = self
                        .pick_decode_for_handoff(now)
                        .and_then(|nd| Some((nd, self.transfers.route(src, nd).ok()?)));
                    let Some((nd, route)) = retarget else {
                        self.decode_in_place(id, src, dst, now);
                        continue;
                    };
                    self.note_rescheduled(id, dst, nd, false, now);
                    let action = TransferAction::KvHandoff {
                        state,
                        src,
                        dst: nd,
                        keep_backup,
                    };
                    let tid = self.submit_transfer(action, route, pt.bytes, now);
                    self.transition(id, Transition::To(Phase::Handoff { tid }), now);
                }
                // The migration is settled with the others below.
                TransferAction::MigrationPhase1 { .. } => {}
                // The request lived only in this transfer.
                TransferAction::MigrationPhase2 { state }
                | TransferAction::BackupRestore { state, .. } => {
                    self.recover_request(state.id, state.generated, c, now)?;
                }
            }
        }

        // A migration whose destination died goes back to decoding at its
        // source, its pause withdrawn before the next step boundary
        // detaches the victim into the void. One whose source died is the
        // drain pass's, unless its tail is already on the wire.
        let mut orphaned = Vec::new();
        for (id, p) in self.pending.iter() {
            if let Phase::Migrating(m) = &p.phase {
                orphaned.extend((m.dst == c).then_some((id, m.src)));
            }
        }
        for (raw, src) in orphaned {
            let id = RequestId(raw);
            self.instances[src].unmark_migrating(id);
            self.instances[src].cancel_pause(id);
            self.transition(id, Transition::To(Phase::Decode { inst: src }), now);
        }

        // Everything resident on the replica is lost; re-place each
        // request (sorted by id inside fail_and_drain).
        for state in self.instances[c].fail_and_drain() {
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
        self.activation.set(c, Some(now));
        let mut parked = Vec::new();
        for (id, p) in self.pending.iter() {
            if let Phase::Parked {
                generated,
                from,
                order,
            } = p.phase
            {
                parked.push((order, id, generated, from));
            }
        }
        parked.sort_unstable();
        for (_, id, generated, from) in parked {
            self.recover_request(RequestId(id), generated, from, now)?;
        }
        Ok(())
    }

    /// Re-places a request whose working state was lost (replica crash or
    /// unrecoverable transfer). A surviving KV backup shrinks the recovery
    /// to a delta re-migration; otherwise the prompt — plus the tokens
    /// already streamed to the client — is prefilled again from scratch.
    /// With nowhere to run, the request parks until a replica recovers.
    pub(super) fn recover_request(
        &mut self,
        id: RequestId,
        generated: u32,
        from: usize,
        now: SimTime,
    ) -> crate::Result<()> {
        let Some(pending) = self.pending.get(id.0) else {
            return Ok(());
        };
        let prompt = pending.req.prompt_tokens;
        let output_target = pending.req.output_tokens;
        // `generated` is in the engine's (possibly folded) frame; add any
        // tokens a previous recovery already folded into the prompt.
        let generated = pending.resumed + generated;

        if !self.cfg.system.colocated() {
            let holder = (0..self.instances.len()).find(|&i| {
                self.is_routable(i, now) && self.instances[i].backup_tokens_of(id).is_some()
            });
            let restore = holder.and_then(|src| {
                let dst = self.pick_decode_for_handoff(now)?;
                Some((src, dst, self.transfers.route(src, dst).ok()?))
            });
            if let Some((src, dst, route)) = restore {
                let tokens = self.instances[src].backup_tokens_of(id).unwrap_or(prompt);
                // Tokens generated after the snapshot died with the
                // replica; decoding resumes from the backup's frontier.
                let resumed = tokens
                    .saturating_sub(prompt)
                    .min(output_target.saturating_sub(1));
                let bytes = self.count_kv_bytes(src, tokens);
                self.counters.backup_hits += 1;
                self.note_rescheduled(id, from, dst, true, now);
                let state = SeqState::arriving_for_decode(id, prompt, output_target, resumed, 0);
                let action = TransferAction::BackupRestore { state, src, dst };
                let tid = self.submit_transfer(action, route, bytes, now);
                self.transition(id, Transition::To(Phase::Handoff { tid }), now);
                // The restored state is back in the request's original
                // frame: nothing stays folded away.
                self.set_resumed(id, 0);
                return Ok(());
            }
        }

        // No backup to restore from: full re-prefill of the lost context.
        let target = if self.cfg.system.colocated() {
            self.pick_least_work(now)
        } else {
            self.pick_prefill(prompt, now)
                .or_else(|| self.pick_guest_host(now))
        };
        let Some(t) = target else {
            // The parked phase carries the full delivered count; no engine
            // state exists while parked.
            self.set_resumed(id, 0);
            let parked = self.parked(generated, from);
            self.transition(id, Transition::To(parked), now);
            return Ok(());
        };
        // A stale backup of this request would collide with a fresh one
        // created after the re-prefilled handoff.
        self.instances[t].drop_backup(id);
        self.note_rescheduled(id, from, t, false, now);
        // Tokens already streamed to the client become part of the context
        // to re-prefill; only the remainder is generated again. Remember
        // how many were folded so later accounting (prefill completion,
        // another crash) can translate back to the request's frame.
        self.set_resumed(id, generated);
        self.transition(id, Transition::To(Phase::Prefill { inst: t }), now);
        self.instances[t].enqueue_prefill(
            id,
            prompt + generated,
            output_target.saturating_sub(generated).max(1),
        );
        Ok(())
    }

    /// Overwrites how many streamed tokens `id`'s engine-side prompt folds
    /// in.
    fn set_resumed(&mut self, id: RequestId, resumed: u32) {
        if let Some(p) = self.pending.get_mut(id.0) {
            p.resumed = resumed;
        }
    }
}
