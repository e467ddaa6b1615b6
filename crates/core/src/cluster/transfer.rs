//! The KV-transfer state machine: prefill→decode handoffs, stall-free
//! migrations (Dynamic Rescheduling, §3.3) and backup restores, with
//! retries and fallbacks when the wire fails them.

use super::session::Event;
use super::{Cluster, Phase, Transition};
use crate::coordinator::RESCHED_WATERMARK;
use windserve_engine::{PausedSeq, SeqState};
use windserve_gpu::{RouteId, TransferEngine};
use windserve_kvcache::StallFreeMigration;
use windserve_sim::hash::FxHashMap;
use windserve_sim::SimTime;
use windserve_trace::TraceEvent;
use windserve_workload::RequestId;

/// Migrations in flight at once (the reproduction's default). The decode
/// run-ahead's floor reads it too.
pub(super) const MAX_CONCURRENT_MIGRATIONS: usize = 2;

/// Decode-replica free-block fraction below which a long prompt's prefill
/// replica keeps a KV backup after the handoff (§3.3's backups; the
/// reproduction's default).
const BACKUP_TRIGGER: f64 = 0.50;

/// Prefill-replica free-block fraction a new backup must leave free (the
/// reproduction's default).
const BACKUP_WATERMARK: f64 = 0.35;

/// Remaining tokens at which a migrating request pauses for its tail flush
/// (§3.3's stall-free migration; the reproduction's default).
const PAUSE_THRESHOLD_TOKENS: u32 = 128;

#[derive(Debug)]
pub(super) enum TransferAction {
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
    pub(super) fn request_id(&self) -> RequestId {
        match self {
            TransferAction::KvHandoff { state, .. }
            | TransferAction::MigrationPhase2 { state }
            | TransferAction::BackupRestore { state, .. } => state.id,
            TransferAction::MigrationPhase1 { id } => *id,
        }
    }
}

/// An in-flight transfer plus everything needed to retry it after an
/// injected failure.
#[derive(Debug)]
pub(super) struct PendingTransfer {
    pub(super) action: TransferAction,
    route: RouteId,
    /// Logical payload bytes (before link-degradation scaling).
    pub(super) bytes: u64,
    /// Zero-based delivery attempt; bumped on every injected failure.
    attempt: u32,
}

#[derive(Debug, Clone)]
pub(super) struct MigrationCtl {
    pub(super) state: StallFreeMigration,
    /// Source decode instance.
    pub(super) src: usize,
    /// Destination prefill instance.
    pub(super) dst: usize,
    /// The phase-1 bulk or phase-2 tail on the wire; `None` between them,
    /// while the pause waits for a step boundary.
    pub(super) tid: Option<u64>,
}

/// The interconnect and every transfer in flight on it.
#[derive(Debug)]
pub(super) struct Transfers {
    engine: TransferEngine,
    /// Directed inter-instance routes, keyed by `(src, dst)` indices.
    routes: FxHashMap<(usize, usize), RouteId>,
    /// In-flight transfers by id; `Event::TransferDone` names the id.
    pub(super) actions: FxHashMap<u64, PendingTransfer>,
    next: u64,
    /// Current link-degradation multiplier on transfer payloads (1.0 =
    /// healthy).
    pub(super) link_factor: f64,
}

impl Transfers {
    pub(super) fn new(engine: TransferEngine, routes: FxHashMap<(usize, usize), RouteId>) -> Self {
        Transfers {
            engine,
            routes,
            actions: FxHashMap::default(),
            next: 0,
            link_factor: 1.0,
        }
    }

    pub(super) fn route(&self, src: usize, dst: usize) -> crate::Result<RouteId> {
        self.routes
            .get(&(src, dst))
            .copied()
            .ok_or(crate::Error::NoRoute { src, dst })
    }

    /// Puts `pt` on the wire at `at` as transfer `tid` and returns when it
    /// lands. Link degradation scales the wire time, not the payload.
    fn launch(&mut self, tid: u64, pt: PendingTransfer, at: SimTime) -> SimTime {
        let wire_bytes = if self.link_factor > 1.0 {
            (pt.bytes as f64 * self.link_factor).ceil() as u64
        } else {
            pt.bytes
        };
        let done = self.engine.submit(pt.route, wire_bytes, at);
        self.actions.insert(tid, pt);
        done
    }
}

impl Cluster {
    /// Launches a transfer, registers its completion action and returns
    /// its id. `bytes` is the logical payload.
    pub(super) fn submit_transfer(
        &mut self,
        action: TransferAction,
        route: RouteId,
        bytes: u64,
        now: SimTime,
    ) -> u64 {
        let tid = self.transfers.next;
        self.transfers.next += 1;
        let pt = PendingTransfer {
            action,
            route,
            bytes,
            attempt: 0,
        };
        let done = self.transfers.launch(tid, pt, now);
        self.deferred.push((done, Event::TransferDone(tid)));
        tid
    }

    /// Hands `id`'s freshly prefilled KV from prefill replica `src` to
    /// decode replica `dst`. WindServe overlaps the transfer with prefill
    /// computation layer-by-layer, so only the last layer's tail remains;
    /// DistServe moves the whole cache after the prefill, serialized on
    /// the link.
    pub(super) fn start_handoff(
        &mut self,
        id: RequestId,
        prompt: u32,
        output_target: u32,
        src: usize,
        dst: usize,
        now: SimTime,
    ) -> crate::Result<()> {
        let full_bytes = self.count_kv_bytes(src, prompt);
        let overlapped = self.cfg.system.overlapped_transfer();
        let wire_bytes = if overlapped {
            full_bytes / u64::from(self.cfg.model.n_layers.max(1))
        } else {
            full_bytes
        };
        let keep_backup = self.cfg.system.resched_enabled()
            && prompt >= self.cfg.long_context_tokens
            && self.instances[dst].kv_free_fraction() < BACKUP_TRIGGER;
        self.tracer.emit(now, || TraceEvent::KvTransferStarted {
            id,
            src: src as u32,
            dst: dst as u32,
            wire_bytes,
            full_bytes,
            overlapped,
            keep_backup,
        });
        let state = SeqState::arriving_for_decode(id, prompt, output_target, 1, 0);
        let route = self.transfers.route(src, dst)?;
        let action = TransferAction::KvHandoff {
            state,
            src,
            dst,
            keep_backup,
        };
        let tid = self.submit_transfer(action, route, wire_bytes, now);
        self.transition(id, Transition::To(Phase::Handoff { tid }), now);
        Ok(())
    }

    /// The KV bytes of `tokens` tokens on `inst`, counted as moved over the
    /// interconnect.
    pub(super) fn count_kv_bytes(&mut self, inst: usize, tokens: u32) -> u64 {
        let bytes = u64::from(tokens) * self.instances[inst].kv_bytes_per_token();
        self.counters.kv_bytes += bytes;
        bytes
    }

    /// A KV handoff from prefill replica `src` that cannot reach decode
    /// replica `dst`: the KV is still resident at the source, so the
    /// request decodes in place rather than being lost.
    pub(super) fn decode_in_place(&mut self, id: RequestId, src: usize, dst: usize, now: SimTime) {
        self.transition(id, Transition::To(Phase::Decode { inst: src }), now);
        self.note_rescheduled(id, dst, src, false, now);
        self.instances[src].promote_to_decode(id);
    }

    pub(super) fn on_paused(&mut self, paused: PausedSeq, now: SimTime) -> crate::Result<()> {
        let id = paused.state.id;
        let Some(mut m) = self.migration(id).cloned() else {
            // Pause without a live migration: the request completed in the
            // same step; nothing to do.
            return Ok(());
        };
        let tail_tokens = m.state.begin_pause();
        let (src, dst) = (m.src, m.dst);
        self.tracer
            .emit(now, || TraceEvent::MigrationPaused { id, tail_tokens });
        let bytes = self.count_kv_bytes(src, tail_tokens);
        let mut state = paused.state;
        state.migrations += 1;
        if let Some(p) = self.pending.get_mut(id.0) {
            p.swap_outs += state.swap_outs;
            p.migrations += 1;
        }
        state.swap_outs = 0;
        let route = self.transfers.route(src, dst)?;
        let phase2 = TransferAction::MigrationPhase2 { state };
        m.tid = Some(self.submit_transfer(phase2, route, bytes, now));
        self.transition(id, Transition::To(Phase::Migrating(Box::new(m))), now);
        Ok(())
    }

    pub(super) fn on_transfer_done(&mut self, tid: u64, now: SimTime) -> crate::Result<()> {
        let Some(pt) = self.transfers.actions.remove(&tid) else {
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
                let id = Some(pt.action.request_id());
                self.counters.transfer_retries += 1;
                self.tracer.emit(now, || TraceEvent::TransferRetried {
                    id,
                    attempt,
                    backoff_us: backoff.as_micros(),
                });
                let retry = PendingTransfer { attempt, ..pt };
                let done = self.transfers.launch(tid, retry, now + backoff);
                self.deferred.push((done, Event::TransferDone(tid)));
                return Ok(());
            }
            return self.on_transfer_exhausted(pt.action, now);
        }
        self.deliver_transfer(pt.action, now)
    }

    /// Applies a successfully delivered transfer's effects: each but a
    /// migration's bulk lands the request in its destination's decode
    /// queue.
    fn deliver_transfer(&mut self, action: TransferAction, now: SimTime) -> crate::Result<()> {
        let (state, dst) = match action {
            TransferAction::KvHandoff {
                state,
                src,
                dst,
                keep_backup,
            } => {
                let id = state.id;
                if !keep_backup {
                    self.instances[src].release_sequence(id);
                } else if self.instances[src].convert_to_backup(id, BACKUP_WATERMARK) {
                    self.counters.backups_created += 1;
                    let inst = src as u32;
                    self.tracer
                        .emit(now, || TraceEvent::BackupCreated { id, inst });
                }
                (state, dst)
            }
            TransferAction::BackupRestore { state, src, dst } => {
                self.instances[src].drop_backup(state.id);
                (state, dst)
            }
            TransferAction::MigrationPhase1 { id } => {
                // A victim that completed meanwhile has no migration left.
                if let Some(mut m) = self.migration(id).cloned() {
                    let src = m.src;
                    m.tid = None;
                    self.transition(id, Transition::To(Phase::Migrating(Box::new(m))), now);
                    if let Some(paused) = self.instances[src].request_pause(id) {
                        self.on_paused(paused, now)?;
                    }
                }
                return Ok(());
            }
            TransferAction::MigrationPhase2 { state } => {
                let Some(dst) = self.migration(state.id).map(|m| m.dst) else {
                    return Ok(());
                };
                self.instances[dst].drop_backup(state.id);
                self.counters.migrations_completed += 1;
                (state, dst)
            }
        };
        let (id, migrated) = (state.id, self.migration(state.id).is_some());
        self.transition(id, Transition::To(Phase::Decode { inst: dst }), now);
        self.instances[dst].enqueue_decode_arrival(state);
        let dst = dst as u32;
        self.tracer.emit(now, || match migrated {
            true => TraceEvent::MigrationFinished { id, dst },
            false => TraceEvent::KvTransferFinished { id, dst },
        });
        Ok(())
    }

    /// A transfer burned through every retry: fall back without the wire.
    fn on_transfer_exhausted(&mut self, action: TransferAction, now: SimTime) -> crate::Result<()> {
        match action {
            TransferAction::KvHandoff {
                state, src, dst, ..
            } => {
                self.decode_in_place(state.id, src, dst, now);
                Ok(())
            }
            TransferAction::MigrationPhase1 { id } => {
                // Abort the migration; the victim keeps decoding at its
                // source as if it was never selected.
                if let Some(src) = self.migration(id).map(|m| m.src) {
                    self.instances[src].unmark_migrating(id);
                    self.transition(id, Transition::To(Phase::Decode { inst: src }), now);
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

    pub(super) fn maybe_reschedule(
        &mut self,
        decode_idx: usize,
        now: SimTime,
    ) -> crate::Result<()> {
        while self.migrating < MAX_CONCURRENT_MIGRATIONS
            && self
                .coordinator
                .needs_rescheduling(&self.instances[decode_idx])
        {
            let kv_free_fraction = self.instances[decode_idx].kv_free_fraction();
            self.tracer.emit(now, || TraceEvent::ReschedTriggered {
                inst: decode_idx as u32,
                kv_free_fraction,
                watermark: RESCHED_WATERMARK,
            });
            // An aborted request still mid-step is no victim.
            let Some((victim, ctx)) = self
                .coordinator
                .pick_victim(&self.instances[decode_idx])
                .filter(|(v, _)| self.pending.contains_key(v.0))
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
        let state = StallFreeMigration::new(ctx, PAUSE_THRESHOLD_TOKENS.min(delta));
        let bulk_tokens = delta.saturating_sub(PAUSE_THRESHOLD_TOKENS);
        self.tracer.emit(now, || TraceEvent::MigrationStarted {
            id,
            src: src as u32,
            dst: dst as u32,
            context_tokens: ctx,
            bulk_tokens,
            backup_hit,
        });
        let bytes = self.count_kv_bytes(src, bulk_tokens);
        self.counters.migrations_started += 1;
        let route = self.transfers.route(src, dst)?;
        let tid = self.submit_transfer(TransferAction::MigrationPhase1 { id }, route, bytes, now);
        let m = MigrationCtl {
            state,
            src,
            dst,
            tid: Some(tid),
        };
        self.transition(id, Transition::To(Phase::Migrating(Box::new(m))), now);
        Ok(())
    }
}
