//! The serving instance.
//!
//! An [`Instance`] owns one model replica (a `(model, GPU, parallelism)`
//! placement priced by a [`CostModel`]), its paged KV cache, and a local
//! FCFS scheduler with continuous batching — the per-instance machinery
//! the paper's §3.1 describes. The cluster event loop drives it through a
//! narrow API: enqueue work, `try_start` steps, deliver step-completion
//! events, and orchestrate transfers/migrations between instances.
//!
//! Execution contexts: `pp` pipeline *lanes* run main-stream batches
//! concurrently (pipeline parallelism keeps `pp` batches in flight), and a
//! decode instance optionally runs guest prefills in an *auxiliary CUDA
//! stream* (stream-based disaggregation, §3.4) whose interference with the
//! main stream follows the [`StreamSharing`] contention model.

use crate::config::{InstanceConfig, InstanceRole};
use crate::ledger::{Ledger, Roster, Seat};
use crate::outcome::StepKind;
use crate::seq::{SeqPhase, SeqState};
use crate::stats::InstanceStats;
use std::collections::VecDeque;
use windserve_gpu::{KernelCost, StreamSharing};
use windserve_kvcache::{BackupStore, BlockManager};
use windserve_model::CostModel;
use windserve_sim::hash::FxHashSet;
use windserve_sim::{KeyedSlab, SimDuration, SimTime};
use windserve_workload::RequestId;

/// Tokens per KV block (vLLM's default block size).
pub(crate) const BLOCK_TOKENS: u32 = 16;

/// Key used for a request's backup copy in the KV manager — disjoint from
/// live-sequence keys.
pub(crate) fn backup_key(id: RequestId) -> u64 {
    id.0 | (1 << 63)
}

/// A decoding sequence as its lane holds it: the request, the slot of its
/// [`SeqState`] in [`Instance::seqs`], the slot of its KV table in the
/// block manager, and its join stamp, which orders the lane's batch. Both
/// slots stay valid while the sequence is decoding; a step member
/// preempted mid-step keeps a stale KV slot, which completion never reads
/// (it appends only to members still decoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Member {
    pub(crate) id: RequestId,
    pub(crate) seq: u32,
    pub(crate) kv: u32,
    pub(crate) join: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunningStep {
    pub(crate) kind: StepKind,
    pub(crate) started: SimTime,
    pub(crate) ends_at: SimTime,
    pub(crate) kernel: KernelCost,
    /// The step's decode members are its lane's members that joined
    /// before this stamp, plus `departed`.
    pub(crate) join_bound: u64,
    /// Step members preempted out of the lane mid-step, in join order:
    /// they still gain the step's token when it lands.
    pub(crate) departed: Vec<Member>,
    /// `(request, new prompt tokens processed this step)`.
    pub(crate) prefill_ids: Vec<(RequestId, u32)>,
}

#[derive(Debug, Clone)]
pub(crate) struct Lane {
    /// Members in batch order.
    pub(crate) roster: Roster,
    pub(crate) step: Option<RunningStep>,
    pub(crate) ledger: Ledger,
    /// `(join, sequence slot)` of members that joined with no decode
    /// iteration behind them, in join order; step formation flags them.
    pub(crate) fresh: Vec<(u64, u32)>,
}

impl Lane {
    fn new() -> Self {
        Lane {
            roster: Roster::default(),
            step: None,
            ledger: Ledger::new(),
            fresh: Vec::new(),
        }
    }
}

/// One serving instance (prefill, decode, or colocated).
///
/// `Instance` must stay [`Send`]: the layers above move whole
/// deployments — instances included — onto other threads (fleet worker
/// threads, the gateway's driver thread; see the compile-time assertion
/// at the bottom of this file).
#[derive(Debug)]
pub struct Instance {
    pub(crate) cfg: InstanceConfig,
    pub(crate) cost: CostModel,
    pub(crate) sharing: StreamSharing,
    pub(crate) kv: BlockManager,
    pub(crate) backups: BackupStore,
    /// Live sequences, keyed by raw request id.
    pub(crate) seqs: KeyedSlab<SeqState>,
    pub(crate) waiting_prefill: VecDeque<RequestId>,
    /// Σ `prompt_remaining()` over `waiting_prefill`, kept in step with
    /// every push and removal so the Algorithm 1 backlog query is O(1).
    pub(crate) waiting_prefill_tokens: u64,
    pub(crate) waiting_decode: VecDeque<RequestId>,
    pub(crate) swapped: VecDeque<RequestId>,
    pub(crate) lanes: Vec<Lane>,
    /// Lane members' seats, by sequence slot.
    pub(crate) seats: Vec<Option<Seat>>,
    /// The next lane member's join stamp.
    pub(crate) next_join: u64,
    pub(crate) aux_step: Option<RunningStep>,
    pub(crate) migrating: FxHashSet<u64>,
    pub(crate) pause_requests: FxHashSet<u64>,
    /// Swap-transfer time charged to the next step on this instance.
    pub(crate) pending_delay: SimDuration,
    pub(crate) host_bandwidth: f64,
    pub(crate) stats: InstanceStats,
    /// Members of the forming step whose first decode iteration this is.
    pub(crate) newly_scratch: Vec<RequestId>,
}

impl Instance {
    /// Builds an instance; KV capacity is derived from the cost model.
    ///
    /// # Errors
    ///
    /// Returns an error if the host bandwidth is invalid or the placement
    /// leaves no room for KV blocks.
    pub fn new(
        cfg: InstanceConfig,
        cost: CostModel,
        sharing: StreamSharing,
        host_bandwidth: f64,
    ) -> crate::Result<Self> {
        if !(host_bandwidth.is_finite() && host_bandwidth > 0.0) {
            return Err(crate::Error::InvalidConfig {
                instance: cfg.name.clone(),
                reason: "invalid host bandwidth".to_string(),
            });
        }
        let blocks = (cost.kv_capacity_tokens() / u64::from(BLOCK_TOKENS)) as usize;
        if blocks == 0 {
            return Err(crate::Error::InvalidConfig {
                instance: cfg.name.clone(),
                reason: "no room for KV blocks".to_string(),
            });
        }
        let lanes = cost.parallelism().lanes();
        Ok(Instance {
            kv: BlockManager::new(blocks, BLOCK_TOKENS),
            backups: BackupStore::new(),
            seqs: KeyedSlab::new(),
            waiting_prefill: VecDeque::new(),
            waiting_prefill_tokens: 0,
            waiting_decode: VecDeque::new(),
            swapped: VecDeque::new(),
            lanes: vec![Lane::new(); lanes],
            seats: Vec::new(),
            next_join: 0,
            aux_step: None,
            migrating: FxHashSet::default(),
            pause_requests: FxHashSet::default(),
            pending_delay: SimDuration::ZERO,
            host_bandwidth,
            stats: InstanceStats::default(),
            cfg,
            cost,
            sharing,
            newly_scratch: Vec::new(),
        })
    }

    /// The instance's display name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// The scheduling role.
    pub fn role(&self) -> InstanceRole {
        self.cfg.role
    }

    /// The cost model backing this instance.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Immutable view of the KV manager (for swap counters etc.).
    pub fn kv(&self) -> &BlockManager {
        &self.kv
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &InstanceStats {
        &self.stats
    }

    /// Bytes of KV per token for the served model.
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.cost.model().kv_bytes_per_token()
    }

    // ------------------------------------------------------------------
    // Work intake
    // ------------------------------------------------------------------

    /// Accepts a fresh request for prompt processing on this instance.
    ///
    /// # Panics
    ///
    /// Panics if the request is already known here.
    pub fn enqueue_prefill(&mut self, id: RequestId, prompt_tokens: u32, output_target: u32) {
        self.enqueue_prefill_cached(id, prompt_tokens, 0, output_target);
    }

    /// Accepts a fresh request whose first `cached_tokens` prompt tokens
    /// are already resident in this instance's session prefix cache:
    /// prefill computes only the remaining suffix (attention still spans
    /// the full prompt via `past_tokens`).
    ///
    /// # Panics
    ///
    /// Panics if the request is already known here or the cached prefix
    /// covers the whole prompt.
    pub fn enqueue_prefill_cached(
        &mut self,
        id: RequestId,
        prompt_tokens: u32,
        cached_tokens: u32,
        output_target: u32,
    ) {
        let seq = SeqState::new_with_cached(id, prompt_tokens, cached_tokens, output_target);
        let remaining = u64::from(seq.prompt_remaining());
        assert!(!self.seqs.contains_key(id.0), "{id} enqueued twice");
        self.seqs.insert(id.0, seq);
        self.waiting_prefill.push_back(id);
        self.waiting_prefill_tokens += remaining;
    }

    /// Accepts a mid-life sequence for decoding (KV handoff from a prefill
    /// instance, or a migration). Its KV is allocated at admission time.
    ///
    /// # Panics
    ///
    /// Panics if the request is already known here.
    pub fn enqueue_decode_arrival(&mut self, state: SeqState) {
        let id = state.id;
        assert_eq!(state.phase, SeqPhase::DecodeWaiting, "not a decode arrival");
        assert!(!self.seqs.contains_key(id.0), "{id} enqueued twice");
        self.seqs.insert(id.0, state);
        self.waiting_decode.push_back(id);
    }

    /// Moves a locally-prefilled request (KV already resident) into the
    /// decode queue. Used for dispatched prefills on the decode instance
    /// and for every prefill on a colocated instance.
    ///
    /// # Panics
    ///
    /// Panics if the request is unknown or its prompt is not fully
    /// processed.
    pub fn promote_to_decode(&mut self, id: RequestId) {
        let seq = self.seq_mut(id);
        assert_eq!(seq.prompt_remaining(), 0, "{id} prompt not fully prefilled");
        assert!(!seq.is_done(), "{id} already complete");
        seq.phase = SeqPhase::DecodeWaiting;
        self.waiting_decode.push_back(id);
    }

    /// Releases a sequence's KV and forgets it (e.g. after its KV handoff
    /// to the decode instance completed). Idempotent.
    pub fn release_sequence(&mut self, id: RequestId) {
        self.kv.release(id.0);
        self.seqs.remove(id.0);
    }

    /// Instead of releasing after handoff, retain the KV as a best-effort
    /// backup if doing so keeps at least `free_watermark` of blocks free.
    /// Returns true if the backup was kept.
    pub fn convert_to_backup(&mut self, id: RequestId, free_watermark: f64) -> bool {
        let Some(tokens) = self.kv.tokens_of(id.0) else {
            self.seqs.remove(id.0);
            return false;
        };
        self.kv.release(id.0);
        self.seqs.remove(id.0);
        let needed = self.kv.blocks_for(tokens);
        let after = (self.kv.free_blocks() - needed.min(self.kv.free_blocks())) as f64
            / self.kv.total_blocks() as f64;
        if self.kv.can_fit(tokens) && after >= free_watermark {
            self.kv
                .allocate(backup_key(id), tokens)
                .expect("can_fit checked");
            self.backups.insert(id.0, tokens);
            true
        } else {
            false
        }
    }

    /// Tokens a migration of `id` (currently at `current_tokens` context)
    /// still has to move here, after crediting any backup.
    pub fn backup_delta_tokens(&self, id: RequestId, current_tokens: u32) -> u32 {
        self.backups.delta_tokens(id.0, current_tokens)
    }

    /// Drops `id`'s backup (if any), freeing its blocks.
    pub fn drop_backup(&mut self, id: RequestId) {
        if self.backups.remove(id.0).is_some() {
            self.kv.release(backup_key(id));
        }
    }

    /// Drops every backup and frees its blocks (e.g. when the instance is
    /// drained for deactivation).
    pub fn clear_backups(&mut self) {
        while let Some(backup) = self.backups.evict_oldest() {
            self.kv.release(backup.key | (1 << 63));
        }
    }

    /// Tokens held in `id`'s backup here, if one exists. A pure query: it
    /// does not refresh eviction order.
    pub fn backup_tokens_of(&self, id: RequestId) -> Option<u32> {
        self.backups.tokens_of(id.0)
    }

    /// Clears the migrating mark from `id` (the migration was abandoned,
    /// e.g. because its destination crashed).
    pub fn unmark_migrating(&mut self, id: RequestId) {
        self.migrating.remove(&id.0);
    }

    /// Injects a one-off straggler delay: the next step launched on this
    /// instance is stretched by `delay` on top of its modeled cost.
    pub fn inject_delay(&mut self, delay: SimDuration) {
        self.pending_delay += delay;
    }

    /// Withdraws a deferred pause request for `id` (its migration was
    /// cancelled before the step boundary consumed the request). Without
    /// this, the sequence would detach at the next boundary with nobody
    /// left to receive it.
    pub fn cancel_pause(&mut self, id: RequestId) {
        self.pause_requests.remove(&id.0);
    }

    /// Crashes the instance: every resident sequence, queue entry, running
    /// step, swap and KV block (backups included) is lost, and the empty
    /// shell is left ready for a later recovery.
    ///
    /// Returns the sequences that were alive here, sorted by request id so
    /// the caller's recovery pass is deterministic regardless of hash-map
    /// iteration order.
    pub fn fail_and_drain(&mut self) -> Vec<SeqState> {
        for lane in 0..self.lanes.len() {
            self.sync_lane(lane);
        }
        let mut lost: Vec<SeqState> = self.seqs.drain().map(|(_, state)| state).collect();
        lost.sort_by_key(|s| s.id.0);
        self.waiting_prefill.clear();
        self.waiting_prefill_tokens = 0;
        self.waiting_decode.clear();
        self.swapped.clear();
        for lane in &mut self.lanes {
            *lane = Lane::new();
        }
        self.seats.clear();
        self.aux_step = None;
        self.migrating.clear();
        self.pause_requests.clear();
        self.pending_delay = SimDuration::ZERO;
        while self.backups.evict_oldest().is_some() {}
        // HBM contents do not survive the crash; start from a fresh block
        // map rather than unwinding allocations one key at a time.
        self.kv = BlockManager::new(self.kv.total_blocks(), BLOCK_TOKENS);
        self.stats.crashes += 1;
        lost
    }

    /// True if the instance holds no work at all: nothing queued, nothing
    /// running, nothing swapped, nothing in flight.
    pub fn is_drained(&self) -> bool {
        self.waiting_prefill.is_empty()
            && self.waiting_decode.is_empty()
            && self.swapped.is_empty()
            && self
                .lanes
                .iter()
                .all(|l| l.roster.is_empty() && l.step.is_none())
            && self.aux_step.is_none()
            && self.seqs.is_empty()
    }

    // ------------------------------------------------------------------
    // Migration hooks (decode side)
    // ------------------------------------------------------------------

    /// Marks `id` as migrating: it keeps decoding but is excluded from
    /// preemption and further victim selection.
    pub fn mark_migrating(&mut self, id: RequestId) {
        self.migrating.insert(id.0);
    }

    /// Asks the instance to pause `id` for migration. If the sequence is
    /// actively decoding, the pause is deferred to the next step boundary
    /// (it surfaces in that step's [`crate::StepOutcome::paused`] list); if
    /// it is waiting or swapped out, it detaches immediately and is
    /// returned here.
    pub fn request_pause(&mut self, id: RequestId) -> Option<crate::outcome::PausedSeq> {
        if self.in_lane(id) || self.departed_in_flight(id) {
            self.pause_requests.insert(id.0);
            return None;
        }
        if !self.seqs.contains_key(id.0) {
            return None;
        }
        Some(self.detach_for_pause(id))
    }

    // ------------------------------------------------------------------
    // Queries used by the global scheduler
    // ------------------------------------------------------------------

    /// Prompt tokens still to process across the prefill waiting queue —
    /// the Profiler's queue-depth input for TTFT prediction. O(1): read
    /// from a running count, not by walking the queue.
    pub fn prefill_backlog_tokens(&self) -> u64 {
        self.waiting_prefill_tokens
    }

    /// Time until some lane frees up (zero if one is idle) — the
    /// "anticipated remaining time of the currently prefilling batch".
    pub fn earliest_availability(&self, now: SimTime) -> SimDuration {
        self.lanes
            .iter()
            .map(|l| match &l.step {
                Some(step) => step.ends_at.saturating_since(now),
                None => SimDuration::ZERO,
            })
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Fraction of KV blocks free.
    pub fn kv_free_fraction(&self) -> f64 {
        self.kv.free_fraction()
    }

    /// Tokens the KV cache could still admit.
    pub fn kv_free_tokens(&self) -> u64 {
        self.kv.free_token_capacity()
    }

    /// Length of the decode waiting queue.
    pub fn waiting_decode_len(&self) -> usize {
        self.waiting_decode.len()
    }

    /// Length of the prefill waiting queue.
    pub fn waiting_prefill_len(&self) -> usize {
        self.waiting_prefill.len()
    }

    /// Number of sequences currently swapped out to host.
    pub fn swapped_len(&self) -> usize {
        self.swapped.len()
    }

    /// Actively decoding sequences and their contexts, excluding ones
    /// already migrating (victim candidates for dynamic rescheduling).
    pub fn running_decodes(&self) -> Vec<(RequestId, u32)> {
        self.lanes
            .iter()
            .flat_map(|l| l.roster.slots())
            .map(|slot| (self.seqs.at(slot).id, slot))
            .filter(|(id, _)| !self.migrating.contains(&id.0))
            .map(|(id, slot)| (id, self.context_at(slot)))
            .collect()
    }

    /// Number of actively decoding sequences.
    pub fn running_decode_count(&self) -> usize {
        self.total_running()
    }

    /// Guest-prefill tokens not yet processed (queued + in-flight in the
    /// aux stream) — used for slot accounting by the Coordinator.
    pub fn guest_prefill_backlog_tokens(&self) -> u64 {
        let mut total = self.prefill_backlog_tokens();
        if let Some(step) = &self.aux_step {
            total += step
                .prefill_ids
                .iter()
                .map(|&(_, n)| u64::from(n))
                .sum::<u64>();
        }
        total
    }

    /// The context length of sequence `id`, if it lives here.
    pub fn context_of(&self, id: RequestId) -> Option<u32> {
        self.seqs.slot_of(id.0).map(|slot| self.context_at(slot))
    }

    /// True if sequence `id` lives here and has produced all of its output
    /// tokens (e.g. a one-token request fully answered by its prefill).
    pub fn sequence_is_done(&self, id: RequestId) -> bool {
        self.seqs.slot_of(id.0).is_some_and(|slot| {
            let seq = self.seqs.at(slot);
            seq.generated + self.owed(slot) >= seq.output_target
        })
    }

    // ------------------------------------------------------------------
    // Overload-control hooks
    // ------------------------------------------------------------------

    /// True if sequence `id` lives on this instance in any state.
    pub fn has_sequence(&self, id: RequestId) -> bool {
        self.seqs.contains_key(id.0)
    }

    /// True if `id` is a member of a currently *executing* step (main lane
    /// or aux stream) — such a sequence is actively making progress and
    /// must not be aborted out from under its completion event.
    pub fn in_running_step(&self, id: RequestId) -> bool {
        let seated_in_step = self
            .seqs
            .slot_of(id.0)
            .and_then(|slot| self.seat(slot))
            .is_some_and(|seat| {
                self.lanes[seat.lane]
                    .step
                    .as_ref()
                    .is_some_and(|s| seat.member.join < s.join_bound)
            });
        let in_step = |s: &RunningStep| {
            s.departed.iter().any(|m| m.id == id) || s.prefill_ids.iter().any(|&(p, _)| p == id)
        };
        seated_in_step
            || self
                .lanes
                .iter()
                .any(|l| l.step.as_ref().is_some_and(in_step))
            || self.aux_step.as_ref().is_some_and(in_step)
    }

    /// Queued prefills that have not processed a single prompt token
    /// beyond their cached prefix — the shed candidates (cancelling them
    /// wastes no computed work). In queue order.
    pub fn queued_prefill_ids(&self) -> Vec<RequestId> {
        self.waiting_prefill
            .iter()
            .filter(|id| self.seqs.get(id.0).is_some_and(|s| s.prefill_untouched()))
            .copied()
            .collect()
    }

    /// Cancels a queued prefill that has not started processing. Returns
    /// `false` (and changes nothing) if the request is unknown, already
    /// progressing, or not in the prefill queue.
    pub fn cancel_queued_prefill(&mut self, id: RequestId) -> bool {
        let untouched = self
            .seqs
            .get(id.0)
            .is_some_and(|s| s.phase == SeqPhase::Prefilling && s.prefill_untouched());
        if !untouched || !self.remove_waiting_prefill(id) {
            return false;
        }
        // Unstarted jobs have no KV allocation; release defensively anyway.
        self.kv.release(id.0);
        self.seqs.remove(id.0);
        true
    }

    /// Forcibly removes `id` from this instance: queues, lanes, swap
    /// space, KV table and backup. Refuses (returns `false`, leaving the
    /// sequence untouched) when `id` is inside a currently executing step;
    /// the caller should retry after that step lands. Any backup copy is
    /// dropped regardless.
    pub fn abort_sequence(&mut self, id: RequestId) -> bool {
        self.drop_backup(id);
        if self.in_running_step(id) || !self.seqs.contains_key(id.0) {
            return false;
        }
        // Before the state goes: the backlog count needs its remainder.
        self.remove_waiting_prefill(id);
        if let Some(slot) = self.seqs.slot_of(id.0) {
            self.leave_lane(slot);
        }
        self.seqs.remove(id.0);
        self.swapped.retain(|r| *r != id);
        self.waiting_decode.retain(|r| *r != id);
        self.kv.release(id.0);
        self.kv.forget_swapped(id.0);
        self.migrating.remove(&id.0);
        self.pause_requests.remove(&id.0);
        true
    }

    /// Instance-local structural invariants, checked by the cluster-wide
    /// auditor:
    ///
    /// 1. block conservation in the KV manager;
    /// 2. no sequence is in two scheduling locations at once (prefill
    ///    queue, decode queue, swap queue, lane membership);
    /// 3. every queued/running id has a live [`SeqState`], with a phase
    ///    consistent with its location and sane token counters;
    /// 4. every resident KV table belongs to a live sequence or a live
    ///    backup;
    /// 5. the running prefill backlog count equals Σ `prompt_remaining()`
    ///    over the prefill waiting queue;
    /// 6. every lane member's and running-step member's slots resolve to
    ///    the live sequence with its id and, while it decodes, to that
    ///    sequence's KV table, whose tokens trail its context by at most
    ///    one (the first token of a local prefill), both as of its lane's
    ///    clock;
    /// 7. every lane's step ledger equals the one its members' synced
    ///    state gives: member count, ΣL, both residue counts, the finish
    ///    index, each member's terms, and the block manager's deferred
    ///    growth debit.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let name = self.name();
        self.kv
            .check_invariants()
            .map_err(|e| format!("{name}: {e}"))?;
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut check = |id: RequestId, place: &str| -> Result<(), String> {
            if !seen.insert(id.0) {
                return Err(format!("{name}: {id} appears twice (last seen in {place})"));
            }
            let Some(seq) = self.seqs.get(id.0) else {
                return Err(format!("{name}: {id} in {place} has no sequence state"));
            };
            if seq.prefilled > seq.prompt_tokens {
                return Err(format!(
                    "{name}: {id} prefilled {} of a {}-token prompt",
                    seq.prefilled, seq.prompt_tokens
                ));
            }
            if seq.generated > seq.output_target {
                return Err(format!(
                    "{name}: {id} generated {} of {} output tokens",
                    seq.generated, seq.output_target
                ));
            }
            let phase_ok = match place {
                "waiting_prefill" => seq.phase == SeqPhase::Prefilling,
                "waiting_decode" => seq.phase == SeqPhase::DecodeWaiting,
                "swapped" => seq.phase == SeqPhase::Swapped,
                _ => seq.phase == SeqPhase::Decoding,
            };
            if !phase_ok {
                return Err(format!("{name}: {id} in {place} has phase {:?}", seq.phase));
            }
            Ok(())
        };
        for &id in &self.waiting_prefill {
            check(id, "waiting_prefill")?;
        }
        let backlog: u64 = self
            .waiting_prefill
            .iter()
            .filter_map(|id| self.seqs.get(id.0))
            .map(|seq| u64::from(seq.prompt_remaining()))
            .sum();
        if backlog != self.waiting_prefill_tokens {
            return Err(format!(
                "{name}: prefill backlog count {} but the queue holds {backlog} tokens",
                self.waiting_prefill_tokens
            ));
        }
        for &id in &self.waiting_decode {
            check(id, "waiting_decode")?;
        }
        for &id in &self.swapped {
            check(id, "swapped")?;
        }
        for lane in &self.lanes {
            for slot in lane.roster.slots() {
                let Some(seat) = self.seat(slot) else {
                    return Err(format!("{name}: lane member in slot {slot} has no seat"));
                };
                check(seat.member.id, "lane")?;
                self.check_member(seat.member, "lane")?;
            }
        }
        let steps = self.lanes.iter().filter_map(|l| l.step.as_ref());
        for step in steps.chain(&self.aux_step) {
            for &m in &step.departed {
                self.check_member(m, "running step")?;
            }
        }
        self.check_ledgers()?;
        for key in self.kv.resident_keys() {
            if key & (1 << 63) != 0 {
                let raw = key & !(1 << 63);
                if self.backups.tokens_of(raw).is_none() {
                    return Err(format!("{name}: KV backup table {raw} has no backup entry"));
                }
            } else if !self.seqs.contains_key(key) {
                return Err(format!("{name}: KV table {key} has no live sequence"));
            }
        }
        Ok(())
    }

    /// Invariant 6 of [`Instance::check_invariants`] for one member.
    fn check_member(&self, m: Member, place: &str) -> Result<(), String> {
        let (name, id) = (self.name(), m.id);
        let seq_slot = self.seqs.slot_of(id.0);
        if seq_slot != Some(m.seq) {
            return Err(format!(
                "{name}: {id} in {place} has stale sequence slot {} (live: {seq_slot:?})",
                m.seq
            ));
        }
        let seq = self.seqs.at(m.seq);
        // A step member preempted mid-step no longer decodes and holds no
        // table until its step lands.
        if seq.phase != SeqPhase::Decoding {
            return Ok(());
        }
        let kv_slot = self.kv.slot_of(id.0);
        if kv_slot != Some(m.kv) {
            return Err(format!(
                "{name}: {id} in {place} has stale KV slot {} (live: {kv_slot:?})",
                m.kv
            ));
        }
        let owed = self.owed(m.seq);
        let (tokens, context) = (self.kv.fill_at(m.kv).0 + owed, seq.context() + owed);
        if !(tokens..=tokens + 1).contains(&context) {
            return Err(format!(
                "{name}: {id} in {place} has context {context} over {tokens} KV tokens"
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internal helpers shared with the step module
    // ------------------------------------------------------------------

    /// The live sequence `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not live here.
    pub(crate) fn seq(&self, id: RequestId) -> &SeqState {
        self.seqs.get(id.0).expect("unknown sequence")
    }

    /// The live sequence `id`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not live here.
    pub(crate) fn seq_mut(&mut self, id: RequestId) -> &mut SeqState {
        self.seqs.get_mut(id.0).expect("unknown sequence")
    }

    /// True if `id` is a member of some lane.
    pub(crate) fn in_lane(&self, id: RequestId) -> bool {
        self.seqs
            .slot_of(id.0)
            .is_some_and(|slot| self.seat(slot).is_some())
    }

    /// True if `id` was preempted out of a lane whose step it is still a
    /// member of.
    pub(crate) fn departed_in_flight(&self, id: RequestId) -> bool {
        self.lanes.iter().any(|l| {
            l.step
                .as_ref()
                .is_some_and(|s| s.departed.iter().any(|m| m.id == id))
        })
    }

    /// Removes `id` from the prefill waiting queue in one pass, taking its
    /// remaining prompt off the backlog count. Returns whether it was
    /// queued. The sequence state must still be present.
    fn remove_waiting_prefill(&mut self, id: RequestId) -> bool {
        let Some(pos) = self.waiting_prefill.iter().position(|r| *r == id) else {
            return false;
        };
        self.waiting_prefill.remove(pos);
        self.waiting_prefill_tokens -= u64::from(self.seq(id).prompt_remaining());
        true
    }

    /// Swap-transfer duration for `tokens` tokens over the host link.
    pub(crate) fn swap_duration(&self, tokens: u32) -> SimDuration {
        let bytes = u64::from(tokens) * self.kv_bytes_per_token();
        SimDuration::from_secs_f64(bytes as f64 / self.host_bandwidth)
    }

    /// Frees KV blocks by evicting backups (oldest first) until `tokens`
    /// more tokens fit, or no backups remain. Returns whether they now fit.
    pub(crate) fn evict_backups_for(&mut self, tokens: u32) -> bool {
        while !self.kv.can_fit(tokens) {
            match self.backups.evict_oldest() {
                Some(backup) => {
                    self.kv.release(backup.key | (1 << 63));
                }
                None => return false,
            }
        }
        true
    }

    /// The lane with the fewest running sequences.
    pub(crate) fn least_loaded_lane(&self) -> usize {
        self.lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.roster.len())
            .map(|(i, _)| i)
            .expect("at least one lane")
    }

    /// Total running sequences across lanes.
    pub(crate) fn total_running(&self) -> usize {
        self.lanes.iter().map(|l| l.roster.len()).sum()
    }
}

// Deployments (and their instances) run on threads other than the one
// that built them: the gateway moves its session into a driver thread.
// Keep this assertion: adding an `Rc`, `RefCell`-of-Rc, or raw pointer
// anywhere inside `Instance` would break that, and this surfaces it at
// compile time with a readable error.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Instance>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use windserve_gpu::GpuSpec;
    use windserve_model::{ModelSpec, Parallelism};

    pub(crate) fn test_instance(role: InstanceRole) -> Instance {
        let cfg = match role {
            InstanceRole::Prefill => InstanceConfig::prefill("p"),
            InstanceRole::Decode => InstanceConfig::decode("d"),
            InstanceRole::Colocated => InstanceConfig::colocated("c"),
        };
        let cost = CostModel::new(
            ModelSpec::opt_13b(),
            GpuSpec::a800_80gb(),
            Parallelism::tp(2),
        )
        .unwrap();
        Instance::new(cfg, cost, StreamSharing::default(), 20e9).unwrap()
    }

    #[test]
    fn construction_sizes_kv_from_cost_model() {
        let inst = test_instance(InstanceRole::Decode);
        assert!(inst.kv.total_blocks() > 5_000);
        assert_eq!(inst.lanes.len(), 1);
    }

    #[test]
    fn enqueue_tracks_backlog() {
        let mut inst = test_instance(InstanceRole::Prefill);
        inst.enqueue_prefill(RequestId(1), 700, 10);
        inst.enqueue_prefill(RequestId(2), 300, 10);
        inst.enqueue_prefill_cached(RequestId(3), 400, 250, 10);
        assert_eq!(
            inst.prefill_backlog_tokens(),
            1150,
            "cached prefix excluded"
        );
        assert_eq!(inst.waiting_prefill_len(), 3);

        // A migrated decode holds the lane, so prefill runs in 512-token
        // chunks: the head job leaves the queue, then returns with 188 left.
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(9), 100, 50, 1, 1));
        let started = inst.try_start(SimTime::ZERO);
        assert_eq!(started.len(), 1);
        assert_eq!(inst.prefill_backlog_tokens(), 450);
        inst.complete_step(started[0].lane, started[0].ends_at);
        assert_eq!(inst.prefill_backlog_tokens(), 638);
        inst.check_invariants().unwrap();

        // Cancel refuses the partially prefilled head, takes an untouched job.
        assert!(!inst.cancel_queued_prefill(RequestId(1)));
        assert!(inst.cancel_queued_prefill(RequestId(2)));
        assert!(!inst.cancel_queued_prefill(RequestId(2)));
        assert_eq!(inst.prefill_backlog_tokens(), 338);
        // Abort removes the partial job's remainder; aborting a decode
        // leaves the backlog alone.
        assert!(inst.abort_sequence(RequestId(1)));
        assert_eq!(inst.prefill_backlog_tokens(), 150);
        assert!(inst.abort_sequence(RequestId(9)));
        assert_eq!(inst.prefill_backlog_tokens(), 150);
        inst.check_invariants().unwrap();

        assert_eq!(inst.fail_and_drain().len(), 1);
        assert_eq!(inst.prefill_backlog_tokens(), 0);
        inst.check_invariants().unwrap();
    }

    #[test]
    fn auditor_catches_a_drifted_backlog_count() {
        let mut inst = test_instance(InstanceRole::Prefill);
        inst.enqueue_prefill(RequestId(1), 700, 10);
        inst.waiting_prefill_tokens += 1;
        let err = inst.check_invariants().unwrap_err();
        assert!(err.starts_with("p: prefill backlog count 701"), "{err}");
    }

    #[test]
    fn auditor_catches_a_stale_slot() {
        let mut inst = test_instance(InstanceRole::Decode);
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(1), 100, 50, 1, 0));
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(2), 300, 50, 1, 0));
        assert_eq!(inst.try_start(SimTime::ZERO).len(), 1);
        inst.check_invariants().unwrap();

        // A lane member pointing at another sequence's KV table.
        let slot = |inst: &Instance, id: u64| inst.seqs.slot_of(id).unwrap() as usize;
        let other = inst.seats[slot(&inst, 2)].unwrap().member.kv;
        let r1 = slot(&inst, 1);
        inst.seats[r1].as_mut().unwrap().member.kv = other;
        let err = inst.check_invariants().unwrap_err();
        assert!(err.starts_with("d: r1 in lane has stale KV slot"), "{err}");

        // A step member preempted mid-step, pointing at another sequence's
        // state.
        let mut inst = test_instance(InstanceRole::Decode);
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(1), 100, 50, 1, 0));
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(2), 300, 50, 1, 0));
        inst.try_start(SimTime::ZERO);
        assert!(inst.preempt_for_pressure(RequestId(2)));
        inst.check_invariants().unwrap();
        let r1 = slot(&inst, 1) as u32;
        let step = inst.lanes[0].step.as_mut().unwrap();
        step.departed[0].seq = r1;
        let err = inst.check_invariants().unwrap_err();
        assert!(
            err.starts_with("d: r2 in running step has stale sequence slot"),
            "{err}"
        );
    }

    /// Three members decode a few quiet steps, so the lane owes each of
    /// them tokens; every drift of the ledger away from their state is
    /// caught and names the lane.
    #[test]
    fn auditor_catches_a_drifted_ledger() {
        let quiet = || {
            let mut inst = test_instance(InstanceRole::Decode);
            for (id, ctx) in [(1, 100), (2, 31), (3, 47)] {
                inst.enqueue_decode_arrival(SeqState::arriving_for_decode(
                    RequestId(id),
                    ctx,
                    50,
                    1,
                    0,
                ));
            }
            for _ in 0..3 {
                let started = inst.try_start(SimTime::ZERO);
                inst.complete_step(started[0].lane, started[0].ends_at);
            }
            inst.check_invariants().unwrap();
            assert_eq!(inst.context_of(RequestId(2)), Some(35));
            assert_eq!(inst.seqs.get(2).unwrap().context(), 32, "tokens deferred");
            inst
        };
        type Drift = fn(&mut Instance);
        let drifts: [(&str, Drift); 6] = [
            ("a state ahead of its ledger", |inst| {
                inst.seqs.get_mut(3).unwrap().generated += 1;
            }),
            ("a lost member", |inst| inst.lanes[0].ledger.members -= 1),
            ("a stale sync", |inst| {
                let slot = inst.seqs.slot_of(3).unwrap() as usize;
                inst.seats[slot].as_mut().unwrap().synced_at += 1;
            }),
            ("a shifted residue", |inst| {
                let res = &mut inst.lanes[0].ledger.kv_res;
                let r = res.iter().position(|&n| n > 0).unwrap();
                let next = (r + 1) % res.len();
                res[r] -= 1;
                res[next] += 1;
            }),
            ("a drifted finish", |inst| {
                let slot = inst.seqs.slot_of(2).unwrap() as usize;
                inst.seats[slot].as_mut().unwrap().terms.finish += 1;
            }),
            ("a leaked debit", |inst| {
                inst.kv.debit_growth(1).unwrap();
            }),
        ];
        for (what, drift) in drifts {
            let mut inst = quiet();
            drift(&mut inst);
            let err = inst.check_invariants().expect_err(what);
            assert!(
                err.starts_with("d: lane 0")
                    || err.starts_with("d: 3 growth blocks debited, members owe 2"),
                "{what}: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "enqueued twice")]
    fn double_enqueue_panics() {
        let mut inst = test_instance(InstanceRole::Prefill);
        inst.enqueue_prefill(RequestId(1), 700, 10);
        inst.enqueue_prefill(RequestId(1), 700, 10);
    }

    #[test]
    fn backup_roundtrip_frees_and_credits() {
        let mut inst = test_instance(InstanceRole::Prefill);
        inst.enqueue_prefill(RequestId(1), 640, 10);
        // Simulate a completed prefill holding KV.
        inst.kv.allocate(1, 640).unwrap();
        let kept = inst.convert_to_backup(RequestId(1), 0.1);
        assert!(kept);
        assert_eq!(inst.backups.len(), 1);
        assert_eq!(inst.backup_delta_tokens(RequestId(1), 700), 60);
        inst.drop_backup(RequestId(1));
        assert_eq!(inst.backups.len(), 0);
        inst.kv.check_invariants().unwrap();
    }

    #[test]
    fn swap_duration_scales_with_tokens() {
        let inst = test_instance(InstanceRole::Decode);
        let d1 = inst.swap_duration(100);
        let d2 = inst.swap_duration(200);
        assert!(d2 > d1);
        assert!((d2.as_secs_f64() / d1.as_secs_f64() - 2.0).abs() < 0.01);
    }
}
