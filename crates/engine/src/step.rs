//! Step formation and completion — the instance's local scheduler.
//!
//! `try_start` is called by the cluster whenever instance state changes; it
//! admits waiting work (swap-ins first, then the FCFS decode queue), fills
//! idle pipeline lanes and — on a decode instance with stream-based
//! disaggregation — the auxiliary guest-prefill stream. `complete_step`
//! applies a finished step's effects: prompt progress, token generation,
//! KV growth (with vLLM-style swap preemption on pressure), completions,
//! and migration pauses at the step boundary.
//!
//! A lane's decode members live in its step ledger (see the `ledger`
//! module): forming a lane step reads the growth check and ΣL off the
//! ledger (a hybrid step adds its prefill chunks to them), and completing
//! a step advances its clock. Only a pending pause, a member preempted
//! mid-step or growth beyond the free blocks takes the per-member pass.
//!
//! Contention modeling: a step's duration is fixed at start time from the
//! kernels then co-resident (main stream vs aux stream, §3.4). Overlap
//! changes mid-step are not retroactive — steps are milliseconds long, so
//! this quantization does not move the experiment shapes.

use crate::config::InstanceRole;
use crate::instance::{Instance, Member, RunningStep};
use crate::ledger::PENDING;
use crate::outcome::{
    CompletedSeq, FinishedPrefill, LaneRef, PausedSeq, StartedStep, StepKind, StepOutcome,
};
use crate::seq::SeqPhase;
use windserve_gpu::KernelCost;
use windserve_model::{BatchPlan, PrefillChunk};
use windserve_sim::{SimDuration, SimTime};
use windserve_workload::RequestId;

/// Most sequences one lane decodes per step (the reproduction's default).
pub(crate) const MAX_BATCH: usize = 256;

/// Prompt tokens per chunk when prefills share a step with decodes
/// (SARATHI-style chunked prefill, §3.3; the reproduction's default).
const CHUNK_TOKENS: u32 = 512;

/// Most prompts packed into one step: a decode instance, whose prompts are
/// guests beside its decodes, takes half as many (the reproduction's
/// defaults).
fn max_prefill_jobs(role: InstanceRole) -> usize {
    match role {
        InstanceRole::Decode => 4,
        InstanceRole::Prefill | InstanceRole::Colocated => 8,
    }
}

impl Instance {
    /// Admits waiting work and launches steps on every idle execution
    /// context. Returns the newly started steps so the cluster can schedule
    /// their completion events.
    pub fn try_start(&mut self, now: SimTime) -> Vec<StartedStep> {
        let mut started = Vec::new();
        if self.is_start_quiescent() {
            return started;
        }
        self.admit_decodes();
        if self.cfg.role == InstanceRole::Decode
            && self.cfg.stream_disaggregation
            && self.aux_step.is_none()
        {
            if let Some(step) = self.form_aux_step(now) {
                let newly_prefilling = self.newly_prefilling(&step);
                started.push(StartedStep {
                    lane: LaneRef::Aux,
                    ends_at: step.ends_at,
                    newly_decoding: Vec::new(),
                    newly_prefilling,
                });
                self.aux_step = Some(step);
            }
        }
        for lane_idx in 0..self.lanes.len() {
            if self.lanes[lane_idx].step.is_some() {
                continue;
            }
            if let Some(step) = self.form_lane_step(lane_idx, now) {
                // Never-decoded members were flagged and stamped while the
                // step formed; no second scan over the step is needed.
                let newly = std::mem::take(&mut self.newly_scratch);
                let newly_prefilling = self.newly_prefilling(&step);
                started.push(StartedStep {
                    lane: LaneRef::Main(lane_idx),
                    ends_at: step.ends_at,
                    newly_decoding: newly,
                    newly_prefilling,
                });
                self.lanes[lane_idx].step = Some(step);
            }
        }
        started
    }

    /// The step's prefill jobs that have not yet processed a prompt token.
    fn newly_prefilling(&self, step: &RunningStep) -> Vec<RequestId> {
        step.prefill_ids
            .iter()
            .filter(|&&(id, _)| self.seq(id).prefill_untouched())
            .map(|&(id, _)| id)
            .collect()
    }

    /// True when `try_start` would provably do nothing: no admissible work
    /// waits anywhere, and every idle execution context has no members to
    /// step. The cluster sweeps all instances after every event; this makes
    /// the sweep O(1) per untouched instance.
    fn is_start_quiescent(&self) -> bool {
        self.swapped.is_empty()
            && self.waiting_decode.is_empty()
            && self.waiting_prefill.is_empty()
            && self
                .lanes
                .iter()
                .all(|l| l.step.is_some() || l.roster.is_empty())
    }

    /// Applies the effects of the step that just finished on `lane`.
    ///
    /// # Panics
    ///
    /// Panics if no step was running on `lane` — the cluster delivered a
    /// completion event the instance never scheduled.
    pub fn complete_step(&mut self, lane: LaneRef, now: SimTime) -> StepOutcome {
        let step = match lane {
            LaneRef::Main(i) => self.lanes[i].step.take(),
            LaneRef::Aux => self.aux_step.take(),
        }
        .expect("completion for a lane with no running step");
        debug_assert_eq!(step.ends_at, now, "completion delivered at the wrong time");
        self.stats
            .record_step(step.kind, step.ends_at - step.started, &step.kernel);

        let mut outcome = StepOutcome {
            lane,
            kind: step.kind,
            duration: step.ends_at - step.started,
            finished_prefills: Vec::new(),
            completed: Vec::new(),
            paused: Vec::new(),
        };

        for (id, n) in &step.prefill_ids {
            let seq = self.seqs.get_mut(id.0).expect("prefilling seq vanished");
            seq.prefilled += n;
            if seq.prompt_remaining() == 0 {
                // The prefill emits the request's first output token.
                seq.generated = 1;
                outcome.finished_prefills.push(FinishedPrefill {
                    id: *id,
                    prompt_tokens: seq.prompt_tokens,
                });
            } else {
                // Unfinished chunked job returns to the head of the queue.
                self.waiting_prefill.push_front(*id);
                self.waiting_prefill_tokens += u64::from(seq.prompt_remaining());
            }
        }

        if let LaneRef::Main(i) = lane {
            if !self.complete_quiet(i, &step, &mut outcome.completed) {
                self.complete_members(i, &step, &mut outcome);
            }
            self.fold_joiners(i, step.join_bound);
        }
        outcome
    }

    /// The per-member completion of lane `lane_idx`'s `step`: syncs the
    /// lane, then credits each step member in batch order, finishing,
    /// appending (preempting under KV pressure) and pausing it, and
    /// advances the lane's clock.
    fn complete_members(&mut self, lane_idx: usize, step: &RunningStep, outcome: &mut StepOutcome) {
        self.sync_lane(lane_idx);
        let members: Vec<Member> = self.members_of(lane_idx, step).collect();
        let mut appended = Vec::new();
        for &m in &members {
            let seq = self.seqs.at_mut(m.seq);
            seq.generated += 1;
            if seq.is_done() {
                self.finish_sequence(m.id, &mut outcome.completed);
                continue;
            }
            if seq.phase == SeqPhase::Decoding {
                self.append_one(m, &appended);
                appended.push(m.id);
            }
            if !self.pause_requests.is_empty() && self.pause_requests.contains(&m.id.0) {
                self.pause_sequence(m.id, outcome);
            }
        }
        // The members still in the lane gained this step's token and KV
        // above: they are synced at the new clock.
        let lane = &mut self.lanes[lane_idx];
        lane.ledger.clock += 1;
        for &(_, slot) in lane.roster.before(step.join_bound) {
            let seat = self.seats[slot as usize]
                .as_mut()
                .expect("lane member seated");
            debug_assert_ne!(seat.synced_at, PENDING, "step member left pending");
            seat.synced_at = lane.ledger.clock;
        }
    }

    // ------------------------------------------------------------------
    // Admission
    // ------------------------------------------------------------------

    fn admit_decodes(&mut self) {
        let capacity = MAX_BATCH * self.lanes.len();
        // Swapped sequences re-admit first (FIFO), as in vLLM.
        while let Some(&id) = self.swapped.front() {
            if self.total_running() >= capacity {
                break;
            }
            if self.departed_in_flight(id) {
                // The sequence was preempted by another lane while its own
                // step is still executing; re-admitting it now would let it
                // join two concurrent steps. Wait for its step to land.
                break;
            }
            let seq = self.seqs.slot_of(id.0).expect("swapped seq known");
            let ctx = self.seqs.at(seq).context();
            if self.kv.free_blocks() < self.kv.blocks_for(ctx) {
                break;
            }
            self.swapped.pop_front();
            if self.kv.swapped_tokens(id.0).is_some() {
                let stored = self.kv.swap_in(id.0).expect("capacity checked");
                if ctx > stored {
                    // Resync: tokens generated in the same step the
                    // swap-out happened were never materialized on device.
                    self.kv
                        .append_tokens(id.0, ctx - stored)
                        .expect("capacity checked");
                }
                self.pending_delay += self.swap_duration(stored);
            } else {
                // Recompute-preempted: reallocate and pay the compute cost
                // of re-prefilling the context.
                self.kv.allocate(id.0, ctx).expect("capacity checked");
                self.pending_delay += self.cost.step_time(&BatchPlan::single_prefill(ctx.max(1)));
            }
            self.seqs.at_mut(seq).phase = SeqPhase::Decoding;
            self.join_lane(id, seq);
        }
        // Swapped requests hold admission priority: a sequence that needs a
        // fresh allocation must not starve them of the blocks they are
        // waiting for. One that already holds its KV takes none, and
        // holding it back would keep those blocks from ever freeing.
        let swaps_waiting = !self.swapped.is_empty();
        while let Some(&id) = self.waiting_decode.front() {
            if self.total_running() >= capacity {
                break;
            }
            let seq = self.seqs.slot_of(id.0).expect("waiting seq known");
            let ctx = self.seqs.at(seq).context();
            if self.kv.tokens_of(id.0).is_none() {
                if swaps_waiting || (!self.kv.can_fit(ctx) && !self.evict_backups_for(ctx)) {
                    break;
                }
                self.kv.allocate(id.0, ctx).expect("fit ensured");
            }
            self.waiting_decode.pop_front();
            self.seqs.at_mut(seq).phase = SeqPhase::Decoding;
            self.join_lane(id, seq);
        }
    }

    // ------------------------------------------------------------------
    // Batch formation
    // ------------------------------------------------------------------

    fn form_lane_step(&mut self, lane_idx: usize, now: SimTime) -> Option<RunningStep> {
        // Prefill-only formations never refill the scratch; clear it so a
        // previous formation's flags cannot leak into this step.
        self.newly_scratch.clear();
        match self.cfg.role {
            InstanceRole::Decode => self.form_decode_step(lane_idx, now),
            InstanceRole::Prefill | InstanceRole::Colocated => {
                self.form_chunked_step(lane_idx, now)
            }
        }
    }

    /// Readies idle lane `lane_idx`'s members for a step starting at
    /// `now`, off its ledger: ensures a growth block for each member whose
    /// context sits on a block boundary (preempting victims only under KV
    /// pressure), and stamps the members whose first decode iteration this
    /// is and flags them into `newly_scratch`. Returns the members' ΣL.
    fn prepare_lane(&mut self, lane_idx: usize, now: SimTime) -> u64 {
        self.ensure_growth_blocks(lane_idx);
        let mut newly = std::mem::take(&mut self.newly_scratch);
        newly.clear();
        self.start_fresh(lane_idx, now, &mut newly);
        self.newly_scratch = newly;
        self.lanes[lane_idx].ledger.sum_l()
    }

    /// Stamps `decode_start = now` on the members of lane `lane_idx` that
    /// joined with no decode iteration behind them, for the step forming
    /// at `now`, and appends their ids to `newly`.
    pub(crate) fn start_fresh(
        &mut self,
        lane_idx: usize,
        now: SimTime,
        newly: &mut Vec<RequestId>,
    ) {
        for (join, slot) in self.lanes[lane_idx].fresh.drain(..) {
            // A member that left since keeps a stale entry.
            if self.seats[slot as usize].is_none_or(|s| s.member.join != join) {
                continue;
            }
            let seq = self.seqs.at_mut(slot);
            if seq.decode_start.is_none() {
                seq.decode_start = Some(now);
                newly.push(seq.id);
            }
        }
    }

    /// The plan of a step that decodes `batch` members with context sum
    /// `sum_l` and runs the prefill jobs `prefills`, each continuing from
    /// the prompt tokens its sequence has already prefilled.
    fn step_plan(&self, batch: usize, sum_l: u64, prefills: &[(RequestId, u32)]) -> BatchPlan {
        let mut plan = BatchPlan::new();
        plan.add_decodes(batch as u64, sum_l);
        for &(id, new_tokens) in prefills {
            plan.add_prefill(PrefillChunk {
                new_tokens,
                past_tokens: self.seq(id).prefilled,
            });
        }
        plan
    }

    /// The kernel of a decode-only step over `batch` members with context
    /// sum `sum_l`, and its duration beside the running aux step, if any.
    #[inline]
    pub(crate) fn decode_step(&self, batch: usize, sum_l: u64) -> (SimDuration, KernelCost) {
        let kernel = self.cost.decode_kernel_cost(batch as u64, sum_l);
        let mut alone = SimDuration::from_secs_f64(kernel.alone_secs());
        if let Some(aux) = &self.aux_step {
            alone = alone.mul_f64(windserve_gpu::slowdown(kernel, aux.kernel));
        }
        (alone, kernel)
    }

    fn form_decode_step(&mut self, lane_idx: usize, now: SimTime) -> Option<RunningStep> {
        let sum_l = self.prepare_lane(lane_idx, now);
        let batch = self.lanes[lane_idx].roster.len();
        let fused_prefills = if !self.cfg.stream_disaggregation {
            // WindServe-no-split / regular batching: guest prefills fuse
            // into the decode batch as whole prompts (Fig. 7 "Regular").
            self.pack_whole_prefills(u64::from(self.cost.model().max_context))
        } else {
            Vec::new()
        };
        if batch == 0 && fused_prefills.is_empty() {
            return None;
        }
        let (duration, kernel) = if fused_prefills.is_empty() {
            self.decode_step(batch, sum_l)
        } else {
            let plan = self.step_plan(batch, sum_l, &fused_prefills);
            (
                self.cost.hybrid_step_time(&plan),
                self.cost.kernel_cost(&plan),
            )
        };
        Some(self.finish_step_construction(
            if fused_prefills.is_empty() {
                StepKind::Decode
            } else {
                StepKind::Hybrid
            },
            now,
            duration,
            kernel,
            fused_prefills,
        ))
    }

    /// A prefill or colocated instance's lane step: whole prompts when the
    /// lane has no decodes, else its decodes plus one chunk of the head
    /// prompt, which bounds prefill interference with them (§3.3).
    fn form_chunked_step(&mut self, lane_idx: usize, now: SimTime) -> Option<RunningStep> {
        if self.lanes[lane_idx].roster.is_empty() {
            // Pure prompt processing: pack whole prompts FCFS.
            let jobs = self.pack_whole_prefills(u64::from(self.cost.model().max_context));
            if jobs.is_empty() {
                return None;
            }
            let kernel = self.cost.kernel_cost(&self.step_plan(0, 0, &jobs));
            let duration = SimDuration::from_secs_f64(kernel.alone_secs());
            return Some(self.finish_step_construction(
                StepKind::Prefill,
                now,
                duration,
                kernel,
                jobs,
            ));
        }
        let sum_l = self.prepare_lane(lane_idx, now);
        let batch = self.lanes[lane_idx].roster.len();
        let chunk = self.pack_chunk();
        if batch == 0 && chunk.is_empty() {
            return None;
        }
        let (duration, kernel) = if chunk.is_empty() {
            // No aux stream here: a decode-only step runs alone.
            self.decode_step(batch, sum_l)
        } else {
            let plan = self.step_plan(batch, sum_l, &chunk);
            (
                self.cost.hybrid_step_time(&plan),
                self.cost.kernel_cost(&plan),
            )
        };
        Some(self.finish_step_construction(
            if chunk.is_empty() {
                StepKind::Decode
            } else {
                StepKind::Hybrid
            },
            now,
            duration,
            kernel,
            chunk,
        ))
    }

    fn form_aux_step(&mut self, now: SimTime) -> Option<RunningStep> {
        let jobs = self.pack_whole_prefills(u64::from(self.cfg.aux_budget_tokens));
        if jobs.is_empty() {
            return None;
        }
        let kernel = self.cost.kernel_cost(&self.step_plan(0, 0, &jobs));
        let mut duration = SimDuration::from_secs_f64(kernel.alone_secs());
        if let Some(busiest) = self
            .lanes
            .iter()
            .filter_map(|l| l.step.as_ref().map(|s| s.kernel))
            .max_by(|a, b| a.io_secs.partial_cmp(&b.io_secs).expect("finite"))
        {
            let slow = windserve_gpu::slowdown(kernel, busiest);
            duration = duration.mul_f64(slow);
        }
        Some(self.finish_step_construction(StepKind::AuxPrefill, now, duration, kernel, jobs))
    }

    /// Packs whole prompts from the FCFS queue up to `budget` tokens,
    /// allocating their KV (evicting backups if needed). Jobs are popped;
    /// they never return to the queue.
    fn pack_whole_prefills(&mut self, budget: u64) -> Vec<(RequestId, u32)> {
        let mut packed = Vec::new();
        let mut tokens = 0u64;
        while let Some(&id) = self.waiting_prefill.front() {
            if packed.len() >= max_prefill_jobs(self.cfg.role) {
                break;
            }
            let seq = self.seq(id);
            let need = seq.prompt_remaining();
            if !packed.is_empty() && tokens + u64::from(need) > budget {
                break;
            }
            if self.kv.tokens_of(id.0).is_none() {
                let prompt = seq.prompt_tokens;
                if !self.kv.can_fit(prompt) && !self.evict_backups_for(prompt) {
                    break;
                }
                self.kv.allocate(id.0, prompt).expect("fit ensured");
            }
            self.waiting_prefill.pop_front();
            self.waiting_prefill_tokens -= u64::from(need);
            tokens += u64::from(need);
            packed.push((id, need));
        }
        packed
    }

    /// Takes one chunk from the head prefill job (chunked prefill). The job
    /// is popped; `complete_step` pushes it back if unfinished.
    fn pack_chunk(&mut self) -> Vec<(RequestId, u32)> {
        let mut out = Vec::new();
        let Some(&id) = self.waiting_prefill.front() else {
            return out;
        };
        let seq = self.seq(id);
        let remaining = seq.prompt_remaining();
        let chunk = CHUNK_TOKENS.min(remaining);
        if self.kv.tokens_of(id.0).is_none() {
            let prompt = seq.prompt_tokens;
            if !self.kv.can_fit(prompt) && !self.evict_backups_for(prompt) {
                return out;
            }
            self.kv.allocate(id.0, prompt).expect("fit ensured");
        }
        self.waiting_prefill.pop_front();
        self.waiting_prefill_tokens -= u64::from(remaining);
        out.push((id, chunk));
        out
    }

    fn finish_step_construction(
        &mut self,
        kind: StepKind,
        now: SimTime,
        mut duration: SimDuration,
        kernel: KernelCost,
        prefill_ids: Vec<(RequestId, u32)>,
    ) -> RunningStep {
        if !self.pending_delay.is_zero() {
            self.stats.swap_delay_secs += self.pending_delay.as_secs_f64();
            duration += self.pending_delay;
            self.pending_delay = SimDuration::ZERO;
        }
        // Steps always make time progress.
        duration = duration.max(SimDuration::from_micros(1));
        RunningStep {
            kind,
            started: now,
            ends_at: now + duration,
            kernel,
            join_bound: self.next_join,
            departed: Vec::new(),
            prefill_ids,
        }
    }

    // ------------------------------------------------------------------
    // Memory pressure
    // ------------------------------------------------------------------

    /// Each decode step may grow every running sequence by one token; make
    /// sure the blocks exist, swapping out victims (newest first, skipping
    /// migrating sequences) otherwise.
    fn ensure_growth_blocks(&mut self, lane_idx: usize) {
        loop {
            let ledger = &self.lanes[lane_idx].ledger;
            if ledger.ctx_crossings(ledger.clock) <= self.kv.free_blocks() {
                return;
            }
            let victim = self.lanes[lane_idx]
                .roster
                .slots()
                .rev()
                .map(|slot| self.seqs.at(slot).id)
                .find(|id| !self.migrating.contains(&id.0));
            match victim {
                Some(v) => self.preempt(v),
                None => return, // nothing evictable; appends will self-swap
            }
        }
    }

    /// Preempts a sequence under KV pressure: swap its cache to host
    /// memory, or drop it for recomputation, per the configured mode. A
    /// member of its lane's running step stays owed that step's token.
    fn preempt(&mut self, id: RequestId) {
        let slot = self.seqs.slot_of(id.0).expect("preempting unknown seq");
        if let Some((member, lane)) = self.leave_lane(slot) {
            if let Some(step) = &mut self.lanes[lane].step {
                if member.join < step.join_bound {
                    let at = step.departed.partition_point(|d| d.join < member.join);
                    step.departed.insert(at, member);
                }
            }
        }
        let seq = self.seqs.at_mut(slot);
        seq.phase = SeqPhase::Swapped;
        seq.swap_outs += 1;
        match self.cfg.preemption {
            crate::config::PreemptionMode::Swap => {
                let tokens = self.kv.swap_out(id.0);
                self.pending_delay += self.swap_duration(tokens);
            }
            crate::config::PreemptionMode::Recompute => {
                self.kv.release(id.0);
                self.stats.recomputes += 1;
            }
        }
        self.swapped.push_back(id);
    }

    /// Preempts a *running* decode because cluster-level KV pressure
    /// crossed the overload watermark: the victim is swapped out (or
    /// dropped for recompute, per the configured mode) and re-admits FIFO
    /// from the swap queue once blocks free up. Returns `false` (and does
    /// nothing) when `id` is not an eligible victim — not running,
    /// migrating, or already marked for a migration pause.
    pub fn preempt_for_pressure(&mut self, id: RequestId) -> bool {
        if !self.in_lane(id)
            || self.migrating.contains(&id.0)
            || self.pause_requests.contains(&id.0)
        {
            return false;
        }
        self.preempt(id);
        true
    }

    /// Appends one token's KV to member `m`, preempting other sequences if
    /// blocks have run out (last resort: swap `m` itself out un-appended;
    /// the discrepancy is resynced at swap-in).
    fn append_one(&mut self, m: Member, already_appended: &[RequestId]) {
        loop {
            if self.kv.append_at(m.kv, 1).is_ok() {
                return;
            }
            let victim = self
                .lanes
                .iter()
                .flat_map(|l| l.roster.slots().rev())
                .map(|slot| self.seqs.at(slot).id)
                .find(|&v| {
                    v != m.id && !self.migrating.contains(&v.0) && !already_appended.contains(&v)
                });
            match victim {
                Some(v) => self.preempt(v),
                None => {
                    self.preempt(m.id);
                    return;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Completion helpers
    // ------------------------------------------------------------------

    pub(crate) fn finish_sequence(&mut self, id: RequestId, completed: &mut Vec<CompletedSeq>) {
        if let Some(slot) = self.seqs.slot_of(id.0) {
            self.leave_lane(slot);
        }
        self.swapped.retain(|r| *r != id);
        self.kv.release(id.0);
        self.kv.forget_swapped(id.0);
        self.migrating.remove(&id.0);
        self.pause_requests.remove(&id.0);
        let seq = self.seqs.remove(id.0).expect("finishing unknown seq");
        completed.push(CompletedSeq {
            id,
            generated: seq.generated,
            swap_outs: seq.swap_outs,
            migrations: seq.migrations,
            decode_start: seq.decode_start,
        });
    }

    fn pause_sequence(&mut self, id: RequestId, outcome: &mut StepOutcome) {
        let paused = self.detach_for_pause(id);
        outcome.paused.push(paused);
    }

    /// Detaches a sequence from every queue and lane, releases its KV, and
    /// returns its state for migration. Shared by boundary pauses and
    /// immediate pauses of waiting/swapped sequences.
    pub(crate) fn detach_for_pause(&mut self, id: RequestId) -> PausedSeq {
        if let Some(slot) = self.seqs.slot_of(id.0) {
            self.leave_lane(slot);
        }
        self.swapped.retain(|r| *r != id);
        self.waiting_decode.retain(|r| *r != id);
        self.kv.release(id.0);
        self.kv.forget_swapped(id.0);
        self.migrating.remove(&id.0);
        self.pause_requests.remove(&id.0);
        let mut state = self.seqs.remove(id.0).expect("pausing unknown seq");
        state.phase = SeqPhase::DecodeWaiting;
        PausedSeq { state }
    }
}
