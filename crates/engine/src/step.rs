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
//! Contention modeling: a step's duration is fixed at start time from the
//! kernels then co-resident (main stream vs aux stream, §3.4). Overlap
//! changes mid-step are not retroactive — steps are milliseconds long, so
//! this quantization does not move the experiment shapes.

use crate::config::InstanceRole;
use crate::instance::{Instance, Member, RunningStep};
use crate::outcome::{
    CompletedSeq, FinishedPrefill, LaneRef, PausedSeq, StartedStep, StepKind, StepOutcome,
};
use crate::seq::SeqPhase;
use windserve_model::{BatchPlan, PrefillChunk};
use windserve_sim::{SimDuration, SimTime};
use windserve_workload::RequestId;

impl Instance {
    /// Admits waiting work and launches steps on every idle execution
    /// context. Returns the newly started steps so the cluster can schedule
    /// their completion events.
    pub fn try_start(&mut self, now: SimTime) -> Vec<StartedStep> {
        let mut started = Vec::new();
        self.try_start_into(now, &mut started);
        started
    }

    /// Allocation-free variant of [`Instance::try_start`]: appends newly
    /// started steps to `started` (not cleared first), letting the cluster
    /// event loop reuse one buffer across its per-event instance sweep.
    pub fn try_start_into(&mut self, now: SimTime, started: &mut Vec<StartedStep>) {
        if self.is_start_quiescent() {
            return;
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
                // Never-decoded members were flagged during the formation's
                // prefetch pass; no second scan over the step is needed.
                let newly = std::mem::take(&mut self.newly_scratch);
                for &id in &newly {
                    self.seq_mut(id).decode_start = Some(now);
                }
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
                .all(|l| l.step.is_some() || l.running.is_empty())
    }

    /// Applies the effects of the step that just finished on `lane`.
    ///
    /// # Panics
    ///
    /// Panics if no step was running on `lane` — the cluster delivered a
    /// completion event the instance never scheduled.
    pub fn complete_step(&mut self, lane: LaneRef, now: SimTime) -> StepOutcome {
        let mut outcome = StepOutcome::default();
        self.complete_step_into(lane, now, &mut outcome);
        outcome
    }

    /// Allocation-free variant of [`Instance::complete_step`]: clears and
    /// refills `outcome` in place, so a caller-held scratch outcome makes
    /// steady-state completion allocation-free (the finished step's member
    /// buffers are recycled into the instance's pools).
    ///
    /// # Panics
    ///
    /// Panics if no step was running on `lane`.
    pub fn complete_step_into(&mut self, lane: LaneRef, now: SimTime, outcome: &mut StepOutcome) {
        let step = match lane {
            LaneRef::Main(i) => self.lanes[i].step.take(),
            LaneRef::Aux => self.aux_step.take(),
        }
        .expect("completion for a lane with no running step");
        debug_assert_eq!(step.ends_at, now, "completion delivered at the wrong time");
        self.stats
            .record_step(step.kind, step.ends_at - step.started, &step.kernel);

        outcome.lane = lane;
        outcome.kind = step.kind;
        outcome.duration = step.ends_at - step.started;
        outcome.finished_prefills.clear();
        outcome.decoded.clear();
        outcome.completed.clear();
        outcome.paused.clear();

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

        let mut appended = std::mem::take(&mut self.appended_scratch);
        appended.clear();
        for &m in &step.decode_ids {
            let seq = self.seqs.at_mut(m.seq);
            seq.generated += 1;
            outcome.decoded.push(m.id);
            if seq.is_done() {
                self.finish_sequence(m.id, outcome);
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
        self.appended_scratch = appended;
        self.recycle_idvec(step.decode_ids);
        self.recycle_jobvec(step.prefill_ids);
    }

    // ------------------------------------------------------------------
    // Step-member buffer pools
    // ------------------------------------------------------------------

    fn take_idvec(&mut self) -> Vec<Member> {
        self.idvec_pool.pop().unwrap_or_default()
    }

    fn take_jobvec(&mut self) -> Vec<(RequestId, u32)> {
        self.jobvec_pool.pop().unwrap_or_default()
    }

    fn recycle_idvec(&mut self, mut v: Vec<Member>) {
        v.clear();
        self.idvec_pool.push(v);
    }

    fn recycle_jobvec(&mut self, mut v: Vec<(RequestId, u32)>) {
        v.clear();
        self.jobvec_pool.push(v);
    }

    // ------------------------------------------------------------------
    // Admission
    // ------------------------------------------------------------------

    fn admit_decodes(&mut self) {
        let capacity = self.cfg.max_batch * self.lanes.len();
        // Swapped sequences re-admit first (FIFO), as in vLLM.
        while let Some(&id) = self.swapped.front() {
            if self.total_running() >= capacity {
                break;
            }
            if self.in_flight(id) {
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
        if !self.swapped.is_empty() {
            // Swapped requests hold admission priority: new sequences must
            // not starve them of the blocks they are waiting for.
            return;
        }
        while let Some(&id) = self.waiting_decode.front() {
            if self.total_running() >= capacity {
                break;
            }
            let seq = self.seqs.slot_of(id.0).expect("waiting seq known");
            let ctx = self.seqs.at(seq).context();
            if self.kv.tokens_of(id.0).is_none() {
                if !self.kv.can_fit(ctx) && !self.evict_backups_for(ctx) {
                    break;
                }
                self.kv.allocate(id.0, ctx).expect("fit ensured");
            }
            self.waiting_decode.pop_front();
            self.seqs.at_mut(seq).phase = SeqPhase::Decoding;
            self.join_lane(id, seq);
        }
    }

    /// Adds sequence `id` (state in slot `seq`, KV allocated) to the least
    /// loaded lane.
    fn join_lane(&mut self, id: RequestId, seq: u32) {
        let kv = self.kv.slot_of(id.0).expect("admitted with KV");
        let lane = self.least_loaded_lane();
        self.lanes[lane].running.push(Member { id, seq, kv });
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

    /// One pass over the lane's members, by slot: fetches each sequence's
    /// context into `ctxs`, flags never-decoded members into
    /// `newly_scratch`, and ensures growth blocks exist — preempting
    /// victims (and re-fetching the surviving membership) only under KV
    /// pressure. Returns ΣL, the sum of the decode contexts as a plan
    /// counts them (each at least one token).
    fn prefetch_lane(&mut self, lane_idx: usize, ctxs: &mut Vec<u32>) -> u64 {
        ctxs.clear();
        self.newly_scratch.clear();
        let mut extra = 0usize;
        for &m in &self.lanes[lane_idx].running {
            let (seq, offset) = self.member_context(m);
            let (ctx, fresh) = (seq.context(), seq.decode_start.is_none());
            extra += usize::from(offset == 0);
            if fresh {
                self.newly_scratch.push(m.id);
            }
            ctxs.push(ctx);
        }
        if extra > self.kv.free_blocks() {
            self.ensure_growth_blocks(lane_idx);
            ctxs.clear();
            self.newly_scratch.clear();
            for &m in &self.lanes[lane_idx].running {
                let seq = self.seqs.at(m.seq);
                let (ctx, fresh) = (seq.context(), seq.decode_start.is_none());
                if fresh {
                    self.newly_scratch.push(m.id);
                }
                ctxs.push(ctx);
            }
        }
        ctxs.iter().map(|&ctx| u64::from(ctx.max(1))).sum()
    }

    /// Kernel cost of a pure-decode step of `batch` members with context
    /// sum `sum_l`, priced by (batch, ΣL) through the step cache: one
    /// lookup, bit-identical to pricing the step's plan (see
    /// [`windserve_model::DecodePricer`]).
    fn decode_kernel(&self, batch: usize, sum_l: u64) -> windserve_gpu::KernelCost {
        self.cost.decode_pricer(batch as u64).kernel_cost(sum_l)
    }

    fn form_decode_step(&mut self, lane_idx: usize, now: SimTime) -> Option<RunningStep> {
        let mut ctxs = std::mem::take(&mut self.ctx_scratch);
        let sum_l = self.prefetch_lane(lane_idx, &mut ctxs);
        let mut decode_ids = self.take_idvec();
        decode_ids.extend_from_slice(&self.lanes[lane_idx].running);
        let fused_prefills = if !self.cfg.stream_disaggregation {
            // WindServe-no-split / regular batching: guest prefills fuse
            // into the decode batch as whole prompts (Fig. 7 "Regular").
            self.pack_whole_prefills(u64::from(self.cfg.max_prefill_tokens))
        } else {
            self.take_jobvec()
        };
        if decode_ids.is_empty() && fused_prefills.is_empty() {
            self.ctx_scratch = ctxs;
            self.recycle_idvec(decode_ids);
            self.recycle_jobvec(fused_prefills);
            return None;
        }
        let (duration, kernel) = if fused_prefills.is_empty() {
            let kernel = self.decode_kernel(decode_ids.len(), sum_l);
            let mut alone = SimDuration::from_secs_f64(kernel.alone_secs());
            if let Some(aux) = &self.aux_step {
                let slow = self.sharing.slowdown(kernel, aux.kernel);
                alone = alone.mul_f64(slow);
            }
            (alone, kernel)
        } else {
            self.rebuild_plan(&ctxs, &fused_prefills);
            (
                self.cost.hybrid_step_time(&self.plan_scratch),
                self.cost.kernel_cost(&self.plan_scratch),
            )
        };
        self.ctx_scratch = ctxs;
        Some(self.finish_step_construction(
            if fused_prefills.is_empty() {
                StepKind::Decode
            } else {
                StepKind::Hybrid
            },
            now,
            duration,
            kernel,
            decode_ids,
            fused_prefills,
        ))
    }

    /// A prefill or colocated instance's lane step: whole prompts when the
    /// lane has no decodes, else its decodes plus one chunk of the head
    /// prompt, which bounds prefill interference with them (§3.3).
    fn form_chunked_step(&mut self, lane_idx: usize, now: SimTime) -> Option<RunningStep> {
        if self.lanes[lane_idx].running.is_empty() {
            // Pure prompt processing: pack whole prompts FCFS.
            let jobs = self.pack_whole_prefills(u64::from(self.cfg.max_prefill_tokens));
            if jobs.is_empty() {
                self.recycle_jobvec(jobs);
                return None;
            }
            self.rebuild_plan(&[], &jobs);
            let kernel = self.cost.kernel_cost(&self.plan_scratch);
            let duration = SimDuration::from_secs_f64(kernel.alone_secs());
            let decode_ids = self.take_idvec();
            return Some(self.finish_step_construction(
                StepKind::Prefill,
                now,
                duration,
                kernel,
                decode_ids,
                jobs,
            ));
        }
        let mut ctxs = std::mem::take(&mut self.ctx_scratch);
        let sum_l = self.prefetch_lane(lane_idx, &mut ctxs);
        let mut decode_ids = self.take_idvec();
        decode_ids.extend_from_slice(&self.lanes[lane_idx].running);
        let chunk = self.pack_chunk();
        if decode_ids.is_empty() && chunk.is_empty() {
            self.ctx_scratch = ctxs;
            self.recycle_idvec(decode_ids);
            self.recycle_jobvec(chunk);
            return None;
        }
        let (duration, kernel) = if chunk.is_empty() {
            // A decode-only step's single-stream time is its `step_time`.
            // Every step formed here makes two cache lookups, which the
            // report's cost-cache counts record: `hybrid_step_time` and
            // `kernel_cost` below, two pricer calls here.
            let kernel = self.decode_kernel(decode_ids.len(), sum_l);
            let duration = SimDuration::from_secs_f64(kernel.alone_secs());
            (duration, self.decode_kernel(decode_ids.len(), sum_l))
        } else {
            self.rebuild_plan(&ctxs, &chunk);
            (
                self.cost.hybrid_step_time(&self.plan_scratch),
                self.cost.kernel_cost(&self.plan_scratch),
            )
        };
        self.ctx_scratch = ctxs;
        Some(self.finish_step_construction(
            if chunk.is_empty() {
                StepKind::Decode
            } else {
                StepKind::Hybrid
            },
            now,
            duration,
            kernel,
            decode_ids,
            chunk,
        ))
    }

    fn form_aux_step(&mut self, now: SimTime) -> Option<RunningStep> {
        let jobs = self.pack_whole_prefills(u64::from(self.cfg.aux_budget_tokens));
        if jobs.is_empty() {
            self.recycle_jobvec(jobs);
            return None;
        }
        self.rebuild_plan(&[], &jobs);
        let kernel = self.cost.kernel_cost(&self.plan_scratch);
        let mut duration = SimDuration::from_secs_f64(kernel.alone_secs());
        if let Some(busiest) = self
            .lanes
            .iter()
            .filter_map(|l| l.step.as_ref().map(|s| s.kernel))
            .max_by(|a, b| a.io_secs.partial_cmp(&b.io_secs).expect("finite"))
        {
            let slow = self.sharing.slowdown(kernel, busiest);
            duration = duration.mul_f64(slow);
        }
        let decode_ids = self.take_idvec();
        Some(self.finish_step_construction(
            StepKind::AuxPrefill,
            now,
            duration,
            kernel,
            decode_ids,
            jobs,
        ))
    }

    /// Packs whole prompts from the FCFS queue up to `budget` tokens,
    /// allocating their KV (evicting backups if needed). Jobs are popped;
    /// they never return to the queue.
    fn pack_whole_prefills(&mut self, budget: u64) -> Vec<(RequestId, u32)> {
        let mut packed = self.take_jobvec();
        let mut tokens = 0u64;
        while let Some(&id) = self.waiting_prefill.front() {
            if packed.len() >= self.cfg.max_prefill_jobs {
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
        let mut out = self.take_jobvec();
        let Some(&id) = self.waiting_prefill.front() else {
            return out;
        };
        let seq = self.seq(id);
        let remaining = seq.prompt_remaining();
        let chunk = self.cfg.chunk_tokens.min(remaining);
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

    /// Refills the instance's scratch [`BatchPlan`] for a step with decode
    /// contexts `ctxs` (already fetched by [`Instance::prefetch_lane`]) and
    /// prefill jobs `prefills`. Reusing one plan (and its heap capacity)
    /// keeps batch pricing allocation-free; the plan is consumed before the
    /// next step forms, so a single scratch suffices.
    fn rebuild_plan(&mut self, ctxs: &[u32], prefills: &[(RequestId, u32)]) {
        let mut plan = std::mem::take(&mut self.plan_scratch);
        plan.clear();
        for &ctx in ctxs {
            plan.add_decode(ctx.max(1));
        }
        for &(id, new_tokens) in prefills {
            plan.add_prefill(PrefillChunk {
                new_tokens,
                past_tokens: self.seq(id).prefilled,
            });
        }
        self.plan_scratch = plan;
    }

    fn finish_step_construction(
        &mut self,
        kind: StepKind,
        now: SimTime,
        mut duration: SimDuration,
        kernel: windserve_gpu::KernelCost,
        decode_ids: Vec<Member>,
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
            decode_ids,
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
            let extra: usize = self.lanes[lane_idx]
                .running
                .iter()
                .map(|&m| usize::from(self.member_context(m).1 == 0))
                .sum();
            if extra <= self.kv.free_blocks() {
                return;
            }
            let victim = self.lanes[lane_idx]
                .running
                .iter()
                .rev()
                .find(|m| !self.migrating.contains(&m.id.0))
                .map(|m| m.id);
            match victim {
                Some(v) => self.preempt(v),
                None => return, // nothing evictable; appends will self-swap
            }
        }
    }

    /// True if `id` is a member of any lane's currently executing step.
    fn in_flight(&self, id: RequestId) -> bool {
        self.lanes.iter().any(|l| {
            l.step
                .as_ref()
                .is_some_and(|s| s.decode_ids.iter().any(|m| m.id == id))
        })
    }

    /// Preempts a sequence under KV pressure: swap its cache to host
    /// memory, or drop it for recomputation, per the configured mode.
    fn preempt(&mut self, id: RequestId) {
        for lane in &mut self.lanes {
            lane.running.retain(|m| m.id != id);
        }
        let seq = self.seq_mut(id);
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
        let running = self
            .lanes
            .iter()
            .any(|l| l.running.iter().any(|m| m.id == id));
        if !running || self.migrating.contains(&id.0) || self.pause_requests.contains(&id.0) {
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
                .flat_map(|l| l.running.iter().rev())
                .find(|v| {
                    v.id != m.id
                        && !self.migrating.contains(&v.id.0)
                        && !already_appended.contains(&v.id)
                })
                .map(|v| v.id);
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

    fn finish_sequence(&mut self, id: RequestId, outcome: &mut StepOutcome) {
        for lane in &mut self.lanes {
            lane.running.retain(|m| m.id != id);
        }
        self.swapped.retain(|r| *r != id);
        self.kv.release(id.0);
        self.kv.forget_swapped(id.0);
        self.migrating.remove(&id.0);
        self.pause_requests.remove(&id.0);
        let seq = self.seqs.remove(id.0).expect("finishing unknown seq");
        outcome.completed.push(CompletedSeq {
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
        for lane in &mut self.lanes {
            lane.running.retain(|m| m.id != id);
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
