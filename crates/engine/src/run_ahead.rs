//! Quiet-decode run-ahead: a decode lane's next steps applied in one call.
//!
//! Most decode steps are *quiet*: every member gains one token, none
//! finishes or pauses, no prefill completes, and the next step forms from
//! the same members at ΣL + B. When the cluster can prove that no other
//! event falls before some instant `until`, nothing can observe or change
//! the instance in between, so [`Instance::run_ahead`] applies the quiet
//! steps ending before `until` in one pass instead of one completion event
//! each.
//!
//! The leap is exact. Each step is still priced through the cost model's
//! step cache (one lookup per step, the same `u64` arithmetic), recorded
//! into [`InstanceStats`](crate::InstanceStats) in order, and its duration
//! built the same way step formation builds it. Only the per-member work
//! is batched: `generated += k` and one KV append of `k` tokens per member,
//! each reached through the member's slots with no hash probe.

use crate::config::InstanceRole;
use crate::instance::{kv_offset, Instance};
use crate::outcome::{LaneRef, StepKind};
use windserve_sim::{SimDuration, SimTime};
use windserve_workload::RequestId;

/// How far one [`Instance::run_ahead`] call may go. The caller guarantees
/// that no other event touches the instance before `until`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunAhead {
    /// Apply only steps that end strictly before this instant.
    pub until: SimTime,
    /// Apply at most this many steps.
    pub max_steps: u64,
    /// Stop before a step whose KV growth would leave the free-block
    /// fraction below this floor (the caller's pressure triggers: dynamic
    /// rescheduling and KV-pressure preemption). `0.0` disables it.
    pub min_free_fraction: f64,
}

impl Instance {
    /// Applies the quiet steps of decode lane `lane` that end before
    /// `bounds.until`, then leaves the next step running on the lane
    /// exactly as step-by-step [`complete_step`](Instance::complete_step)
    /// and [`try_start`](Instance::try_start) calls would have.
    ///
    /// A step counts as quiet when completing it finishes no member, pauses
    /// none, takes no KV block that would breach `bounds.min_free_fraction`
    /// and lets the next step form from the same members without
    /// preemption. The leap applies nothing unless the instance is a
    /// decode instance with no queued decode, swapped or migrating
    /// sequence, no pending pause or swap delay, and no guest prefill the
    /// aux stream (or a fused batch) could pick up.
    ///
    /// Returns the number of steps applied, `k`. `boundaries` is cleared;
    /// when `k > 0` it receives `k + 2` instants: the first applied step's
    /// start, each applied step's end, then the end of the step left
    /// running.
    pub fn run_ahead(
        &mut self,
        lane: LaneRef,
        bounds: RunAhead,
        boundaries: &mut Vec<SimTime>,
    ) -> u64 {
        boundaries.clear();
        let LaneRef::Main(lane_idx) = lane else {
            return 0;
        };
        if bounds.max_steps == 0 || !self.lane_can_run_ahead(lane_idx, bounds.until) {
            return 0;
        }
        let Some((min_left, sum_l)) = self.scan_members(lane_idx) else {
            return 0;
        };
        let bt = self.cfg.block_tokens as usize;
        let (ctx_residues, kv_residues) = self.residue_scratch.split_at_mut(bt);
        let step = self.lanes[lane_idx].step.as_mut().expect("checked above");
        let members = step.decode_ids.len();
        let batch = members as u64;
        let aux_kernel = self.aux_step.as_ref().map(|aux| aux.kernel);
        let total = self.kv.total_blocks() as f64;
        let limit = bounds.max_steps.min(u64::from(min_left - 1));
        let mut pricer = self.cost.decode_pricer(batch);
        let free_before = self.kv.free_blocks();
        // Exact free blocks before the next step's completion, once the
        // members' KV residues are counted. Until then a bound stands in:
        // in `j` appends a member crosses at most `ceil(j / bt)` block
        // boundaries. The residues are only read if the bound comes near
        // the floor.
        let mut free = None;
        let mut applied = 0u64;
        boundaries.push(step.started);
        while applied < limit && step.ends_at < bounds.until {
            let j = applied + 1;
            let worst = free_before.checked_sub(members * (j as usize).div_ceil(bt));
            let clear = free.is_none()
                && worst.is_some_and(|lb| {
                    lb >= members && (lb as f64 / total) >= bounds.min_free_fraction
                });
            if !clear {
                let exact = *free.get_or_insert_with(|| {
                    for m in &step.decode_ids {
                        let (_, room) = self.kv.fill_at(m.kv);
                        kv_residues[kv_offset(room, bt as u32) as usize] += 1;
                    }
                    (1..j).fold(free_before, |free, i| free - growth(kv_residues, i))
                });
                // Completing step j appends one token per member: a
                // member whose KV holds a multiple of `bt` tokens takes a
                // fresh block.
                let taken = growth(kv_residues, j);
                if taken > exact || ((exact - taken) as f64 / total) < bounds.min_free_fraction {
                    break;
                }
                // Forming step j + 1 wants a block for each member whose
                // context then sits on a block boundary; more than are
                // free would preempt.
                if growth(ctx_residues, j + 1) > exact - taken {
                    break;
                }
                free = Some(exact - taken);
            }
            self.stats
                .record_step(StepKind::Decode, step.ends_at - step.started, &step.kernel);
            boundaries.push(step.ends_at);
            let kernel = pricer.kernel_cost(sum_l + j * batch);
            let mut duration = SimDuration::from_secs_f64(kernel.alone_secs());
            if let Some(aux) = aux_kernel {
                duration = duration.mul_f64(self.sharing.slowdown(kernel, aux));
            }
            step.started = step.ends_at;
            step.ends_at = step.started + duration.max(SimDuration::from_micros(1));
            step.kernel = kernel;
            applied = j;
        }
        if applied == 0 {
            boundaries.clear();
            return 0;
        }
        boundaries.push(step.ends_at);
        let k = u32::try_from(applied).expect("bounded by a member's remaining output");
        for m in &step.decode_ids {
            self.seqs.at_mut(m.seq).generated += k;
            self.kv
                .append_at(m.kv, k)
                .expect("growth checked against free blocks");
        }
        applied
    }

    /// Members of the step running on `lane` that gain a token when it
    /// completes, in batch order (none when the lane is idle).
    pub fn step_members(&self, lane: LaneRef) -> impl Iterator<Item = RequestId> + '_ {
        let step = match lane {
            LaneRef::Main(i) => self.lanes.get(i).and_then(|l| l.step.as_ref()),
            LaneRef::Aux => self.aux_step.as_ref(),
        };
        step.into_iter()
            .flat_map(|s| s.decode_ids.iter().map(|m| m.id))
    }

    /// The O(1) preconditions of a leap: a pure decode step running on a
    /// decode instance's lane, ending before `until`, with nothing queued
    /// or pending that a step boundary would act on.
    fn lane_can_run_ahead(&self, lane_idx: usize, until: SimTime) -> bool {
        let Some(lane) = self.lanes.get(lane_idx) else {
            return false;
        };
        let Some(step) = &lane.step else {
            return false;
        };
        let guest_prefill_ready = if self.cfg.stream_disaggregation {
            self.aux_step.is_none() && !self.waiting_prefill.is_empty()
        } else {
            !self.waiting_prefill.is_empty()
        };
        self.cfg.role == InstanceRole::Decode
            && step.kind == StepKind::Decode
            && step.ends_at < until
            && !step.decode_ids.is_empty()
            && step.decode_ids == lane.running
            && self.waiting_decode.is_empty()
            && self.swapped.is_empty()
            && self.pending_delay.is_zero()
            && self.migrating.is_empty()
            && self.pause_requests.is_empty()
            && !guest_prefill_ready
    }

    /// One pass over the lane's members, by slot: returns the fewest
    /// output tokens any member still owes and ΣL of the running step, and
    /// counts members per `context % block_tokens` into the first half of
    /// `residue_scratch` (zeroing the second, for KV residues). `None`,
    /// early, when a member finishes at the very next boundary.
    fn scan_members(&mut self, lane_idx: usize) -> Option<(u32, u64)> {
        let bt = self.cfg.block_tokens as usize;
        self.residue_scratch.clear();
        self.residue_scratch.resize(2 * bt, 0);
        let step = self.lanes[lane_idx].step.as_ref().expect("checked");
        let (mut min_left, mut sum_l) = (u32::MAX, 0u64);
        for &m in &step.decode_ids {
            let (seq, offset) = self.member_context(m);
            min_left = min_left.min(seq.output_target - seq.generated);
            if min_left <= 1 {
                return None;
            }
            sum_l += u64::from(seq.context().max(1));
            self.residue_scratch[offset as usize] += 1;
        }
        Some((min_left, sum_l))
    }
}

/// Members that cross a block boundary at the `j`-th append (`j >= 1`),
/// given member counts by token count modulo the block size: those whose
/// count plus `j - 1` is a multiple of it.
fn growth(residues: &[usize], j: u64) -> usize {
    let bt = residues.len() as u64;
    residues[((bt - (j - 1) % bt) % bt) as usize]
}
