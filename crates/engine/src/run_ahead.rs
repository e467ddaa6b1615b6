//! Quiet-decode run-ahead: a decode lane's next steps applied in one call.
//!
//! Most decode steps are *quiet*: every member gains one token, none
//! finishes or pauses, no prefill completes, and the next step forms from
//! the same members at ΣL + B. The cluster hands every main-lane step
//! completion it delivers to [`Instance::run_ahead`] first, with `until`
//! set to its next queued event: nothing can observe or change the
//! instance before then, so a quiet delivered step and the lane's quiet
//! steps after it that end before `until` are applied in one pass instead
//! of one completion event each. Only a step that is not quiet takes the
//! general completion path.
//!
//! The leap is exact. Each step is still priced through the cost model's
//! step cache (one lookup per step, the same `u64` arithmetic), recorded
//! into [`InstanceStats`](crate::InstanceStats) in order, and its duration
//! built the same way step formation builds it. The members are never
//! walked: the lane's step ledger gives ΣL, the growth blocks each step
//! takes and the first finish, and the leap applies as `clock += k` and
//! one debit of the growth blocks.

use crate::config::InstanceRole;
use crate::instance::Instance;
use crate::outcome::{LaneRef, StepKind};
use windserve_sim::{SimDuration, SimTime};
use windserve_workload::RequestId;

/// How far one [`Instance::run_ahead`] call may go. The caller guarantees
/// that no other event touches the instance before `until`; the running
/// step, whose completion the caller is delivering, may end at any
/// instant before it.
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
    /// `bounds.until`, starting with the running one, then leaves the next
    /// step running on the lane exactly as step-by-step
    /// [`complete_step`](Instance::complete_step) and
    /// [`try_start`](Instance::try_start) calls would have. When the
    /// running step is not quiet nothing changes and the caller completes
    /// it the general way.
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
        let lane = &mut self.lanes[lane_idx];
        let ledger = &lane.ledger;
        let clock = ledger.clock;
        // The running step completes at `clock + 1`; the step ending at the
        // first member's finish is not quiet.
        let finish = ledger.next_finish().expect("a decode step has members");
        let limit = bounds.max_steps.min(finish - clock - 1);
        if limit == 0 {
            return 0;
        }
        let batch = ledger.members as u64;
        let sum_l = ledger.sum_l();
        let step = lane.step.as_mut().expect("checked above");
        let aux_kernel = self.aux_step.as_ref().map(|aux| aux.kernel);
        let total = self.kv.total_blocks() as f64;
        let mut pricer = self.cost.decode_pricer(batch);
        // Free blocks before the next step's completion.
        let mut free = self.kv.free_blocks();
        let mut applied = 0u64;
        boundaries.push(step.started);
        while applied < limit && step.ends_at < bounds.until {
            let j = applied + 1;
            // Completing step j moves the clock to `clock + j`, appending
            // one token per member: each member whose KV sits on a block
            // boundary takes a fresh block.
            let taken = ledger.kv_crossings(clock + j - 1);
            if taken > free || ((free - taken) as f64 / total) < bounds.min_free_fraction {
                break;
            }
            // Forming step j + 1 wants a block for each member whose
            // context then sits on a block boundary; more than are free
            // would preempt.
            if ledger.ctx_crossings(clock + j) > free - taken {
                break;
            }
            free -= taken;
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
        lane.ledger.clock += applied;
        self.kv
            .debit_growth(self.kv.free_blocks() - free)
            .expect("growth checked against free blocks");
        applied
    }

    /// Members of the step running on `lane` that gain a token when it
    /// completes, in batch order (none when the lane is idle).
    pub fn step_members(&self, lane: LaneRef) -> impl Iterator<Item = RequestId> + '_ {
        let step = match lane {
            LaneRef::Main(i) => self
                .lanes
                .get(i)
                .and_then(|l| l.step.as_ref())
                .map(|step| (i, step)),
            LaneRef::Aux => None,
        };
        step.into_iter()
            .flat_map(|(i, step)| self.members_of(i, step).map(|m| m.id))
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
            && lane.ledger.members > 0
            && lane.ledger.members == lane.roster.len()
            && step.departed.is_empty()
            && self.waiting_decode.is_empty()
            && self.swapped.is_empty()
            && self.pending_delay.is_zero()
            && self.migrating.is_empty()
            && self.pause_requests.is_empty()
            && !guest_prefill_ready
    }
}
