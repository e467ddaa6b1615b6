//! Decode run-ahead: a decode lane's next steps applied in one call.
//!
//! The cluster hands every main-lane step completion it delivers to
//! [`Instance::run_ahead`] first, with `until` set to its next queued
//! event: nothing can observe or change the instance before then, so the
//! delivered step and the lane's steps after it that end before `until`
//! are applied in one pass instead of one completion event each. A step
//! qualifies when the lane's step ledger completes it on its own: every
//! member gains one token, the members whose last token it is leave, the
//! members that joined while it ran fold in, nothing pauses, the growth
//! blocks fit, and the next step forms from the lane's members without
//! preemption. Only a step that does not qualify takes the general
//! completion path.
//!
//! The leap is exact. Each step is still priced by the cost model from its
//! batch size and ΣL (the same `u64` arithmetic step formation uses),
//! recorded into [`InstanceStats`](crate::InstanceStats) in order, and its
//! duration built the same way step formation builds it. A *quiet* step,
//! at which no member finishes or joins (most of them), never walks the
//! members: the ledger gives ΣL, the growth blocks the step takes and the
//! first finish, and the step applies as `clock += 1`, its growth blocks
//! debited in one sum at the next boundary that needs the block manager or
//! at the end. A step at which members finish or join settles that debit,
//! then completes through the helpers [`complete_step`] uses, in its
//! order: the finishers leave in batch order, then the joiners fold in.
//!
//! [`complete_step`]: Instance::complete_step

use crate::config::InstanceRole;
use crate::instance::{Instance, BLOCK_TOKENS};
use crate::outcome::{CompletedSeq, LaneRef, StepKind};
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
    /// Stop before a step after whose completion the free-block fraction
    /// would be below this floor (the caller's pressure triggers: dynamic
    /// rescheduling and KV-pressure preemption). `0.0` disables it.
    pub min_free_fraction: f64,
}

/// What one [`Instance::run_ahead`] call applied, step by step. The caller
/// passes the same value to every call: it is cleared first and keeps its
/// buffers, so a leap allocates nothing once they have grown.
#[derive(Debug, Clone, Default)]
pub struct Leap {
    /// The first applied step's start.
    start: SimTime,
    /// Per applied step: its end, and the ends of its entries in
    /// `completed`, `joined` and `newly_decoding`.
    ends: Vec<(SimTime, usize, usize, usize)>,
    completed: Vec<CompletedSeq>,
    joined: Vec<RequestId>,
    newly_decoding: Vec<RequestId>,
    /// The end of the step left running on the lane, if any.
    running: Option<SimTime>,
}

/// One step a [`Leap`] applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeapStep<'a> {
    /// When the step started.
    pub started: SimTime,
    /// When it ended.
    pub ended: SimTime,
    /// The members whose last token it produced, in batch order; they have
    /// left the instance.
    pub completed: &'a [CompletedSeq],
    /// The sequences that joined the lane while the step ran, folded in at
    /// `ended` in join order: the step formed then has this step's members
    /// less `completed`, then these.
    pub joined: &'a [RequestId],
    /// The joiners whose first decode iteration is the step formed at
    /// `ended`; a swapped-in joiner decoded before and is not among them.
    pub newly_decoding: &'a [RequestId],
    /// The end of the step formed at `ended`, or `None` when every member
    /// finished and the lane was left idle.
    pub next_ends_at: Option<SimTime>,
}

impl Leap {
    /// The applied steps, in order.
    pub fn steps(&self) -> impl Iterator<Item = LeapStep<'_>> + '_ {
        (0..self.ends.len()).map(|i| {
            let (ended, completed, joined, newly) = self.ends[i];
            let (started, done, join, fresh) = match i {
                0 => (self.start, 0, 0, 0),
                _ => self.ends[i - 1],
            };
            LeapStep {
                started,
                ended,
                completed: &self.completed[done..completed],
                joined: &self.joined[join..joined],
                newly_decoding: &self.newly_decoding[fresh..newly],
                next_ends_at: self.ends.get(i + 1).map(|e| e.0).or(self.running),
            }
        })
    }

    /// The end of the step the leap left running on the lane, or `None`
    /// when it applied nothing or left the lane idle.
    pub fn running(&self) -> Option<SimTime> {
        self.running
    }

    fn clear(&mut self) {
        self.ends.clear();
        self.completed.clear();
        self.joined.clear();
        self.newly_decoding.clear();
        self.running = None;
    }
}

impl Instance {
    /// Applies the steps of decode lane `lane` that end before
    /// `bounds.until` and that the lane's ledger completes on its own,
    /// starting with the running one, then leaves the next step running on
    /// the lane (or the lane idle, once every member has finished) exactly
    /// as step-by-step [`complete_step`](Instance::complete_step) and
    /// [`try_start`](Instance::try_start) calls would have. When the
    /// running step does not qualify nothing changes and the caller
    /// completes it the general way.
    ///
    /// A step qualifies when completing it pauses no member, takes no more
    /// growth blocks than are free, leaves the free-block fraction at or
    /// above `bounds.min_free_fraction` once its finishers have released
    /// their KV, and lets the next step form without preemption. The leap
    /// applies nothing unless the instance is a decode instance with no
    /// queued decode, swapped or migrating sequence, no pending pause or
    /// swap delay, and no guest prefill the aux stream (or a fused batch)
    /// could pick up.
    ///
    /// Returns the number of steps applied, which `leap` lists with their
    /// completions, their joiners and the joiners whose first decode
    /// iteration each formed step is; their `decode_start` is stamped.
    pub fn run_ahead(&mut self, lane: LaneRef, bounds: RunAhead, leap: &mut Leap) -> u64 {
        leap.clear();
        let LaneRef::Main(lane_idx) = lane else {
            return 0;
        };
        if bounds.max_steps == 0 || !self.lane_can_run_ahead(lane_idx, bounds.until) {
            return 0;
        }
        let mut step = self.lanes[lane_idx].step.take().expect("checked above");
        let total = self.kv.total_blocks() as f64;
        // Free blocks once the growth of every applied step is debited.
        let mut free = self.kv.free_blocks();
        let mut next_finish = self.lanes[lane_idx].ledger.next_finish();
        leap.start = step.started;
        while (leap.ends.len() as u64) < bounds.max_steps && step.ends_at < bounds.until {
            let lane = &self.lanes[lane_idx];
            let ledger = &lane.ledger;
            // Completing the running step moves the clock from `at`.
            let at = ledger.clock;
            let ended = step.ends_at;
            let joiners = lane.roster.len() - ledger.members;
            // Each member whose KV sits on a block boundary takes a fresh
            // block; forming the next step wants one for each member and
            // joiner whose context then does, and more than are free would
            // preempt. Counting every member and joiner, and no finisher's
            // release, bounds what a step needs; exactly so for a quiet one.
            let taken = ledger.kv_crossings(at);
            let fits = taken <= free
                && ((free - taken) as f64 / total) >= bounds.min_free_fraction
                && ledger.ctx_crossings(at + 1) + joiners <= free - taken;
            if next_finish != Some(at + 1) && joiners == 0 {
                if !fits {
                    break;
                }
                free -= taken;
                self.lanes[lane_idx].ledger.clock += 1;
            } else {
                // The ledger helpers read the block manager: settle the
                // growth the quiet steps so far took.
                self.kv
                    .debit_growth(self.kv.free_blocks() - free)
                    .expect("growth checked against free blocks");
                if !fits && !self.boundary_fits(lane_idx, step.join_bound, bounds.min_free_fraction)
                {
                    break;
                }
                let completed = self.complete_quiet(lane_idx, &step, &mut leap.completed);
                debug_assert!(completed, "growth checked against free blocks");
                let joined = self.lanes[lane_idx].roster.since(step.join_bound);
                leap.joined
                    .extend(joined.iter().map(|&(_, slot)| self.seqs.at(slot).id));
                self.fold_joiners(lane_idx, step.join_bound);
                free = self.kv.free_blocks();
                next_finish = self.lanes[lane_idx].ledger.next_finish();
                self.start_fresh(lane_idx, ended, &mut leap.newly_decoding);
            }
            self.stats
                .record_step(StepKind::Decode, ended - step.started, &step.kernel);
            let ends = (
                ended,
                leap.completed.len(),
                leap.joined.len(),
                leap.newly_decoding.len(),
            );
            leap.ends.push(ends);
            let ledger = &self.lanes[lane_idx].ledger;
            if ledger.members == 0 {
                // Every member finished: the lane idles, as `try_start`
                // leaves a lane with nothing to step.
                return leap.ends.len() as u64;
            }
            let (duration, kernel) = self.decode_step(ledger.members, ledger.sum_l());
            step.started = ended;
            step.ends_at = ended + duration.max(SimDuration::from_micros(1));
            step.kernel = kernel;
            step.join_bound = self.next_join;
        }
        self.kv
            .debit_growth(self.kv.free_blocks() - free)
            .expect("growth checked against free blocks");
        if !leap.ends.is_empty() {
            leap.running = Some(step.ends_at);
        }
        self.lanes[lane_idx].step = Some(step);
        leap.ends.len() as u64
    }

    /// Whether the running step of lane `lane_idx` (join bound
    /// `join_bound`), at which members finish or pending joiners fold in,
    /// completes through the ledger and lets the next step form: its
    /// growth blocks fit, the blocks free once the finishers release their
    /// KV keep at least `min_free_fraction` free, and they cover a growth
    /// block for every member and joiner whose context then sits on a
    /// block boundary. The block manager must be settled with the ledger.
    fn boundary_fits(&self, lane_idx: usize, join_bound: u64, min_free_fraction: f64) -> bool {
        let lane = &self.lanes[lane_idx];
        let ledger = &lane.ledger;
        let at = ledger.clock;
        let (free, total) = (self.kv.free_blocks(), self.kv.total_blocks() as f64);
        let (kv_edge, ctx_edge) = (ledger.boundary(at) as u32, ledger.boundary(at + 1) as u32);
        let mut growth = ledger.kv_crossings(at);
        let mut wanted = ledger.ctx_crossings(at + 1);
        let mut released = 0;
        for slot in ledger.finishing_at(at + 1) {
            let seat = self.seat(slot).expect("finishing member seated");
            // A finisher takes no growth block and forms no next step; it
            // releases its KV as of the current clock.
            growth -= usize::from(seat.terms.kv_res == kv_edge);
            wanted -= usize::from(seat.terms.ctx_res == ctx_edge);
            let tokens = self.kv.fill_at(seat.member.kv).0 + self.owed(slot);
            released += self.kv.blocks_for(tokens);
        }
        // A joiner's context sits on a block boundary when it is a whole
        // number of blocks.
        let bt = BLOCK_TOKENS;
        wanted += lane
            .roster
            .since(join_bound)
            .iter()
            .filter(|&&(_, slot)| self.seqs.at(slot).context().is_multiple_of(bt))
            .count();
        let Some(after) = free.checked_sub(growth) else {
            return false;
        };
        let after = after + released;
        (after as f64 / total) >= min_free_fraction && wanted <= after
    }

    /// Members of the step running on `lane` that gain a token when it
    /// completes, in batch order (none when the lane is idle). Batch order
    /// is join order: read before a [`run_ahead`](Instance::run_ahead),
    /// they give each applied step's members, which less its
    /// [`completed`](LeapStep::completed) and plus its
    /// [`joined`](LeapStep::joined) are the next step's.
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
            && step.departed.is_empty()
            && self.waiting_decode.is_empty()
            && self.swapped.is_empty()
            && self.pending_delay.is_zero()
            && self.migrating.is_empty()
            && self.pause_requests.is_empty()
            && !guest_prefill_ready
    }
}
