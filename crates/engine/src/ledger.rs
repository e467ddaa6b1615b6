//! The step ledger of a decode lane.
//!
//! Every step a lane completes credits each of its members with one output
//! token and one token of KV. Rather than walking the batch to apply that,
//! the lane keeps a *clock* of its completed steps, and each member the
//! clock value at which its [`SeqState`] and KV table were last synced:
//! the tokens it is owed are `clock − synced_at`, applied when something
//! reads or changes that member ([`Instance::sync_member`]).
//!
//! What a step needs from its members, the ledger keeps as per-lane
//! aggregates of quantities that stay constant for a member while it sits
//! in the lane, measured relative to the clock:
//!
//! * ΣL, as Σ (context − synced_at): the context sum of the lane at clock
//!   `c` is that plus `members · c`;
//! * member counts by `(KV tokens − c) mod block_tokens` and by
//!   `(context − c) mod block_tokens`: the members whose KV crosses a
//!   block boundary at the completion after clock `c`, or whose context
//!   sits on one when a step forms at `c`, are one count each;
//! * an index of members by the clock at which they finish, ties in batch
//!   order.
//!
//! A member that joins while the lane's step is running is not in that
//! step: it stays *pending* (outside the aggregates, owed nothing) until
//! the step completes and folds it in at the new clock.

use crate::instance::{Instance, Member, RunningStep, BLOCK_TOKENS};
use crate::outcome::CompletedSeq;
use crate::seq::SeqState;
use std::iter::Peekable;
use windserve_kvcache::BlockManager;
use windserve_workload::RequestId;

/// `synced_at` of a pending member: joined during the running step, not
/// yet folded into the ledger.
pub(crate) const PENDING: u64 = u64::MAX;

/// A lane member's place in its lane, kept per sequence slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seat {
    pub(crate) member: Member,
    pub(crate) lane: usize,
    /// Lane clock at which the member's state and KV were last synced, or
    /// [`PENDING`].
    pub(crate) synced_at: u64,
    /// What the member adds to the ledger while folded.
    pub(crate) terms: Terms,
}

/// A folded member's contribution to its lane's ledger. Each term is
/// constant while the member stays in the lane: syncing moves its tokens
/// and `synced_at` by the same amount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Terms {
    /// `context − synced_at`, wrapping.
    pub(crate) ctx_rel: u64,
    /// `(KV tokens − synced_at) mod block_tokens`.
    pub(crate) kv_res: u32,
    /// `(context − synced_at) mod block_tokens`.
    pub(crate) ctx_res: u32,
    /// The clock value at which the member's final token lands.
    pub(crate) finish: u64,
}

/// One lane's step ledger (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Ledger {
    /// Steps the lane has completed.
    pub(crate) clock: u64,
    /// Folded members.
    pub(crate) members: usize,
    /// Σ `Terms::ctx_rel` over folded members, wrapping.
    pub(crate) ctx_rel_sum: u64,
    /// Folded members by `Terms::kv_res`.
    pub(crate) kv_res: Vec<usize>,
    /// Folded members by `Terms::ctx_res`.
    pub(crate) ctx_res: Vec<usize>,
    /// `(finish, join, sequence slot)` of every folded member, in
    /// descending order: members mostly leave by finishing, so from the
    /// end.
    pub(crate) finish: Vec<(u64, u64, u32)>,
}

impl Ledger {
    pub(crate) fn new() -> Self {
        let bt = BLOCK_TOKENS as usize;
        Ledger {
            clock: 0,
            members: 0,
            ctx_rel_sum: 0,
            kv_res: vec![0; bt],
            ctx_res: vec![0; bt],
            finish: Vec::new(),
        }
    }

    /// ΣL of the folded members at the current clock.
    pub(crate) fn sum_l(&self) -> u64 {
        self.ctx_rel_sum
            .wrapping_add(self.members as u64 * self.clock)
    }

    /// The residue whose members sit on a block boundary at clock `at`.
    pub(crate) fn boundary(&self, at: u64) -> usize {
        let bt = self.kv_res.len() as u64;
        ((bt - at % bt) % bt) as usize
    }

    /// Members whose KV takes a fresh block at the completion that moves
    /// the clock from `at` to `at + 1`.
    pub(crate) fn kv_crossings(&self, at: u64) -> usize {
        self.kv_res[self.boundary(at)]
    }

    /// Members whose context sits on a block boundary at clock `at`: the
    /// growth blocks a step formed then asks for.
    pub(crate) fn ctx_crossings(&self, at: u64) -> usize {
        self.ctx_res[self.boundary(at)]
    }

    /// The earliest clock at which a member finishes.
    pub(crate) fn next_finish(&self) -> Option<u64> {
        self.finish.last().map(|&(at, _, _)| at)
    }

    /// Sequence slots of the members finishing at clock `at`, in batch
    /// order.
    pub(crate) fn finishing_at(&self, at: u64) -> impl Iterator<Item = u32> + '_ {
        let from = self.finish.partition_point(|&(f, _, _)| f > at);
        let to = self.finish.partition_point(|&(f, _, _)| f >= at);
        self.finish[from..to].iter().rev().map(|&(_, _, slot)| slot)
    }

    /// Folds a member whose `seq` and KV (`kv_tokens`) are synced at the
    /// current clock.
    pub(crate) fn fold(&mut self, seat: &mut Seat, seq: &SeqState, kv_tokens: u32) {
        let clock = self.clock;
        let ctx = seq.context();
        debug_assert!(ctx > 0, "{} decodes from an empty context", seq.id);
        let bt = self.kv_res.len() as u32;
        let shift = (clock % u64::from(bt)) as u32;
        let left = seq.output_target.saturating_sub(seq.generated).max(1);
        seat.synced_at = clock;
        seat.terms = Terms {
            ctx_rel: u64::from(ctx).wrapping_sub(clock),
            kv_res: (kv_tokens % bt + bt - shift) % bt,
            ctx_res: (ctx % bt + bt - shift) % bt,
            finish: clock + u64::from(left),
        };
        let t = seat.terms;
        self.members += 1;
        self.ctx_rel_sum = self.ctx_rel_sum.wrapping_add(t.ctx_rel);
        self.kv_res[t.kv_res as usize] += 1;
        self.ctx_res[t.ctx_res as usize] += 1;
        let key = (t.finish, seat.member.join, seat.member.seq);
        let at = self.finish.partition_point(|&e| e > key);
        self.finish.insert(at, key);
    }

    /// Takes a folded member's terms back out; a pending member adds
    /// nothing.
    fn unfold(&mut self, seat: &Seat) {
        if seat.synced_at == PENDING {
            return;
        }
        let t = seat.terms;
        self.members -= 1;
        self.ctx_rel_sum = self.ctx_rel_sum.wrapping_sub(t.ctx_rel);
        self.kv_res[t.kv_res as usize] -= 1;
        self.ctx_res[t.ctx_res as usize] -= 1;
        let key = (t.finish, seat.member.join, seat.member.seq);
        let at = self.finish.partition_point(|&e| e > key);
        debug_assert_eq!(
            self.finish.get(at),
            Some(&key),
            "{} missing from the finish index",
            seat.member.id
        );
        self.finish.remove(at);
    }
}

/// A lane's members in batch order, as `(join stamp, sequence slot)`
/// sorted by join stamp: a member joins at the end, and one that leaves
/// shifts the members after it down.
#[derive(Debug, Clone, Default)]
pub(crate) struct Roster(Vec<(u64, u32)>);

impl Roster {
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The members' sequence slots in batch order.
    pub(crate) fn slots(&self) -> impl DoubleEndedIterator<Item = u32> + '_ {
        self.0.iter().map(|&(_, slot)| slot)
    }

    /// The members that joined before stamp `bound`.
    pub(crate) fn before(&self, bound: u64) -> &[(u64, u32)] {
        &self.0[..self.0.partition_point(|&(join, _)| join < bound)]
    }

    /// The members that joined at or after stamp `bound`.
    pub(crate) fn since(&self, bound: u64) -> &[(u64, u32)] {
        &self.0[self.0.partition_point(|&(join, _)| join < bound)..]
    }

    fn push(&mut self, join: u64, slot: u32) {
        debug_assert!(self.0.last().is_none_or(|&(last, _)| last < join));
        self.0.push((join, slot));
    }

    fn remove(&mut self, join: u64) {
        let at = self
            .0
            .binary_search_by_key(&join, |&(j, _)| j)
            .expect("member on the roster");
        self.0.remove(at);
    }
}

/// Applies to `seq` and its KV table the tokens `seat` is owed at lane
/// clock `clock`.
fn settle(seat: &mut Seat, clock: u64, seq: &mut SeqState, kv: &mut BlockManager) {
    if seat.synced_at == PENDING || seat.synced_at == clock {
        return;
    }
    let owed = u32::try_from(clock - seat.synced_at).expect("owed tokens fit a sequence");
    seat.synced_at = clock;
    seq.generated += owed;
    kv.settle_at(seat.member.kv, owed);
}

/// The decode members of a running step in batch order: the lane's
/// members that joined before the step formed, merged by join stamp with
/// the step members preempted since.
pub(crate) struct StepMembers<'a> {
    roster: Peekable<std::slice::Iter<'a, (u64, u32)>>,
    departed: Peekable<std::slice::Iter<'a, Member>>,
    seats: &'a [Option<Seat>],
}

impl Iterator for StepMembers<'_> {
    type Item = Member;

    fn next(&mut self) -> Option<Member> {
        let seated = self.roster.peek().map(|&&(join, _)| join);
        match (seated, self.departed.peek()) {
            (Some(join), Some(d)) if d.join < join => self.departed.next().copied(),
            (Some(_), _) => {
                let &(_, slot) = self.roster.next()?;
                Some(
                    self.seats[slot as usize]
                        .expect("lane member seated")
                        .member,
                )
            }
            (None, _) => self.departed.next().copied(),
        }
    }
}

impl Instance {
    /// The seat of the sequence in `slot`, if it is a lane member.
    pub(crate) fn seat(&self, slot: u32) -> Option<&Seat> {
        self.seats.get(slot as usize).and_then(Option::as_ref)
    }

    /// Tokens the lane owes the member in `slot` (zero for a sequence in
    /// no lane or a pending member).
    pub(crate) fn owed(&self, slot: u32) -> u32 {
        match self.seat(slot) {
            Some(seat) if seat.synced_at != PENDING => {
                let owed = self.lanes[seat.lane].ledger.clock - seat.synced_at;
                u32::try_from(owed).expect("owed tokens fit a sequence")
            }
            _ => 0,
        }
    }

    /// The context of the sequence in `slot` as of its lane's clock.
    pub(crate) fn context_at(&self, slot: u32) -> u32 {
        self.seqs.at(slot).context() + self.owed(slot)
    }

    /// Applies the tokens the lane owes the member in `slot` to its
    /// [`SeqState`] and KV table.
    pub(crate) fn sync_member(&mut self, slot: u32) {
        if let Some(seat) = self.seats.get_mut(slot as usize).and_then(Option::as_mut) {
            let clock = self.lanes[seat.lane].ledger.clock;
            settle(seat, clock, self.seqs.at_mut(slot), &mut self.kv);
        }
    }

    /// Syncs every member of lane `lane_idx`.
    pub(crate) fn sync_lane(&mut self, lane_idx: usize) {
        let lane = &self.lanes[lane_idx];
        for slot in lane.roster.slots() {
            let seat = self.seats[slot as usize]
                .as_mut()
                .expect("lane member seated");
            settle(
                seat,
                lane.ledger.clock,
                self.seqs.at_mut(slot),
                &mut self.kv,
            );
        }
    }

    /// Adds sequence `id` (state in slot `seq`, KV allocated) to the least
    /// loaded lane, after its current members. It is folded into the
    /// lane's ledger now if the lane is idle, else when the running step
    /// completes.
    pub(crate) fn join_lane(&mut self, id: RequestId, seq: u32) {
        let kv = self.kv.slot_of(id.0).expect("admitted with KV");
        let lane_idx = self.least_loaded_lane();
        let join = self.next_join;
        self.next_join += 1;
        let mut seat = Seat {
            member: Member { id, seq, kv, join },
            lane: lane_idx,
            synced_at: PENDING,
            terms: Terms::default(),
        };
        let state = self.seqs.at(seq);
        let lane = &mut self.lanes[lane_idx];
        if lane.step.is_none() {
            lane.ledger.fold(&mut seat, state, self.kv.fill_at(kv).0);
        }
        if state.decode_start.is_none() {
            lane.fresh.push((join, seq));
        }
        lane.roster.push(join, seq);
        let slot = seq as usize;
        if self.seats.len() <= slot {
            self.seats.resize(slot + 1, None);
        }
        self.seats[slot] = Some(seat);
    }

    /// Syncs the member in `slot` and takes it out of its lane. Returns it
    /// and its lane, or `None` if the sequence is in no lane.
    pub(crate) fn leave_lane(&mut self, slot: u32) -> Option<(Member, usize)> {
        self.sync_member(slot);
        let seat = self.seats.get_mut(slot as usize)?.take()?;
        let lane = &mut self.lanes[seat.lane];
        lane.ledger.unfold(&seat);
        lane.roster.remove(seat.member.join);
        Some((seat.member, seat.lane))
    }

    /// Folds the members that joined lane `lane_idx` while the step with
    /// join bound `bound` ran: the step completed without them, so they
    /// enter the ledger at the new clock owed nothing.
    pub(crate) fn fold_joiners(&mut self, lane_idx: usize, bound: u64) {
        let lane = &mut self.lanes[lane_idx];
        for &(_, slot) in lane.roster.since(bound) {
            let seat = self.seats[slot as usize]
                .as_mut()
                .expect("lane member seated");
            let tokens = self.kv.fill_at(seat.member.kv).0;
            lane.ledger.fold(seat, self.seqs.at(slot), tokens);
        }
    }

    /// The decode members of `step`, running on lane `lane_idx`, in batch
    /// order.
    pub(crate) fn members_of<'a>(
        &'a self,
        lane_idx: usize,
        step: &'a RunningStep,
    ) -> StepMembers<'a> {
        StepMembers {
            roster: self.lanes[lane_idx]
                .roster
                .before(step.join_bound)
                .iter()
                .peekable(),
            departed: step.departed.iter().peekable(),
            seats: &self.seats,
        }
    }

    /// Completes the decode members of lane `lane_idx`'s `step` through
    /// the ledger alone: finishes the members the index yields at the next
    /// clock into `completed`, debits the growth blocks the residue counts
    /// name and advances the clock. A hybrid step's prefill chunk touches no lane
    /// member, so it completes this way too. Returns `false`, changing
    /// nothing, when the step needs the per-member pass: a member
    /// preempted mid-step, a pending pause, or growth beyond the free
    /// blocks (an append could then fail and preempt, depending on batch
    /// order).
    pub(crate) fn complete_quiet(
        &mut self,
        lane_idx: usize,
        step: &RunningStep,
        completed: &mut Vec<CompletedSeq>,
    ) -> bool {
        if !step.departed.is_empty() || !self.pause_requests.is_empty() {
            return false;
        }
        let ledger = &self.lanes[lane_idx].ledger;
        let clock = ledger.clock;
        let boundary = ledger.boundary(clock) as u32;
        let finishing: Vec<u32> = ledger.finishing_at(clock + 1).collect();
        // Finishing members take no growth block.
        let crossing_finishers = finishing
            .iter()
            .filter(|&&slot| self.seats[slot as usize].is_some_and(|s| s.terms.kv_res == boundary))
            .count();
        let growth = ledger.kv_crossings(clock) - crossing_finishers;
        if growth > self.kv.free_blocks() {
            return false;
        }
        for &slot in &finishing {
            let (member, _) = self.leave_lane(slot).expect("finishing member seated");
            self.seqs.at_mut(slot).generated += 1;
            self.finish_sequence(member.id, completed);
        }
        self.kv
            .debit_growth(growth)
            .expect("growth checked against free blocks");
        self.lanes[lane_idx].ledger.clock += 1;
        true
    }

    /// The ledger part of [`Instance::check_invariants`]: recomputes every
    /// lane's aggregates, each member's terms and the deferred block debit
    /// from synced member state.
    pub(crate) fn check_ledgers(&self) -> Result<(), String> {
        let name = self.name();
        let mut deferred = 0usize;
        let mut seated = 0usize;
        for (i, lane) in self.lanes.iter().enumerate() {
            let mut expect = Ledger::new();
            expect.clock = lane.ledger.clock;
            let bound = lane.step.as_ref().map_or(u64::MAX, |s| s.join_bound);
            for &(join, slot) in lane.roster.since(0) {
                let Some(seat) = self.seat(slot) else {
                    return Err(format!(
                        "{name}: lane {i} member in slot {slot} has no seat"
                    ));
                };
                let id = seat.member.id;
                if seat.lane != i || seat.member.join != join || seat.member.seq != slot {
                    return Err(format!(
                        "{name}: lane {i} lists {id} as join {join} in slot {slot}, its seat says \
                         lane {} join {} slot {}",
                        seat.lane, seat.member.join, seat.member.seq
                    ));
                }
                seated += 1;
                let pending = seat.synced_at == PENDING;
                if pending != (join >= bound) {
                    return Err(format!(
                        "{name}: lane {i}: {id} (join {join}, step bound {bound}) pending: {pending}"
                    ));
                }
                if pending {
                    continue;
                }
                if seat.synced_at > lane.ledger.clock {
                    return Err(format!(
                        "{name}: lane {i}: {id} synced at {} past the clock {}",
                        seat.synced_at, lane.ledger.clock
                    ));
                }
                let owed = self.owed(slot);
                let mut state = self.seqs.at(slot).clone();
                state.generated += owed;
                let tokens = self.kv.fill_at(seat.member.kv).0;
                let mut synced = *seat;
                expect.fold(&mut synced, &state, tokens + owed);
                if synced.terms != seat.terms {
                    return Err(format!(
                        "{name}: lane {i}: {id} has ledger terms {:?}, its state gives {:?}",
                        seat.terms, synced.terms
                    ));
                }
                deferred += self.kv.blocks_for(tokens + owed) - self.kv.blocks_for(tokens);
            }
            if expect != lane.ledger {
                return Err(format!(
                    "{name}: lane {i} ledger drifted: {:?}, members give {expect:?}",
                    lane.ledger
                ));
            }
        }
        let seats = self.seats.iter().flatten().count();
        if seats != seated {
            return Err(format!("{name}: {seats} seats but {seated} lane members"));
        }
        if deferred != self.kv.deferred_blocks() {
            return Err(format!(
                "{name}: {} growth blocks debited, members owe {deferred}",
                self.kv.deferred_blocks()
            ));
        }
        Ok(())
    }
}
