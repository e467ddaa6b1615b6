//! Property tests of the whole instance under randomized workloads: the
//! miniature event loop feeds random mixes of prefill and decode work (and
//! cancels, aborts and crashes) and asserts the global invariants after
//! every step. The step ledger is checked against the eager per-member
//! oracle, and the decode run-ahead against step-by-step completion.

use crate::config::{InstanceConfig, InstanceRole, PreemptionMode};
use crate::instance::Instance;
use crate::oracle::Eager;
use crate::outcome::{LaneRef, PausedSeq};
use crate::seq::SeqState;
use proptest::prelude::*;
use windserve_gpu::{GpuSpec, StreamSharing};
use windserve_model::{CostModel, ModelSpec, Parallelism};
use windserve_sim::SimTime;
use windserve_workload::RequestId;

#[derive(Debug, Clone)]
enum Op {
    Prefill {
        prompt: u32,
        output: u32,
    },
    DecodeArrival {
        ctx: u32,
        output: u32,
    },
    /// `cancel_queued_prefill` on the `idx`-th arrival so far (modulo).
    Cancel(usize),
    /// `abort_sequence` on the `idx`-th arrival so far (modulo).
    Abort(usize),
    /// `fail_and_drain`: the instance crashes, losing everything.
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..1500, 1u32..60).prop_map(|(prompt, output)| Op::Prefill { prompt, output }),
        (1u32..1800, 1u32..60).prop_map(|(ctx, output)| Op::DecodeArrival { ctx, output }),
    ]
}

/// Arrivals (two thirds) mixed with every way a request can leave a queue
/// early: cancels and aborts, and a crash one time in 24.
fn mutation_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        (0usize..512).prop_map(|k| match k % 8 {
            0 => Op::Crash,
            1..=3 => Op::Cancel(k / 8),
            _ => Op::Abort(k / 8),
        }),
    ]
}

/// Enqueues an arrival op as request `id`; returns false for other ops.
fn enqueue(inst: &mut Instance, id: RequestId, op: &Op) -> bool {
    match *op {
        Op::Prefill { prompt, output } => inst.enqueue_prefill(id, prompt.min(1500), output),
        Op::DecodeArrival { ctx, output } => inst.enqueue_decode_arrival(
            SeqState::arriving_for_decode(id, ctx.min(1800), output.max(2), 1, 0),
        ),
        Op::Cancel(_) | Op::Abort(_) | Op::Crash => return false,
    }
    true
}

fn cramped_instance(role: InstanceRole, kv_tokens: u64, preemption: PreemptionMode) -> Instance {
    let mut cost = CostModel::new(
        ModelSpec::opt_13b(),
        GpuSpec::a800_80gb(),
        Parallelism::tp(2),
    )
    .unwrap();
    let spare = cost.kv_capacity_bytes() - kv_tokens * cost.model().kv_bytes_per_token();
    cost.activation_reserve_bytes += spare / cost.parallelism().n_gpus() as u64;
    let mut cfg = match role {
        InstanceRole::Prefill => InstanceConfig::prefill("p"),
        InstanceRole::Decode => InstanceConfig::decode("d"),
        InstanceRole::Colocated => InstanceConfig::colocated("c"),
    };
    cfg.preemption = preemption;
    Instance::new(cfg, cost, StreamSharing::default(), 20e9).unwrap()
}

/// Starts whatever `inst` can start at `now`, recording the steps.
fn start(inst: &mut Instance, now: SimTime, pending: &mut Vec<(LaneRef, SimTime)>) {
    pending.extend(inst.try_start(now).into_iter().map(|s| (s.lane, s.ends_at)));
}

/// Completes the earliest pending step, emulating the cluster's reaction,
/// then starts new work and checks every structural invariant. Returns the
/// step's instant and how many requests left the instance (completed, or
/// handed off after prefill on a prefill instance); `None` when idle.
fn step_once(
    inst: &mut Instance,
    pending: &mut Vec<(LaneRef, SimTime)>,
) -> Option<(SimTime, usize)> {
    let idx = pending
        .iter()
        .enumerate()
        .min_by_key(|(_, (_, t))| *t)
        .map(|(i, _)| i)?;
    let (lane, at) = pending.swap_remove(idx);
    let out = inst.complete_step(lane, at);
    let mut left = out.completed.len();
    for fp in &out.finished_prefills {
        // Emulate the cluster: hand prefilled work off, promote it, or
        // finish one-token requests whose prefill was the whole answer.
        if inst.role() == InstanceRole::Prefill || inst.sequence_is_done(fp.id) {
            inst.release_sequence(fp.id);
            left += 1;
        } else {
            inst.promote_to_decode(fp.id);
        }
    }
    start(inst, at, pending);
    inst.check_invariants().expect("structural invariants");
    Some((at, left))
}

/// Drives to quiescence; returns how many requests left the instance.
fn drive_all(inst: &mut Instance, max_events: usize) -> usize {
    let mut pending = Vec::new();
    start(inst, SimTime::ZERO, &mut pending);
    let mut left = 0;
    for _ in 0..max_events {
        let Some((_, n)) = step_once(inst, &mut pending) else {
            break;
        };
        left += n;
    }
    left
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any mix of work on a cramped decode instance conserves KV blocks,
    /// loses no request, and quiesces.
    #[test]
    fn decode_instance_survives_random_mixes(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        swap_mode in proptest::bool::ANY,
    ) {
        let mode = if swap_mode { PreemptionMode::Swap } else { PreemptionMode::Recompute };
        let mut inst = cramped_instance(InstanceRole::Decode, 24 * 1024, mode);
        let mut expected = 0usize;
        for (i, op) in ops.iter().enumerate() {
            expected += usize::from(enqueue(&mut inst, RequestId(i as u64), op));
        }
        let completed = drive_all(&mut inst, 400_000);
        prop_assert_eq!(completed, expected, "every request must finish");
        prop_assert_eq!(inst.kv().free_blocks(), inst.kv().total_blocks());
        prop_assert_eq!(inst.running_decode_count(), 0);
    }

    /// Forced overload preemptions (`preempt_for_pressure`) at arbitrary
    /// points conserve KV blocks and lose no request: every preempted
    /// sequence swaps out (or drops for recompute), re-admits, and still
    /// completes, with the cache fully drained at quiescence.
    #[test]
    fn pressure_preemption_conserves_kv_and_completes(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        picks in proptest::collection::vec(0usize..8, 1..60),
        swap_mode in proptest::bool::ANY,
    ) {
        let mode = if swap_mode { PreemptionMode::Swap } else { PreemptionMode::Recompute };
        let mut inst = cramped_instance(InstanceRole::Decode, 24 * 1024, mode);
        let mut expected = 0usize;
        for (i, op) in ops.iter().enumerate() {
            expected += usize::from(enqueue(&mut inst, RequestId(i as u64), op));
        }
        // Same event loop as drive_all, but between steps preempt a
        // pick-selected running decode, exactly as the cluster's
        // KV-pressure controller would.
        let mut pending: Vec<(LaneRef, SimTime)> = inst
            .try_start(SimTime::ZERO)
            .into_iter()
            .map(|s| (s.lane, s.ends_at))
            .collect();
        let mut completed = 0;
        let mut preempted = 0usize;
        let mut picks = picks.into_iter().cycle();
        for _ in 0..400_000 {
            let Some(idx) = pending
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
            else {
                break;
            };
            let (lane, at) = pending.swap_remove(idx);
            let out = inst.complete_step(lane, at);
            completed += out.completed.len();
            for fp in &out.finished_prefills {
                if inst.sequence_is_done(fp.id) {
                    inst.release_sequence(fp.id);
                    completed += 1;
                } else {
                    inst.promote_to_decode(fp.id);
                }
            }
            let running = inst.running_decodes();
            if let Some(pick) = picks.next() {
                if !running.is_empty() {
                    let (victim, _) = running[pick % running.len()];
                    if inst.preempt_for_pressure(victim) {
                        preempted += 1;
                    }
                }
            }
            inst.check_invariants().expect("structural invariants");
            for s in inst.try_start(at) {
                pending.push((s.lane, s.ends_at));
            }
        }
        prop_assert_eq!(completed, expected, "a preempted request must still finish");
        prop_assert_eq!(inst.kv().free_blocks(), inst.kv().total_blocks());
        prop_assert_eq!(inst.swapped_len(), 0, "swap queue must drain");
        // The harness preempts whenever something runs, so any non-trivial
        // case exercises the path (preempted stays 0 only for op mixes that
        // never have a running decode at a pick point).
        let _ = preempted;
    }

    /// Colocated instances (hybrid batching path) satisfy the same
    /// invariants.
    #[test]
    fn colocated_instance_survives_random_mixes(
        ops in proptest::collection::vec(op_strategy(), 1..30),
    ) {
        let mut inst = cramped_instance(InstanceRole::Colocated, 20 * 1024, PreemptionMode::Swap);
        let mut expected = 0usize;
        for (i, op) in ops.iter().enumerate() {
            expected += usize::from(enqueue(&mut inst, RequestId(i as u64), op));
        }
        let completed = drive_all(&mut inst, 400_000);
        prop_assert_eq!(completed, expected);
        prop_assert_eq!(inst.kv().free_blocks(), inst.kv().total_blocks());
    }

    /// Cancels, aborts and crashes interleaved with steps keep the running
    /// prefill backlog count exact: `check_invariants` recomputes it after
    /// every operation and every step. On the prefill instance, migrated
    /// decodes hold the lane, so prompts run in chunks and both
    /// `pack_chunk`'s pop and the unfinished chunk's push_front execute.
    /// Every arrival ends up finished, handed off, or removed.
    #[test]
    fn queue_mutations_keep_the_backlog_count_exact(
        ops in proptest::collection::vec(mutation_strategy(), 1..60),
        role in prop_oneof![
            Just(InstanceRole::Prefill),
            Just(InstanceRole::Decode),
            Just(InstanceRole::Colocated),
        ],
    ) {
        let mut inst = cramped_instance(role, 24 * 1024, PreemptionMode::Swap);
        let mut arrived = Vec::new();
        let (mut left, mut removed) = (0usize, 0usize);
        let mut pending = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, op) in ops.iter().enumerate() {
            let id = RequestId(i as u64);
            let pick = |k: usize| arrived[k % arrived.len()];
            match *op {
                Op::Cancel(k) if !arrived.is_empty() => {
                    removed += usize::from(inst.cancel_queued_prefill(pick(k)));
                }
                Op::Abort(k) if !arrived.is_empty() => {
                    removed += usize::from(inst.abort_sequence(pick(k)));
                }
                Op::Crash => {
                    removed += inst.fail_and_drain().len();
                    prop_assert_eq!(inst.prefill_backlog_tokens(), 0);
                    // The crashed steps' completions are discarded.
                    pending.clear();
                }
                _ => {
                    if enqueue(&mut inst, id, op) {
                        arrived.push(id);
                    }
                }
            }
            inst.check_invariants().expect("structural invariants");
            start(&mut inst, now, &mut pending);
            if let Some((at, n)) = step_once(&mut inst, &mut pending) {
                now = at;
                left += n;
            }
        }
        for _ in 0..400_000 {
            let Some((_, n)) = step_once(&mut inst, &mut pending) else {
                break;
            };
            left += n;
        }
        prop_assert_eq!(left + removed, arrived.len(), "every arrival accounted for");
        prop_assert_eq!(inst.prefill_backlog_tokens(), 0);
        prop_assert!(inst.is_drained());
    }
}

// ----------------------------------------------------------------------
// Decode run-ahead against step-by-step completion
// ----------------------------------------------------------------------

/// One decode member of the run-ahead fixture: its context, output target
/// and whether it was prefilled locally (its KV then holds one token less
/// than its context). Contexts cluster on and around 16-token block
/// boundaries; a quarter of the outputs come from three lengths, so
/// members share finish clocks.
fn member_strategy() -> impl Strategy<Value = (u32, u32, bool)> {
    ((1u32..48, 0u32..4, 0u32..16, 0u32..8), proptest::bool::ANY).prop_map(
        |((block, kind, off, len), local)| {
            let ctx = match kind {
                0 => 16 * block,
                1 => 16 * block - 1,
                2 => 16 * block + 1,
                _ => 16 * block + off,
            };
            let output = match len {
                0..=1 => [2, 4, 7][off as usize % 3],
                2..=3 => 2 + off + block % 9,
                // Long outputs, so KV runs out while they decode.
                _ => 150 + 23 * off + block,
            };
            (ctx.max(2), output, local)
        },
    )
}

/// Builds the fixture deterministically, so two calls give twin instances:
/// a decode instance with `slack` blocks beyond what its members and
/// guests hold at admission; members handed off from a prefill instance
/// (KV holds the whole context) or prefilled here (KV one token short, as
/// after a guest prefill); and guest prefills that run in the aux stream
/// and then join the lane.
fn leap_fixture(members: &[(u32, u32, bool)], guests: &[(u32, u32)], slack: u64) -> Instance {
    let blocks: u64 = members
        .iter()
        .map(|&(ctx, _, _)| ctx)
        .chain(guests.iter().map(|&(prompt, _)| prompt))
        .map(|tokens| u64::from(tokens.div_ceil(16)))
        .sum();
    let mut inst = cramped_instance(
        InstanceRole::Decode,
        16 * (blocks + slack),
        PreemptionMode::Swap,
    );
    for (i, &(ctx, output, local)) in members.iter().enumerate() {
        let id = RequestId(i as u64);
        if local {
            // What a finished guest prefill leaves behind: the prompt's
            // KV, the first token generated, the request promoted.
            let mut seq = SeqState::new(id, ctx - 1, output);
            seq.prefilled = ctx - 1;
            seq.generated = 1;
            inst.kv.allocate(id.0, ctx - 1).expect("sized to fit");
            inst.seqs.insert(id.0, seq);
            inst.promote_to_decode(id);
        } else {
            inst.enqueue_decode_arrival(SeqState::arriving_for_decode(id, ctx - 1, output, 1, 0));
        }
    }
    for (i, &(prompt, output)) in guests.iter().enumerate() {
        inst.enqueue_prefill(RequestId(1000 + i as u64), prompt, output);
    }
    inst
}

/// The cluster's reaction to one step completion, then the next
/// `try_start`: finished guest prefills move to the decode queue (or leave
/// when their first token was the whole answer). Returns the outcome and
/// the first-time members of the step lane 0 then starts.
fn reference_event(
    inst: &mut Instance,
    lane: LaneRef,
    at: SimTime,
    pending: &mut Vec<(LaneRef, SimTime)>,
) -> (crate::outcome::StepOutcome, Vec<RequestId>) {
    pending.retain(|&(l, _)| l != lane);
    let out = inst.complete_step(lane, at);
    for fp in &out.finished_prefills {
        if inst.sequence_is_done(fp.id) {
            inst.release_sequence(fp.id);
        } else {
            inst.promote_to_decode(fp.id);
        }
    }
    let mut newly = Vec::new();
    for step in inst.try_start(at) {
        if step.lane == LaneRef::Main(0) {
            newly = step.newly_decoding;
        }
        pending.push((step.lane, step.ends_at));
    }
    (out, newly)
}

/// Lane `lane`'s members, in batch order.
fn lane_members(inst: &Instance, lane: usize) -> Vec<RequestId> {
    inst.lanes[lane]
        .roster
        .slots()
        .map(|slot| inst.seqs.at(slot).id)
        .collect()
}

/// The members of the step running on lane `lane`, in batch order.
fn step_ids(inst: &Instance, lane: usize) -> Vec<RequestId> {
    inst.step_members(LaneRef::Main(lane)).collect()
}

/// Whether lane 0's running step can go through the ledger, read off the
/// members' synced state rather than the ledger: no member was preempted
/// mid-step, no admission, swap delay or guest prefill would act at its
/// boundary, and the free blocks cover a new block for every member that
/// does not finish and whose KV fills its blocks.
fn leapable_now(inst: &Instance) -> bool {
    let Some(step) = &inst.lanes[0].step else {
        return false;
    };
    let members = step_ids(inst, 0);
    let view = synced_view(inst);
    let state = |id: RequestId| {
        view.iter()
            .find(|(s, _, _)| s.id == id)
            .expect("step member live")
    };
    let finishes = |id: RequestId| {
        let (s, _, _) = state(id);
        s.generated + 1 >= s.output_target
    };
    let growth = members
        .iter()
        .filter(|&&id| !finishes(id) && state(id).1.expect("on device") % 16 == 0)
        .count();
    step.departed.is_empty()
        && inst.waiting_decode.is_empty()
        && inst.swapped.is_empty()
        && inst.pending_delay.is_zero()
        && (inst.aux_step.is_some() || inst.waiting_prefill.is_empty())
        && growth <= inst.kv.free_blocks()
}

/// The members of the step a leap formed at `step`'s end, from those of
/// `step` itself: its completions leave, then its joiners follow in join
/// order.
fn next_members(members: &mut Vec<RequestId>, step: &crate::LeapStep<'_>) {
    members.retain(|&id| !step.completed.iter().any(|c| c.id == id));
    members.extend_from_slice(step.joined);
}

/// Whether the lane-0 completion that produced `out` is one a leap may
/// apply: no member paused, no prefill finished, KV stayed at or above
/// `floor`, nothing was preempted, and a step runs on the lane unless
/// every member finished.
fn absorbed(inst: &Instance, out: &crate::outcome::StepOutcome, floor: f64) -> bool {
    out.paused.is_empty()
        && out.finished_prefills.is_empty()
        && inst.kv_free_fraction() >= floor
        && inst.swapped.is_empty()
        && (inst.lanes[0].step.is_some() || inst.lanes[0].roster.is_empty())
}

/// Every live sequence as of its lane's clock, by request id: its state
/// and its KV tokens, on device or on host.
fn synced_view(inst: &Instance) -> Vec<(SeqState, Option<u32>, Option<u32>)> {
    let mut view: Vec<_> = inst
        .seqs
        .keys()
        .map(|key| {
            let slot = inst.seqs.slot_of(key).expect("live");
            let owed = inst.owed(slot);
            let mut state = inst.seqs.at(slot).clone();
            state.generated += owed;
            let tokens = inst.kv.tokens_of(key).map(|t| t + owed);
            (state, tokens, inst.kv.swapped_tokens(key))
        })
        .collect();
    view.sort_by_key(|(state, _, _)| state.id);
    view
}

/// Everything observable about an instance.
fn assert_twins(a: &Instance, b: &Instance) {
    assert_eq!(synced_view(a), synced_view(b), "sequences and their KV");
    assert_eq!(a.kv.free_blocks(), b.kv.free_blocks(), "free blocks");
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats), "stats");
    assert_eq!(lane_members(a, 0), lane_members(b, 0), "lane members");
    assert_eq!(a.lanes[0].step, b.lanes[0].step, "running step");
    assert_eq!(a.aux_step, b.aux_step, "aux step");
    assert_eq!(a.waiting_prefill, b.waiting_prefill);
    assert_eq!(a.waiting_decode, b.waiting_decode);
}

proptest! {
    /// `run_ahead` up to T leaves the instance exactly where completing
    /// and restarting lane 0 one boundary at a time up to T leaves it,
    /// through steps where members finish (the last one included) and
    /// where members that joined mid-step fold in. It reports each step's
    /// completions and first-time members as those calls do, and its
    /// joiners so that each step's members follow from the running step's
    /// (as `step_members` reads them before each of those calls). It stops
    /// only at a step the ledger cannot complete.
    #[test]
    fn run_ahead_matches_step_by_step_completion(
        members in proptest::collection::vec(member_strategy(), 1..24),
        guests in proptest::collection::vec((16u32..1500, 2u32..80), 0..3),
        (slack, floor_permille) in (0u64..32, 0u64..60)
            .prop_map(|(s, f)| (if s < 24 { s / 2 } else { 16 * s }, f)),
        cuts in proptest::collection::vec((0u64..250_000, 1u64..40), 1..24)
            // Every eighth cut lands exactly on the next boundary.
            .prop_map(|c| c.into_iter().map(|(x, m)| (if x % 8 == 0 { 0 } else { x }, m)).collect::<Vec<_>>()),
    ) {
        let mut a = leap_fixture(&members, &guests, slack);
        let mut b = leap_fixture(&members, &guests, slack);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        start(&mut a, SimTime::ZERO, &mut pa);
        start(&mut b, SimTime::ZERO, &mut pb);
        let mut cuts = cuts.into_iter().cycle();
        let mut leap = crate::Leap::default();
        let lane0 = LaneRef::Main(0);
        for _ in 0..600 {
            let Some(&(lane, at)) = pa.iter().min_by_key(|(_, t)| *t) else {
                break;
            };
            let others = pa.iter().filter(|(l, _)| *l != lane0).map(|&(_, t)| t).min();
            if lane != lane0 || others == Some(at) {
                reference_event(&mut a, lane, at, &mut pa);
                reference_event(&mut b, lane, at, &mut pb);
                assert_twins(&a, &b);
                continue;
            }
            // Lane 0 completes next, strictly before anything else: leap
            // on `a` up to a cut no later than the next other event, and
            // step `b` one boundary at a time.
            let (extra, max_steps) = cuts.next().expect("cycled");
            let cut = at + windserve_sim::SimDuration::from_micros(extra);
            let until = others.map_or(cut, |o| o.min(cut));
            let floor = (a.kv_free_fraction() - floor_permille as f64 / 1000.0).max(0.0);
            let bounds = crate::RunAhead { until, max_steps, min_free_fraction: floor };
            let mut members = step_ids(&a, 0);
            let k = a.run_ahead(lane0, bounds, &mut leap);
            a.check_invariants().expect("invariants after a leap");
            prop_assert!(k <= max_steps);
            prop_assert_eq!(leap.steps().count() as u64, k);
            for step in leap.steps() {
                let running = b.lanes[0].step.as_ref().expect("running");
                prop_assert_eq!((step.started, step.ended), (running.started, running.ends_at));
                prop_assert!(step.ended < until && leapable_now(&b));
                prop_assert_eq!(&members, &step_ids(&b, 0), "step members");
                let (out, newly) = reference_event(&mut b, lane0, step.ended, &mut pb);
                prop_assert!(absorbed(&b, &out, floor), "absorbed a step the ledger cannot complete");
                prop_assert_eq!(step.completed, &out.completed[..], "completions");
                prop_assert_eq!(step.newly_decoding, &newly[..], "first-time members");
                prop_assert_eq!(step.next_ends_at, b.lanes[0].step.as_ref().map(|s| s.ends_at));
                next_members(&mut members, &step);
            }
            if k > 0 {
                prop_assert_eq!(&members, &step_ids(&b, 0), "members of the step left running");
            }
            if k > 0 {
                pa.retain(|&(l, _)| l != lane0);
                pa.extend(leap.running().map(|end| (lane0, end)));
            }
            assert_twins(&a, &b);
            prop_assert_eq!(&pa, &pb);
            // The boundary the leap stopped at must not have been one it
            // could apply.
            let next = a.lanes[0].step.as_ref().map(|s| s.ends_at);
            if let Some(end) = next.filter(|&e| e < until && k < max_steps) {
                let could = leapable_now(&b);
                reference_event(&mut a, lane0, end, &mut pa);
                let (out, _) = reference_event(&mut b, lane0, end, &mut pb);
                prop_assert!(
                    !(could && absorbed(&b, &out, floor)),
                    "run_ahead stopped before a step it could apply"
                );
                assert_twins(&a, &b);
            }
        }
    }
}

/// A step ending exactly at `until` is left to the caller's queue (ties go
/// to the queued event), and the steps of a shorter leap are a prefix of
/// a longer one's.
#[test]
fn run_ahead_leaves_a_step_ending_at_until() {
    let members = [(100, 300, false), (130, 300, true), (47, 300, false)];
    let leap = |until: SimTime| {
        let mut inst = leap_fixture(&members, &[], 64);
        start(&mut inst, SimTime::ZERO, &mut Vec::new());
        let bounds = crate::RunAhead {
            until,
            max_steps: 10,
            min_free_fraction: 0.0,
        };
        let mut leap = crate::Leap::default();
        let k = inst.run_ahead(LaneRef::Main(0), bounds, &mut leap);
        let ends: Vec<SimTime> = leap.steps().map(|s| s.ended).collect();
        (k, ends, leap.running())
    };
    let (k, ends, running) = leap(SimTime::MAX);
    assert_eq!((k, ends.len()), (10, 10), "max_steps bounds the leap");
    assert!(running > ends.last().copied());
    let (k, cut, running) = leap(ends[3]);
    assert_eq!(k, 3, "the step ending at `until` stays queued");
    assert_eq!(cut, ends[..3]);
    assert_eq!(running, Some(ends[3]));
}

/// One leap crosses every kind of boundary the ledger completes: two
/// members finishing together, a guest prefill's request joining
/// mid-step and folding in at the next boundary, and the last member
/// finishing, which leaves the lane idle with nothing running.
#[test]
fn run_ahead_runs_through_finishes_and_joins() {
    let members = [(100, 4, false), (130, 4, true), (47, 9, false)];
    let mut inst = leap_fixture(&members, &[(40, 4)], 64);
    let mut pending = Vec::new();
    start(&mut inst, SimTime::ZERO, &mut pending);
    // The guest prefill completes first; its request joins lane 0's step.
    let &(aux, at) = pending
        .iter()
        .find(|(l, _)| *l == LaneRef::Aux)
        .expect("guest runs");
    reference_event(&mut inst, aux, at, &mut pending);
    assert_eq!(inst.lanes[0].roster.len(), 4, "the guest's request joined");
    assert_eq!(
        inst.lanes[0].ledger.members, 3,
        "and waits for the boundary"
    );
    let bounds = crate::RunAhead {
        until: SimTime::MAX,
        max_steps: 100,
        min_free_fraction: 0.0,
    };
    let mut leap = crate::Leap::default();
    let k = inst.run_ahead(LaneRef::Main(0), bounds, &mut leap);
    inst.check_invariants().expect("invariants after a leap");
    let steps: Vec<_> = leap.steps().collect();
    let finished = |i: usize| {
        steps[i]
            .completed
            .iter()
            .map(|c| c.id.0)
            .collect::<Vec<_>>()
    };
    let newly = |i: usize| {
        steps[i]
            .newly_decoding
            .iter()
            .map(|id| id.0)
            .collect::<Vec<_>>()
    };
    assert_eq!(newly(0), [1000], "the joiner's first decode step forms");
    assert_eq!(finished(2), [0, 1], "two members finish together");
    // The guest's prefill emitted its first token; its three more take
    // the steps that end at boundaries 1 to 3. Member 2 is the last.
    assert_eq!(finished(3), [1000]);
    assert_eq!(finished(7), [2]);
    assert_eq!(k, 8);
    assert_eq!(steps[7].next_ends_at, None);
    assert_eq!(leap.running(), None);
    assert!(inst.lanes[0].step.is_none() && inst.lanes[0].roster.is_empty());
    assert_eq!(inst.kv.free_blocks(), inst.kv.total_blocks());
}

/// A joiner that decoded before, as a migration's second phase delivers
/// one with its `decode_start` set, folds in at the boundary without being
/// a first-time member: the next step's members follow from `joined`, not
/// from `newly_decoding`.
#[test]
fn run_ahead_reports_joiners_that_decoded_before() {
    let members = [(100, 6, false), (130, 3, true)];
    let twin = || {
        let mut inst = leap_fixture(&members, &[], 64);
        start(&mut inst, SimTime::ZERO, &mut Vec::new());
        let mut migrated = SeqState::arriving_for_decode(RequestId(7), 63, 20, 5, 1);
        migrated.decode_start = Some(SimTime::ZERO);
        inst.enqueue_decode_arrival(migrated);
        let mut pending = Vec::new();
        start(&mut inst, SimTime::ZERO, &mut pending);
        assert!(pending.is_empty(), "the lane's step is running");
        assert_eq!(
            inst.lanes[0].roster.len(),
            3,
            "the migrated sequence joined"
        );
        assert_eq!(
            inst.lanes[0].ledger.members, 2,
            "and waits for the boundary"
        );
        inst
    };
    let (mut a, mut b) = (twin(), twin());
    let bounds = crate::RunAhead {
        until: SimTime::MAX,
        max_steps: 4,
        min_free_fraction: 0.0,
    };
    let mut members = step_ids(&a, 0);
    let mut leap = crate::Leap::default();
    assert_eq!(a.run_ahead(LaneRef::Main(0), bounds, &mut leap), 4);
    let steps: Vec<_> = leap.steps().collect();
    assert_eq!(steps[0].joined, [RequestId(7)]);
    assert!(steps[0].newly_decoding.is_empty(), "it decoded before");
    assert_eq!(a.seq(RequestId(7)).decode_start, Some(SimTime::ZERO));
    let mut pending = Vec::new();
    for step in &steps {
        assert_eq!(members, step_ids(&b, 0), "step members");
        reference_event(&mut b, LaneRef::Main(0), step.ended, &mut pending);
        next_members(&mut members, step);
    }
    assert_eq!(members, step_ids(&a, 0));
    assert_twins(&a, &b);
}

// ----------------------------------------------------------------------
// The step ledger against the eager per-member oracle
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TwinOp {
    /// A decode arrival (KV handed off) or a sequence prefilled here (KV
    /// one token short of its context).
    Arrive {
        ctx: u32,
        output: u32,
        local: bool,
    },
    /// The earliest pending step completes; with `hold`, the next
    /// operation comes before the instance starts new steps, so it finds
    /// that lane idle and its members owed the step's token.
    Step {
        hold: bool,
    },
    /// Lane 0 runs ahead to a cut `extra` µs past its step's end, at most
    /// `max_steps` steps, keeping free KV above the current fraction less
    /// `slack` per mille.
    Leap {
        extra: u64,
        max_steps: u64,
        slack: u64,
    },
    /// Migration pause of the `k`-th live sequence (deferred to the step
    /// boundary if it is in a lane).
    Pause(usize),
    /// Pressure preemption of the `k`-th running decode.
    Preempt(usize),
    /// Abort of the `k`-th live sequence.
    Abort(usize),
    Crash,
}

/// Steps and arrivals dominate; outputs come from a handful of lengths so
/// members share finish clocks, and contexts cluster around 16-token block
/// boundaries.
fn twin_op_strategy() -> impl Strategy<Value = TwinOp> {
    (0u32..100, 1u32..60, 0u32..16, 0u64..250_000).prop_map(|(pick, a, b, c)| match pick {
        0..=21 => TwinOp::Arrive {
            ctx: 16 * (a % 30 + 1) + [0, 1, 15][b as usize % 3] + 1,
            output: [2, 3, 5, 8, 13, 40, 90, 300, 700][(a % 9) as usize] + b % 2,
            local: b % 2 == 0,
        },
        22..=69 => TwinOp::Step { hold: b % 3 == 0 },
        70..=81 => TwinOp::Leap {
            extra: if c % 8 == 0 { 0 } else { c },
            max_steps: u64::from(a),
            slack: c % 60,
        },
        82..=86 => TwinOp::Pause(a as usize),
        87..=92 => TwinOp::Preempt(a as usize),
        93..=97 => TwinOp::Abort(a as usize),
        _ => TwinOp::Crash,
    })
}

/// A ledger-backed decode instance and its eager oracle, built alike:
/// `pp` pipeline lanes and room for `kv_tokens` KV tokens.
fn twin_pair(pp: u32, kv_tokens: u64, preemption: PreemptionMode) -> (Instance, Eager) {
    let mut cost = CostModel::new(
        ModelSpec::opt_13b(),
        GpuSpec::a800_80gb(),
        Parallelism::new(2, pp),
    )
    .unwrap();
    let spare = cost.kv_capacity_bytes() - kv_tokens * cost.model().kv_bytes_per_token();
    cost.activation_reserve_bytes += spare / cost.parallelism().n_gpus() as u64;
    let mut cfg = InstanceConfig::decode("d");
    cfg.preemption = preemption;
    let eager = Eager::new(cfg.clone(), cost.clone(), 20e9);
    let inst = Instance::new(cfg, cost, StreamSharing::default(), 20e9).unwrap();
    (inst, eager)
}

/// Everything the ledger instance and the oracle must agree on.
fn assert_ledger_twin(led: &Instance, eager: &Eager) {
    led.check_invariants().expect("ledger invariants");
    let view: Vec<_> = eager
        .seqs
        .values()
        .map(|state| {
            let key = state.id.0;
            (
                state.clone(),
                eager.kv.tokens_of(key),
                eager.kv.swapped_tokens(key),
            )
        })
        .collect();
    assert_eq!(synced_view(led), view, "sequences and their KV");
    assert_eq!(led.kv.free_blocks(), eager.kv.free_blocks(), "free blocks");
    assert_eq!(
        format!("{:?}", led.stats),
        format!("{:?}", eager.stats),
        "stats"
    );
    assert_eq!(led.waiting_decode, eager.waiting_decode, "decode queue");
    assert_eq!(led.swapped, eager.swapped, "swap queue");
    assert_eq!(led.running_decodes(), eager.running_decodes());
    for (i, lane) in eager.lanes.iter().enumerate() {
        assert_eq!(lane_members(led, i), lane.running, "lane {i} members");
        let step = led.lanes[i].step.as_ref();
        assert_eq!(
            step.map(|s| (s.started, s.ends_at, s.kernel)),
            lane.step.as_ref().map(|s| (s.started, s.ends_at, s.kernel)),
            "lane {i} next step"
        );
        let members = lane.step.as_ref().map_or(Vec::new(), |s| s.members.clone());
        assert_eq!(step_ids(led, i), members, "lane {i} step members");
    }
}

/// Starts whatever both twins start at `now`; the steps must agree.
fn start_twins(
    led: &mut Instance,
    eager: &mut Eager,
    now: SimTime,
    pending: &mut Vec<(usize, SimTime)>,
) {
    let started: Vec<_> = led
        .try_start(now)
        .into_iter()
        .map(|s| {
            let LaneRef::Main(lane) = s.lane else {
                panic!("no guest prefills here")
            };
            (lane, s.ends_at, s.newly_decoding)
        })
        .collect();
    assert_eq!(started, eager.try_start(now), "started steps");
    pending.extend(started.into_iter().map(|(lane, at, _)| (lane, at)));
}

/// Completes lane `lane` on both twins; their outcomes must agree.
fn complete_twins(led: &mut Instance, eager: &mut Eager, lane: usize, at: SimTime) {
    let decoded = step_ids(led, lane);
    let out = led.complete_step(LaneRef::Main(lane), at);
    let expect = eager.complete_step(lane);
    assert_eq!(decoded, expect.decoded, "credited members");
    assert_eq!(out.completed, expect.completed, "completions");
    assert_eq!(out.paused, expect.paused, "pauses");
}

proptest! {
    /// The ledger-backed decode instance and the eager oracle, driven
    /// through the same arrivals (some joining lanes whose step is
    /// running), completions (members sharing a finish clock), pauses,
    /// swap or recompute preemptions, aborts, crashes and run-ahead leaps
    /// on one or two lanes, agree after every operation: sequences,
    /// per-member KV, free blocks, stats and every lane's next step, with
    /// the ledger auditor passing throughout.
    #[test]
    fn ledger_matches_the_eager_oracle(
        ops in proptest::collection::vec(twin_op_strategy(), 1..300),
        pp in 1u32..3,
        swap_mode in proptest::bool::ANY,
        cramp in 0u64..3,
    ) {
        let mode = if swap_mode { PreemptionMode::Swap } else { PreemptionMode::Recompute };
        let (mut led, mut eager) = twin_pair(pp, [2, 4, 24][cramp as usize] * 1024, mode);
        let mut pending: Vec<(usize, SimTime)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut leap = crate::Leap::default();
        for (i, op) in ops.into_iter().enumerate() {
            let id = RequestId(i as u64);
            let live: Vec<RequestId> = eager.seqs.values().map(|s| s.id).collect();
            let mut held = false;
            match op {
                TwinOp::Arrive { ctx, output, local } => {
                    let state = SeqState::arriving_for_decode(id, ctx - 1, output, 1, 0);
                    if local && eager.kv.can_fit(ctx) {
                        led.kv.allocate(id.0, ctx - 1).expect("checked");
                        led.seqs.insert(id.0, state.clone());
                        led.promote_to_decode(id);
                        eager.enqueue_local(state);
                    } else {
                        led.enqueue_decode_arrival(state.clone());
                        eager.enqueue_decode_arrival(state);
                    }
                }
                TwinOp::Step { hold } => {
                    let Some(&(lane, at)) = pending.iter().min_by_key(|&&(l, t)| (t, l)) else {
                        continue;
                    };
                    pending.retain(|&(l, _)| l != lane);
                    now = at;
                    complete_twins(&mut led, &mut eager, lane, at);
                    held = hold;
                }
                TwinOp::Leap { extra, max_steps, slack } => {
                    // As in the cluster, idle lanes start before a leap.
                    start_twins(&mut led, &mut eager, now, &mut pending);
                    let Some(&(_, end)) = pending.iter().find(|&&(l, _)| l == 0) else {
                        continue;
                    };
                    let others = pending.iter().filter(|&&(l, _)| l != 0).map(|&(_, t)| t).min();
                    let cut = end + windserve_sim::SimDuration::from_micros(extra);
                    let until = others.map_or(cut, |o| o.min(cut));
                    let floor = (eager.kv_free_fraction() - slack as f64 / 1000.0).max(0.0);
                    let bounds = crate::RunAhead {
                        until,
                        max_steps,
                        min_free_fraction: floor,
                    };
                    let k = led.run_ahead(LaneRef::Main(0), bounds, &mut leap);
                    prop_assert!(k <= max_steps);
                    for step in leap.steps() {
                        prop_assert!(step.ended < until);
                        complete_twins_eager_only(&mut eager, &step, floor);
                        now = step.ended;
                    }
                    if k > 0 {
                        pending.retain(|&(l, _)| l != 0);
                        pending.extend(leap.running().map(|end| (0, end)));
                    }
                }
                TwinOp::Pause(k) if !live.is_empty() => {
                    let victim = live[k % live.len()];
                    led.mark_migrating(victim);
                    eager.mark_migrating(victim);
                    let paused: Option<PausedSeq> = led.request_pause(victim);
                    prop_assert_eq!(paused, eager.request_pause(victim));
                }
                TwinOp::Preempt(k) => {
                    let running = eager.running_decodes();
                    if let Some(&(victim, _)) = running.get(k % running.len().max(1)) {
                        prop_assert_eq!(
                            led.preempt_for_pressure(victim),
                            eager.preempt_for_pressure(victim)
                        );
                    }
                }
                TwinOp::Abort(k) if !live.is_empty() => {
                    let victim = live[k % live.len()];
                    prop_assert_eq!(led.abort_sequence(victim), eager.abort_sequence(victim));
                }
                TwinOp::Crash => {
                    prop_assert_eq!(led.fail_and_drain(), eager.fail_and_drain());
                    pending.clear();
                }
                TwinOp::Pause(_) | TwinOp::Abort(_) => {}
            }
            assert_ledger_twin(&led, &eager);
            if !held {
                start_twins(&mut led, &mut eager, now, &mut pending);
                assert_ledger_twin(&led, &eager);
            }
        }
    }
}

/// The oracle's side of one step a leap applied: lane 0 completes with
/// the same completions and no pause, KV stays at or above `floor`, and
/// the next step starts alone, with the same first-time members and no
/// preemption, unless every member finished.
fn complete_twins_eager_only(eager: &mut Eager, step: &crate::LeapStep<'_>, floor: f64) {
    let out = eager.complete_step(0);
    assert_eq!(out.completed, step.completed, "completions");
    assert!(out.paused.is_empty(), "leapt over a pause");
    assert!(
        eager.kv_free_fraction() >= floor,
        "leapt below the KV floor"
    );
    let started = eager.try_start(step.ended);
    let expect: Vec<_> = step
        .next_ends_at
        .map(|end| (0, end, step.newly_decoding.to_vec()))
        .into_iter()
        .collect();
    assert_eq!(started, expect, "the leap's next step starts alone");
    assert!(eager.swapped.is_empty(), "leapt over a preemption");
}

/// A pure-decode completion whose growth outruns the free blocks takes the
/// per-member pass. A member prefilled here (KV one token short of its
/// context) crosses a block boundary at its first completion though its
/// context did not at formation, and a member admitted mid-step takes the
/// last free block: the append must preempt that newcomer, as the eager
/// oracle does.
#[test]
fn ledger_falls_back_when_growth_outruns_free_blocks() {
    let (mut led, mut eager) = twin_pair(1, 4 * 16, PreemptionMode::Swap);
    assert_eq!(led.kv.total_blocks(), 4);
    let handed_off = SeqState::arriving_for_decode(RequestId(0), 19, 50, 1, 0);
    let local = SeqState::arriving_for_decode(RequestId(1), 16, 50, 1, 0);
    led.enqueue_decode_arrival(handed_off.clone());
    eager.enqueue_decode_arrival(handed_off);
    led.kv.allocate(1, 16).expect("sized to fit");
    led.seqs.insert(1, local.clone());
    led.promote_to_decode(RequestId(1));
    eager.enqueue_local(local);
    let mut pending = Vec::new();
    start_twins(&mut led, &mut eager, SimTime::ZERO, &mut pending);
    assert_eq!(led.kv.free_blocks(), 1);
    let joiner = SeqState::arriving_for_decode(RequestId(2), 15, 50, 1, 0);
    led.enqueue_decode_arrival(joiner.clone());
    eager.enqueue_decode_arrival(joiner);
    start_twins(&mut led, &mut eager, SimTime::ZERO, &mut pending);
    assert_eq!(led.kv.free_blocks(), 0, "the joiner took the last block");
    assert_ledger_twin(&led, &eager);
    let (_, at) = pending[0];
    complete_twins(&mut led, &mut eager, 0, at);
    assert_eq!(
        led.swapped,
        [RequestId(2)],
        "the append preempted the joiner"
    );
    assert_ledger_twin(&led, &eager);
}
