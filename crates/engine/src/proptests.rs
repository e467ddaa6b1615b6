//! Property tests of the whole instance under randomized workloads: the
//! miniature event loop feeds random mixes of prefill and decode work (and
//! cancels, aborts and crashes) and asserts the global invariants after
//! every step.

use crate::config::{InstanceConfig, InstanceRole, PreemptionMode};
use crate::instance::{Instance, Member};
use crate::outcome::LaneRef;
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
// Quiet-decode run-ahead against step-by-step completion
// ----------------------------------------------------------------------

/// One decode member of the run-ahead fixture: its context, output target
/// and whether it was prefilled locally (its KV then holds one token less
/// than its context). Contexts cluster on and around 16-token block
/// boundaries.
fn member_strategy() -> impl Strategy<Value = (u32, u32, bool)> {
    (1u32..48, 0u32..4, 0u32..16, 0u32..8).prop_map(|(block, kind, off, len)| {
        let ctx = match kind {
            0 => 16 * block,
            1 => 16 * block - 1,
            2 => 16 * block + 1,
            _ => 16 * block + off,
        };
        // Mostly long outputs, so KV runs out while they decode.
        let output = if len % 4 > 0 {
            150 + 23 * off + block
        } else {
            2 + off + block % 9
        };
        (ctx.max(2), output, len >= 4)
    })
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
/// when their first token was the whole answer).
fn reference_event(
    inst: &mut Instance,
    lane: LaneRef,
    at: SimTime,
    pending: &mut Vec<(LaneRef, SimTime)>,
) -> crate::outcome::StepOutcome {
    pending.retain(|&(l, _)| l != lane);
    let out = inst.complete_step(lane, at);
    for fp in &out.finished_prefills {
        if inst.sequence_is_done(fp.id) {
            inst.release_sequence(fp.id);
        } else {
            inst.promote_to_decode(fp.id);
        }
    }
    start(inst, at, pending);
    out
}

/// Whether lane 0 meets `run_ahead`'s static preconditions: the running
/// step holds the lane's members and no admission, swap delay or guest
/// prefill would act at its boundary.
fn quiet_now(inst: &Instance) -> bool {
    let lane = &inst.lanes[0];
    lane.step
        .as_ref()
        .is_some_and(|s| s.decode_ids == lane.running)
        && inst.waiting_decode.is_empty()
        && inst.swapped.is_empty()
        && inst.pending_delay.is_zero()
        && (inst.aux_step.is_some() || inst.waiting_prefill.is_empty())
}

/// Whether the lane-0 completion that produced `out` was quiet: no member
/// finished or paused, KV stayed at or above `floor`, nothing was
/// preempted, and the next step formed from the same `members`.
fn quiet_after(
    inst: &Instance,
    out: &crate::outcome::StepOutcome,
    members: &[Member],
    floor: f64,
) -> bool {
    out.completed.is_empty()
        && out.paused.is_empty()
        && out.finished_prefills.is_empty()
        && inst.kv_free_fraction() >= floor
        && inst.swapped.is_empty()
        && inst.lanes[0]
            .step
            .as_ref()
            .is_some_and(|s| s.decode_ids == members)
}

/// Everything observable about an instance (block ids excepted).
fn assert_twins(a: &Instance, b: &Instance) {
    assert_eq!(a.seqs, b.seqs, "sequence states");
    for key in a.seqs.keys() {
        assert_eq!(
            a.kv.tokens_of(key),
            b.kv.tokens_of(key),
            "KV tokens of {key}"
        );
    }
    assert_eq!(a.kv.free_blocks(), b.kv.free_blocks(), "free blocks");
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats), "stats");
    assert_eq!(
        a.cost.step_cache_stats(),
        b.cost.step_cache_stats(),
        "step cache"
    );
    assert_eq!(a.lanes[0].running, b.lanes[0].running, "lane members");
    assert_eq!(a.lanes[0].step, b.lanes[0].step, "running step");
    assert_eq!(a.aux_step, b.aux_step, "aux step");
    assert_eq!(a.waiting_prefill, b.waiting_prefill);
    assert_eq!(a.waiting_decode, b.waiting_decode);
}

proptest! {
    /// `run_ahead` up to T leaves the instance exactly where completing
    /// and restarting lane 0 one boundary at a time up to T leaves it, and
    /// stops at the first step that is not quiet.
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
        let mut boundaries = Vec::new();
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
            let k = a.run_ahead(lane0, bounds, &mut boundaries);
            a.check_invariants().expect("invariants after a leap");
            prop_assert!(k <= max_steps);
            prop_assert_eq!(boundaries.len() as u64, if k == 0 { 0 } else { k + 2 });
            let members_now = b.lanes[0].running.clone();
            for j in 0..k as usize {
                let step = b.lanes[0].step.as_ref().expect("running");
                if j == 0 {
                    prop_assert_eq!(boundaries[0], step.started);
                }
                let end = step.ends_at;
                prop_assert_eq!(end, boundaries[j + 1]);
                prop_assert!(end < until && quiet_now(&b));
                let out = reference_event(&mut b, lane0, end, &mut pb);
                prop_assert!(
                    quiet_after(&b, &out, &members_now, floor),
                    "absorbed a step that was not quiet"
                );
            }
            if k > 0 {
                let end = *boundaries.last().expect("k > 0");
                pa.retain(|&(l, _)| l != lane0);
                pa.push((lane0, end));
            }
            assert_twins(&a, &b);
            prop_assert_eq!(&pa, &pb);
            // The boundary the leap stopped at must not have been quiet.
            let next = a.lanes[0].step.as_ref().map(|s| s.ends_at);
            if let Some(end) = next.filter(|&e| e < until && k < max_steps) {
                let was_quiet = quiet_now(&b);
                let members_now = b.lanes[0].running.clone();
                reference_event(&mut a, lane0, end, &mut pa);
                let out = reference_event(&mut b, lane0, end, &mut pb);
                prop_assert!(
                    !(was_quiet && quiet_after(&b, &out, &members_now, floor)),
                    "run_ahead stopped before a quiet step"
                );
                assert_twins(&a, &b);
            }
        }
    }
}

/// A step ending exactly at `until` is left to the caller's queue (ties go
/// to the queued event), and the boundaries of a shorter leap are a prefix
/// of a longer one's.
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
        let mut ends = Vec::new();
        let k = inst.run_ahead(LaneRef::Main(0), bounds, &mut ends);
        (k, ends)
    };
    let (k, ends) = leap(SimTime::MAX);
    assert_eq!((k, ends.len()), (10, 12), "max_steps bounds the leap");
    let (k, cut) = leap(ends[4]);
    assert_eq!(k, 3, "the step ending at `until` stays queued");
    assert_eq!(cut, ends[..5]);
}
