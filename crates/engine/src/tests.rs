//! Whole-instance behavioral tests: a miniature event loop drives a single
//! instance to completion and checks scheduling semantics, KV conservation
//! and stream interference.

use crate::config::{InstanceConfig, InstanceRole};
use crate::instance::Instance;
use crate::outcome::{LaneRef, StepKind, StepOutcome};
use crate::seq::SeqState;
use windserve_gpu::GpuSpec;
use windserve_model::{BatchPlan, CostModel, ModelSpec, Parallelism};
use windserve_sim::{SimDuration, SimTime};
use windserve_workload::RequestId;

fn opt13b_cost() -> CostModel {
    CostModel::new(
        ModelSpec::opt_13b(),
        GpuSpec::a800_80gb(),
        Parallelism::tp(2),
    )
    .unwrap()
}

fn instance(role: InstanceRole) -> Instance {
    let cfg = match role {
        InstanceRole::Prefill => InstanceConfig::prefill("p"),
        InstanceRole::Decode => InstanceConfig::decode("d"),
        InstanceRole::Colocated => InstanceConfig::colocated("c"),
    };
    Instance::new(cfg, opt13b_cost(), 20e9).unwrap()
}

/// Tiny capacity instance for memory-pressure tests.
fn cramped(cfg: InstanceConfig, total_blocks_tokens: u64) -> Instance {
    let mut cost = opt13b_cost();
    // Shrink usable KV by inflating the activation reserve.
    let spare = cost.kv_capacity_bytes() - total_blocks_tokens * cost.model().kv_bytes_per_token();
    cost.activation_reserve_bytes += spare / cost.parallelism().n_gpus() as u64;
    Instance::new(cfg, cost, 20e9).unwrap()
}

fn cramped_decode(total_blocks_tokens: u64) -> Instance {
    cramped(InstanceConfig::decode("tiny"), total_blocks_tokens)
}

/// Drives the instance until idle or `max_events`; `react` sees every step
/// outcome, with the number of decode members the step credited, and may
/// enqueue more work.
fn drive(
    inst: &mut Instance,
    max_events: usize,
    mut react: impl FnMut(&mut Instance, &StepOutcome, usize),
) -> SimTime {
    let mut pending: Vec<(LaneRef, SimTime)> = inst
        .try_start(SimTime::ZERO)
        .into_iter()
        .map(|s| (s.lane, s.ends_at))
        .collect();
    let mut now = SimTime::ZERO;
    for _ in 0..max_events {
        let Some(idx) = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, t))| *t)
            .map(|(i, _)| i)
        else {
            break;
        };
        let (lane, at) = pending.swap_remove(idx);
        now = at;
        let decoded = inst.step_members(lane).count();
        let outcome = inst.complete_step(lane, now);
        inst.check_invariants().unwrap();
        react(inst, &outcome, decoded);
        for s in inst.try_start(now) {
            pending.push((s.lane, s.ends_at));
        }
    }
    now
}

#[test]
fn prefill_instance_processes_queue_fcfs() {
    let mut inst = instance(InstanceRole::Prefill);
    for i in 0..5 {
        inst.enqueue_prefill(RequestId(i), 400 + i as u32 * 100, 50);
    }
    let mut finished = Vec::new();
    drive(&mut inst, 100, |inst, out, _| {
        for fp in &out.finished_prefills {
            finished.push(fp.id);
            inst.release_sequence(fp.id);
        }
    });
    assert_eq!(finished, (0..5).map(RequestId).collect::<Vec<_>>());
    assert_eq!(inst.kv().free_blocks(), inst.kv().total_blocks());
}

#[test]
fn small_prompts_pack_into_one_step() {
    let mut inst = instance(InstanceRole::Prefill);
    for i in 0..4 {
        inst.enqueue_prefill(RequestId(i), 200, 50);
    }
    let started = inst.try_start(SimTime::ZERO);
    assert_eq!(started.len(), 1, "one lane, one step");
    let out = inst.complete_step(started[0].lane, started[0].ends_at);
    assert_eq!(out.finished_prefills.len(), 4, "800 tokens fit the budget");
    assert_eq!(out.kind, StepKind::Prefill);
}

#[test]
fn decode_instance_runs_sequences_to_completion() {
    let mut inst = instance(InstanceRole::Decode);
    for i in 0..8 {
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(
            RequestId(i),
            700,
            21, // 20 decode steps after the first token
            1,
            0,
        ));
    }
    let mut completed = Vec::new();
    drive(&mut inst, 500, |_, out, _| {
        completed.extend(out.completed.iter().map(|c| (c.id, c.generated)));
    });
    assert_eq!(completed.len(), 8);
    assert!(completed.iter().all(|&(_, g)| g == 21));
    assert_eq!(inst.kv().free_blocks(), inst.kv().total_blocks());
    assert_eq!(inst.stats().decode_tokens, 0); // engine leaves token stats to outcomes
}

#[test]
fn decode_steps_batch_continuously() {
    let mut inst = instance(InstanceRole::Decode);
    for i in 0..16 {
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(i), 700, 11, 1, 0));
    }
    let started = inst.try_start(SimTime::ZERO);
    assert_eq!(started.len(), 1);
    assert_eq!(
        started[0].newly_decoding.len(),
        16,
        "all admitted into one batch"
    );
    assert_eq!(inst.step_members(started[0].lane).count(), 16);
    let out = inst.complete_step(started[0].lane, started[0].ends_at);
    assert_eq!(out.kind, StepKind::Decode);
    inst.check_invariants().unwrap();
}

#[test]
fn sbd_runs_guest_prefill_concurrently_and_slows_decode_mildly() {
    // Baseline: decode step time without any guest prefill.
    let mut solo = instance(InstanceRole::Decode);
    for i in 0..16 {
        solo.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(i), 1000, 100, 1, 0));
    }
    let s = solo.try_start(SimTime::ZERO);
    let solo_step = s[0].ends_at - SimTime::ZERO;

    // With SBD: a guest prefill occupies the aux stream first.
    let mut inst = instance(InstanceRole::Decode);
    inst.enqueue_prefill(RequestId(100), 1024, 50);
    for i in 0..16 {
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(i), 1000, 100, 1, 0));
    }
    let started = inst.try_start(SimTime::ZERO);
    let aux = started
        .iter()
        .find(|s| s.lane == LaneRef::Aux)
        .expect("aux step");
    let main = started
        .iter()
        .find(|s| matches!(s.lane, LaneRef::Main(_)))
        .expect("main step");
    let shared_step = main.ends_at - SimTime::ZERO;
    let slow = shared_step.as_secs_f64() / solo_step.as_secs_f64();
    assert!(slow > 1.0, "contention must cost something: {slow}");
    assert!(slow < 1.6, "SBD keeps decode near standalone speed: {slow}");
    // The guest prefill runs concurrently, not serialized after the decode.
    assert!(aux.ends_at.as_secs_f64() < solo_step.as_secs_f64() * 20.0);
}

#[test]
fn no_split_fuses_prefill_into_decode_batch() {
    let mut inst = instance(InstanceRole::Decode);
    inst.cfg.stream_disaggregation = false;
    for i in 0..16 {
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(i), 1000, 100, 1, 0));
    }
    inst.enqueue_prefill(RequestId(100), 1024, 50);
    let started = inst.try_start(SimTime::ZERO);
    assert_eq!(started.len(), 1, "no aux stream without SBD");
    let hybrid_step = started[0].ends_at - SimTime::ZERO;

    // Compare with SBD at identical state: the fused step must be much
    // slower for the decode batch (Fig. 7/8 "Regular" vs "SBD").
    let mut sbd = instance(InstanceRole::Decode);
    for i in 0..16 {
        sbd.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(i), 1000, 100, 1, 0));
    }
    sbd.enqueue_prefill(RequestId(100), 1024, 50);
    let started = sbd.try_start(SimTime::ZERO);
    let main = started
        .iter()
        .find(|s| matches!(s.lane, LaneRef::Main(_)))
        .unwrap();
    let sbd_step = main.ends_at - SimTime::ZERO;
    assert!(
        hybrid_step.as_secs_f64() > 2.0 * sbd_step.as_secs_f64(),
        "fused {hybrid_step} vs SBD decode {sbd_step}"
    );
}

#[test]
fn memory_pressure_triggers_swapping_and_everyone_still_finishes() {
    // Room for ~4 sequences at admission, but each grows by 200 tokens, so
    // the running set outgrows the cache and preemption must swap.
    let mut inst = cramped_decode(4096);
    for i in 0..6 {
        inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(i), 950, 201, 1, 0));
    }
    let mut completed = 0;
    drive(&mut inst, 20_000, |_, out, _| {
        completed += out.completed.len();
    });
    assert_eq!(completed, 6, "all requests must eventually finish");
    assert!(
        inst.kv().swap_out_count() > 0,
        "cramped instance must have swapped"
    );
    assert_eq!(inst.kv().free_blocks(), inst.kv().total_blocks());
}

/// Swapped sequences re-admit first, but a waiting decode that already
/// holds its KV takes no blocks from them. Held back, it would keep the
/// blocks the swapped head waits for, with nothing running to free any.
#[test]
fn swapped_head_does_not_hold_back_a_kv_holding_decode() {
    // 128 blocks: A's 57 and B's 63 leave 8, too few for C's 13.
    let mut inst = cramped(InstanceConfig::colocated("tiny"), 2048);
    let (a, b, c) = (RequestId(1), RequestId(2), RequestId(3));
    inst.enqueue_prefill(a, 900, 400);
    inst.enqueue_prefill(b, 1000, 20);
    inst.enqueue_prefill(c, 200, 20);
    // Only A decodes. When it outgrows the cache it swaps itself out and
    // C's prefill takes part of its blocks; B and C keep their KV.
    let now = drive(&mut inst, 10_000, |inst, out, _| {
        for fp in out.finished_prefills.iter().filter(|fp| fp.id == a) {
            inst.promote_to_decode(fp.id);
        }
    });
    assert_eq!(inst.swapped_len(), 1);
    assert_eq!(inst.running_decode_count(), 0);
    let a_blocks = inst.kv().blocks_for(inst.context_of(a).unwrap());
    assert!(inst.kv().free_blocks() < a_blocks, "A must not fit back in");
    inst.promote_to_decode(b);
    let started = inst.try_start(now);
    assert_eq!(
        started.len(),
        1,
        "B must be admitted behind the swapped head"
    );
    assert_eq!(inst.step_members(started[0].lane).collect::<Vec<_>>(), [b]);
    assert_eq!(inst.swapped_len(), 1);
    inst.check_invariants().unwrap();
}

#[test]
fn pause_request_detaches_sequence_at_step_boundary() {
    let mut inst = instance(InstanceRole::Decode);
    inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(1), 1500, 200, 1, 0));
    inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(2), 100, 200, 1, 0));
    let started = inst.try_start(SimTime::ZERO);
    inst.mark_migrating(RequestId(1));
    inst.request_pause(RequestId(1));
    let out = inst.complete_step(started[0].lane, started[0].ends_at);
    assert_eq!(out.paused.len(), 1);
    let paused = &out.paused[0].state;
    assert_eq!(paused.id, RequestId(1));
    // It decoded once more before pausing (stall-free: decodes continue).
    assert_eq!(paused.generated, 2);
    assert_eq!(inst.running_decodes().len(), 1);
    inst.kv().check_invariants().unwrap();
}

#[test]
fn colocated_instance_interleaves_chunked_prefill_with_decodes() {
    let mut inst = instance(InstanceRole::Colocated);
    inst.enqueue_prefill(RequestId(0), 600, 6);
    let mut hybrid_seen = false;
    let mut completed = 0;
    let mut injected = false;
    drive(&mut inst, 2_000, |inst, out, decoded| {
        for fp in &out.finished_prefills {
            inst.promote_to_decode(fp.id);
        }
        if out.kind == StepKind::Hybrid {
            hybrid_seen = true;
        }
        completed += out.completed.len();
        // Once the first request decodes, add another prompt so a hybrid
        // step (decode + chunk) must form.
        if !injected && decoded > 0 {
            injected = true;
            inst.enqueue_prefill(RequestId(1), 1200, 6);
        }
    });
    assert_eq!(completed, 2);
    assert!(
        hybrid_seen,
        "chunked prefill should have shared a step with decodes"
    );
}

#[test]
fn prefill_instance_decodes_migrants_with_chunked_prefill() {
    let mut inst = instance(InstanceRole::Prefill);
    // A migrated-in decode...
    inst.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(9), 1800, 41, 5, 1));
    // ...and fresh prompts to prefill.
    inst.enqueue_prefill(RequestId(1), 1500, 30);
    let mut kinds = Vec::new();
    let mut finished_prefill = false;
    let mut completed = 0;
    drive(&mut inst, 2_000, |inst, out, _| {
        kinds.push(out.kind);
        for fp in &out.finished_prefills {
            finished_prefill = true;
            inst.release_sequence(fp.id);
        }
        completed += out.completed.len();
    });
    assert_eq!(completed, 1, "the migrant must finish decoding here");
    assert!(finished_prefill, "the prompt must finish prefilling");
    assert!(
        kinds.contains(&StepKind::Hybrid),
        "prefill must have run chunked alongside the migrant: {kinds:?}"
    );
}

#[test]
fn earliest_availability_tracks_inflight_steps() {
    let mut inst = instance(InstanceRole::Prefill);
    assert_eq!(inst.earliest_availability(SimTime::ZERO), SimDuration::ZERO);
    inst.enqueue_prefill(RequestId(0), 2000, 10);
    let started = inst.try_start(SimTime::ZERO);
    let remaining = inst.earliest_availability(SimTime::ZERO);
    assert_eq!(SimTime::ZERO + remaining, started[0].ends_at);
}

#[test]
fn utilization_regimes_match_fig2() {
    // Prefill instance: tensor cores hot, bandwidth cool. Decode: opposite.
    let mut p = instance(InstanceRole::Prefill);
    for i in 0..10 {
        p.enqueue_prefill(RequestId(i), 1500, 10);
    }
    let end_p = drive(&mut p, 100, |inst, out, _| {
        for fp in &out.finished_prefills {
            inst.release_sequence(fp.id);
        }
    });
    let up = p.stats().utilization(end_p.as_secs_f64(), 1);

    let mut d = instance(InstanceRole::Decode);
    for i in 0..64 {
        d.enqueue_decode_arrival(SeqState::arriving_for_decode(RequestId(i), 1200, 51, 1, 0));
    }
    let end_d = drive(&mut d, 5_000, |_, _, _| {});
    let ud = d.stats().utilization(end_d.as_secs_f64(), 1);

    assert!(up.compute > 0.7, "prefill compute util {:.2}", up.compute);
    assert!(up.bandwidth < 0.4, "prefill bw util {:.2}", up.bandwidth);
    assert!(ud.bandwidth > 0.7, "decode bw util {:.2}", ud.bandwidth);
    assert!(ud.compute < 0.4, "decode compute util {:.2}", ud.compute);
}

#[test]
fn cost_model_accessor_exposes_step_pricing() {
    let inst = instance(InstanceRole::Decode);
    let t = inst
        .cost_model()
        .step_time(&BatchPlan::decode_only(vec![500; 8]));
    assert!(t > SimDuration::ZERO);
}

#[test]
fn recompute_preemption_pays_compute_not_transfers() {
    use crate::config::PreemptionMode;
    let mut swap_inst = cramped_decode(4096);
    let mut rec_inst = cramped_decode(4096);
    rec_inst.cfg.preemption = PreemptionMode::Recompute;
    for inst in [&mut swap_inst, &mut rec_inst] {
        for i in 0..6 {
            inst.enqueue_decode_arrival(SeqState::arriving_for_decode(
                RequestId(i),
                950,
                201,
                1,
                0,
            ));
        }
    }
    let mut done_swap = 0;
    drive(&mut swap_inst, 20_000, |_, out, _| {
        done_swap += out.completed.len()
    });
    let mut done_rec = 0;
    drive(&mut rec_inst, 20_000, |_, out, _| {
        done_rec += out.completed.len()
    });
    assert_eq!(done_swap, 6);
    assert_eq!(done_rec, 6);
    assert!(swap_inst.kv().swap_out_count() > 0);
    assert_eq!(
        rec_inst.kv().swap_out_count(),
        0,
        "recompute mode never swaps"
    );
    assert!(
        rec_inst.stats().recomputes > 0,
        "recompute mode must recompute"
    );
    rec_inst.kv().check_invariants().unwrap();
}

#[test]
fn cached_prefix_charges_only_the_suffix() {
    // Same 1500-token prompt, one with 1200 tokens already resident in the
    // session prefix cache: the cached sequence's prefill must finish
    // strictly sooner (it computes a 300-token suffix, not the full
    // prompt), and must still end fully prefilled.
    let run = |cached: u32| -> (Instance, SimTime) {
        let mut inst = instance(InstanceRole::Prefill);
        if cached == 0 {
            inst.enqueue_prefill(RequestId(1), 1500, 10);
        } else {
            inst.enqueue_prefill_cached(RequestId(1), 1500, cached, 10);
        }
        let mut finish = SimTime::ZERO;
        let mut clock = SimTime::ZERO;
        drive(&mut inst, 100, |_, out, _| {
            clock += out.duration;
            if !out.finished_prefills.is_empty() {
                finish = clock;
            }
        });
        (inst, finish)
    };
    let (_cold, cold_finish) = run(0);
    let (warm, warm_finish) = run(1200);
    assert!(warm_finish > SimTime::ZERO && cold_finish > SimTime::ZERO);
    assert!(
        warm_finish < cold_finish,
        "cached prefill {warm_finish:?} not faster than cold {cold_finish:?}"
    );
    // The cached sequence still accounts the full prompt as prefilled.
    let seq = warm.seqs.get(1).unwrap();
    assert_eq!(seq.prefilled, 1500);
    assert_eq!(seq.cached, 1200);
    assert_eq!(seq.prompt_remaining(), 0);
}
