//! Cluster-level behavioral tests: whole serving runs on small traces.

use crate::{Cluster, ServeConfig, SystemKind};
use windserve_metrics::PrefillSite;
use windserve_model::Parallelism;
use windserve_workload::{ArrivalProcess, Dataset, Scenario, Trace};

fn sharegpt_trace(rate_total: f64, n: usize, seed: u64) -> Trace {
    Scenario::single_shot(
        Dataset::sharegpt(2048),
        ArrivalProcess::poisson(rate_total),
        n,
    )
    .generate(seed)
    .expect("valid single-shot scenario")
}

fn longbench_trace(rate_total: f64, n: usize, seed: u64) -> Trace {
    Scenario::single_shot(
        Dataset::longbench(4096),
        ArrivalProcess::poisson(rate_total),
        n,
    )
    .generate(seed)
    .expect("valid single-shot scenario")
}

fn run(cfg: ServeConfig, trace: &Trace) -> crate::RunReport {
    Cluster::new(cfg)
        .expect("valid config")
        .run(trace)
        .expect("run completes")
        .0
}

#[test]
fn every_request_completes_exactly_once() {
    let trace = sharegpt_trace(12.0, 300, 1);
    for system in [
        SystemKind::WindServe,
        SystemKind::DistServe,
        SystemKind::VllmColocated,
        SystemKind::WindServeNoSplit,
        SystemKind::WindServeNoResche,
    ] {
        let report = run(ServeConfig::opt_13b_sharegpt(system), &trace);
        assert_eq!(report.summary.completed, 300, "{}", system.label());
        let mut ids: Vec<_> = report.records.iter().map(|r| r.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 300, "{}: duplicated records", system.label());
        for r in &report.records {
            r.validate().unwrap();
        }
    }
}

#[test]
fn runs_are_deterministic_in_seed() {
    let trace = sharegpt_trace(14.0, 200, 5);
    let a = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    let b = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    assert_eq!(a, b, "same trace + config must give identical reports");
}

#[test]
fn distserve_never_dispatches_or_migrates() {
    let trace = sharegpt_trace(20.0, 400, 2);
    let report = run(ServeConfig::opt_13b_sharegpt(SystemKind::DistServe), &trace);
    assert_eq!(report.dispatched_prefills, 0);
    assert_eq!(report.migrations_started, 0);
    assert_eq!(report.backups_created, 0);
    assert!(report
        .records
        .iter()
        .all(|r| r.prefill_site == PrefillSite::PrefillInstance));
}

#[test]
fn windserve_dispatches_under_prefill_overload() {
    // Rate beyond the prefill instance's standalone capacity.
    let trace = sharegpt_trace(18.0, 400, 3);
    let report = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    assert!(
        report.dispatched_prefills > 20,
        "expected dispatch under overload, got {}",
        report.dispatched_prefills
    );
    // And it beats DistServe's median TTFT handily at this rate (the Fig.
    // 10a claim, qualitative form).
    let dist = run(ServeConfig::opt_13b_sharegpt(SystemKind::DistServe), &trace);
    assert!(
        report.summary.ttft.p50 * 2.0 < dist.summary.ttft.p50,
        "windserve {} vs distserve {}",
        report.summary.ttft.p50,
        dist.summary.ttft.p50
    );
}

#[test]
fn no_dispatch_at_low_load() {
    let trace = sharegpt_trace(2.0, 150, 4);
    let report = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    // A handful of max-length prompts behind an in-flight batch can
    // legitimately predict a TTFT above `thrd`; anything beyond that means
    // the overload detector is broken.
    assert!(
        report.dispatched_prefills <= 5,
        "an unloaded prefill instance must keep its work: {} dispatched",
        report.dispatched_prefills
    );
}

#[test]
fn rescheduling_replaces_swapping_under_memory_pressure() {
    // Decode on a single GPU: the Fig. 12-left configuration.
    let trace = sharegpt_trace(9.0, 500, 6);
    let mut wind = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    wind.decode_parallelism = Parallelism::tp(1);
    let mut dist = ServeConfig::opt_13b_sharegpt(SystemKind::DistServe);
    dist.decode_parallelism = Parallelism::tp(1);
    let wind = run(wind, &trace);
    let dist = run(dist, &trace);
    assert!(
        dist.total_swap_outs() > 10,
        "DistServe should thrash: {} swaps",
        dist.total_swap_outs()
    );
    assert!(
        wind.migrations_started > 0,
        "WindServe should migrate instead"
    );
    assert!(wind.total_swap_outs() < dist.total_swap_outs() / 2);
    assert!(
        wind.summary.tpot.p99 < dist.summary.tpot.p99,
        "wind {} vs dist {}",
        wind.summary.tpot.p99,
        dist.summary.tpot.p99
    );
}

#[test]
fn no_resche_ablation_swaps_instead_of_migrating() {
    let trace = sharegpt_trace(9.0, 500, 6);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServeNoResche);
    cfg.decode_parallelism = Parallelism::tp(1);
    let report = run(cfg, &trace);
    assert_eq!(report.migrations_started, 0);
    assert!(
        report.total_swap_outs() > 0,
        "without rescheduling, pressure must fall back to swapping"
    );
}

#[test]
fn colocated_creates_replicas_and_balances() {
    let trace = sharegpt_trace(10.0, 300, 7);
    let report = run(
        ServeConfig::opt_13b_sharegpt(SystemKind::VllmColocated),
        &trace,
    );
    assert_eq!(report.instances.len(), 2, "4 GPUs / TP-2 = 2 replicas");
    let steps: Vec<u64> = report
        .instances
        .iter()
        .map(|i| i.prefill_steps + i.decode_steps + i.hybrid_steps)
        .collect();
    assert!(
        steps.iter().all(|&s| s > 20),
        "both replicas must work: {steps:?}"
    );
}

#[test]
fn overlapped_handoff_beats_serialized_handoff_on_decode_enqueue() {
    // Same trace; WindServe's layer-overlapped transfer should get requests
    // into the decode queue sooner than DistServe's post-prefill transfer.
    let trace = sharegpt_trace(4.0, 150, 8);
    let wind = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    let dist = run(ServeConfig::opt_13b_sharegpt(SystemKind::DistServe), &trace);
    let gap = |r: &crate::RunReport| -> f64 {
        r.records
            .iter()
            .map(|rec| {
                rec.decode_enqueue
                    .saturating_since(rec.first_token)
                    .as_secs_f64()
            })
            .sum::<f64>()
            / r.records.len() as f64
    };
    assert!(
        gap(&wind) < gap(&dist),
        "wind {} vs dist {}",
        gap(&wind),
        gap(&dist)
    );
}

#[test]
fn aux_budget_is_calibrated_positive_for_sbd() {
    let cluster = Cluster::new(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)).unwrap();
    assert!(
        cluster.aux_budget_tokens() >= 1024,
        "{}",
        cluster.aux_budget_tokens()
    );
}

#[test]
fn no_split_ablation_calibrates_windserves_budget() {
    let budget = |system| {
        Cluster::new(ServeConfig::opt_13b_sharegpt(system))
            .unwrap()
            .aux_budget_tokens()
    };
    assert_eq!(
        budget(SystemKind::WindServeNoSplit),
        budget(SystemKind::WindServe)
    );
}

#[test]
fn kv_bytes_accounting_is_nonzero_for_pd_systems() {
    let trace = sharegpt_trace(8.0, 100, 9);
    let report = run(ServeConfig::opt_13b_sharegpt(SystemKind::DistServe), &trace);
    assert!(report.kv_bytes_transferred > 0);
    // Colocated systems never move KV between instances.
    let colo = run(
        ServeConfig::opt_13b_sharegpt(SystemKind::VllmColocated),
        &trace,
    );
    assert_eq!(colo.kv_bytes_transferred, 0);
}

#[test]
fn longbench_llama_configs_run_clean() {
    let trace = longbench_trace(4.0, 150, 10);
    for system in [SystemKind::WindServe, SystemKind::DistServe] {
        let report = run(ServeConfig::llama2_13b_longbench(system), &trace);
        assert_eq!(report.summary.completed, 150, "{}", system.label());
    }
}

#[test]
fn throughput_and_report_helpers_are_consistent() {
    let trace = sharegpt_trace(8.0, 100, 11);
    let report = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    assert!(report.summary.completed > 0 && report.duration_secs > 0.0);
    assert_eq!(
        report.total_swap_outs(),
        report.instances.iter().map(|i| i.swap_outs).sum::<u64>()
    );
}

#[test]
fn multi_replica_pd_cluster_serves_and_balances() {
    // 2 prefill + 2 decode replicas of [TP-2] on the 8-GPU node.
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.prefill_replicas = 2;
    cfg.decode_replicas = 2;
    assert_eq!(cfg.total_gpus(), 8);
    let trace = sharegpt_trace(24.0, 600, 51); // 3 req/s/GPU aggregate
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 600);
    assert_eq!(report.instances.len(), 4);
    // Both prefill replicas and both decode replicas must carry load.
    let p_steps: Vec<u64> = report.instances[..2]
        .iter()
        .map(|i| i.prefill_steps)
        .collect();
    let d_steps: Vec<u64> = report.instances[2..]
        .iter()
        .map(|i| i.decode_steps)
        .collect();
    assert!(
        p_steps.iter().all(|&s| s > 50),
        "prefill balance: {p_steps:?}"
    );
    assert!(
        d_steps.iter().all(|&s| s > 200),
        "decode balance: {d_steps:?}"
    );
}

#[test]
fn multi_replica_outperforms_overloaded_single_replica_per_gpu() {
    // Same total GPUs, same aggregate rate: 2x[TP-2] prefill replicas must
    // not do dramatically worse than 1x prefill at half the total rate
    // (sanity that routing distributes rather than piling onto one).
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::DistServe);
    cfg.prefill_replicas = 2;
    cfg.decode_replicas = 2;
    let trace = sharegpt_trace(24.0, 800, 52);
    let multi = run(cfg, &trace);
    let half = sharegpt_trace(12.0, 800, 52);
    let single = run(ServeConfig::opt_13b_sharegpt(SystemKind::DistServe), &half);
    assert!(
        multi.summary.ttft.p50 < single.summary.ttft.p50 * 3.0,
        "multi {} vs single-at-half-rate {}",
        multi.summary.ttft.p50,
        single.summary.ttft.p50
    );
}

#[test]
fn shortest_context_victim_policy_needs_more_migrations() {
    // Llumnix-style migration frees less KV per move, so relieving the
    // same pressure takes more migrations (§3.3's design contrast).
    let trace = sharegpt_trace(9.0, 700, 53);
    let mk = |policy| {
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.decode_parallelism = Parallelism::tp(1);
        cfg.victim_policy = policy;
        cfg.long_context_tokens = 128;
        cfg
    };
    let long = run(mk(crate::VictimPolicy::LongestContext), &trace);
    let short = run(mk(crate::VictimPolicy::ShortestContext), &trace);
    assert!(long.migrations_started > 0 && short.migrations_started > 0);
    assert!(
        short.migrations_started > long.migrations_started,
        "short-context policy should migrate more often: {} vs {}",
        short.migrations_started,
        long.migrations_started
    );
}

#[test]
fn recompute_preemption_mode_runs_clean() {
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::DistServe);
    cfg.decode_parallelism = Parallelism::tp(1);
    cfg.preemption = windserve_engine::PreemptionMode::Recompute;
    let trace = sharegpt_trace(9.0, 500, 54);
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 500);
    assert_eq!(report.total_swap_outs(), 0, "recompute mode never swaps");
}

#[test]
fn heterogeneous_prefill_gpu_serves() {
    // §7 future work: RTX-4090 prefill pool (high compute:bandwidth ratio,
    // PCIe only) feeding an A800 decode instance.
    use windserve_gpu::{GpuSpec, Topology};
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.prefill_gpu = Some(GpuSpec::rtx_4090());
    cfg.prefill_parallelism = Parallelism::tp(4); // 13B needs >24GB: shard it
    cfg.topology = Topology::pcie_only(8, 4);
    let trace = sharegpt_trace(12.0, 400, 55);
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 400);
}

#[test]
fn sampling_produces_cadenced_series() {
    use windserve_sim::SimDuration;
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.sample_interval = Some(SimDuration::from_millis(200));
    let trace = sharegpt_trace(12.0, 200, 61);
    let report = run(cfg, &trace);
    assert_eq!(report.series.len(), 2, "one series per instance");
    for s in &report.series {
        assert!(s.kv_used.values().len() > 10, "{}: too few samples", s.name);
        assert!(s.kv_used.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(s.kv_used.values().len(), s.running.values().len());
        assert_eq!(
            s.waiting_prefill.values().len(),
            s.waiting_decode.values().len()
        );
    }
    // The decode instance's running series must have seen actual work.
    let decode = report.series.iter().find(|s| s.name == "decode-0").unwrap();
    assert!(decode.running.max() >= 1.0);
    // No sampling -> no series.
    let bare = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    assert!(bare.series.is_empty());
}

#[test]
fn report_windows_and_site_summaries() {
    use windserve_metrics::{LatencySummary, PrefillSite};
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let slo = cfg.slo;
    let trace = sharegpt_trace(18.0, 600, 71);
    let report = run(cfg, &trace);
    // Site split partitions the records.
    let by_site = LatencySummary::grouped_by(slo, &report.records, |r| {
        r.prefill_site == PrefillSite::DecodeInstance
    });
    let (dispatched, normal) = (&by_site[&true], &by_site[&false]);
    assert_eq!(dispatched.completed + normal.completed, 600);
    assert!(dispatched.completed > 0, "this point must dispatch");
    // Dispatched requests skipped a hot queue: their TTFT should not be
    // wildly worse than the overall median.
    assert!(dispatched.ttft.p50 <= report.summary.ttft.p99);
    // Goodput <= throughput always.
    let throughput = report.summary.completed as f64 / report.duration_secs;
    assert!(report.goodput() <= throughput + 1e-12);
}

#[test]
fn autoscaler_activates_under_load_and_saves_gpu_seconds() {
    use crate::AutoscaleConfig;
    // Max 2x2 replicas, min 1x1; load that overwhelms a single prefill
    // replica (rate 4/GPU on the full allocation = 8/GPU on the minimum).
    let trace = sharegpt_trace(32.0, 1200, 81);
    let mut auto_cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    auto_cfg.prefill_replicas = 2;
    auto_cfg.decode_replicas = 2;
    auto_cfg.autoscale = Some(AutoscaleConfig::default());
    let auto_report = run(auto_cfg, &trace);
    assert_eq!(auto_report.summary.completed, 1200);
    assert!(
        auto_report.autoscale_events > 0,
        "overload must trigger scaling"
    );

    let mut static_cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    static_cfg.prefill_replicas = 2;
    static_cfg.decode_replicas = 2;
    let static_report = run(static_cfg, &trace);
    // Static max holds 8 GPUs the whole run; the autoscaler must hold
    // fewer on average (it starts at 4 and scales with demand).
    assert!(
        auto_report.mean_active_gpus() < static_report.mean_active_gpus() - 0.2,
        "auto {} vs static {}",
        auto_report.mean_active_gpus(),
        static_report.mean_active_gpus()
    );
    assert!((static_report.mean_active_gpus() - 8.0).abs() < 0.2);
    // And service quality must not collapse relative to static max.
    assert!(
        auto_report.summary.slo.both > static_report.summary.slo.both * 0.5,
        "auto {} vs static {}",
        auto_report.summary.slo.both,
        static_report.summary.slo.both
    );
}

#[test]
fn autoscaler_stays_at_minimum_when_unloaded() {
    use crate::AutoscaleConfig;
    let trace = sharegpt_trace(4.0, 300, 82);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.prefill_replicas = 2;
    cfg.decode_replicas = 2;
    cfg.autoscale = Some(AutoscaleConfig::default());
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 300);
    // Light load: ~4 GPUs (the minimum) on average.
    assert!(
        report.mean_active_gpus() < 4.6,
        "unloaded autoscaler held {} GPUs",
        report.mean_active_gpus()
    );
}

#[test]
fn autoscale_config_validation() {
    use crate::AutoscaleConfig;
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.autoscale = Some(AutoscaleConfig {
        min_prefill: 3, // exceeds max replicas (1)
        ..AutoscaleConfig::default()
    });
    assert!(cfg.validate().is_err());
    cfg.autoscale = Some(AutoscaleConfig {
        down_ttft_fraction: 0.9,
        up_ttft_fraction: 0.5,
        ..AutoscaleConfig::default()
    });
    assert!(cfg.validate().is_err());
}

#[test]
fn ttft_predictions_are_recorded_and_reasonable() {
    // Moderate load: predictions should track reality well (the Profiler's
    // whole job). Heavily saturated points drift because the queue keeps
    // growing between prediction and execution.
    let trace = sharegpt_trace(10.0, 500, 91);
    let report = run(ServeConfig::opt_13b_sharegpt(SystemKind::DistServe), &trace);
    assert_eq!(report.ttft_predictions.len(), 500);
    let err = report.ttft_prediction_error().expect("predictions exist");
    assert!(err < 0.6, "mean relative prediction error {err}");
    // Colocated systems make no Algorithm 1 predictions.
    let colo = run(
        ServeConfig::opt_13b_sharegpt(SystemKind::VllmColocated),
        &trace,
    );
    assert!(colo.ttft_predictions.is_empty());
    assert!(colo.ttft_prediction_error().is_none());
}

/// The live snapshot's running SLO count equals a full re-summary of the
/// session's records after every pump slice and at drain, with both
/// SLO-meeting and SLO-missing completions in the run.
#[test]
fn snapshot_slo_count_matches_a_full_summary() {
    use windserve_metrics::LatencySummary;
    use windserve_sim::SimTime;

    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let slo = cfg.slo;
    let trace = sharegpt_trace(20.0, 300, 17);
    let mut session = Cluster::new(cfg).expect("valid config").into_session();
    for req in trace.requests() {
        session.inject(*req);
    }
    let summarized = |s: &crate::ClusterSession| LatencySummary::of(slo, s.records()).slo_attaining;
    let mut mid_run_checks = 0;
    for slice in 1..=200 {
        session
            .pump_until(SimTime::from_secs_f64(0.25 * f64::from(slice)))
            .expect("pump");
        let snap = session.snapshot();
        assert_eq!(snap.slo_attaining, summarized(&session), "slice {slice}");
        mid_run_checks += usize::from(snap.pending_requests > 0 && snap.completed_requests > 0);
    }
    assert!(
        mid_run_checks > 10,
        "only {mid_run_checks} slices saw a run in progress"
    );
    session.pump_to_drain().expect("drain");
    let snap = session.snapshot();
    assert_eq!(snap.slo_attaining, summarized(&session));
    assert!(
        snap.slo_attaining > 0 && snap.slo_attaining < snap.completed_requests,
        "the run must both meet and miss SLOs: {} of {}",
        snap.slo_attaining,
        snap.completed_requests
    );
    let (report, _) = session.finish().expect("finish");
    assert_eq!(report.summary.slo_attaining, snap.slo_attaining);
}

/// Finishing before draining is an error that counts every injected
/// request not yet complete: resident ones and arrivals never delivered.
#[test]
fn finishing_early_counts_undelivered_arrivals() {
    use crate::Error;
    use windserve_workload::RequestId;

    let trace = sharegpt_trace(4.0, 50, 29);
    let session = || {
        let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let mut session = Cluster::new(cfg).expect("valid config").into_session();
        for req in trace.requests() {
            session.inject(*req);
        }
        session
    };
    match session().finish() {
        Err(Error::Deadlock { incomplete, first }) => {
            assert_eq!(incomplete, 50);
            assert_eq!(first, (0..5).map(RequestId).collect::<Vec<_>>());
        }
        other => panic!("finishing an unpumped session: {other:?}"),
    }

    let mut part_way = session();
    part_way
        .pump_until(trace.requests()[25].arrival)
        .expect("pump");
    let snap = part_way.snapshot();
    assert!(snap.pending_requests > 0 && snap.completed_requests > 0);
    match part_way.finish() {
        Err(Error::Deadlock { incomplete, .. }) => {
            assert_eq!(
                incomplete + snap.completed_requests + snap.dropped_requests,
                50
            );
        }
        other => panic!("finishing part-way: {other:?}"),
    }
}

/// Arrivals injected out of time order are delivered in it: a trace with
/// distinct stamps, injected in reverse, replays to the same report as
/// injected in order.
#[test]
fn reverse_injection_replays_like_in_order() {
    let trace = sharegpt_trace(12.0, 400, 31);
    let requests = trace.requests();
    assert!(requests.windows(2).all(|w| w[0].arrival < w[1].arrival));
    let replay = |order: &mut dyn Iterator<Item = &windserve_workload::Request>| {
        let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let mut session = Cluster::new(cfg).expect("valid config").into_session();
        for req in order {
            session.inject(*req);
        }
        session.pump_to_drain().expect("drain");
        session.finish().expect("finish").0
    };
    let in_order = replay(&mut requests.iter());
    let reversed = replay(&mut requests.iter().rev());
    assert_eq!(in_order.summary.completed, 400);
    assert!(format!("{in_order:?}") == format!("{reversed:?}"));
}

/// Fed one request at a time and pumped past each arrival, as the
/// gateway's driver feeds it, a session's arrival lane never holds more
/// than a few requests, so its allocation stays small however many pass.
#[test]
fn one_at_a_time_feeding_keeps_the_lane_small() {
    use windserve_sim::{SimDuration, SimTime};
    use windserve_workload::{Request, RequestId};

    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let mut session = Cluster::new(cfg).expect("valid config").into_session();
    let gap = SimDuration::from_millis(5);
    let mut now = SimTime::ZERO;
    for id in 0..10_000 {
        now += gap;
        session.inject(Request::new(RequestId(id), now, 32, 2));
        session.pump_until(now).expect("pump");
    }
    let capacity = session.arrival_capacity();
    assert!(capacity <= 16, "the lane grew to {capacity} slots");
    session.pump_to_drain().expect("drain");
    assert_eq!(
        session.finish().expect("finish").0.summary.completed,
        10_000
    );
}

/// `finish` sorts the records in place by `(id, completion)`: exactly the
/// order a stable sort by id gives the completion order, also when ids
/// complete out of order and one is reused after it completed.
#[test]
fn report_records_are_a_stable_sort_of_completion_order() {
    use windserve_sim::SimDuration;
    use windserve_workload::{Request, RequestId};

    let trace = sharegpt_trace(14.0, 120, 23);
    let n = trace.requests().len() as u64;
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let mut session = Cluster::new(cfg).expect("valid config").into_session();
    // Ids scrambled against arrival order (37 is coprime with 120).
    for (i, req) in trace.requests().iter().enumerate() {
        let id = RequestId(i as u64 * 37 % n);
        session.inject(Request { id, ..*req });
    }
    session.pump_to_drain().expect("drain");
    // A later request reuses the id of the first one to complete.
    let first = session.records()[0];
    let at = first.completion + SimDuration::from_secs(1);
    session.inject(Request::new(first.id, at, 64, 16));
    session.pump_to_drain().expect("drain");

    let mut expected = session.records().to_vec();
    assert!(
        !expected.is_sorted_by_key(|r| r.id),
        "ids must complete out of order"
    );
    assert_eq!(expected.iter().filter(|r| r.id == first.id).count(), 2);
    expected.sort_by_key(|r| r.id);
    let (report, _) = session.finish().expect("finish");
    assert_eq!(report.records, expected);
}

/// The benchmark's `sessions_prefix` deployment (four prefill and four
/// decode replicas on two nodes, prefix cache on) over 300 sessions, with
/// the invariant auditor at `audit_interval_events`.
fn sessions_4p4d(audit_interval_events: Option<u64>) -> (ServeConfig, Trace) {
    use crate::{OverloadConfig, PrefixCacheConfig};
    use windserve_workload::{DatasetSpec, SessionsScenario};

    let cfg = ServeConfig {
        topology: windserve_gpu::Topology::a800_multi_node(2),
        prefill_replicas: 4,
        decode_replicas: 4,
        prefix_cache: Some(PrefixCacheConfig::default()),
        overload: audit_interval_events.map(|n| OverloadConfig {
            max_queued_requests: None,
            shedding: false,
            audit_interval_events: Some(n),
            ..OverloadConfig::default()
        }),
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let sessions = SessionsScenario::builder()
        .sessions(300)
        .session_rate(8.0)
        .turns(2, 6)
        .mean_think_secs(20.0)
        .followup_tokens(16, 192)
        .dataset(DatasetSpec::named("sharegpt", 2048))
        .build()
        .expect("valid sessions scenario");
    let trace = Scenario::sessions(sessions)
        .generate(2766)
        .expect("valid sessions scenario");
    (cfg, trace)
}

/// Decode completions of a run and how many of them went through the
/// leap.
fn leap_share(mut session: crate::ClusterSession) -> (u64, u64, crate::RunReport) {
    session.pump_to_drain().expect("the auditor passes");
    let leapt = session.leap_deliveries;
    let (report, _) = session.finish().expect("the auditor passes");
    let decode_steps = report
        .instances
        .iter()
        .filter(|i| i.name.starts_with("decode"))
        .map(|i| i.decode_steps)
        .sum();
    (leapt, decode_steps, report)
}

/// On the paper's OPT-13B/ShareGPT 1P+1D deployment requests join the
/// decode batch after their handoff and leave when they finish; the leap
/// runs through those boundaries, so nearly every decode completion goes
/// through it, also when audited after every event and with live events
/// on (one leap rule for every run).
#[test]
fn decode_completions_go_through_the_leap() {
    let trace = sharegpt_trace(12.0, 1500, 17);
    let run_counted = |audit: Option<u64>, live: bool| {
        let cfg = ServeConfig {
            overload: audit.map(|n| crate::OverloadConfig {
                max_queued_requests: None,
                shedding: false,
                audit_interval_events: Some(n),
                ..crate::OverloadConfig::default()
            }),
            ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
        };
        let mut session = Cluster::new(cfg).expect("valid config").into_session();
        if live {
            session.enable_live_events();
        }
        for req in trace.requests() {
            session.inject(*req);
        }
        leap_share(session)
    };
    let (leapt, decode_steps, report) = run_counted(None, false);
    assert_eq!(report.summary.completed, 1500);
    assert!(
        10 * leapt > 9 * decode_steps,
        "{leapt} of {decode_steps} decode completions went through the leap"
    );
    let (audited_leapt, _, audited) = run_counted(Some(1), false);
    assert_eq!(audited_leapt, leapt);
    assert!(audited.invariant_checks > audited.events_processed);
    assert_eq!(audited.records, report.records);
    let (live_leapt, _, live) = run_counted(None, true);
    assert_eq!(live_leapt, leapt, "live events take the same leaps");
    assert_eq!(live, report);
}

#[test]
fn interleaved_decode_completions_go_through_the_leap() {
    let run_counted = |audit| {
        let (cfg, trace) = sessions_4p4d(audit);
        let mut session = Cluster::new(cfg).expect("valid config").into_session();
        for req in trace.requests() {
            session.inject(*req);
        }
        leap_share(session)
    };
    let (leapt, decode_steps, _) = run_counted(None);
    assert!(
        10 * leapt > 9 * decode_steps,
        "{leapt} of {decode_steps} decode completions went through the leap"
    );
    // Audited after every event, each leap ends on an audit point after
    // the one step it delivers; the same completions go through it.
    let (audited_leapt, _, audited) = run_counted(Some(1));
    assert_eq!(audited_leapt, leapt);
    assert!(audited.invariant_checks > audited.events_processed);
}
