//! Overload control: admission caps, SLO-aware load shedding, KV-pressure
//! preemption, the deadline watchdog and the cluster-wide invariant
//! auditor. Overload must degrade service *typed and bounded* — every
//! request either completes or carries a [`DropReason`], queues never
//! exceed their caps, and the auditor sees no structural violations.

use windserve::{
    Cluster, DropReason, FaultKind, FaultPlan, OverloadConfig, ServeConfig, SystemKind, TraceMode,
};
use windserve_gpu::GpuSpec;
use windserve_sim::{SimDuration, SimTime};
use windserve_tests::{run, sharegpt_trace};

/// The 1x1 OPT-13B deployment with overload control on.
fn controlled(overload: OverloadConfig) -> ServeConfig {
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.overload = Some(overload);
    cfg
}

#[test]
fn queue_cap_bounds_residency_and_types_every_rejection() {
    let trace = sharegpt_trace(40.0, 400, 101).with_tiers(3, 101);
    let report = run(
        controlled(OverloadConfig {
            max_queued_requests: Some(32),
            ..Default::default()
        }),
        &trace,
    );
    assert!(
        report.peak_pending <= 32,
        "peak residency {} exceeded the cap",
        report.peak_pending
    );
    assert!(
        report.requests_rejected > 0,
        "a 32-slot cap at this rate must reject"
    );
    assert_eq!(
        report.summary.completed + report.dropped.len(),
        400,
        "every request must complete or carry a typed outcome"
    );
    assert_eq!(
        report.requests_rejected as usize,
        report.dropped_with(DropReason::QueueFull) + report.dropped_with(DropReason::TokenBudget),
    );
}

#[test]
fn token_budget_rejects_when_queued_prefill_tokens_run_out() {
    let trace = sharegpt_trace(40.0, 300, 103);
    let report = run(
        controlled(OverloadConfig {
            max_queued_tokens: Some(4096),
            shedding: false,
            ..Default::default()
        }),
        &trace,
    );
    assert!(
        report.dropped_with(DropReason::TokenBudget) > 0,
        "a 4096-token budget at this rate must reject"
    );
    assert_eq!(report.summary.completed + report.dropped.len(), 300);
}

#[test]
fn shedding_beats_open_loop_goodput_at_twice_the_saturation_rate() {
    // ~12 req/s saturates the 4-GPU deployment; drive it at 2x.
    let trace = sharegpt_trace(24.0, 400, 107).with_tiers(3, 107);
    let baseline = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    let shed = run(controlled(OverloadConfig::default()), &trace);
    assert!(shed.requests_shed > 0, "2x rate must trigger shedding");
    assert!(
        shed.goodput() > baseline.goodput(),
        "shedding must raise goodput under overload: {} vs {}",
        shed.goodput(),
        baseline.goodput()
    );
    assert_eq!(shed.summary.completed + shed.dropped.len(), 400);
    // Shedding protects the tail of the work it keeps.
    assert!(shed.summary.ttft.p99 <= baseline.summary.ttft.p99);
}

#[test]
fn shedding_prefers_the_lowest_tier() {
    let trace = sharegpt_trace(24.0, 400, 109).with_tiers(3, 109);
    let report = run(controlled(OverloadConfig::default()), &trace);
    let shed: Vec<_> = report
        .dropped
        .iter()
        .filter(|d| d.reason == DropReason::Shed)
        .collect();
    assert!(!shed.is_empty());
    let lowest = shed.iter().filter(|d| d.tier == 0).count();
    assert!(
        lowest * 2 >= shed.len(),
        "shedding should concentrate on tier 0: {lowest}/{} were tier 0",
        shed.len()
    );
}

#[test]
fn kv_pressure_preemption_fires_and_every_victim_still_resolves() {
    // A 24 GB card leaves OPT-13B only a sliver of KV: decode pressure is
    // real, not simulated via an artificial watermark.
    let mut cfg = controlled(OverloadConfig {
        preempt_kv_watermark: Some(0.25),
        ..Default::default()
    });
    cfg.gpu = GpuSpec::rtx_4090();
    let trace = sharegpt_trace(12.0, 250, 113).with_tiers(3, 113);
    let report = run(cfg, &trace);
    assert!(
        report.requests_preempted > 0,
        "a cramped KV cache at this rate must preempt"
    );
    assert_eq!(
        report.summary.completed + report.dropped.len(),
        250,
        "preempted requests must resume and complete (or carry a typed drop)"
    );
    for rec in &report.records {
        rec.validate().unwrap();
    }
}

#[test]
fn preemption_runs_replay_byte_identically() {
    let mk = || {
        let mut cfg = controlled(OverloadConfig {
            preempt_kv_watermark: Some(0.25),
            audit_interval_events: Some(500),
            ..Default::default()
        });
        cfg.gpu = GpuSpec::rtx_4090();
        cfg.trace = TraceMode::Full;
        cfg
    };
    let trace = sharegpt_trace(12.0, 200, 127).with_tiers(3, 127);
    let (report_a, log_a) = Cluster::new(mk()).unwrap().run(&trace).unwrap();
    let (report_b, log_b) = Cluster::new(mk()).unwrap().run(&trace).unwrap();
    assert!(
        report_a.requests_preempted > 0,
        "test must exercise preemption"
    );
    assert_eq!(report_a, report_b, "overload runs must be deterministic");
    assert_eq!(
        log_a.to_chrome_json(),
        log_b.to_chrome_json(),
        "same seed must replay byte-identically under preemption"
    );
}

#[test]
fn watchdog_aborts_fault_stranded_work_instead_of_deadlocking() {
    // Crash every replica permanently (no recovery event): recovery has no
    // survivor to reschedule onto, so in-flight work is stranded forever.
    let stranded_plan = || {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(4.0);
        FaultPlan::new(131)
            .with_event(at, FaultKind::ReplicaCrash { inst: 0 })
            .with_event(at, FaultKind::ReplicaCrash { inst: 1 })
    };
    let trace = sharegpt_trace(10.0, 120, 131);
    let mut no_watchdog = ServeConfig::opt_13b_sharegpt(SystemKind::DistServe);
    no_watchdog.faults = Some(stranded_plan());
    let outcome = Cluster::new(no_watchdog.clone()).unwrap().run(&trace);
    assert!(
        outcome.is_err(),
        "a fully-crashed cluster without a watchdog must fail to drain"
    );
    let mut with_watchdog = no_watchdog;
    with_watchdog.overload = Some(OverloadConfig {
        deadline: Some(SimDuration::from_secs_f64(30.0)),
        shedding: false,
        max_queued_requests: None,
        ..Default::default()
    });
    let (report, _) = Cluster::new(with_watchdog)
        .unwrap()
        .run(&trace)
        .expect("the watchdog must drain the stranded run");
    assert!(
        report.watchdog_aborts > 0,
        "stranded requests must be aborted by the watchdog \
         (without it the run ended as {outcome:?})"
    );
    assert_eq!(
        report.summary.completed + report.dropped.len(),
        120,
        "aborted requests must carry typed outcomes"
    );
    assert!(report
        .dropped
        .iter()
        .all(|d| d.reason == DropReason::DeadlineExceeded));
}

#[test]
fn auditor_sees_no_violations_under_chaos_and_overload() {
    let horizon = SimDuration::from_secs_f64(250.0 / 10.0);
    let mut cfg = controlled(OverloadConfig {
        preempt_kv_watermark: Some(0.25),
        audit_interval_events: Some(200),
        ..Default::default()
    });
    cfg.faults = Some(FaultPlan::chaos(1, horizon, 137));
    let trace = sharegpt_trace(10.0, 250, 137).with_tiers(3, 137);
    // `run` panics on Error::Invariant, so success == zero violations.
    let report = run(cfg, &trace);
    assert!(report.invariant_checks > 0, "the auditor must actually run");
    assert_eq!(report.summary.completed + report.dropped.len(), 250);
}

#[test]
fn every_arrival_gets_an_admission_trace_event() {
    let mut cfg = controlled(OverloadConfig::default());
    cfg.trace = TraceMode::Full;
    let trace = sharegpt_trace(24.0, 150, 139).with_tiers(3, 139);
    let (report, log) = Cluster::new(cfg).unwrap().run(&trace).unwrap();
    let decisions = log.admission_decisions();
    assert_eq!(
        decisions.len(),
        150,
        "every arrival is audited, admitted or not"
    );
    // A shed request's audit spells the decision out.
    if let Some(d) = report.dropped.iter().find(|d| d.reason == DropReason::Shed) {
        let audit = log.audit(d.id);
        assert!(audit.contains("shed"), "audit must show the shed: {audit}");
    }
}

#[test]
fn overload_control_is_inert_below_saturation() {
    let trace = sharegpt_trace(8.0, 200, 149).with_tiers(3, 149);
    let baseline = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    let guarded = run(controlled(OverloadConfig::default()), &trace);
    assert_eq!(guarded.summary.completed, 200);
    assert_eq!(guarded.dropped.len(), 0, "nothing to drop below saturation");
    assert_eq!(
        baseline.summary.ttft, guarded.summary.ttft,
        "inactive overload control must not perturb the simulation"
    );
}
