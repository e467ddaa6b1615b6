//! Fault injection and recovery: crashes, flaky transfers and degraded
//! links must degrade service, never correctness.

use windserve::{Cluster, FaultKind, FaultPlan, ServeConfig, SystemKind, TraceMode};
use windserve_sim::{SimDuration, SimTime};
use windserve_tests::{run, sharegpt_trace};

/// Expected wall-clock span of a `sharegpt_trace(rate, n, _)` run — used
/// to aim crash/recover events at the middle of the run.
fn horizon(rate: f64, n: usize) -> SimDuration {
    SimDuration::from_secs_f64(n as f64 / rate)
}

#[test]
fn decode_crash_mid_run_completes_every_request() {
    let trace = sharegpt_trace(10.0, 300, 41);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    // Instance 1 is the (only) decode replica in the 1x1 deployment.
    cfg.faults = Some(FaultPlan::replica_crash(1, horizon(10.0, 300), 41));
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 300, "requests lost to the crash");
    assert_eq!(report.records.len(), 300);
    assert!(report.faults_injected >= 2, "crash + recover expected");
    assert!(
        report.requests_rescheduled > 0,
        "a mid-run decode crash must strand at least one request"
    );
    for rec in &report.records {
        rec.validate().unwrap();
    }
}

#[test]
fn prefill_crash_mid_run_completes_every_request() {
    let trace = sharegpt_trace(10.0, 300, 43);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.faults = Some(FaultPlan::replica_crash(0, horizon(10.0, 300), 43));
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 300);
    for rec in &report.records {
        rec.validate().unwrap();
    }
}

#[test]
fn crash_degrades_ttft_but_boundedly() {
    let trace = sharegpt_trace(10.0, 300, 41);
    let baseline = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.faults = Some(FaultPlan::replica_crash(1, horizon(10.0, 300), 41));
    let faulted = run(cfg, &trace);
    assert!(
        faulted.summary.ttft.p99 >= baseline.summary.ttft.p99,
        "a replica crash cannot make the tail faster"
    );
    // Losing one of two replicas for 40% of the run hurts, but recovery
    // keeps the damage bounded — nothing waits for the whole run.
    assert!(
        faulted.summary.ttft.p99 <= baseline.summary.ttft.p99 * 50.0,
        "TTFT p99 exploded: {} vs baseline {}",
        faulted.summary.ttft.p99,
        baseline.summary.ttft.p99
    );
    assert!(faulted.goodput() <= baseline.goodput());
}

#[test]
fn flaky_transfers_retry_and_still_complete() {
    let trace = sharegpt_trace(10.0, 250, 47);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.faults = Some(FaultPlan::flaky_transfers(47));
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 250);
    assert!(
        report.transfer_retries > 0,
        "a 30% failure rate over hundreds of handoffs must retry"
    );
}

#[test]
fn transfer_failures_at_certainty_still_terminate() {
    // p = 1.0: every transfer burns through its retries and falls back
    // (handoffs decode in place on the prefill replica). The run must
    // still terminate with every request served.
    let trace = sharegpt_trace(8.0, 150, 53);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.faults =
        Some(FaultPlan::new(53).with_transfer_failures(1.0, 2, SimDuration::from_millis(2)));
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 150);
    assert!(report.requests_rescheduled > 0, "handoffs must fall back");
}

#[test]
fn degraded_link_slows_transfers_without_losing_requests() {
    let trace = sharegpt_trace(10.0, 250, 59);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.faults = Some(FaultPlan::degraded_link(horizon(10.0, 250), 59));
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 250);
}

#[test]
fn chaos_preset_completes_under_distserve_too() {
    // The recovery paths must not depend on WindServe-only machinery
    // (overlapped transfers, rescheduling).
    let trace = sharegpt_trace(8.0, 200, 61);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::DistServe);
    cfg.faults = Some(FaultPlan::chaos(1, horizon(8.0, 200), 61));
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 200);
}

#[test]
fn colocated_replica_crash_reroutes_to_survivors() {
    let trace = sharegpt_trace(8.0, 200, 67);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::VllmColocated);
    // The 4-GPU colocated deployment runs two TP-2 replicas; crash one.
    cfg.faults = Some(FaultPlan::replica_crash(0, horizon(8.0, 200), 67));
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 200);
}

#[test]
fn seeded_fault_runs_replay_byte_identically() {
    let trace = sharegpt_trace(10.0, 200, 71);
    let mk = || {
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.trace = TraceMode::Full;
        cfg.faults = Some(FaultPlan::chaos(1, horizon(10.0, 200), 71).with_event(
            SimTime::ZERO + SimDuration::from_secs_f64(3.0),
            FaultKind::Straggler {
                inst: 0,
                delay: SimDuration::from_millis(40),
            },
        ));
        cfg
    };
    let (report_a, log_a) = Cluster::new(mk()).unwrap().run(&trace).unwrap();
    let (report_b, log_b) = Cluster::new(mk()).unwrap().run(&trace).unwrap();
    assert_eq!(report_a, report_b, "fault runs must be deterministic");
    assert_eq!(
        log_a.to_chrome_json(),
        log_b.to_chrome_json(),
        "same seed + plan must replay byte-identically"
    );
}

#[test]
fn redundant_fault_events_are_tolerated() {
    // Double-crashing a replica or recovering a healthy one must be
    // no-ops, not panics.
    let trace = sharegpt_trace(10.0, 120, 73);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let h = horizon(10.0, 120);
    cfg.faults = Some(
        FaultPlan::new(73)
            .with_event(
                SimTime::ZERO + h.mul_f64(0.2),
                FaultKind::ReplicaRecover { inst: 1 },
            )
            .with_event(
                SimTime::ZERO + h.mul_f64(0.3),
                FaultKind::ReplicaCrash { inst: 1 },
            )
            .with_event(
                SimTime::ZERO + h.mul_f64(0.35),
                FaultKind::ReplicaCrash { inst: 1 },
            )
            .with_event(
                SimTime::ZERO + h.mul_f64(0.6),
                FaultKind::ReplicaRecover { inst: 1 },
            ),
    );
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 120);
}
