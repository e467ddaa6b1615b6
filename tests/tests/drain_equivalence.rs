//! Batched-vs-sequential drain equivalence.
//!
//! The event queue's batched cohort drain (`DrainMode::Batched`, the
//! default everywhere) removes every event sharing the earliest timestamp
//! in one heap pass instead of re-popping per event. That is a pure
//! mechanical optimization: it must not change a single scheduling
//! decision. These tests replay the same seeded trace under both drain
//! modes across every system family — disaggregated, colocated, fleet,
//! and fault-injected — and require the reports byte-identical with no
//! scrubbing at all.

use windserve::fleet::FleetConfig;
use windserve::{DrainMode, FaultPlan, ServeConfig, SystemKind};
use windserve_sim::SimDuration;
use windserve_tests::{longbench_trace, run, run_sequential, sharegpt_trace};

/// Asserts the batched and sequential replays of `cfg` over `trace` agree
/// on everything, down to the serialized bytes.
fn assert_drain_identical(cfg: ServeConfig, trace: &windserve_workload::Trace, label: &str) {
    let batched = run(cfg.clone(), trace);
    let sequential = run_sequential(cfg, trace);
    assert_eq!(
        batched, sequential,
        "{label}: batched draining changed reported results"
    );
    let jb = serde_json::to_string(&batched).unwrap();
    let js = serde_json::to_string(&sequential).unwrap();
    assert_eq!(jb, js, "{label}: serialized reports must match");
}

/// The headline system: phase-disaggregated WindServe with stream-based
/// scheduling, on the decode-heavy ShareGPT shape.
#[test]
fn windserve_batched_equals_sequential() {
    let trace = sharegpt_trace(8.0, 400, 2766);
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    assert_drain_identical(cfg, &trace, "windserve/sharegpt");
}

/// DistServe serializes KV transfer after prefill — a different event
/// interleaving (transfer-done and step-done events frequently collide on
/// one instant), so it exercises cohort ordering harder.
#[test]
fn distserve_batched_equals_sequential() {
    let trace = longbench_trace(4.0, 250, 7);
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::DistServe);
    assert_drain_identical(cfg, &trace, "distserve/longbench");
}

/// The colocated vLLM baseline runs hybrid prefill+decode steps on one
/// replica pool; same-instant arrival/step-done cohorts are the norm.
#[test]
fn colocated_batched_equals_sequential() {
    let trace = sharegpt_trace(6.0, 250, 99);
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::VllmColocated);
    assert_drain_identical(cfg, &trace, "vllm-colocated/sharegpt");
}

/// Fault injection schedules crash/recovery events onto the same clock as
/// the workload — recovery re-placements must land identically whichever
/// way the cohort was drained.
#[test]
fn fault_preset_batched_equals_sequential() {
    let trace = sharegpt_trace(10.0, 300, 41);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.faults = Some(FaultPlan::replica_crash(
        1,
        SimDuration::from_secs_f64(30.0),
        41,
    ));
    let batched = run(cfg.clone(), &trace);
    let sequential = run_sequential(cfg, &trace);
    assert!(
        batched.faults_injected >= 2,
        "fault plan must actually fire"
    );
    assert_eq!(
        batched, sequential,
        "fault recovery: batched draining changed reported results"
    );
}

/// The fleet layer runs several deployments over one shared GPU pool;
/// `Fleet::run_with_drain` threads the mode down into every deployment's
/// cluster, and the whole `FleetReport` — per-tenant summaries, lease
/// accounting, GPU-seconds — must be unchanged.
#[test]
fn fleet_batched_equals_sequential() {
    let fleet = FleetConfig::example().build().expect("example fleet");
    let batched = fleet.run(2).expect("batched fleet run");
    let sequential = fleet
        .run_with_drain(2, DrainMode::Sequential)
        .expect("sequential fleet run");
    assert_eq!(
        batched, sequential,
        "fleet: batched draining changed reported results"
    );
    let jb = serde_json::to_string(&batched).unwrap();
    let js = serde_json::to_string(&sequential).unwrap();
    assert_eq!(jb, js, "fleet: serialized reports must match");
}
