//! Cross-crate integrity: conservation, determinism and record validity
//! under randomized operating points.

use proptest::prelude::*;
use std::collections::HashMap;
use windserve::{LiveEvent, Parallelism, ServeConfig, SystemKind, TraceMode};
use windserve_sim::SimTime;
use windserve_tests::{decode_path_cases, run, sessions_4p4d, sharegpt_trace, sliced_live_run};

#[test]
fn reports_are_identical_across_reruns() {
    let trace = sharegpt_trace(12.0, 400, 31);
    for system in [
        SystemKind::WindServe,
        SystemKind::DistServe,
        SystemKind::VllmColocated,
    ] {
        let a = run(ServeConfig::opt_13b_sharegpt(system), &trace);
        let b = run(ServeConfig::opt_13b_sharegpt(system), &trace);
        assert_eq!(a, b, "{} must be deterministic", system.label());
    }
}

/// One request's live events.
#[derive(Default)]
struct Stream {
    first: Option<SimTime>,
    tokens: Vec<SimTime>,
    finished: Option<SimTime>,
}

/// A live session pumped in 100 ms slices streams every completed request
/// one `Token` per output token after the first, in time order, between
/// its `FirstToken` and its `Finished`: on the 4P+4D sessions deployment,
/// whose four decode replicas interleave, and under KV-pressure swap
/// preemption.
#[test]
fn live_streams_carry_every_decoded_token() {
    let (_, preempting, preempting_trace) = decode_path_cases()
        .into_iter()
        .find(|(name, ..)| *name == "overload/kv-preempt")
        .expect("the KV-pressure case");
    let (sessions, sessions_trace) = sessions_4p4d(TraceMode::Off);
    let cases = [
        (sessions, sessions_trace, false),
        (preempting, preempting_trace, true),
    ];
    for (cfg, trace, preempts) in cases {
        let (report, live) = sliced_live_run(cfg, &trace);
        assert!(!report.records.is_empty());
        assert_eq!(
            report.requests_preempted > 0,
            preempts,
            "KV-pressure preemption"
        );
        let mut streams: HashMap<u64, Stream> = HashMap::new();
        for ev in &live {
            let stream = streams.entry(ev.request_id().0).or_default();
            match *ev {
                LiveEvent::FirstToken { at, .. } => stream.first = Some(at),
                LiveEvent::Token { at, .. } => stream.tokens.push(at),
                LiveEvent::Finished { at, .. } => stream.finished = Some(at),
                LiveEvent::Dropped { .. } => {}
            }
        }
        for rec in &report.records {
            let Stream {
                first,
                tokens,
                finished,
            } = &streams[&rec.id.0];
            let (first, finished) = (first.expect("first token"), finished.expect("finished"));
            assert_eq!(
                tokens.len() as u32,
                rec.output_tokens - 1,
                "{} tokens",
                rec.id
            );
            assert!(
                tokens.windows(2).all(|w| w[0] <= w[1]),
                "{} in time order",
                rec.id
            );
            assert!(
                tokens.iter().all(|&t| first <= t && t <= finished),
                "{} tokens between its first and its finish",
                rec.id
            );
        }
    }
}

#[test]
fn records_cover_every_request_with_valid_chains() {
    let trace = sharegpt_trace(14.0, 600, 32);
    let report = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    assert_eq!(report.records.len(), trace.requests().len());
    for (req, rec) in trace.requests().iter().zip(&report.records) {
        assert_eq!(req.id, rec.id);
        assert_eq!(req.prompt_tokens, rec.prompt_tokens);
        assert_eq!(req.output_tokens, rec.output_tokens);
        assert_eq!(req.arrival, rec.arrival);
        rec.validate().unwrap();
    }
}

#[test]
fn migrated_requests_are_marked_and_complete() {
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.decode_parallelism = Parallelism::tp(1);
    let trace = sharegpt_trace(9.0, 800, 33);
    let report = run(cfg, &trace);
    assert!(
        report.migrations_started > 0,
        "point must trigger migrations"
    );
    let migrated = report.records.iter().filter(|r| r.migrations > 0).count() as u64;
    assert!(migrated > 0);
    assert!(migrated <= report.migrations_started);
    assert_eq!(
        report.migrations_completed + (report.migrations_started - report.migrations_completed),
        report.migrations_started
    );
}

#[test]
fn pipeline_parallel_instances_use_both_lanes() {
    let trace = sharegpt_trace(4.0, 400, 34);
    let report = run(ServeConfig::opt_66b_sharegpt(SystemKind::DistServe), &trace);
    assert_eq!(report.summary.completed, 400);
    // PP-2 gives each instance two lanes; under load the prefill instance
    // must run more than one step at a time on average. We check the
    // weaker, robust property: steps happened and everything completed.
    assert!(report.instances[0].prefill_steps > 100);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across random seeds and rates, every request completes exactly once
    /// and all records validate, for all three systems.
    #[test]
    fn completion_conservation(seed in 0u64..1000, rate in 4.0f64..20.0) {
        let trace = sharegpt_trace(rate, 200, seed);
        for system in [SystemKind::WindServe, SystemKind::DistServe, SystemKind::VllmColocated] {
            let report = run(ServeConfig::opt_13b_sharegpt(system), &trace);
            prop_assert_eq!(report.summary.completed, 200);
            for rec in &report.records {
                prop_assert!(rec.validate().is_ok());
                prop_assert!(rec.ttft() >= 0.0);
            }
        }
    }

    /// The memory-tight placement never loses requests either, whatever
    /// mix of swapping and migration the run ends up doing.
    #[test]
    fn pressure_never_loses_requests(seed in 0u64..500) {
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.decode_parallelism = Parallelism::tp(1);
        let trace = sharegpt_trace(9.0, 150, seed);
        let report = run(cfg, &trace);
        prop_assert_eq!(report.summary.completed, 150);
    }
}

/// Regression: with PP-2 (two lanes), a sequence preempted by one lane
/// while still inside the other lane's in-flight step must not be
/// re-admitted into a second concurrent step (this used to double-process
/// it and crash the engine).
#[test]
fn pp2_preemption_readmission_race() {
    let trace = sharegpt_trace(2.0, 1200, 0xBEEF);
    let report = run(ServeConfig::opt_66b_sharegpt(SystemKind::WindServe), &trace);
    assert_eq!(report.summary.completed, 1200);
}
