//! Multi-turn sessions end to end: prefix caching must change the work a
//! cluster does without changing determinism. One seeded
//! `SessionsScenario` trace replays byte-identically under a fault preset,
//! while the prefix cache visibly serves follow-up turns.

use windserve::{FaultPlan, PrefixCacheConfig, ServeConfig, SystemKind};
use windserve_sim::SimDuration;
use windserve_tests::run;
use windserve_workload::{Scenario, SessionsScenario, Trace};

/// A compact multi-turn conversation trace.
fn sessions_trace(sessions: usize, seed: u64) -> Trace {
    Scenario::sessions(
        SessionsScenario::builder()
            .sessions(sessions)
            .session_rate(4.0)
            .turns(2, 5)
            .mean_think_secs(10.0)
            .followup_tokens(16, 128)
            .build()
            .expect("valid sessions scenario"),
    )
    .generate(seed)
    .expect("valid sessions scenario")
}

/// OPT-13B with two prefill replicas (so affinity routing has a real
/// choice) and the prefix cache on.
fn cached_config() -> ServeConfig {
    ServeConfig {
        prefill_replicas: 2,
        prefix_cache: Some(PrefixCacheConfig::default()),
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    }
}

#[test]
fn follow_up_turns_hit_the_prefix_cache() {
    let trace = sessions_trace(80, 0xBEEF);
    let report = run(cached_config(), &trace);
    assert!(report.prefix_hits > 0, "follow-ups must hit the cache");
    assert!(
        report.prefix_cached_tokens > 0,
        "hits must skip real tokens"
    );
    assert!(
        report.prefix_hit_rate() > 0.5,
        "most follow-ups should find their session's KV resident, got {}",
        report.prefix_hit_rate()
    );
    // Per-session latency grouping covers every completed request.
    let by_session = report.summary_by_session(windserve::SloSpec::opt_13b_sharegpt());
    let grouped: usize = by_session.values().map(|s| s.completed).sum();
    assert_eq!(grouped, report.summary.completed);
    assert!(
        by_session.keys().all(Option::is_some),
        "all requests tagged"
    );
}

#[test]
fn cached_sessions_replay_identically_under_faults() {
    let trace = sessions_trace(60, 41);
    let mut cfg = cached_config();
    cfg.faults = Some(FaultPlan::replica_crash(
        1,
        SimDuration::from_secs_f64(20.0),
        41,
    ));
    let first = run(cfg.clone(), &trace);
    assert!(first.faults_injected >= 2, "fault plan must fire");
    assert!(first.prefix_hits > 0, "cache must engage under faults");
    let second = run(cfg, &trace);
    assert_eq!(second, first, "a faulted cached run did not replay");
    assert_eq!(
        serde_json::to_string(&second).unwrap(),
        serde_json::to_string(&first).unwrap(),
        "a faulted cached run changed serialized bytes on replay"
    );
}

#[test]
fn affinity_routing_raises_the_hit_rate() {
    let trace = sessions_trace(80, 7);
    let with_affinity = run(cached_config(), &trace);
    let without = run(
        ServeConfig {
            prefix_cache: Some(PrefixCacheConfig {
                affinity: false,
                ..Default::default()
            }),
            ..cached_config()
        },
        &trace,
    );
    assert!(
        with_affinity.prefix_hit_rate() > without.prefix_hit_rate(),
        "affinity {} must beat load-only routing {}",
        with_affinity.prefix_hit_rate(),
        without.prefix_hit_rate()
    );
}
