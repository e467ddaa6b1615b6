//! Guards for the simulation hot-path optimizations: the FxHash map swap
//! must leave every run — including fault recovery — byte-for-byte
//! deterministic, and the running prefill backlog count must match its
//! queue at every event of a saturated run. The cost model's closed-form
//! pricing is checked against the job-by-job walk of Table 1 by the model
//! crate's `closed_form_prices_like_the_walk` property.

use windserve::{FaultPlan, OverloadConfig, ServeConfig, SystemKind, TraceMode};
use windserve_sim::SimDuration;
use windserve_tests::{decode_path_cases, longbench_trace, run, sessions_4p4d, sharegpt_trace};

/// Fault recovery walks every hot map (pending transfers, migrations,
/// per-sequence state) on the panic-recovery paths; with the
/// deterministic FxHash maps two identical seeded runs must serialize to
/// byte-identical reports.
#[test]
fn fault_recovery_is_byte_deterministic() {
    let trace = sharegpt_trace(10.0, 300, 41);
    let mk = || {
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.faults = Some(FaultPlan::replica_crash(
            1,
            SimDuration::from_secs_f64(30.0),
            41,
        ));
        cfg
    };
    let a = run(mk(), &trace);
    let b = run(mk(), &trace);
    assert!(a.faults_injected >= 2, "fault plan must actually fire");
    assert_eq!(a, b);
    let ja = serde_json::to_string(&a).unwrap();
    let jb = serde_json::to_string(&b).unwrap();
    assert_eq!(ja, jb, "serialized fault-recovery reports must match");
}

/// Past saturation the prefill queues hold hundreds of requests, the
/// regime where Algorithm 1 reads the backlog count on every arrival. An
/// overload config that admits everything, with the invariant auditor run
/// after every event, recomputes each instance's backlog from its queue and
/// compares it with the running count — and the run stays identical to the
/// legacy one.
#[test]
fn saturated_backlog_count_is_exact_at_every_event() {
    let legacy_cfg = ServeConfig::llama2_13b_longbench(SystemKind::WindServe);
    // 3 req/s per GPU: the backlog grows for the whole arrival window.
    let trace = longbench_trace(legacy_cfg.total_rate(3.0), 1400, 48879);
    let mut audited_cfg = legacy_cfg.clone();
    audited_cfg.overload = Some(OverloadConfig {
        max_queued_requests: None,
        shedding: false,
        audit_interval_events: Some(1),
        ..OverloadConfig::default()
    });
    let legacy = run(legacy_cfg, &trace);
    let audited = run(audited_cfg, &trace);

    assert!(
        audited.peak_pending > 500,
        "peak pending {}",
        audited.peak_pending
    );
    assert!(
        audited.dropped.is_empty(),
        "admit-everything config dropped work"
    );
    assert!(
        audited.invariant_checks > 10_000,
        "{} audits",
        audited.invariant_checks
    );
    let mut scrubbed = audited.clone();
    scrubbed.invariant_checks = legacy.invariant_checks;
    assert_eq!(scrubbed, legacy, "auditing must not change the run");
}

/// The decode-lane step ledger defers each member's tokens and KV growth,
/// so every path that swaps, migrates, preempts or aborts a member must
/// settle it first. The runs that reach those paths, and the four
/// interleaved decode replicas whose quiet completions go through the
/// run-ahead, with the auditor recomputing every lane's ledger from
/// settled member state after every event, must each equal their
/// unaudited run.
#[test]
fn ledger_is_exact_at_every_event() {
    let (sessions_cfg, sessions_trace) = sessions_4p4d(TraceMode::Off);
    let cases = decode_path_cases().into_iter().chain([(
        "sessions/4p4d-two-nodes",
        sessions_cfg,
        sessions_trace,
    )]);
    for (name, cfg, trace) in cases {
        let mut audited_cfg = cfg.clone();
        let mut overload = cfg.overload.unwrap_or(OverloadConfig {
            max_queued_requests: None,
            shedding: false,
            ..OverloadConfig::default()
        });
        overload.audit_interval_events = Some(1);
        audited_cfg.overload = Some(overload);
        let plain = run(cfg, &trace);
        let audited = run(audited_cfg, &trace);
        assert!(
            audited.invariant_checks >= audited.events_processed,
            "{name}: {} audits over {} events",
            audited.invariant_checks,
            audited.events_processed
        );
        let mut scrubbed = audited.clone();
        scrubbed.invariant_checks = plain.invariant_checks;
        assert_eq!(scrubbed, plain, "{name}: auditing must not change the run");
    }
}
