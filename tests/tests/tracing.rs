//! Integration tests for the scheduling-decision trace layer: determinism
//! of the Chrome export, the zero-cost disabled path, and auditability of
//! Algorithm 1 dispatch rejections.

use windserve::prelude::*;
use windserve::trace::{DispatchVerdict, TraceEvent};
use windserve_sim::SimDuration;
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn sharegpt_trace(requests: usize, rate_per_gpu: f64, cfg: &ServeConfig, seed: u64) -> Trace {
    Scenario::single_shot(
        Dataset::sharegpt(2048),
        ArrivalProcess::poisson(cfg.total_rate(rate_per_gpu)),
        requests,
    )
    .generate(seed)
    .expect("valid single-shot scenario")
}

fn traced_run(cfg: ServeConfig, trace: &Trace) -> (RunReport, TraceLog) {
    Cluster::new(cfg).unwrap().run(trace).unwrap()
}

/// Two runs with the same seed and configuration must export byte-identical
/// Chrome trace JSON — the trace layer may not perturb or observe any
/// nondeterminism in the simulation.
#[test]
fn same_seed_runs_export_byte_identical_traces() {
    let cfg = ServeConfig {
        trace: TraceMode::Full,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = sharegpt_trace(200, 3.0, &cfg, 77);

    let (report_a, log_a) = traced_run(cfg.clone(), &trace);
    let (report_b, log_b) = traced_run(cfg, &trace);

    assert_eq!(report_a.summary.completed, 200);
    assert_eq!(report_b.summary.completed, 200);
    assert!(!log_a.is_empty());
    assert_eq!(log_a, log_b);

    let json_a = log_a.to_chrome_json();
    let json_b = log_b.to_chrome_json();
    assert_eq!(json_a.as_bytes(), json_b.as_bytes());
}

/// With tracing off (the default), the run records nothing and still
/// completes identically.
#[test]
fn null_sink_records_nothing() {
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    assert_eq!(cfg.trace, TraceMode::Off);
    let trace = sharegpt_trace(100, 3.0, &cfg, 7);

    let (report, log) = traced_run(cfg.clone(), &trace);
    assert_eq!(report.summary.completed, 100);
    assert!(log.is_empty());
    assert_eq!(log.len(), 0);
    assert!(log.dispatch_decisions().is_empty());
    assert!(log.request_ids().is_empty());

    // Recording a full trace does not change the outcome.
    let mut full_cfg = cfg;
    full_cfg.trace = TraceMode::Full;
    let (traced, _) = traced_run(full_cfg, &trace);
    assert_eq!(traced.summary.completed, report.summary.completed);
    assert_eq!(traced.dispatched_prefills, report.dispatched_prefills);
}

/// A ring buffer keeps only the most recent events, bounded by its capacity.
#[test]
fn ring_buffer_keeps_only_the_tail() {
    let cfg = ServeConfig {
        trace: TraceMode::Ring(64),
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = sharegpt_trace(150, 3.0, &cfg, 21);
    let (_, ring_log) = traced_run(cfg.clone(), &trace);

    let full_cfg = ServeConfig {
        trace: TraceMode::Full,
        ..cfg
    };
    let (_, full_log) = traced_run(full_cfg, &trace);

    assert_eq!(ring_log.len(), 64);
    assert!(full_log.len() > 64);
    // The ring holds exactly the tail of the full log.
    let tail = &full_log.events()[full_log.len() - 64..];
    assert_eq!(ring_log.events(), tail);
}

/// Starving Algorithm 1 of threshold headroom forces dispatch rejections,
/// and the decision audit must spell out the `TTFT_pred` inputs that
/// produced them.
#[test]
fn dispatch_rejections_are_audited_with_ttft_pred_inputs() {
    // thrd of 1ms means every predicted TTFT exceeds it, so Algorithm 1
    // always wants to dispatch. The calibrated budget is left as is: at
    // this load queued decodes and the guest backlog already zero the
    // decode replica's slots for some arrivals.
    let cfg = ServeConfig {
        dispatch_threshold: Some(SimDuration::from_millis(1)),
        trace: TraceMode::Full,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = sharegpt_trace(120, 3.0, &cfg, 99);
    let (_, log) = traced_run(cfg, &trace);

    let decisions = log.dispatch_decisions();
    assert!(!decisions.is_empty(), "no dispatch decisions recorded");
    let rejected: Vec<_> = decisions
        .iter()
        .filter(|(_, d)| d.verdict == DispatchVerdict::NoSlots)
        .collect();
    assert!(
        !rejected.is_empty(),
        "expected no-slots rejections under a 1 ms threshold"
    );

    let (_, d) = rejected[0];
    // The decision carries Algorithm 1's inputs even for rejections.
    assert!(d.ttft_pred_secs > d.threshold_secs);
    assert!((d.threshold_secs - 0.001).abs() < 1e-9);
    // Rejected because the best slot offer cannot host the prompt.
    assert!(d.slots_free < u64::from(d.prompt_tokens));

    let audit = log.audit(d.request);
    assert!(audit.contains("ttft_pred"), "audit: {audit}");
    assert!(audit.contains("thrd"), "audit: {audit}");
    assert!(audit.contains("no-slots"), "audit: {audit}");
    assert!(
        audit.contains(&format!("slots {}", d.slots_free)),
        "audit: {audit}"
    );
}

/// The Chrome export is valid JSON with the span/instant structure that
/// Perfetto expects: complete events carry `dur`, instants carry scope.
#[test]
fn chrome_export_has_lifecycle_spans_and_decision_instants() {
    let cfg = ServeConfig {
        trace: TraceMode::Full,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = sharegpt_trace(80, 3.0, &cfg, 5);
    let (_, log) = traced_run(cfg, &trace);

    let json = log.to_chrome_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    let mut span_names = std::collections::BTreeSet::new();
    let mut saw_dispatch_instant = false;
    for e in events {
        match e["ph"].as_str().unwrap() {
            "X" => {
                assert!(e["dur"].as_u64().is_some(), "complete event without dur");
                span_names.insert(e["name"].as_str().unwrap().to_string());
            }
            "i" => {
                if e["name"].as_str() == Some("dispatch") {
                    saw_dispatch_instant = true;
                    let a = &e["args"];
                    assert!(a["ttft_pred_secs"].as_f64().is_some());
                    assert!(a["threshold_secs"].as_f64().is_some());
                    assert!(a["slots_free"].as_f64().is_some());
                }
            }
            "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for required in ["queued", "prefill", "kv-transfer", "decode"] {
        assert!(span_names.contains(required), "missing span {required:?}");
    }
    assert!(saw_dispatch_instant, "no Algorithm 1 decision instants");

    // Request-lifecycle ordering survives into the log itself.
    let id = log.request_ids()[0];
    let kinds: Vec<&str> = log.for_request(id).iter().map(|e| e.event.kind()).collect();
    let pos = |k: &str| kinds.iter().position(|&x| x == k);
    let queued = pos("queued").expect("queued event");
    let prefill = pos("prefill-finished").expect("prefill-finished event");
    let finished = pos("finished").expect("finished event");
    assert!(queued < prefill && prefill < finished, "order: {kinds:?}");
}

/// `TraceEvent::kind` labels are stable — docs, the CLI renderer, and the
/// audit format all key off them.
#[test]
fn event_kind_labels_are_stable() {
    let cfg = ServeConfig {
        trace: TraceMode::Full,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = sharegpt_trace(60, 3.0, &cfg, 11);
    let (_, log) = traced_run(cfg, &trace);
    for e in log.events() {
        match &e.event {
            TraceEvent::Queued { .. } => assert_eq!(e.event.kind(), "queued"),
            TraceEvent::Dispatch(_) => assert_eq!(e.event.kind(), "dispatch"),
            TraceEvent::Finished { .. } => assert_eq!(e.event.kind(), "finished"),
            _ => assert!(!e.event.kind().is_empty()),
        }
    }
}
