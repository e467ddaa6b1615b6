//! Chrome `trace_event` export (chrome://tracing / Perfetto compatible).
//!
//! The exporter lays the run out on three processes:
//!
//! * **pid 0 — scheduler**: instant events for every Algorithm 1
//!   decision (with `TTFT_pred`, `thrd` and the slot offer in `args`),
//!   rescheduling triggers, and autoscaler actions;
//! * **pid 1 — requests**: one track per request with complete-event
//!   spans for its lifecycle phases (`queued`, `prefill`, `kv-transfer`,
//!   `decode`, `migrating`);
//! * **pid 2 — instances**: one track per execution context (pipeline
//!   lane or aux stream) with an occupancy span per step.
//!
//! Output is byte-deterministic for a deterministic event log: spans are
//! emitted in scan order and all residual iteration is over sorted keys.

use crate::event::{TimedEvent, TraceEvent};
use crate::log::TraceLog;
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Timestamps in the exported file are microseconds (the trace_event
/// convention), taken directly from [`windserve_sim::SimTime`].
const SCHEDULER_PID: u64 = 0;
const REQUESTS_PID: u64 = 1;
const INSTANCES_PID: u64 = 2;

/// Lifecycle phases tracked per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Queued,
    Prefill,
    KvTransfer,
    Decode,
    Migrating,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Prefill => "prefill",
            Phase::KvTransfer => "kv-transfer",
            Phase::Decode => "decode",
            Phase::Migrating => "migrating",
        }
    }
}

fn span(name: &str, pid: u64, tid: u64, start_us: u64, end_us: u64) -> Value {
    json!({
        "name": name,
        "ph": "X",
        "ts": start_us,
        "dur": end_us.saturating_sub(start_us),
        "pid": pid,
        "tid": tid,
    })
}

fn instant(name: &str, pid: u64, tid: u64, ts_us: u64, args: Value) -> Value {
    json!({
        "name": name,
        "ph": "i",
        "s": "t",
        "ts": ts_us,
        "pid": pid,
        "tid": tid,
        "args": args,
    })
}

impl TraceLog {
    /// Renders the log as a Chrome `trace_event` JSON document.
    fn to_chrome_trace(&self) -> Value {
        let mut events: Vec<Value> = vec![
            json!({"name": "process_name", "ph": "M", "pid": SCHEDULER_PID, "tid": 0u64,
                   "args": {"name": "global-scheduler"}}),
            json!({"name": "process_name", "ph": "M", "pid": REQUESTS_PID, "tid": 0u64,
                   "args": {"name": "requests"}}),
            json!({"name": "process_name", "ph": "M", "pid": INSTANCES_PID, "tid": 0u64,
                   "args": {"name": "instances"}}),
        ];
        // (instance, lane-slot) -> label, for thread_name metadata.
        let mut lanes: BTreeSet<(u32, u32, String)> = BTreeSet::new();
        // request id -> open phase start times.
        let mut open: BTreeMap<u64, BTreeMap<Phase, u64>> = BTreeMap::new();
        let mut body: Vec<Value> = Vec::new();
        let last_us = self.events().last().map_or(0, |e| e.at.as_micros());

        let close = |open: &mut BTreeMap<u64, BTreeMap<Phase, u64>>,
                     body: &mut Vec<Value>,
                     id: u64,
                     phase: Phase,
                     end_us: u64| {
            if let Some(start) = open.entry(id).or_default().remove(&phase) {
                body.push(span(phase.name(), REQUESTS_PID, id, start, end_us));
            }
        };
        let start =
            |open: &mut BTreeMap<u64, BTreeMap<Phase, u64>>, id: u64, phase: Phase, at_us: u64| {
                open.entry(id).or_default().entry(phase).or_insert(at_us);
            };

        for TimedEvent { at, event } in self.events() {
            let us = at.as_micros();
            match event {
                TraceEvent::Queued { id, .. } => start(&mut open, id.0, Phase::Queued, us),
                TraceEvent::Dispatch(d) => body.push(instant(
                    "dispatch",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({
                        "request": d.request.0,
                        "verdict": d.verdict.label(),
                        "ttft_pred_secs": d.ttft_pred_secs,
                        "threshold_secs": d.threshold_secs,
                        "slots_free": d.slots_free,
                        "prompt_tokens": d.prompt_tokens,
                        "target": d.target,
                    }),
                )),
                TraceEvent::PrefillStarted { id, .. } => {
                    close(&mut open, &mut body, id.0, Phase::Queued, us);
                    start(&mut open, id.0, Phase::Prefill, us);
                }
                TraceEvent::PrefillFinished { id, .. } => {
                    close(&mut open, &mut body, id.0, Phase::Prefill, us);
                }
                TraceEvent::KvTransferStarted { id, .. } => {
                    start(&mut open, id.0, Phase::KvTransfer, us);
                }
                TraceEvent::KvTransferFinished { id, .. } => {
                    close(&mut open, &mut body, id.0, Phase::KvTransfer, us);
                }
                TraceEvent::BackupCreated { id, inst } => body.push(instant(
                    "backup-created",
                    REQUESTS_PID,
                    id.0,
                    us,
                    json!({"inst": *inst}),
                )),
                TraceEvent::DecodeStarted { id, .. } => {
                    start(&mut open, id.0, Phase::Decode, us);
                }
                TraceEvent::ReschedTriggered {
                    inst,
                    kv_free_fraction,
                    watermark,
                } => body.push(instant(
                    "resched-triggered",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({
                        "inst": *inst,
                        "kv_free_fraction": *kv_free_fraction,
                        "watermark": *watermark,
                    }),
                )),
                TraceEvent::MigrationStarted { id, .. } => {
                    start(&mut open, id.0, Phase::Migrating, us);
                }
                TraceEvent::MigrationPaused { id, tail_tokens } => body.push(instant(
                    "migration-paused",
                    REQUESTS_PID,
                    id.0,
                    us,
                    json!({"tail_tokens": *tail_tokens}),
                )),
                TraceEvent::MigrationFinished { id, .. } => {
                    close(&mut open, &mut body, id.0, Phase::Migrating, us);
                }
                TraceEvent::Finished { id } => {
                    close(&mut open, &mut body, id.0, Phase::Decode, us);
                }
                TraceEvent::StepFinished {
                    inst,
                    lane,
                    class,
                    duration_us,
                } => {
                    let tid = u64::from(*inst) * 16 + u64::from(lane.slot());
                    lanes.insert((*inst, lane.slot(), lane.label()));
                    body.push(span(
                        class.label(),
                        INSTANCES_PID,
                        tid,
                        us.saturating_sub(*duration_us),
                        us,
                    ));
                }
                TraceEvent::StepStarted { .. } => {}
                TraceEvent::Autoscale { inst, activated } => body.push(instant(
                    if *activated { "scale-up" } else { "scale-down" },
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({"inst": *inst}),
                )),
                TraceEvent::FaultInjected { fault, inst } => body.push(instant(
                    "fault-injected",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({"fault": fault, "inst": inst}),
                )),
                TraceEvent::RequestRescheduled {
                    id,
                    from,
                    to,
                    backup_hit,
                } => {
                    // The crash tore down whatever phase the request was
                    // in; close its open spans and let the replacement
                    // phases reopen as the re-placed request progresses.
                    close(&mut open, &mut body, id.0, Phase::Decode, us);
                    close(&mut open, &mut body, id.0, Phase::KvTransfer, us);
                    close(&mut open, &mut body, id.0, Phase::Prefill, us);
                    close(&mut open, &mut body, id.0, Phase::Migrating, us);
                    body.push(instant(
                        "request-rescheduled",
                        REQUESTS_PID,
                        id.0,
                        us,
                        json!({"from": *from, "to": *to, "backup_hit": *backup_hit}),
                    ));
                }
                TraceEvent::TransferRetried {
                    id,
                    attempt,
                    backoff_us,
                } => body.push(instant(
                    "transfer-retried",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({
                        "request": id.map(|r| r.0),
                        "attempt": *attempt,
                        "backoff_us": *backoff_us,
                    }),
                )),
                TraceEvent::Admission(a) => body.push(instant(
                    "admission",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({
                        "request": a.request.0,
                        "tier": a.tier,
                        "verdict": a.verdict.label(),
                        "queued_requests": a.queued_requests,
                        "queued_tokens": a.queued_tokens,
                        "ttft_pred_secs": a.ttft_pred_secs,
                        "shed_threshold_secs": a.shed_threshold_secs,
                        "victim": a.victim.map(|v| v.0),
                    }),
                )),
                TraceEvent::RequestPreempted {
                    id,
                    inst,
                    tier,
                    kv_free_fraction,
                    watermark,
                } => {
                    // The victim leaves its decode span; it re-enters via a
                    // fresh decode-started when re-admitted.
                    close(&mut open, &mut body, id.0, Phase::Decode, us);
                    body.push(instant(
                        "request-preempted",
                        REQUESTS_PID,
                        id.0,
                        us,
                        json!({
                            "inst": *inst,
                            "tier": *tier,
                            "kv_free_fraction": *kv_free_fraction,
                            "watermark": *watermark,
                        }),
                    ));
                }
                TraceEvent::FleetLease {
                    deployment,
                    action,
                    gpus,
                    lease_after,
                    pool_free,
                } => body.push(instant(
                    "fleet-lease",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({
                        "deployment": *deployment,
                        "action": action.label(),
                        "gpus": *gpus,
                        "lease_after": *lease_after,
                        "pool_free": *pool_free,
                    }),
                )),
                TraceEvent::WatchdogAborted {
                    id,
                    waited_secs,
                    deadline_secs,
                } => body.push(instant(
                    "watchdog-aborted",
                    REQUESTS_PID,
                    id.0,
                    us,
                    json!({
                        "waited_secs": *waited_secs,
                        "deadline_secs": *deadline_secs,
                    }),
                )),
                TraceEvent::GatewaySubmitted {
                    id,
                    prompt_tokens,
                    output_tokens,
                    streamed,
                } => body.push(instant(
                    "gateway-submitted",
                    REQUESTS_PID,
                    id.0,
                    us,
                    json!({
                        "prompt_tokens": *prompt_tokens,
                        "output_tokens": *output_tokens,
                        "streamed": *streamed,
                    }),
                )),
                TraceEvent::GatewayStreamClosed {
                    id,
                    delivered_tokens,
                } => body.push(instant(
                    "gateway-stream-closed",
                    REQUESTS_PID,
                    id.0,
                    us,
                    json!({"delivered_tokens": *delivered_tokens}),
                )),
                TraceEvent::GatewayHealthChanged {
                    from,
                    to,
                    error_rate,
                } => body.push(instant(
                    "gateway-health-changed",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({
                        "from": from,
                        "to": to,
                        "error_rate": *error_rate,
                    }),
                )),
                TraceEvent::GatewayBreaker {
                    state,
                    consecutive_failures,
                } => body.push(instant(
                    "gateway-breaker",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({
                        "state": state,
                        "consecutive_failures": *consecutive_failures,
                    }),
                )),
                TraceEvent::GatewayNetFault { conn, kind } => body.push(instant(
                    "gateway-net-fault",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({"conn": *conn, "kind": kind}),
                )),
                TraceEvent::PrefixHit {
                    id,
                    inst,
                    cached_tokens,
                    prompt_tokens,
                } => body.push(instant(
                    "prefix-hit",
                    REQUESTS_PID,
                    id.0,
                    us,
                    json!({
                        "inst": *inst,
                        "cached_tokens": *cached_tokens,
                        "prompt_tokens": *prompt_tokens,
                    }),
                )),
                TraceEvent::PrefixMiss { id, inst } => body.push(instant(
                    "prefix-miss",
                    REQUESTS_PID,
                    id.0,
                    us,
                    json!({"inst": *inst}),
                )),
                TraceEvent::PrefixEvicted {
                    inst,
                    evicted_tokens,
                } => body.push(instant(
                    "prefix-evicted",
                    SCHEDULER_PID,
                    0,
                    us,
                    json!({"inst": *inst, "evicted_tokens": *evicted_tokens}),
                )),
            }
        }
        // Close anything still open at the end of the run (sorted ids and
        // phases keep this deterministic).
        for (id, phases) in &open {
            let mut names: Vec<Phase> = phases.keys().copied().collect();
            names.sort_unstable();
            for phase in names {
                body.push(span(
                    phase.name(),
                    REQUESTS_PID,
                    *id,
                    phases[&phase],
                    last_us,
                ));
            }
        }
        for (inst, slot, label) in &lanes {
            events.push(json!({
                "name": "thread_name",
                "ph": "M",
                "pid": INSTANCES_PID,
                "tid": u64::from(*inst) * 16 + u64::from(*slot),
                "args": {"name": format!("inst{inst}/{label}")},
            }));
        }
        events.extend(body);
        json!({
            "displayTimeUnit": "ms",
            "traceEvents": events,
        })
    }

    /// The Chrome trace as a compact JSON string, suitable for writing
    /// straight to a `.json` file and loading into Perfetto or
    /// `chrome://tracing`. Byte-deterministic for a deterministic run.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_trace().to_string()
    }
}
