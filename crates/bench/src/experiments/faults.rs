//! Degraded-mode study: how much service survives injected faults.
//!
//! The paper evaluates WindServe fault-free; production phase-disaggregated
//! deployments lose replicas and links. This experiment replays the same
//! OPT-13B / ShareGPT workload under seeded fault presets and reports the
//! goodput and latency-tail cost of each, plus the recovery actions the
//! cluster took (reschedules, backup restores, transfer retries).

use crate::harness::{print_table, ExpContext};
use serde_json::{json, Value};
use windserve::{Cluster, FaultPlan, ServeConfig, SystemKind};
use windserve_engine::InstanceRole;
use windserve_faults::FAULT_PRESETS;
use windserve_sim::SimDuration;
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

const HEADERS: [&str; 8] = [
    "scenario", "goodput", "TTFT p50", "TTFT p99", "TPOT p99", "SLO both", "resched", "retries",
];

/// Runs the degraded-mode comparison.
pub fn run(ctx: &ExpContext) -> Value {
    let dataset = Dataset::sharegpt(2048);
    let n = ctx.scale(1200);
    let rate = 3.0;
    let seed = 0xFA;
    let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let total = base.total_rate(rate);
    let trace = Scenario::single_shot(dataset.clone(), ArrivalProcess::poisson(total), n)
        .generate(seed)
        .expect("valid single-shot scenario");
    // Fault times scale with the expected run span so crash/recover land
    // mid-run regardless of --quick.
    let horizon = SimDuration::from_secs_f64(n as f64 / total);
    let first_decode = base
        .layout()
        .expect("experiment config must be valid")
        .iter()
        .position(|r| r.role == InstanceRole::Decode)
        .expect("the deployment has a decode replica") as u32;
    let mut scenarios = vec![("fault-free".to_string(), None)];
    for preset in FAULT_PRESETS {
        let plan =
            FaultPlan::from_preset(preset, first_decode, horizon, seed).expect("registered preset");
        scenarios.push((preset.replace('-', " "), Some(plan)));
    }
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for (label, plan) in scenarios {
        let cfg = ServeConfig {
            faults: plan,
            ..base.clone()
        };
        let (report, _) = Cluster::new(cfg)
            .expect("experiment config must be valid")
            .run(&trace)
            .expect("faulted run must still complete");
        assert_eq!(report.summary.completed, n, "{label}: requests lost");
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", report.goodput()),
            format!("{:.3}", report.summary.ttft.p50),
            format!("{:.3}", report.summary.ttft.p99),
            format!("{:.4}", report.summary.tpot.p99),
            format!("{:.3}", report.summary.slo.both),
            format!("{}", report.requests_rescheduled),
            format!("{}", report.transfer_retries),
        ]);
        data.push(json!({
            "label": label,
            "goodput": report.goodput(),
            "ttft_p50": report.summary.ttft.p50,
            "ttft_p99": report.summary.ttft.p99,
            "tpot_p99": report.summary.tpot.p99,
            "slo_both": report.summary.slo.both,
            "faults_injected": report.faults_injected,
            "requests_rescheduled": report.requests_rescheduled,
            "backup_hits": report.backup_hits,
            "transfer_retries": report.transfer_retries,
        }));
    }
    print_table(
        "Faults: degraded-mode serving under injected failures \
         (OPT-13B, ShareGPT @ 3 req/s/GPU; every request still completes)",
        &HEADERS,
        &rows,
    );
    println!("(recovery trades latency tail for completeness — goodput dips, nothing is lost)");
    Value::Array(data)
}
