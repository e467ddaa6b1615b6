//! Overload study: graceful degradation past the saturation point.
//!
//! The paper evaluates WindServe below saturation; production front-ends
//! see demand spikes well past it. This experiment drives the OPT-13B /
//! ShareGPT workload at a grid of arrival-rate multipliers, with and
//! without overload control (admission caps, SLO-aware shedding, KV-
//! pressure preemption, deadline watchdog), and reports goodput plus the
//! typed fate of every request that did not complete. The invariant
//! auditor runs throughout the controlled runs; a violation panics the
//! experiment.

use crate::harness::{parallel_map, print_table, ExpContext};
use serde_json::{json, Value};
use windserve::{Cluster, OverloadConfig, ServeConfig, SystemKind};
use windserve_sim::SimDuration;
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

const HEADERS: [&str; 9] = [
    "scenario", "goodput", "TTFT p99", "SLO both", "done", "rejected", "shed", "preempt", "peak-q",
];

/// Runs the overload sweep.
pub fn run(ctx: &ExpContext) -> Value {
    let dataset = Dataset::sharegpt(2048);
    let n = ctx.scale(1200);
    let rate = 3.0;
    let seed = 0xC4FE;
    let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let trace = Scenario::single_shot(
        dataset.clone(),
        ArrivalProcess::poisson(base.total_rate(rate)),
        n,
    )
    .generate(seed)
    .expect("valid single-shot scenario")
    .with_tiers(3, seed);
    let factors = [1.0, 1.5, 2.0, 3.0];
    let points: Vec<(f64, bool)> = factors
        .iter()
        .flat_map(|&f| [(f, false), (f, true)])
        .collect();
    let reports = parallel_map(ctx.jobs, points.clone(), |(factor, controlled)| {
        let cfg = ServeConfig {
            overload: controlled.then(|| OverloadConfig {
                preempt_kv_watermark: Some(0.05),
                deadline: Some(SimDuration::from_secs_f64(600.0)),
                audit_interval_events: Some(5_000),
                ..Default::default()
            }),
            ..base.clone()
        };
        Cluster::new(cfg)
            .expect("experiment config must be valid")
            .run(&trace.with_rate_scaled(factor))
            .expect("overloaded run must still drain")
            .0
    });
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for ((factor, controlled), report) in points.into_iter().zip(reports) {
        let label = format!(
            "{factor:.1}x {}",
            if controlled {
                "controlled"
            } else {
                "open-loop"
            }
        );
        let accounted = report.summary.completed + report.dropped.len();
        assert_eq!(accounted, n, "{label}: requests unaccounted for");
        rows.push(vec![
            label.clone(),
            format!("{:.3}", report.goodput()),
            format!("{:.3}", report.summary.ttft.p99),
            format!("{:.3}", report.summary.slo.both),
            format!("{}", report.summary.completed),
            format!("{}", report.requests_rejected),
            format!("{}", report.requests_shed),
            format!("{}", report.requests_preempted),
            format!("{}", report.peak_pending),
        ]);
        data.push(json!({
            "factor": factor,
            "controlled": controlled,
            "goodput": report.goodput(),
            "ttft_p99": report.summary.ttft.p99,
            "slo_both": report.summary.slo.both,
            "completed": report.summary.completed,
            "rejected": report.requests_rejected,
            "shed": report.requests_shed,
            "preempted": report.requests_preempted,
            "watchdog_aborts": report.watchdog_aborts,
            "peak_pending": report.peak_pending,
            "invariant_checks": report.invariant_checks,
        }));
    }
    print_table(
        "Overload: goodput and typed degradation past saturation \
         (OPT-13B, ShareGPT; base 3 req/s/GPU; every drop has a typed outcome)",
        &HEADERS,
        &rows,
    );
    println!(
        "(control sheds low-tier work to keep high-tier goodput; open-loop queues grow unbounded)"
    );
    Value::Array(data)
}
