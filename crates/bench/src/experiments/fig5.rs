//! Fig. 5: sensitivity of SLO attainment to the dispatch threshold `thrd`.
//!
//! A small threshold dispatches aggressively (good TTFT, worse TPOT); too
//! small overwhelms the decode instance; too large never dispatches and
//! degenerates to DistServe. The paper sets `thrd` slightly below the TTFT
//! SLO.

use crate::harness::{print_table, run_point, ExpContext};
use serde_json::{json, Value};
use windserve::{ServeConfig, SystemKind};
use windserve_sim::SimDuration;
use windserve_workload::Dataset;

/// Threshold multipliers of the TTFT SLO swept.
pub(crate) const FRACTIONS: [f64; 6] = [0.05, 0.15, 0.3, 0.6, 0.9, 1.5];

/// One workload case: label, config constructor, dataset constructor,
/// per-GPU rate, full-mode request count.
type ThresholdCase = (
    &'static str,
    fn(SystemKind) -> ServeConfig,
    fn() -> Dataset,
    f64,
    usize,
);

/// Runs the threshold sweep on both paper workloads.
pub fn run(ctx: &ExpContext) -> Value {
    let cases: [ThresholdCase; 2] = [
        (
            "OPT-13B / ShareGPT @ 4 req/s/GPU",
            ServeConfig::opt_13b_sharegpt,
            || Dataset::sharegpt(2048),
            4.0,
            1500,
        ),
        (
            "LLaMA2-13B / LongBench @ 1.5 req/s/GPU",
            ServeConfig::llama2_13b_longbench,
            || Dataset::longbench(4096),
            1.5,
            1000,
        ),
    ];
    let mut out = serde_json::Map::new();
    for (label, config, dataset, rate, n) in cases {
        let dataset = dataset();
        let mut rows = Vec::new();
        let mut points = Vec::new();
        for frac in FRACTIONS {
            let mut cfg = config(SystemKind::WindServe);
            let thrd = SimDuration::from_secs_f64(cfg.slo.ttft.as_secs_f64() * frac);
            cfg.dispatch_threshold = Some(thrd);
            let report = run_point(cfg, &dataset, rate, ctx.scale(n), 0xF5);
            rows.push(vec![
                format!("{:.2}x SLO", frac),
                format!("{:.3}", thrd.as_secs_f64()),
                format!("{:.3}", report.summary.slo.both),
                format!("{:.3}", report.summary.ttft.p50),
                format!("{:.4}", report.summary.tpot.p99),
                format!("{}", report.dispatched_prefills),
            ]);
            points.push(json!({
                "threshold_fraction": frac,
                "threshold_secs": thrd.as_secs_f64(),
                "slo_both": report.summary.slo.both,
                "ttft_p50": report.summary.ttft.p50,
                "tpot_p99": report.summary.tpot.p99,
                "dispatched": report.dispatched_prefills,
            }));
        }
        print_table(
            &format!("Fig 5: threshold sensitivity — {label}"),
            &[
                "thrd",
                "secs",
                "SLO both",
                "TTFT p50",
                "TPOT p99",
                "dispatched",
            ],
            &rows,
        );
        out.insert(label.to_string(), Value::Array(points));
    }
    Value::Object(out)
}
