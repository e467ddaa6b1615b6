//! End-to-end sweeps shared by Fig. 10 (latency curves) and Fig. 11 (SLO
//! attainment).

use crate::harness::{parallel_map, print_table, run_point, Case, ExpContext};
use serde_json::{json, Value};
use windserve::SystemKind;

/// One measured operating point.
#[derive(Debug, Clone)]
pub struct Point {
    /// System under test.
    pub system: SystemKind,
    /// Per-GPU request rate.
    pub rate: f64,
    /// TTFT median, seconds.
    pub ttft_p50: f64,
    /// TTFT P99, seconds.
    pub ttft_p99: f64,
    /// TPOT P90, seconds.
    pub tpot_p90: f64,
    /// TPOT P99, seconds.
    pub tpot_p99: f64,
    /// Fraction of requests meeting both SLOs.
    pub slo_both: f64,
    /// Fraction meeting the TTFT SLO.
    pub slo_ttft: f64,
    /// Fraction meeting the TPOT SLO.
    pub slo_tpot: f64,
    /// Prefills dispatched to the decode instance.
    pub dispatched: u64,
    /// Migrations started.
    pub migrations: u64,
    /// Swap-out events.
    pub swaps: u64,
}

/// Sweeps `case` over its rate axis for every system in `systems`.
///
/// The grid points run across [`parallel_map`]'s worker pool (`ctx.jobs`
/// threads); each point is an independent seeded simulation, and results
/// come back in canonical `(rate, system)` order, so the sweep's output is
/// byte-identical whatever the worker count.
pub fn sweep(case: &Case, systems: &[SystemKind], ctx: &ExpContext) -> Vec<Point> {
    let dataset = (case.dataset)();
    let n = ctx.scale(case.requests);
    let grid: Vec<(f64, SystemKind)> = case
        .rates
        .iter()
        .flat_map(|&rate| systems.iter().map(move |&system| (rate, system)))
        .collect();
    parallel_map(ctx.jobs, grid, |(rate, system)| {
        let report = run_point((case.config)(system), &dataset, rate, n, 0xBEEF);
        Point {
            system,
            rate,
            ttft_p50: report.summary.ttft.p50,
            ttft_p99: report.summary.ttft.p99,
            tpot_p90: report.summary.tpot.p90,
            tpot_p99: report.summary.tpot.p99,
            slo_both: report.summary.slo.both,
            slo_ttft: report.summary.slo.ttft,
            slo_tpot: report.summary.slo.tpot,
            dispatched: report.dispatched_prefills,
            migrations: report.migrations_started,
            swaps: report.total_swap_outs(),
        }
    })
}

/// Prints the Fig. 10-style latency table for a case and returns its JSON.
pub(crate) fn print_latency_table(case_label: &str, points: &[Point]) -> Value {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.system.label().to_string(),
                format!("{:.2}", p.rate),
                format!("{:.3}", p.ttft_p50),
                format!("{:.3}", p.ttft_p99),
                format!("{:.4}", p.tpot_p90),
                format!("{:.4}", p.tpot_p99),
                format!("{}", p.dispatched),
                format!("{}", p.migrations),
                format!("{}", p.swaps),
            ]
        })
        .collect();
    print_table(
        case_label,
        &[
            "system",
            "req/s/GPU",
            "TTFT p50",
            "TTFT p99",
            "TPOT p90",
            "TPOT p99",
            "disp",
            "migr",
            "swaps",
        ],
        &rows,
    );
    to_json(points)
}

/// Prints the Fig. 11-style attainment table and returns its JSON.
pub(crate) fn print_attainment_table(case_label: &str, points: &[Point]) -> Value {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.system.label().to_string(),
                format!("{:.2}", p.rate),
                format!("{:.3}", p.slo_both),
                format!("{:.3}", p.slo_ttft),
                format!("{:.3}", p.slo_tpot),
            ]
        })
        .collect();
    print_table(
        case_label,
        &["system", "req/s/GPU", "SLO both", "SLO ttft", "SLO tpot"],
        &rows,
    );
    to_json(points)
}

/// Serializes points.
pub fn to_json(points: &[Point]) -> Value {
    Value::Array(
        points
            .iter()
            .map(|p| {
                json!({
                    "system": p.system.label(),
                    "rate_per_gpu": p.rate,
                    "ttft_p50": p.ttft_p50,
                    "ttft_p99": p.ttft_p99,
                    "tpot_p90": p.tpot_p90,
                    "tpot_p99": p.tpot_p99,
                    "slo_both": p.slo_both,
                    "slo_ttft": p.slo_ttft,
                    "slo_tpot": p.slo_tpot,
                    "dispatched": p.dispatched,
                    "migrations": p.migrations,
                    "swaps": p.swaps,
                })
            })
            .collect(),
    )
}

/// Fig. 10: end-to-end latency for every case and system.
pub fn run_fig10(ctx: &ExpContext) -> Value {
    let systems = [
        SystemKind::WindServe,
        SystemKind::DistServe,
        SystemKind::VllmColocated,
    ];
    let mut out = serde_json::Map::new();
    for case in Case::all() {
        let points = sweep(&case, &systems, ctx);
        out.insert(
            case.label.to_string(),
            print_latency_table(case.label, &points),
        );
    }
    Value::Object(out)
}

/// Fig. 11: SLO attainment for every case and system.
pub fn run_fig11(ctx: &ExpContext) -> Value {
    let systems = [
        SystemKind::WindServe,
        SystemKind::DistServe,
        SystemKind::VllmColocated,
    ];
    let mut out = serde_json::Map::new();
    for case in Case::all() {
        let points = sweep(&case, &systems, ctx);
        out.insert(
            case.label.to_string(),
            print_attainment_table(case.label, &points),
        );
    }
    Value::Object(out)
}
