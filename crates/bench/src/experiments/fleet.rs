//! Fleet study: multi-deployment serving over one shared GPU pool.
//!
//! The paper evaluates one deployment at a time; production fleets
//! multiplex several models and tenants over shared hardware. This
//! experiment runs the two-deployment example fleet (a chatbot tier and a
//! summarization tier on a two-node A800 pool) under three sharing
//! policies — a static partition, round-robin expansion grants, and the
//! fair-share arbiter — and reports per-tenant SLO attainment plus the
//! GPU-seconds each deployment consumed. A determinism cross-check runs
//! the first scenario at both 1 and `ctx.jobs` workers and asserts the
//! reports are identical.

use crate::harness::{print_table, ExpContext};
use serde_json::{json, Value};
use windserve::fleet::{ArbiterConfig, FleetConfig};

const HEADERS: [&str; 7] = [
    "scenario",
    "tenant",
    "deployment",
    "completed",
    "TTFT p99",
    "SLO both",
    "goodput",
];

/// Scales the example fleet's tenant workloads to the context and applies
/// a sharing policy.
fn scenario_config(ctx: &ExpContext, units: usize, arbiter: Option<ArbiterConfig>) -> FleetConfig {
    let mut cfg = FleetConfig::example();
    cfg.arbiter = arbiter;
    for d in &mut cfg.deployments {
        d.expansion_units = units;
        for t in &mut d.tenants {
            t.requests = ctx.scale(t.requests * 5) / 5;
        }
    }
    cfg
}

/// Runs the fleet sharing-policy comparison.
pub fn run(ctx: &ExpContext) -> Value {
    let scenarios: Vec<(&str, usize, Option<ArbiterConfig>)> = vec![
        ("static partition", 0, None),
        ("round-robin expansion", 1, None),
        ("fair-share arbiter", 2, Some(ArbiterConfig::default())),
    ];
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for (label, units, arbiter) in scenarios {
        let cfg = scenario_config(ctx, units, arbiter);
        let fleet = cfg.build().expect("example fleet config must be valid");
        let (report, _) = fleet.run(ctx.jobs).expect("fleet run must complete");
        if label == "static partition" {
            // Determinism cross-check: worker count must not leak into
            // the report.
            let (sequential, _) = fleet.run(1).expect("fleet run must complete");
            assert_eq!(
                report, sequential,
                "fleet report depends on the worker count"
            );
        }
        for t in &report.tenants {
            rows.push(vec![
                label.to_string(),
                t.name.clone(),
                t.deployment.clone(),
                format!("{}", t.summary.completed),
                format!("{:.3}", t.summary.ttft.p99),
                format!("{:.3}", t.slo_attainment),
                format!("{:.3}", t.goodput),
            ]);
        }
        assert!(report.pool.balanced, "{label}: lease accounting unbalanced");
        data.push(json!({
            "label": label,
            "expansion_units": units,
            "fleet_goodput": report.total_goodput(),
            "gpu_seconds": report.total_gpu_seconds(),
            "deployments": report.deployments.iter().map(|d| json!({
                "name": d.name,
                "base_gpus": d.base_gpus,
                "granted_units": d.granted_units,
                "leased_gpus": d.leased_gpus,
                "gpu_seconds": d.gpu_seconds,
                "goodput": d.report.goodput(),
            })).collect::<Vec<_>>(),
            "tenants": report.tenants.iter().map(|t| json!({
                "name": t.name,
                "deployment": t.deployment,
                "completed": t.summary.completed,
                "ttft_p99": t.summary.ttft.p99,
                "slo_both": t.slo_attainment,
                "goodput": t.goodput,
            })).collect::<Vec<_>>(),
        }));
    }
    print_table(
        "Fleet: shared-pool sharing policies (per-tenant SLO attainment)",
        &HEADERS,
        &rows,
    );
    json!({ "scenarios": data })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_experiment_runs_quick() {
        let data = run(&ExpContext::quiet());
        let scenarios = data["scenarios"].as_array().unwrap();
        assert_eq!(scenarios.len(), 3);
        for s in scenarios {
            assert_eq!(s["tenants"].as_array().unwrap().len(), 3);
            assert!(s["fleet_goodput"].as_f64().unwrap() > 0.0);
        }
    }
}
