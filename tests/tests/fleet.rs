//! Fleet-level integration tests: deterministic multi-deployment replay
//! across worker counts (with and without faults) and shared-pool lease
//! conservation.

use windserve::fleet::{ArbiterConfig, DeploymentConfig, FleetConfig, TenantSpec};
use windserve::{ServeConfig, SystemKind};
use windserve_faults::FaultPlan;
use windserve_gpu::Topology;
use windserve_trace::LeaseAction;

/// Two 4-GPU deployments on a 16-GPU pool, small fixed workloads.
fn two_deployment_fleet() -> FleetConfig {
    let serve = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    FleetConfig {
        topology: Topology::a800_multi_node(2),
        seed: 0xF1EE7,
        arbiter: None,
        deployments: vec![
            DeploymentConfig {
                name: "chat".into(),
                serve: serve.clone(),
                expansion_units: 0,
                tenants: vec![
                    TenantSpec::new("chat-a", "fixed:64:8", 8.0, 40),
                    TenantSpec::new("chat-b", "fixed:128:16", 4.0, 30).with_tier(1),
                ],
            },
            DeploymentConfig {
                name: "batch".into(),
                serve,
                expansion_units: 0,
                tenants: vec![TenantSpec::new("batch-a", "fixed:256:32", 2.0, 20)],
            },
        ],
    }
}

#[test]
fn seeded_fleet_replay_is_byte_identical_across_jobs() {
    let fleet = two_deployment_fleet().build().unwrap();
    let (seq, _) = fleet.run(1).unwrap();
    let (par, _) = fleet.run(4).unwrap();
    let seq_bytes = serde_json::to_string(&seq).unwrap();
    let par_bytes = serde_json::to_string(&par).unwrap();
    assert_eq!(
        seq_bytes, par_bytes,
        "fleet report must not depend on --jobs"
    );
    // And a fresh fleet from the same config reproduces it exactly.
    let (again, _) = two_deployment_fleet().build().unwrap().run(2).unwrap();
    assert_eq!(seq_bytes, serde_json::to_string(&again).unwrap());
}

#[test]
fn faulted_fleet_replay_is_byte_identical_across_jobs() {
    let mut cfg = two_deployment_fleet();
    // A fault preset on one deployment: transfers flake and retry, so the
    // recovery machinery participates in the replay.
    cfg.deployments[0].serve.faults = Some(FaultPlan::flaky_transfers(0x5EED));
    let fleet = cfg.build().unwrap();
    let (seq, _) = fleet.run(1).unwrap();
    let (par, _) = fleet.run(4).unwrap();
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "faulted fleet report must not depend on --jobs"
    );
    assert!(seq.deployments[0].report.transfer_retries > 0);
    // Every tenant's workload still completed despite the faults.
    for tenant in &seq.tenants {
        assert!(
            tenant.summary.completed > 0,
            "{} lost everything",
            tenant.name
        );
    }
    assert!(seq.pool.balanced);
}

#[test]
fn lease_grants_equal_reclaims_plus_returns() {
    // Expansion appetite plus an arbiter tuned so the hot deployment sits
    // above threshold and the cold one below the reclaim cutoff.
    let mut cfg = two_deployment_fleet();
    for d in &mut cfg.deployments {
        d.expansion_units = 2;
    }
    cfg.arbiter = Some(ArbiterConfig {
        pressure_threshold: 120.0,
        reclaim_fraction: 0.9,
        max_rebalances: 4,
    });
    let fleet = cfg.build().unwrap();
    let (report, log) = fleet.run(1).unwrap();

    let moved = |want: LeaseAction| -> u64 {
        log.lease_events()
            .iter()
            .filter(|(_, _, action, _)| *action == want)
            .map(|(_, _, _, gpus)| u64::from(*gpus))
            .sum()
    };
    let granted = moved(LeaseAction::Granted);
    let reclaimed = moved(LeaseAction::Reclaimed);
    let returned = moved(LeaseAction::Returned);
    assert!(granted > 0);
    assert_eq!(
        granted,
        reclaimed + returned,
        "every granted GPU must come back via reclaim or wind-down"
    );
    // The trace totals agree with the inventory's lifetime counters.
    assert_eq!(report.pool.granted_gpus, granted);
    assert_eq!(report.pool.returned_gpus, reclaimed + returned);
    assert!(report.pool.balanced);
}

#[test]
fn per_tenant_summaries_partition_each_deployment() {
    let (report, _) = two_deployment_fleet().build().unwrap().run(2).unwrap();
    for d in &report.deployments {
        let tenant_total: usize = report
            .tenants
            .iter()
            .filter(|t| t.deployment == d.name)
            .map(|t| t.summary.completed)
            .sum();
        assert_eq!(
            tenant_total, d.report.summary.completed,
            "{}: tenant summaries must partition the deployment's records",
            d.name
        );
    }
    // Tenant ids are dense and in declaration order.
    for (ix, t) in report.tenants.iter().enumerate() {
        assert_eq!(usize::from(t.tenant.0), ix);
    }
}
