//! Golden report digests: the oracle that lets a refactor prove it changed
//! no simulated result without keeping a second execution path around.
//!
//! Each row of `tests/golden/digests.txt` is the FNV-1a digest of one
//! report's `{:?}` rendering (every field, floats in round-trip precision),
//! computed exactly as the benchmark's `sim::digest` does. The test
//! recomputes every row at quick scale and names each one that differs.
//!
//! A change that is *meant* to move results re-blesses the file with
//! `WINDSERVE_BLESS=1 cargo test -p windserve-tests --test golden` and
//! explains the change to the science in CHANGES.md.

use std::fmt::{Debug, Write as _};
use windserve::fleet::{ArbiterConfig, DeploymentConfig, FleetConfig, TenantSpec};
use windserve::trace::{LeaseAction, TraceEvent};
use windserve::{
    AutoscaleConfig, DropReason, FaultPlan, OverloadConfig, PrefixCacheConfig, ServeConfig,
    SystemKind, TraceMode,
};
use windserve_engine::InstanceRole;
use windserve_faults::FAULT_PRESETS;
use windserve_gpu::Topology;
use windserve_sim::SimDuration;
use windserve_tests::{
    decode_path_cases, longbench_trace, run, sessions_4p4d, sharegpt_trace, sliced_live_run,
};
use windserve_workload::{Scenario, SessionsScenario};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/digests.txt");

/// FNV-1a over a byte stream, fed through `fmt::Write`.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(value: &impl Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing into memory cannot fail");
    h.0
}

type Row = (String, u64);

/// One paper case: the three systems on a model/dataset preset at a
/// per-GPU rate.
fn paper_case(
    name: &str,
    cfg: fn(SystemKind) -> ServeConfig,
    trace: fn(f64, usize, u64) -> windserve_workload::Trace,
    rate_per_gpu: f64,
) -> Vec<Row> {
    [
        (SystemKind::WindServe, "windserve"),
        (SystemKind::DistServe, "distserve"),
        (SystemKind::VllmColocated, "vllm"),
    ]
    .into_iter()
    .map(|(system, label)| {
        let cfg = cfg(system);
        let trace = trace(cfg.total_rate(rate_per_gpu), 200, 2766);
        (format!("{label}/{name}"), digest(&run(cfg, &trace)))
    })
    .collect()
}

fn opt_13b_sharegpt() -> Vec<Row> {
    paper_case(
        "opt-13b-sharegpt",
        ServeConfig::opt_13b_sharegpt,
        sharegpt_trace,
        3.0,
    )
}

fn llama2_13b_longbench() -> Vec<Row> {
    paper_case(
        "llama2-13b-longbench",
        ServeConfig::llama2_13b_longbench,
        longbench_trace,
        1.0,
    )
}

/// WindServe past saturation on LongBench (3 req/s/GPU, 2.4x the case's
/// middle rate): the prefill backlog builds, Algorithm 1 dispatches guest
/// prefills to the decode replica's aux stream, and the decode lane keeps
/// stepping between handoffs.
fn longbench_overload_cfg(trace: TraceMode) -> (ServeConfig, windserve_workload::Trace) {
    let cfg = ServeConfig {
        trace,
        ..ServeConfig::llama2_13b_longbench(SystemKind::WindServe)
    };
    let trace = longbench_trace(cfg.total_rate(3.0), 1000, 2766);
    (cfg, trace)
}

fn longbench_overload() -> Vec<Row> {
    let (cfg, trace) = longbench_overload_cfg(TraceMode::Off);
    let report = run(cfg, &trace);
    assert!(report.dispatched_prefills > 0, "overload must dispatch");
    vec![(
        "windserve/llama2-13b-longbench-overload".into(),
        digest(&report),
    )]
}

/// WindServe scaled out to two prefill and two decode replicas, so
/// Algorithm 1's replica choices and their tie-breaks are exercised.
fn scaled_out() -> Vec<Row> {
    let cfg = ServeConfig {
        prefill_replicas: 2,
        decode_replicas: 2,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = sharegpt_trace(cfg.total_rate(3.0), 300, 2766);
    let report = run(cfg, &trace);
    assert!(report.dispatched_prefills > 0, "Algorithm 1 must dispatch");
    vec![("windserve/opt-13b-sharegpt-2p2d".into(), digest(&report))]
}

/// The placements and systems the paper cases leave out: 1P+1D split
/// across two nodes (decode starts on node 1), sequential groups for
/// 1P+2D, and the two WindServe ablations on the paper's default
/// deployment. The no-split ablation fuses dispatched prefills into the
/// decode lane's steps, so it asserts that Algorithm 1 dispatches.
fn placements() -> Vec<Row> {
    let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let cases = [
        (
            "windserve/opt-13b-sharegpt-split-nodes",
            ServeConfig {
                topology: Topology::a800_multi_node(2),
                split_phases_across_nodes: true,
                ..base.clone()
            },
        ),
        (
            "windserve/opt-13b-sharegpt-1p2d",
            ServeConfig {
                decode_replicas: 2,
                ..base.clone()
            },
        ),
        (
            "windserve-no-split/opt-13b-sharegpt",
            ServeConfig::opt_13b_sharegpt(SystemKind::WindServeNoSplit),
        ),
        (
            "windserve-no-resche/opt-13b-sharegpt",
            ServeConfig::opt_13b_sharegpt(SystemKind::WindServeNoResche),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, cfg)| {
            let trace = sharegpt_trace(cfg.total_rate(3.0), 300, 2766);
            let report = run(cfg, &trace);
            assert!(
                report.dispatched_prefills > 0,
                "{name}: Algorithm 1 must dispatch"
            );
            (name.to_string(), digest(&report))
        })
        .collect()
}

/// The CLI's `faults` presets, aimed the same way: the crash lands on the
/// first decode replica over the arrival schedule's expected span.
fn fault_presets() -> Vec<Row> {
    let (rate, n, seed) = (10.0, 200, 41);
    let trace = sharegpt_trace(rate, n, seed);
    let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let horizon = SimDuration::from_secs_f64(n as f64 / rate);
    let first_decode = base
        .layout()
        .expect("valid config")
        .iter()
        .position(|r| r.role == InstanceRole::Decode)
        .expect("the deployment has a decode replica") as u32;
    FAULT_PRESETS
        .iter()
        .map(|preset| {
            let name = format!("faults/{preset}");
            let mut cfg = base.clone();
            cfg.faults = Some(
                FaultPlan::from_preset(preset, first_decode, horizon, seed)
                    .expect("registered preset"),
            );
            let report = run(cfg, &trace);
            assert!(
                report.faults_injected + report.transfer_retries > 0,
                "{name}: the plan must fire"
            );
            (name.to_string(), digest(&report))
        })
        .collect()
}

/// SLO-aware shedding at twice the 1x1 deployment's saturation rate.
fn overload_shedding() -> Vec<Row> {
    let trace = sharegpt_trace(24.0, 300, 107).with_tiers(3, 107);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.overload = Some(OverloadConfig::default());
    let report = run(cfg, &trace);
    assert!(report.requests_shed > 0, "2x the saturation rate must shed");
    vec![("overload/shedding".into(), digest(&report))]
}

/// Admission caps, shedding and the watchdog at once, far past saturation:
/// a queue cap, a queued-token budget, SLO-aware shedding and a short
/// deadline, so every typed drop reason fires.
fn admission_caps_cfg(trace: TraceMode) -> (ServeConfig, windserve_workload::Trace) {
    let cfg = ServeConfig {
        trace,
        overload: Some(OverloadConfig {
            max_queued_requests: Some(64),
            max_queued_tokens: Some(6144),
            shedding: true,
            deadline: Some(SimDuration::from_millis(300)),
            ..OverloadConfig::default()
        }),
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = sharegpt_trace(60.0, 400, 131).with_tiers(3, 131);
    (cfg, trace)
}

/// The admission-caps run's report, its full trace, and the live stream of
/// a session pumped in 100 ms slices, which must end in the same report.
fn admission_caps() -> Vec<Row> {
    let (cfg, trace) = admission_caps_cfg(TraceMode::Off);
    let report = run(cfg.clone(), &trace);
    for reason in [
        DropReason::QueueFull,
        DropReason::TokenBudget,
        DropReason::Shed,
        DropReason::DeadlineExceeded,
    ] {
        assert!(report.dropped_with(reason) > 0, "{reason:?} must fire");
    }

    let (traced_cfg, _) = admission_caps_cfg(TraceMode::Full);
    let (_, log) = windserve::Cluster::new(traced_cfg)
        .expect("valid config")
        .run(&trace)
        .expect("traced run");
    assert!(!log.is_empty(), "full tracing must record events");

    let (sliced, live) = sliced_live_run(cfg, &trace);
    assert_eq!(sliced, report, "slicing must not change the run");
    vec![
        ("overload/admission-caps".into(), digest(&report)),
        ("traced/admission-caps/log".into(), digest(&log)),
        ("live/admission-caps".into(), digest(&live)),
    ]
}

/// Single-cluster autoscale: a 2P+2D ceiling over a 1P+1D floor under load
/// that overwhelms the floor.
fn autoscale() -> Vec<Row> {
    let trace = sharegpt_trace(32.0, 1200, 81);
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.prefill_replicas = 2;
    cfg.decode_replicas = 2;
    cfg.autoscale = Some(AutoscaleConfig::default());
    let report = run(cfg, &trace);
    assert!(report.autoscale_events > 0, "overload must trigger scaling");
    vec![("autoscale/2p2d".into(), digest(&report))]
}

/// Multi-turn sessions on two prefill replicas, with the prefix cache on
/// and prefix-affinity routing on and off.
fn sessions() -> Vec<Row> {
    let trace = Scenario::sessions(
        SessionsScenario::builder()
            .sessions(50)
            .session_rate(4.0)
            .turns(2, 5)
            .mean_think_secs(10.0)
            .followup_tokens(16, 128)
            .build()
            .expect("valid sessions scenario"),
    )
    .generate(2766)
    .expect("valid sessions scenario");
    [("sessions/affinity", true), ("sessions/cache-only", false)]
        .into_iter()
        .map(|(name, affinity)| {
            let cfg = ServeConfig {
                prefill_replicas: 2,
                prefix_cache: Some(PrefixCacheConfig {
                    affinity,
                    ..Default::default()
                }),
                ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
            };
            let report = run(cfg, &trace);
            assert!(report.prefix_hits > 0, "{name}: the cache must engage");
            (name.to_string(), digest(&report))
        })
        .collect()
}

/// The example two-deployment fleet on one and four worker threads, and
/// its lease log.
fn fleet() -> Vec<Row> {
    let fleet = FleetConfig::example().build().expect("example fleet");
    let mut rows: Vec<Row> = [1, 4]
        .into_iter()
        .map(|jobs| {
            let (report, _) = fleet.run(jobs).expect("fleet run");
            (format!("fleet/example/jobs-{jobs}"), digest(&report))
        })
        .collect();
    let (_, log) = fleet.run(1).expect("fleet run");
    rows.push(("fleet/example/log".into(), digest(&log)));
    rows
}

/// A fleet whose arbiter reclaims an expansion unit: two 4-GPU deployments
/// on a 16-GPU pool, each with appetite for two 4-GPU units. The hot one
/// (144 tokens/s/GPU) sits above the 100 threshold and the cold one (~72)
/// below the 90 reclaim cutoff. Its report and its lease log.
fn fleet_arbiter() -> Vec<Row> {
    let deployment = |name: &str, tenant: TenantSpec| DeploymentConfig {
        name: name.into(),
        serve: ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
        expansion_units: 2,
        tenants: vec![tenant],
    };
    let fleet = FleetConfig {
        topology: Topology::a800_multi_node(2),
        deployments: vec![
            deployment("a", TenantSpec::new("t-a", "fixed:64:8", 8.0, 30)),
            deployment("b", TenantSpec::new("t-b", "fixed:64:8", 4.0, 20)),
        ],
        arbiter: Some(ArbiterConfig {
            pressure_threshold: 100.0,
            reclaim_fraction: 0.9,
            max_rebalances: 4,
        }),
        seed: 11,
    }
    .build()
    .expect("arbiter fleet");
    let (report, log) = fleet.run(1).expect("fleet run");
    assert!(
        log.lease_events()
            .iter()
            .any(|(_, _, action, _)| *action == LeaseAction::Reclaimed),
        "the arbiter must reclaim a unit"
    );
    vec![
        ("fleet/arbiter".into(), digest(&report)),
        ("fleet/arbiter/log".into(), digest(&log)),
    ]
}

/// One fully traced run: the report and the scheduling trace both.
fn traced() -> Vec<Row> {
    let cfg = ServeConfig {
        trace: TraceMode::Full,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = sharegpt_trace(cfg.total_rate(3.0), 150, 77);
    let (report, log) = windserve::Cluster::new(cfg)
        .expect("valid config")
        .run(&trace)
        .expect("traced run");
    assert!(!log.is_empty(), "full tracing must record events");
    vec![
        ("traced/report".into(), digest(&report)),
        ("traced/log".into(), digest(&log)),
    ]
}

/// The overload run above, fully traced: its report and its trace.
fn traced_longbench_overload() -> Vec<Row> {
    let (cfg, trace) = longbench_overload_cfg(TraceMode::Full);
    let (report, log) = windserve::Cluster::new(cfg)
        .expect("valid config")
        .run(&trace)
        .expect("traced run");
    assert!(report.dispatched_prefills > 0, "overload must dispatch");
    vec![
        ("traced/longbench-overload/report".into(), digest(&report)),
        ("traced/longbench-overload/log".into(), digest(&log)),
    ]
}

/// The runs that swap, migrate, preempt under KV pressure and abort on
/// the watchdog: the decode paths no other row reaches. Each asserts that
/// its path fires.
fn decode_paths() -> Vec<Row> {
    decode_path_cases()
        .into_iter()
        .map(|(name, cfg, trace)| {
            let report = run(cfg, &trace);
            let swap_outs: u64 = report.instances.iter().map(|i| i.swap_outs).sum();
            let fired = match name {
                "vllm/opt-13b-sharegpt-rtx4090-swap" => swap_outs > 0,
                "windserve/opt-13b-sharegpt-rtx4090-swap" => {
                    report.migrations_completed > 0 && swap_outs > 0
                }
                "windserve/opt-13b-sharegpt-rtx4090-recompute" => report.migrations_completed > 0,
                "overload/kv-preempt" => {
                    report.requests_preempted > 0 && report.migrations_started > 0
                }
                "overload/watchdog" => report.watchdog_aborts > 0,
                _ => unreachable!("unknown decode-path case {name}"),
            };
            assert!(fired, "{name}: its decode path must fire");
            (name.to_string(), digest(&report))
        })
        .collect()
}

/// The benchmark's four-decode-replica sessions deployment: its report,
/// its full trace, and the live token stream of a session pumped in 100 ms
/// slices the way the gateway drives one. The sliced session must end in
/// the same report as the closed-loop run.
fn sessions_4p4d_rows() -> Vec<Row> {
    let (cfg, trace) = sessions_4p4d(TraceMode::Off);
    let report = run(cfg.clone(), &trace);
    assert!(report.prefix_hits > 0, "the prefix cache must engage");

    let (traced_cfg, _) = sessions_4p4d(TraceMode::Full);
    let (_, log) = windserve::Cluster::new(traced_cfg)
        .expect("valid config")
        .run(&trace)
        .expect("traced run");
    assert!(!log.is_empty(), "full tracing must record events");

    let (sliced, live) = sliced_live_run(cfg, &trace);
    assert_eq!(sliced, report, "slicing must not change the run");
    vec![
        ("sessions/4p4d-two-nodes".into(), digest(&report)),
        ("traced/sessions-4p4d/log".into(), digest(&log)),
        ("live/sessions-4p4d".into(), digest(&live)),
    ]
}

/// The 4P+4D sessions deployment with the prefix store's eviction paths
/// binding: a token budget so small that most inserts evict the least
/// recently used session, a TTL below the 20 s mean think time so that
/// most follow-ups find their prefix expired, and a prefill-replica crash
/// that clears a populated store. Each asserts that its path fires.
fn sessions_prefix_paths() -> Vec<Row> {
    let (base, trace) = sessions_4p4d(TraceMode::Off);
    let pc = base.prefix_cache.expect("the deployment caches prefixes");
    let session_turns = trace
        .requests()
        .iter()
        .filter(|r| r.session.is_some())
        .count() as u64;
    let with_cache = |cache: PrefixCacheConfig| {
        let mut cfg = base.clone();
        cfg.prefix_cache = Some(cache);
        cfg
    };

    // The default TTL outlives every think time here, so each eviction is
    // the budget's.
    let capacity = run(
        with_cache(PrefixCacheConfig {
            capacity_tokens: 4096,
            ..pc
        }),
        &trace,
    );
    assert!(
        2 * capacity.prefix_evictions > session_turns,
        "LRU eviction must fire on most inserts"
    );

    // A budget no run can fill, so each eviction is an expiry.
    let ttl = run(
        with_cache(PrefixCacheConfig {
            capacity_tokens: 1 << 40,
            ttl: SimDuration::from_secs(5),
            ..pc
        }),
        &trace,
    );
    assert!(ttl.prefix_evictions > 0, "TTL expiry must fire");
    assert!(
        ttl.prefix_misses > ttl.prefix_hits,
        "expiry must dominate the follow-ups"
    );

    // Traced, to see the crash clear prefill replica 0's store. A traced
    // run's report equals the untraced one.
    let horizon = SimDuration::from_secs_f64(trace.span());
    let (mut crash_cfg, _) = sessions_4p4d(TraceMode::Full);
    crash_cfg.faults = Some(FaultPlan::replica_crash(0, horizon, 2766));
    let (crash, log) = windserve::Cluster::new(crash_cfg)
        .expect("valid config")
        .run(&trace)
        .expect("traced run");
    let crashed_at = log
        .events()
        .iter()
        .find(|e| {
            matches!(&e.event, TraceEvent::FaultInjected { fault, inst: Some(0) }
                if fault == "replica_crash")
        })
        .expect("the crash must fire")
        .at;
    assert!(
        log.events()
            .iter()
            .any(|e| e.at == crashed_at
                && matches!(e.event, TraceEvent::PrefixEvicted { inst: 0, .. })),
        "the crash must clear a populated store"
    );

    vec![
        ("sessions/prefix-capacity".into(), digest(&capacity)),
        ("sessions/prefix-ttl".into(), digest(&ttl)),
        ("sessions/prefill-crash".into(), digest(&crash)),
    ]
}

/// Every row, in file order. Cases run on their own threads.
fn compute() -> Vec<Row> {
    let cases: [fn() -> Vec<Row>; 17] = [
        opt_13b_sharegpt,
        llama2_13b_longbench,
        longbench_overload,
        scaled_out,
        fault_presets,
        overload_shedding,
        sessions,
        fleet,
        fleet_arbiter,
        traced,
        traced_longbench_overload,
        decode_paths,
        sessions_4p4d_rows,
        admission_caps,
        autoscale,
        sessions_prefix_paths,
        placements,
    ];
    std::thread::scope(|s| {
        let handles: Vec<_> = cases.iter().map(|case| s.spawn(case)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("golden case panicked"))
            .collect()
    })
}

fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "# FNV-1a digests of report `{:?}` renderings (tests/tests/golden.rs).\n\
         # Re-bless with WINDSERVE_BLESS=1 only for a change meant to move results.\n",
    );
    for (name, d) in rows {
        writeln!(out, "{name} {d:016x}").expect("writing to a String cannot fail");
    }
    out
}

fn parse(text: &str) -> Vec<Row> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("row is `name digest`");
            let d = u64::from_str_radix(hex.trim(), 16).expect("digest is hex");
            (name.to_string(), d)
        })
        .collect()
}

#[test]
fn reports_match_the_golden_digests() {
    let rows = compute();
    if std::env::var_os("WINDSERVE_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(GOLDEN, render(&rows)).expect("write golden digests");
        return;
    }
    let text = std::fs::read_to_string(GOLDEN).expect("read golden digests");
    let golden = parse(&text);
    let mut diffs = Vec::new();
    for (name, d) in &rows {
        match golden.iter().find(|(n, _)| n == name) {
            Some((_, g)) if g == d => {}
            Some((_, g)) => diffs.push(format!("{name}: {d:016x}, golden {g:016x}")),
            None => diffs.push(format!("{name}: {d:016x}, no golden row")),
        }
    }
    for (name, _) in &golden {
        if !rows.iter().any(|(n, _)| n == name) {
            diffs.push(format!("{name}: golden row no longer computed"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} golden row(s) differ:\n  {}",
        diffs.len(),
        diffs.join("\n  ")
    );
}
