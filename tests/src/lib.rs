//! Shared helpers for the WindServe integration-test suite.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library holds
//! utilities they share (trace construction, run drivers, tolerance
//! assertions).

use windserve::{Cluster, LiveEvent, RunReport, ServeConfig};
use windserve_sim::{SimDuration, SimTime};
use windserve_workload::{ArrivalProcess, Dataset, Scenario, Trace};

/// Builds a ShareGPT-like trace at `total_rate` req/s.
pub fn sharegpt_trace(total_rate: f64, n: usize, seed: u64) -> Trace {
    Scenario::single_shot(
        Dataset::sharegpt(2048),
        ArrivalProcess::poisson(total_rate),
        n,
    )
    .generate(seed)
    .expect("valid single-shot scenario")
}

/// Builds a LongBench-like trace at `total_rate` req/s.
pub fn longbench_trace(total_rate: f64, n: usize, seed: u64) -> Trace {
    Scenario::single_shot(
        Dataset::longbench(4096),
        ArrivalProcess::poisson(total_rate),
        n,
    )
    .generate(seed)
    .expect("valid single-shot scenario")
}

/// Runs a config against a trace, panicking on any error (integration
/// tests want loud failures).
pub fn run(cfg: ServeConfig, trace: &Trace) -> RunReport {
    Cluster::new(cfg)
        .expect("config must be valid")
        .run(trace)
        .expect("run must complete")
        .0
}

/// Replays `trace` through a live session pumped in 100 ms slices, the way
/// the gateway drives one: the final report and every live event.
pub fn sliced_live_run(cfg: ServeConfig, trace: &Trace) -> (RunReport, Vec<LiveEvent>) {
    let mut session = Cluster::new(cfg).expect("valid config").into_session();
    session.enable_live_events();
    for req in trace.requests() {
        session.inject(*req);
    }
    let mut live = Vec::new();
    let mut horizon = SimTime::ZERO;
    while session.next_event_at().is_some() {
        horizon += SimDuration::from_millis(100);
        session.pump_until(horizon).expect("sliced pump");
        live.extend(session.drain_live_events());
    }
    let (report, _) = session.finish().expect("sliced session");
    (report, live)
}

/// Asserts `a <= b * factor` with a readable message.
pub fn assert_at_most(label: &str, a: f64, b: f64, factor: f64) {
    assert!(a <= b * factor, "{label}: {a} should be <= {factor} x {b}");
}

/// The runs that reach the decode paths a quiet decode step never takes:
/// swap-outs, migrations, KV-pressure preemptions and watchdog aborts.
/// Each is named as its golden row; all replay ShareGPT, 300 requests,
/// seed 2766.
pub fn decode_path_cases() -> Vec<(&'static str, ServeConfig, Trace)> {
    use windserve::{OverloadConfig, SystemKind};
    use windserve_engine::PreemptionMode;
    use windserve_gpu::GpuSpec;
    use windserve_sim::SimDuration;

    let rtx_4090 = |system, preemption| ServeConfig {
        gpu: GpuSpec::rtx_4090(),
        preemption,
        ..ServeConfig::opt_13b_sharegpt(system)
    };
    let overloaded = |overload| ServeConfig {
        overload: Some(overload),
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let cases = [
        (
            "vllm/opt-13b-sharegpt-rtx4090-swap",
            rtx_4090(SystemKind::VllmColocated, PreemptionMode::Swap),
            4.0,
        ),
        (
            "windserve/opt-13b-sharegpt-rtx4090-swap",
            rtx_4090(SystemKind::WindServe, PreemptionMode::Swap),
            4.0,
        ),
        (
            "windserve/opt-13b-sharegpt-rtx4090-recompute",
            rtx_4090(SystemKind::WindServe, PreemptionMode::Recompute),
            4.0,
        ),
        (
            "overload/kv-preempt",
            overloaded(OverloadConfig {
                shedding: false,
                preempt_kv_watermark: Some(0.5),
                deadline: Some(SimDuration::from_secs(30)),
                ..OverloadConfig::default()
            }),
            6.0,
        ),
        (
            "overload/watchdog",
            overloaded(OverloadConfig {
                max_queued_requests: None,
                shedding: false,
                deadline: Some(SimDuration::from_millis(500)),
                ..OverloadConfig::default()
            }),
            8.0,
        ),
    ];
    cases
        .into_iter()
        .map(|(name, cfg, rate_per_gpu)| {
            let trace = sharegpt_trace(cfg.total_rate(rate_per_gpu), 300, 2766);
            (name, cfg, trace)
        })
        .collect()
}

/// The benchmark's `sessions_prefix` deployment (OPT-13B WindServe, four
/// prefill and four decode replicas on two A800 nodes, prefix cache on)
/// with its sessions scenario cut to 300 sessions, seed 2766: the one case
/// whose four decode lanes interleave.
pub fn sessions_4p4d(trace: windserve::TraceMode) -> (ServeConfig, Trace) {
    use windserve::{DatasetSpec, PrefixCacheConfig, SessionsScenario, SystemKind};
    use windserve_gpu::Topology;

    let cfg = ServeConfig {
        topology: Topology::a800_multi_node(2),
        prefill_replicas: 4,
        decode_replicas: 4,
        prefix_cache: Some(PrefixCacheConfig::default()),
        trace,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let sessions = SessionsScenario::builder()
        .sessions(300)
        .session_rate(8.0)
        .turns(2, 6)
        .mean_think_secs(20.0)
        .followup_tokens(16, 192)
        .dataset(DatasetSpec::named("sharegpt", 2048))
        .build()
        .expect("valid sessions scenario");
    let trace = Scenario::sessions(sessions)
        .generate(2766)
        .expect("valid sessions scenario");
    (cfg, trace)
}
