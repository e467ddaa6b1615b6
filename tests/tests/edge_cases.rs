//! Degenerate and extreme workloads that every serving system must survive.

use windserve::{ServeConfig, SystemKind};
use windserve_sim::SimTime;
use windserve_tests::run;
use windserve_workload::{ArrivalProcess, Dataset, Request, RequestId, Scenario, Trace};

fn systems() -> [SystemKind; 3] {
    [
        SystemKind::WindServe,
        SystemKind::DistServe,
        SystemKind::VllmColocated,
    ]
}

#[test]
fn single_request_completes() {
    let trace = Trace::from_requests(vec![Request::new(RequestId(0), SimTime::ZERO, 700, 50)]);
    for system in systems() {
        let report = run(ServeConfig::opt_13b_sharegpt(system), &trace);
        assert_eq!(report.summary.completed, 1, "{}", system.label());
        let rec = &report.records[0];
        assert!(rec.ttft() > 0.0);
        assert!(rec.tpot().unwrap() > 0.0);
    }
}

#[test]
fn one_token_outputs_never_reach_decode() {
    // Every request is fully answered by its prefill.
    let trace = Scenario::single_shot(
        Dataset::fixed(500, 1, 2048),
        ArrivalProcess::poisson(8.0),
        100,
    )
    .generate(1)
    .expect("valid single-shot scenario");
    for system in systems() {
        let report = run(ServeConfig::opt_13b_sharegpt(system), &trace);
        assert_eq!(report.summary.completed, 100, "{}", system.label());
        for rec in &report.records {
            assert!(rec.tpot().is_none(), "one-token requests have no TPOT");
            assert_eq!(rec.completion, rec.first_token);
        }
        // No KV ever needed to move for PD systems.
        if system == SystemKind::DistServe {
            assert_eq!(report.kv_bytes_transferred, 0);
        }
    }
}

#[test]
fn max_context_prompts_fit_and_finish() {
    let trace = Scenario::single_shot(
        Dataset::fixed(2040, 8, 2048),
        ArrivalProcess::poisson(4.0),
        60,
    )
    .generate(2)
    .expect("valid single-shot scenario");
    for system in systems() {
        let report = run(ServeConfig::opt_13b_sharegpt(system), &trace);
        assert_eq!(report.summary.completed, 60, "{}", system.label());
    }
}

#[test]
fn long_generation_requests_finish() {
    // Few requests, each decoding nearly the whole window.
    let trace = Scenario::single_shot(
        Dataset::fixed(16, 2000, 2048),
        ArrivalProcess::poisson(1.0),
        20,
    )
    .generate(3)
    .expect("valid single-shot scenario");
    for system in systems() {
        let report = run(ServeConfig::opt_13b_sharegpt(system), &trace);
        assert_eq!(report.summary.completed, 20, "{}", system.label());
        for rec in &report.records {
            assert_eq!(rec.output_tokens, 2000);
        }
    }
}

#[test]
fn simultaneous_arrival_burst() {
    // 80 requests at the same instant: FCFS must drain them all.
    let requests: Vec<Request> = (0..80)
        .map(|i| Request::new(RequestId(i), SimTime::from_secs_f64(1.0), 600, 30))
        .collect();
    let trace = Trace::from_requests(requests);
    for system in systems() {
        let report = run(ServeConfig::opt_13b_sharegpt(system), &trace);
        assert_eq!(report.summary.completed, 80, "{}", system.label());
        // FCFS: first-arrived (lowest id) cannot have a later first token
        // than the last (they arrived together and queue in id order).
        let first = &report.records[0];
        let last = &report.records[79];
        assert!(first.first_token <= last.first_token);
    }
}

#[test]
fn extreme_overload_degrades_gracefully() {
    // 20x beyond capacity: everything still completes, nothing panics, and
    // latency reflects the queueing honestly.
    let trace = windserve_tests::sharegpt_trace(300.0, 400, 4);
    let report = run(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe), &trace);
    assert_eq!(report.summary.completed, 400);
    assert!(report.summary.ttft.p50 > 1.0, "must show saturation");
    for rec in &report.records {
        rec.validate().unwrap();
    }
}

#[test]
fn tiny_model_on_one_gpu() {
    use windserve::{Parallelism, SloSpec};
    use windserve_sim::SimDuration;
    let cfg = ServeConfig::new(
        windserve::ModelSpec::opt_125m(),
        SloSpec::new(SimDuration::from_millis(50), SimDuration::from_millis(10)),
        Parallelism::tp(1),
        Parallelism::tp(1),
        SystemKind::WindServe,
    );
    let trace = windserve_tests::sharegpt_trace(20.0, 300, 5);
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 300);
}

/// vLLM on RTX 4090s with swap preemption at 4 req/s/GPU. Over 1,000
/// requests its swap queue once waited for blocks held by decodes that
/// were themselves waiting behind it, and the run deadlocked with nothing
/// running.
#[test]
fn vllm_swap_on_rtx4090_completes_a_thousand_requests() {
    use windserve_engine::PreemptionMode;
    use windserve_gpu::GpuSpec;
    use windserve_tests::sharegpt_trace;

    let cfg = ServeConfig {
        gpu: GpuSpec::rtx_4090(),
        preemption: PreemptionMode::Swap,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::VllmColocated)
    };
    let trace = sharegpt_trace(cfg.total_rate(4.0), 1000, 2766);
    let report = run(cfg, &trace);
    assert_eq!(report.summary.completed, 1000);
    let swap_outs: u64 = report.instances.iter().map(|i| i.swap_outs).sum();
    assert!(swap_outs > 0, "the run must swap");
}

/// Split-phase placements that run past their node: five TP-2 prefill
/// replicas spill onto node 1 where decode starts, and five TP-2 decode
/// replicas run off the second node. Both are typed config errors, from
/// validation and from building the cluster.
#[test]
fn split_node_overflow_is_a_config_error() {
    use windserve_gpu::Topology;

    let split = |prefill, decode| {
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.topology = Topology::a800_multi_node(2);
        cfg.split_phases_across_nodes = true;
        cfg.prefill_replicas = prefill;
        cfg.decode_replicas = decode;
        cfg
    };
    for cfg in [split(5, 1), split(1, 5)] {
        let (p, d) = (cfg.prefill_replicas, cfg.decode_replicas);
        assert!(
            matches!(cfg.validate(), Err(windserve::Error::Config { .. })),
            "{p}P+{d}D"
        );
        assert!(
            matches!(
                windserve::Cluster::new(cfg),
                Err(windserve::Error::Config { .. })
            ),
            "{p}P+{d}D"
        );
    }
}

/// A config file can set a zero parallel degree, which the constructors
/// reject; the layout answers it with a typed error instead of dividing
/// by zero.
#[test]
fn zero_gpu_replicas_are_a_config_error() {
    for system in ["VllmColocated", "WindServe"] {
        let text = format!("system = \"{system}\"\n[prefill_parallelism]\ntp = 0\npp = 1\n");
        assert!(
            matches!(
                ServeConfig::from_toml(&text),
                Err(windserve::Error::Config { .. })
            ),
            "{system}"
        );
    }
}

/// A config file's topology with a zero GPU count, NUMA width or node
/// width is a typed error from both config readers, before anything
/// divides by the width or takes a subset of the pool.
#[test]
fn zero_topology_fields_are_typed_errors() {
    use windserve::fleet::FleetConfig;

    let topology = |zero: &str| {
        let mut text = String::from("[topology]\nnvlink_pairs = false\n");
        for field in ["n_gpus", "numa_width", "node_width"] {
            let value = if field == zero { 0 } else { 8 };
            text += &format!("{field} = {value}\n");
        }
        text
    };
    let fleet = "[[deployments]]\nname = \"solo\"\nexpansion_units = 0\n\
                 [[deployments.tenants]]\nname = \"t0\"\ndataset = \"fixed:32:4\"\n\
                 rate = 2.0\nrequests = 10\ntier = 0\n";
    let is_topology_error = |r: Result<(), windserve::Error>| {
        matches!(
            r,
            Err(windserve::Error::Gpu(windserve_gpu::Error::Topology { .. }))
        )
    };
    for zero in ["n_gpus", "numa_width", "node_width"] {
        let text = topology(zero);
        assert!(
            is_topology_error(ServeConfig::from_toml(&text).map(drop)),
            "run config with zero {zero}"
        );
        assert!(
            is_topology_error(FleetConfig::from_toml(&format!("{fleet}{text}")).map(drop)),
            "fleet config with zero {zero}"
        );
    }
}

/// A zero SLO in a config file is a configuration error, not a run whose
/// every request misses it.
#[test]
fn zero_slos_are_typed_errors() {
    for text in ["[slo]\nttft = 0\n", "[slo]\ntpot = 0\n"] {
        assert!(
            matches!(
                ServeConfig::from_toml(text),
                Err(windserve::Error::Config { .. })
            ),
            "{text}"
        );
    }
}
