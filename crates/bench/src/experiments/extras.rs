//! Extension studies beyond the paper's evaluation, covering its §7
//! future-work and limitation items plus two design-choice ablations:
//!
//! 1. **Heterogeneous prefill pool** — RTX-4090s (high compute:bandwidth
//!    ratio, PCIe only) serving prefill for an A800 decode instance.
//! 2. **Multi-node deployment** — prefill and decode instances on
//!    different nodes, KV handoffs over the RDMA fabric; shows why the
//!    overlapped transfer matters even more inter-node.
//! 3. **Multi-replica scaling** — the paper's "linear scaling rule":
//!    doubling replicas at a fixed per-GPU rate should roughly preserve
//!    service quality.
//! 4. **Migration victim policy** — WindServe's longest-context choice vs
//!    a Llumnix-style shortest-context policy (§3.3's design contrast).
//! 5. **Bursty arrivals** — robustness beyond Poisson.

use crate::harness::{print_table, run_point, ExpContext};
use serde_json::{json, Value};
use windserve::{Cluster, Parallelism, ServeConfig, SystemKind, VictimPolicy};
use windserve_gpu::{GpuSpec, Topology};
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn summarize(label: &str, report: &windserve::RunReport) -> (Vec<String>, Value) {
    (
        vec![
            label.to_string(),
            format!("{:.3}", report.summary.ttft.p50),
            format!("{:.3}", report.summary.ttft.p99),
            format!("{:.4}", report.summary.tpot.p99),
            format!("{:.3}", report.summary.slo.both),
            format!("{}", report.dispatched_prefills),
            format!("{}", report.migrations_started),
            format!("{}", report.total_swap_outs()),
        ],
        json!({
            "label": label,
            "ttft_p50": report.summary.ttft.p50,
            "ttft_p99": report.summary.ttft.p99,
            "tpot_p99": report.summary.tpot.p99,
            "slo_both": report.summary.slo.both,
            "dispatched": report.dispatched_prefills,
            "migrations": report.migrations_started,
            "swaps": report.total_swap_outs(),
        }),
    )
}

const HEADERS: [&str; 8] = [
    "config", "TTFT p50", "TTFT p99", "TPOT p99", "SLO both", "disp", "migr", "swaps",
];

/// 1. Heterogeneous prefill pool (§7 future work).
pub fn heterogeneous(ctx: &ExpContext) -> Value {
    let dataset = Dataset::sharegpt(2048);
    let n = ctx.scale(1500);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for rate in [3.0, 4.0] {
        // Homogeneous A800 baseline.
        let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let report = run_point(base, &dataset, rate, n, 0xE1);
        let (row, j) = summarize(&format!("A800 prefill @ {rate}"), &report);
        rows.push(row);
        data.push(j);
        // RTX-4090 prefill pool: 13B does not fit one 24 GB card, so the
        // pool shards TP-4; PCIe-only topology (no NVLink on 4090s).
        let mut hetero = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        hetero.prefill_gpu = Some(GpuSpec::rtx_4090());
        hetero.prefill_parallelism = Parallelism::tp(4);
        hetero.topology = Topology::pcie_only(8, 4);
        let report = run_point(hetero, &dataset, rate, n, 0xE1);
        let (row, j) = summarize(&format!("RTX-4090 prefill @ {rate}"), &report);
        rows.push(row);
        data.push(j);
    }
    print_table(
        "Extra 1: heterogeneous prefill pool (OPT-13B, ShareGPT; rate is per A800-equivalent GPU)",
        &HEADERS,
        &rows,
    );
    println!("(4x RTX-4090 prefill ~ matches 2x A800 prefill at a fraction of the cost)");
    Value::Array(data)
}

/// 2. Multi-node deployment (§7 limitation). Long prompts make the KV
///    handoff heavy (~2.3 GB for a LLaMA2-13B LongBench request), so the
///    fabric's cost shows directly in the handoff gap (first token to
///    decode enqueue) and through it in TPOT.
pub fn multi_node(ctx: &ExpContext) -> Value {
    let dataset = Dataset::longbench(4096);
    let n = ctx.scale(1000);
    let rate = 1.0;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    let handoff_gap = |report: &windserve::RunReport| -> f64 {
        report
            .records
            .iter()
            .map(|r| {
                r.decode_enqueue
                    .saturating_since(r.first_token)
                    .as_secs_f64()
            })
            .sum::<f64>()
            / report.records.len().max(1) as f64
    };
    for system in [SystemKind::WindServe, SystemKind::DistServe] {
        // Intra-node: 2 replicas per phase on one 16-GPU supernode
        // (sequential carving keeps every handoff on PCIe).
        let mut intra = ServeConfig::llama2_13b_longbench(system);
        intra.topology = Topology::pcie_only(16, 8);
        intra.prefill_replicas = 2;
        intra.decode_replicas = 2;
        let report = run_point(intra, &dataset, rate, n, 0xE2);
        let (mut row, mut j) = summarize(&format!("{} intra-node", system.label()), &report);
        row.push(format!("{:.4}", handoff_gap(&report)));
        j["handoff_gap_mean"] = handoff_gap(&report).into();
        rows.push(row);
        data.push(j);
        // Inter-node: same shape on two 8-GPU nodes; prefill replicas fill
        // node 0, decode replicas fill node 1, so every KV handoff crosses
        // the RDMA fabric.
        let mut inter = ServeConfig::llama2_13b_longbench(system);
        inter.topology = Topology::a800_multi_node(2);
        inter.prefill_replicas = 2;
        inter.decode_replicas = 2;
        inter.split_phases_across_nodes = true;
        let report = run_point(inter, &dataset, rate, n, 0xE2);
        let (mut row, mut j) = summarize(&format!("{} inter-node", system.label()), &report);
        row.push(format!("{:.4}", handoff_gap(&report)));
        j["handoff_gap_mean"] = handoff_gap(&report).into();
        rows.push(row);
        data.push(j);
    }
    let headers: Vec<&str> = HEADERS.iter().copied().chain(["handoff gap"]).collect();
    print_table(
        "Extra 2: intra- vs inter-node PD deployment (LLaMA2-13B, LongBench @ 1 req/s/GPU)",
        &headers,
        &rows,
    );
    println!("(overlapped transfers shield WindServe from the fabric's latency/bandwidth)");
    Value::Array(data)
}

/// 3. Multi-replica scaling at fixed per-GPU rate (the linear scaling rule).
pub fn scaling(ctx: &ExpContext) -> Value {
    let dataset = Dataset::sharegpt(2048);
    let n = ctx.scale(1600);
    let rate = 3.5;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for (label, pr, dr, topo) in [
        ("1P x 1D (4 GPUs)", 1usize, 1usize, Topology::a800_testbed()),
        ("2P x 2D (8 GPUs)", 2, 2, Topology::a800_testbed()),
        ("4P x 4D (16 GPUs)", 4, 4, Topology::a800_multi_node(2)),
    ] {
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.prefill_replicas = pr;
        cfg.decode_replicas = dr;
        cfg.topology = topo;
        let report = run_point(cfg, &dataset, rate, n, 0xE3);
        let (row, j) = summarize(label, &report);
        rows.push(row);
        data.push(j);
    }
    print_table(
        "Extra 3: replica scaling at fixed 3.5 req/s/GPU (OPT-13B, ShareGPT)",
        &HEADERS,
        &rows,
    );
    Value::Array(data)
}

/// 4. Victim-policy ablation: longest-context (WindServe) vs
///    shortest-context (Llumnix-style).
pub fn victim_policy(ctx: &ExpContext) -> Value {
    let dataset = Dataset::sharegpt(2048);
    let n = ctx.scale(1500);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for rate in [3.0, 4.0] {
        for (label, policy) in [
            ("longest-context", VictimPolicy::LongestContext),
            ("shortest-context", VictimPolicy::ShortestContext),
        ] {
            let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
            cfg.decode_parallelism = Parallelism::tp(1);
            cfg.victim_policy = policy;
            cfg.long_context_tokens = 128;
            let report = run_point(cfg, &dataset, rate, n, 0xE4);
            let (row, j) = summarize(&format!("{label} @ {rate}"), &report);
            rows.push(row);
            data.push(j);
        }
    }
    print_table(
        "Extra 4: migration victim policy ([TP-2, TP-1], OPT-13B, ShareGPT)",
        &HEADERS,
        &rows,
    );
    println!("(longest-context frees more KV per migration — fewer migrations, same relief)");
    Value::Array(data)
}

/// 5. Robustness to bursty arrivals.
pub fn burstiness(ctx: &ExpContext) -> Value {
    let n = ctx.scale(1500);
    let dataset = Dataset::sharegpt(2048);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for system in [SystemKind::WindServe, SystemKind::DistServe] {
        let cfg = ServeConfig::opt_13b_sharegpt(system);
        let rate = cfg.total_rate(3.0);
        for (label, arrivals) in [
            ("poisson", ArrivalProcess::poisson(rate)),
            (
                "bursty",
                ArrivalProcess::Bursty {
                    base_rate: rate * 0.5,
                    burst_rate: rate * 1.5,
                    mean_phase_secs: 10.0,
                },
            ),
        ] {
            let trace = Scenario::single_shot(dataset.clone(), arrivals.clone(), n)
                .generate(0xE5)
                .expect("valid single-shot scenario");
            let (report, _) = Cluster::new(cfg.clone())
                .expect("valid config")
                .run(&trace)
                .expect("run completes");
            let (row, j) = summarize(&format!("{} {label}", system.label()), &report);
            rows.push(row);
            data.push(j);
        }
    }
    print_table(
        "Extra 5: Poisson vs bursty arrivals (OPT-13B, ShareGPT @ 3 req/s/GPU mean)",
        &HEADERS,
        &rows,
    );
    Value::Array(data)
}

/// 6. Autoscaling (§7 future work): replicas activate under load and
///    drain when it recedes; the win is GPU-seconds at comparable SLO.
pub fn autoscaling(ctx: &ExpContext) -> Value {
    use windserve::AutoscaleConfig;
    let n = ctx.scale(1600);
    let dataset = Dataset::sharegpt(2048);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    // A diurnal-ish load: calm, then a burst, then calm again, emulated by
    // the bursty arrival process.
    for (label, autoscale) in [
        ("static 2Px2D", None),
        ("autoscaled 1-2Px1-2D", Some(AutoscaleConfig::default())),
    ] {
        let cfg = ServeConfig {
            prefill_replicas: 2,
            decode_replicas: 2,
            autoscale,
            ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
        };
        let total = cfg.total_rate(2.0);
        let trace = Scenario::single_shot(
            dataset.clone(),
            ArrivalProcess::Bursty {
                base_rate: total * 0.4,
                burst_rate: total * 1.6,
                mean_phase_secs: 20.0,
            },
            n,
        )
        .generate(0xE6)
        .expect("valid single-shot scenario");
        let (report, _) = Cluster::new(cfg)
            .expect("valid config")
            .run(&trace)
            .expect("run completes");
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", report.summary.ttft.p50),
            format!("{:.3}", report.summary.ttft.p99),
            format!("{:.3}", report.summary.slo.both),
            format!("{:.2}", report.mean_active_gpus()),
            format!("{}", report.autoscale_events),
        ]);
        data.push(json!({
            "label": label,
            "ttft_p50": report.summary.ttft.p50,
            "ttft_p99": report.summary.ttft.p99,
            "slo_both": report.summary.slo.both,
            "mean_active_gpus": report.mean_active_gpus(),
            "autoscale_events": report.autoscale_events,
        }));
    }
    print_table(
        "Extra 6: autoscaling under a bursty diurnal load (OPT-13B, ShareGPT, 2 req/s/GPU mean)",
        &[
            "config",
            "TTFT p50",
            "TTFT p99",
            "SLO both",
            "mean GPUs",
            "scale events",
        ],
        &rows,
    );
    println!("(the autoscaler trades a small SLO dip during warmups for idle GPU-seconds)");
    Value::Array(data)
}

/// 7. Profiler accuracy: Algorithm 1 is only as good as `TTFT_pred`, so
///    measure the Eq. 1 predictions against realized TTFTs at runtime.
pub fn profiler_accuracy(ctx: &ExpContext) -> Value {
    let dataset = Dataset::sharegpt(2048);
    let n = ctx.scale(1500);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for rate in [2.0, 3.0, 4.0] {
        let report = run_point(
            ServeConfig::opt_13b_sharegpt(SystemKind::DistServe),
            &dataset,
            rate,
            n,
            0xE7,
        );
        let err = report.ttft_prediction_error().unwrap_or(f64::NAN);
        // Signed relative errors: positive when the prediction is too high.
        let rel: Vec<f64> = report
            .ttft_predictions
            .iter()
            .filter(|p| !p.dispatched && p.actual > 0.0)
            .map(|p| (p.predicted - p.actual) / p.actual)
            .collect();
        let count = |keep: fn(f64) -> bool| rel.iter().filter(|&&e| keep(e)).count() as f64;
        let signed = rel.iter().sum::<f64>() / rel.len().max(1) as f64;
        let too_high = count(|e| e > 0.0) / rel.len().max(1) as f64;
        let within_30 = count(|e| e.abs() <= 0.3) / report.ttft_predictions.len().max(1) as f64;
        rows.push(vec![
            format!("{rate:.1}"),
            format!("{:.1}%", err * 100.0),
            format!("{:+.1}%", signed * 100.0),
            format!("{:.1}%", too_high * 100.0),
            format!("{:.1}%", within_30 * 100.0),
        ]);
        data.push(json!({
            "rate_per_gpu": rate,
            "mean_rel_error": err,
            "mean_signed_error": signed,
            "fraction_too_high": too_high,
            "fraction_within_30pct": within_30,
        }));
    }
    print_table(
        "Extra 7: Algorithm 1 TTFT-prediction accuracy (DistServe path, OPT-13B)",
        &[
            "req/s/GPU",
            "mean |rel err|",
            "signed err",
            "too high",
            "within ±30%",
        ],
        &rows,
    );
    Value::Array(data)
}

/// Runs all extension studies.
pub fn run(ctx: &ExpContext) -> Value {
    json!({
        "heterogeneous": heterogeneous(ctx),
        "multi_node": multi_node(ctx),
        "scaling": scaling(ctx),
        "victim_policy": victim_policy(ctx),
        "burstiness": burstiness(ctx),
        "autoscaling": autoscaling(ctx),
        "profiler_accuracy": profiler_accuracy(ctx),
    })
}
