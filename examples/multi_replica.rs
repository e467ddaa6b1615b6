//! Multi-replica phase-disaggregated serving (paper §7 future work):
//! several prefill and decode replicas behind the Global Scheduler, with
//! least-predicted-TTFT routing for arrivals and most-free-KV routing for
//! KV handoffs.
//!
//! ```sh
//! cargo run -p windserve-examples --release --example multi_replica -- --rate 3.5
//! ```

use windserve::{Cluster, ServeConfig, SystemKind};
use windserve_examples::{parse_args, print_report};
use windserve_gpu::Topology;
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn main() -> windserve::Result<()> {
    let (rate, requests, seed) = parse_args(3.5, 1600);
    let dataset = Dataset::sharegpt(2048);
    for (label, replicas, topo) in [
        ("1 prefill x 1 decode", 1usize, Topology::a800_testbed()),
        ("2 prefill x 2 decode", 2, Topology::a800_testbed()),
        ("4 prefill x 4 decode", 4, Topology::a800_multi_node(2)),
    ] {
        let cfg = ServeConfig {
            prefill_replicas: replicas,
            decode_replicas: replicas,
            topology: topo,
            ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
        };
        let trace = Scenario::single_shot(
            dataset.clone(),
            ArrivalProcess::poisson(cfg.total_rate(rate)),
            requests,
        )
        .generate(seed)
        .expect("valid single-shot scenario");
        let (report, _) = Cluster::new(cfg)?.run(&trace)?;
        print_report(&format!("{label} @ {rate} req/s/GPU"), &report);
        println!();
    }
    println!("The linear scaling rule: service quality holds (or improves via");
    println!("statistical multiplexing) as replicas scale at a fixed per-GPU rate.");
    Ok(())
}
