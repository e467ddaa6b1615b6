//! Ablation study (paper §5.4 / Fig. 13): WindServe against its own
//! variants with stream-based disaggregation or dynamic rescheduling
//! removed.
//!
//! ```sh
//! cargo run -p windserve-examples --release --example ablation
//! ```

use windserve::{Cluster, Parallelism, ServeConfig, SystemKind};
use windserve_examples::{parse_args, print_report};
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn main() -> windserve::Result<()> {
    let (rate, requests, seed) = parse_args(3.0, 1200);

    println!("### Fig 13a analogue: value of Stream-based Disaggregation ###\n");
    let longbench = Dataset::longbench(2048);
    for system in [SystemKind::WindServe, SystemKind::WindServeNoSplit] {
        let cfg = ServeConfig::opt_13b_sharegpt(system);
        let trace = Scenario::single_shot(
            longbench.clone(),
            ArrivalProcess::poisson(cfg.total_rate(rate)),
            requests,
        )
        .generate(seed)
        .expect("valid single-shot scenario");
        let (report, _) = Cluster::new(cfg)?.run(&trace)?;
        print_report(&format!("LongBench @ {rate} req/s/GPU"), &report);
        println!();
    }

    println!("### Fig 13b analogue: value of Dynamic Rescheduling ###\n");
    let sharegpt = Dataset::sharegpt(2048);
    for system in [SystemKind::WindServe, SystemKind::WindServeNoResche] {
        let cfg = ServeConfig {
            decode_parallelism: Parallelism::tp(1), // memory-tight decode
            ..ServeConfig::opt_13b_sharegpt(system)
        };
        let trace = Scenario::single_shot(
            sharegpt.clone(),
            ArrivalProcess::poisson(cfg.total_rate(rate + 1.0)),
            requests,
        )
        .generate(seed)
        .expect("valid single-shot scenario");
        let (report, _) = Cluster::new(cfg)?.run(&trace)?;
        print_report(
            &format!("ShareGPT [TP-2, TP-1] @ {} req/s/GPU", rate + 1.0),
            &report,
        );
        println!();
    }
    Ok(())
}
