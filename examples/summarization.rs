//! Summarization scenario (paper §5.2): LLaMA2-13B on LongBench — long
//! prompts, short skewed outputs. The prefill instance saturates early and
//! WindServe's dispatch borrows the decode instance's idle tensor cores.
//!
//! ```sh
//! cargo run -p windserve-examples --release --example summarization -- --rate 1.25
//! ```

use windserve::{Cluster, ServeConfig, SystemKind};
use windserve_examples::{parse_args, print_report};
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn main() -> windserve::Result<()> {
    let (rate, requests, seed) = parse_args(1.25, 1000);
    let dataset = Dataset::longbench(4096);
    for system in [SystemKind::WindServe, SystemKind::DistServe] {
        let cfg = ServeConfig::llama2_13b_longbench(system);
        let trace = Scenario::single_shot(
            dataset.clone(),
            ArrivalProcess::poisson(cfg.total_rate(rate)),
            requests,
        )
        .generate(seed)
        .expect("valid single-shot scenario");
        let (report, _) = Cluster::new(cfg)?.run(&trace)?;
        print_report(&format!("summarization @ {rate} req/s/GPU"), &report);
        println!();
    }
    Ok(())
}
