//! Chatbot scenario (paper §5.2): OPT-13B on ShareGPT, comparing WindServe
//! against the DistServe and vLLM baselines at the same operating point.
//!
//! ```sh
//! cargo run -p windserve-examples --release --example chatbot -- --rate 4
//! ```

use windserve::{Cluster, ServeConfig, SystemKind};
use windserve_examples::{parse_args, print_report};
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn main() -> windserve::Result<()> {
    let (rate, requests, seed) = parse_args(4.0, 1500);
    let dataset = Dataset::sharegpt(2048);
    for system in [
        SystemKind::WindServe,
        SystemKind::DistServe,
        SystemKind::VllmColocated,
    ] {
        let cfg = ServeConfig::opt_13b_sharegpt(system);
        let trace = Scenario::single_shot(
            dataset.clone(),
            ArrivalProcess::poisson(cfg.total_rate(rate)),
            requests,
        )
        .generate(seed)
        .expect("valid single-shot scenario");
        let (report, _) = Cluster::new(cfg)?.run(&trace)?;
        print_report(&format!("chatbot @ {rate} req/s/GPU"), &report);
        println!();
    }
    println!("Expect: WindServe holds TTFT flat via Dynamic Prefill Dispatch while");
    println!("DistServe's prefill queue explodes; vLLM pays a TPOT premium for");
    println!("chunked-prefill colocation.");
    Ok(())
}
