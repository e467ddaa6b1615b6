//! Multi-tenant serving: a chatbot tenant (ShareGPT-like) and a
//! summarization tenant (LongBench-like, clipped to the model's window)
//! interleaved onto one WindServe deployment via `Trace::merge`. The
//! long-prompt tenant pressures the prefill instance; dispatch keeps the
//! short-prompt tenant's TTFT intact.
//!
//! ```sh
//! cargo run -p windserve-examples --release --example multi_tenant
//! ```

use windserve::{Cluster, ServeConfig, SystemKind};
use windserve_examples::{parse_args, print_report};
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn main() -> windserve::Result<()> {
    let (rate, requests, seed) = parse_args(2.0, 800);
    for system in [SystemKind::WindServe, SystemKind::DistServe] {
        let cfg = ServeConfig::opt_13b_sharegpt(system);
        let total = cfg.total_rate(rate);
        let chat = Scenario::single_shot(
            Dataset::sharegpt(2048),
            ArrivalProcess::poisson(total * 0.7),
            requests * 7 / 10,
        )
        .generate(seed)
        .expect("valid single-shot scenario");
        let summarize = Scenario::single_shot(
            Dataset::longbench(2048),
            ArrivalProcess::poisson(total * 0.3),
            requests * 3 / 10,
        )
        .generate(seed + 1)
        .expect("valid single-shot scenario");
        let mixed = chat.merge(&summarize);
        let (report, _) = Cluster::new(cfg)?.run(&mixed)?;
        print_report(
            &format!("multi-tenant (70% chat + 30% summarization) @ {rate} req/s/GPU"),
            &report,
        );
        println!();
    }
    Ok(())
}
