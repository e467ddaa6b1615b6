//! Quickstart: serve a ShareGPT-like chatbot workload on OPT-13B with
//! WindServe and print the headline metrics.
//!
//! ```sh
//! cargo run -p windserve-examples --release --example quickstart -- --rate 4 --requests 1000
//! ```

use windserve::{Cluster, ServeConfig, SystemKind};
use windserve_examples::{parse_args, print_report};
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn main() -> windserve::Result<()> {
    // Per-GPU rate (the paper's x-axis) and trace size.
    let (rate, requests, seed) = parse_args(4.0, 1000);

    // Table 3/4 preset: OPT-13B, [TP-2, TP-2], TTFT 0.25s / TPOT 0.1s.
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let total_rate = cfg.total_rate(rate);

    // A synthetic ShareGPT trace (Table 2 statistics), Poisson arrivals.
    let trace = Scenario::single_shot(
        Dataset::sharegpt(2048),
        ArrivalProcess::poisson(total_rate),
        requests,
    )
    .generate(seed)
    .expect("valid single-shot scenario");

    let (report, _) = Cluster::new(cfg)?.run(&trace)?;
    print_report(
        &format!("quickstart: OPT-13B / ShareGPT @ {rate} req/s/GPU"),
        &report,
    );
    Ok(())
}
