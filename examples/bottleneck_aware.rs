//! Bottleneck-aware ability (paper §5.3 / Fig. 12): the same workload under
//! two placements. With `[TP-2, TP-1]` the decode instance runs out of KV
//! blocks (TPOT bottleneck -> Dynamic Rescheduling); with `[TP-2, TP-2]`
//! the prefill instance saturates (TTFT bottleneck -> Dynamic Prefill
//! Dispatch). WindServe adapts to whichever side binds.
//!
//! ```sh
//! cargo run -p windserve-examples --release --example bottleneck_aware
//! ```

use windserve::{Cluster, Parallelism, ServeConfig, SystemKind};
use windserve_examples::{parse_args, print_report};
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn main() -> windserve::Result<()> {
    let (rate, requests, seed) = parse_args(4.0, 1500);
    let dataset = Dataset::sharegpt(2048);
    for (label, decode_par) in [
        ("[TP-2, TP-1] (decode-bound)", Parallelism::tp(1)),
        ("[TP-2, TP-2] (prefill-bound)", Parallelism::tp(2)),
    ] {
        for system in [SystemKind::WindServe, SystemKind::DistServe] {
            let cfg = ServeConfig {
                decode_parallelism: decode_par,
                ..ServeConfig::opt_13b_sharegpt(system)
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
    }
    Ok(())
}
