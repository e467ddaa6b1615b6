//! Tracing a Fig. 12 bottleneck run: drive the decode-bound `[TP-2, TP-1]`
//! placement with full scheduling-trace capture, print the event mix and a
//! decision audit of the first dispatched request, and write a Chrome
//! `trace_event` file for Perfetto / `chrome://tracing`.
//!
//! ```sh
//! cargo run -p windserve-examples --release --example trace_bottleneck
//! ```

use windserve::prelude::*;
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

fn main() -> windserve::Result<()> {
    let rate = 4.0; // req/s/GPU — enough pressure to trigger dispatch
    let requests = 800;
    let cfg = ServeConfig {
        decode_parallelism: windserve::Parallelism::tp(1),
        trace: TraceMode::Full,
        ..ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    };
    let trace = Scenario::single_shot(
        Dataset::sharegpt(2048),
        ArrivalProcess::poisson(cfg.total_rate(rate)),
        requests,
    )
    .generate(0xF1612)
    .expect("valid single-shot scenario");
    let (report, log) = Cluster::new(cfg)?.run(&trace)?;

    println!(
        "{} @ {rate} req/s/GPU: {} requests, {} trace events over {:.1}s",
        report.system.label(),
        report.summary.completed,
        log.len(),
        report.duration_secs,
    );

    // Algorithm 1's verdict mix under decode-bound pressure.
    let decisions = log.dispatch_decisions();
    let dispatched = decisions
        .iter()
        .filter(|(_, d)| d.verdict == windserve::trace::DispatchVerdict::Dispatched)
        .count();
    let rejected = decisions
        .iter()
        .filter(|(_, d)| d.verdict == windserve::trace::DispatchVerdict::NoSlots)
        .count();
    println!(
        "Algorithm 1: {} decisions, {dispatched} dispatched, {rejected} rejected (no slots)",
        decisions.len(),
    );

    // Audit the first request that was actually dispatched.
    if let Some((_, d)) = decisions
        .iter()
        .find(|(_, d)| d.verdict == windserve::trace::DispatchVerdict::Dispatched)
    {
        println!();
        print!("{}", log.audit(d.request));
    }

    let path = std::env::temp_dir().join("windserve-bottleneck-trace.json");
    std::fs::write(&path, log.to_chrome_json()).expect("write trace file");
    println!(
        "\nChrome trace written to {} — open in Perfetto",
        path.display()
    );
    Ok(())
}
