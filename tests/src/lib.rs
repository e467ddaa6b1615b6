//! Shared helpers for the WindServe integration-test suite.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library holds
//! utilities they share (trace construction, run drivers, tolerance
//! assertions).

use windserve::{Cluster, RunReport, ServeConfig};
use windserve_workload::{ArrivalProcess, Dataset, Scenario, Trace};

/// Builds a ShareGPT-like trace at `total_rate` req/s.
pub fn sharegpt_trace(total_rate: f64, n: usize, seed: u64) -> Trace {
    Scenario::single_shot(
        Dataset::sharegpt(2048),
        ArrivalProcess::poisson(total_rate),
        n,
    )
    .generate(seed)
    .expect("valid single-shot scenario")
}

/// Builds a LongBench-like trace at `total_rate` req/s.
pub fn longbench_trace(total_rate: f64, n: usize, seed: u64) -> Trace {
    Scenario::single_shot(
        Dataset::longbench(4096),
        ArrivalProcess::poisson(total_rate),
        n,
    )
    .generate(seed)
    .expect("valid single-shot scenario")
}

/// Runs a config against a trace, panicking on any error (integration
/// tests want loud failures).
pub fn run(cfg: ServeConfig, trace: &Trace) -> RunReport {
    Cluster::new(cfg)
        .expect("config must be valid")
        .run(trace)
        .expect("run must complete")
        .0
}

/// Asserts `a <= b * factor` with a readable message.
pub fn assert_at_most(label: &str, a: f64, b: f64, factor: f64) {
    assert!(a <= b * factor, "{label}: {a} should be <= {factor} x {b}");
}
