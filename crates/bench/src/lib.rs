//! # windserve-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! WindServe paper (see `DESIGN.md`'s experiment index). Each experiment
//! lives in [`experiments`] and has a matching binary under `src/bin/`.
//!
//! Run any experiment with
//! `cargo run -p windserve-bench --release --bin <name> [-- --quick]`.
//! Results print as aligned tables and are also dumped as JSON under
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chart;
pub mod experiments;
mod harness;

pub use chart::{BarChart, LineChart};
pub use harness::{default_jobs, parallel_map, print_table, run_point, Case, ExpContext};
