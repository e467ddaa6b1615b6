//! Shared experiment plumbing.

use serde_json::Value;
use std::fs;
use std::path::PathBuf;
pub use windserve::parallel_map;
use windserve::{Cluster, RunReport, ServeConfig, SystemKind};
use windserve_workload::{ArrivalProcess, Dataset, Scenario};

/// One model/dataset/placement evaluation case (a row of the paper's
/// Fig. 10/11 grid).
#[derive(Debug, Clone)]
pub struct Case {
    /// Display label, e.g. `"OPT-13B / ShareGPT"`.
    pub label: &'static str,
    /// Config constructor for a given system.
    pub config: fn(SystemKind) -> ServeConfig,
    /// Dataset constructor (context window matched to the model).
    pub dataset: fn() -> Dataset,
    /// Per-GPU request rates swept (the paper's x-axis).
    pub rates: &'static [f64],
    /// Requests per point in full mode.
    pub requests: usize,
}

impl Case {
    /// OPT-13B on ShareGPT, `[TP-2, TP-2]` (Fig. 10a/b top).
    pub fn opt_13b_sharegpt() -> Case {
        Case {
            label: "OPT-13B / ShareGPT",
            config: ServeConfig::opt_13b_sharegpt,
            dataset: || Dataset::sharegpt(2048),
            rates: &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            requests: 2000,
        }
    }

    /// OPT-66B on ShareGPT, `[TP-2 PP-2, TP-2 PP-2]` (Fig. 10a/b bottom).
    pub(crate) fn opt_66b_sharegpt() -> Case {
        Case {
            label: "OPT-66B / ShareGPT",
            config: ServeConfig::opt_66b_sharegpt,
            dataset: || Dataset::sharegpt(2048),
            rates: &[0.25, 0.4, 0.55, 0.7, 0.85, 1.0],
            requests: 1200,
        }
    }

    /// LLaMA2-13B on LongBench (Fig. 10c/d top).
    pub(crate) fn llama2_13b_longbench() -> Case {
        Case {
            label: "LLaMA2-13B / LongBench",
            config: ServeConfig::llama2_13b_longbench,
            dataset: || Dataset::longbench(4096),
            rates: &[0.5, 0.75, 1.0, 1.25, 1.5, 1.75],
            requests: 1200,
        }
    }

    /// LLaMA2-70B on LongBench (Fig. 10c/d bottom).
    pub(crate) fn llama2_70b_longbench() -> Case {
        Case {
            label: "LLaMA2-70B / LongBench",
            config: ServeConfig::llama2_70b_longbench,
            dataset: || Dataset::longbench(4096),
            rates: &[0.1, 0.15, 0.2, 0.25, 0.3, 0.35],
            requests: 800,
        }
    }

    /// All four paper cases.
    pub(crate) fn all() -> Vec<Case> {
        vec![
            Case::opt_13b_sharegpt(),
            Case::opt_66b_sharegpt(),
            Case::llama2_13b_longbench(),
            Case::llama2_70b_longbench(),
        ]
    }
}

/// Runs one operating point: `cfg` served against a fresh trace of
/// `requests` requests at `per_gpu_rate` req/s/GPU.
///
/// # Panics
///
/// Panics if the configuration is invalid or the run deadlocks — an
/// experiment must fail loudly, not report garbage.
pub fn run_point(
    cfg: ServeConfig,
    dataset: &Dataset,
    per_gpu_rate: f64,
    requests: usize,
    seed: u64,
) -> RunReport {
    let total = cfg.total_rate(per_gpu_rate);
    let trace = Scenario::single_shot(dataset.clone(), ArrivalProcess::poisson(total), requests)
        .generate(seed)
        .expect("valid single-shot scenario");
    Cluster::new(cfg)
        .expect("experiment config must be valid")
        .run(&trace)
        .expect("experiment run must complete")
        .0
}

/// Worker count to use when none is requested: `WINDSERVE_JOBS` if set to
/// a positive integer, else the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("WINDSERVE_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("warning: ignoring invalid WINDSERVE_JOBS={v:?}");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Experiment execution context: quick mode, output directory and worker
/// count, parsed from the process arguments (`--quick`, `--out <dir>`,
/// `--jobs <n>`).
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Shrinks trace sizes for CI-speed runs.
    pub quick: bool,
    /// Where JSON results land.
    pub out_dir: PathBuf,
    /// Worker threads for [`parallel_map`] sweeps (never changes results,
    /// only wall-clock).
    pub jobs: usize,
}

impl ExpContext {
    /// Parses `--quick`, `--out <dir>` and `--jobs <n>` from
    /// `std::env::args`; `--jobs` falls back to `WINDSERVE_JOBS`, then to
    /// the machine's available parallelism.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let out_dir = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results"));
        let jobs = args
            .iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(default_jobs);
        ExpContext {
            quick,
            out_dir,
            jobs,
        }
    }

    /// A context for tests/benches: quick, single-worker, writing to a
    /// temp directory.
    pub fn quiet() -> Self {
        ExpContext {
            quick: true,
            out_dir: std::env::temp_dir().join("windserve-results"),
            jobs: 1,
        }
    }

    /// Scales a full-mode request count down in quick mode.
    pub(crate) fn scale(&self, n: usize) -> usize {
        if self.quick {
            (n / 5).max(250)
        } else {
            n
        }
    }

    /// Writes `value` as pretty JSON to `<out>/<name>.json`.
    pub fn emit(&self, name: &str, value: &Value) {
        if let Err(e) = fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(s) => {
                if let Err(e) = fs::write(&path, s) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                } else {
                    println!("\n[results written to {}]", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
        }
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(headers.iter().map(|s| s.to_string()).collect())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}
