//! The repository benchmark: simulator throughput on steady, overload and
//! session traffic, plus live-gateway latency, with per-layer numbers from
//! a separate traced run. See `README.md` next to this package.
//!
//! ```text
//! windserve-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                     [--smoke] [--out FILE]
//! windserve-benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Every workload ends with one JSON result line on stdout; the process
//! exits non-zero when any output check fails.

mod client;
mod compare;
mod gateway;
mod output;
mod probe;
mod sim;
mod spans;
mod stats;

use output::{Family, Outcome};
use spans::Spans;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_SEED: u64 = 48879;
const DEFAULT_SECONDS: f64 = 20.0;
/// Where traced runs write their Chrome-format spans.
const TRACE_DIR: &str = "results/benchmark";

#[derive(Debug)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn all_workloads() -> Vec<String> {
    sim::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain([gateway::NAME])
        .map(String::from)
        .collect()
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: all_workloads(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            // `--trace` alone means a traced run; `--trace 0|1` is explicit.
            opts.traced = it.peek().map(|s| s.as_str()) != Some("0");
            if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                it.next();
            }
            continue;
        }
        if arg == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--workload" => {
                if !all_workloads().contains(value) {
                    return Err(format!(
                        "unknown workload {value:?}; known: {}",
                        all_workloads().join(", ")
                    ));
                }
                opts.workloads = vec![value.clone()];
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn run_one(name: &str, opts: &Options, spans: &mut Spans) -> (Family, Outcome) {
    if let Some(w) = sim::WORKLOADS.iter().find(|w| w.name == name) {
        let sim_opts = sim::SimOptions {
            seed: opts.seed,
            seconds: opts.seconds,
            smoke: opts.smoke,
        };
        let outcome = if opts.traced {
            sim::run_traced(w, sim_opts, spans)
        } else {
            sim::run(w, sim_opts)
        };
        return (Family::Sim, outcome);
    }
    // The shipped CLI is built next to this binary.
    let bin = std::env::current_exe()
        .map(|exe| exe.with_file_name("windserve"))
        .unwrap_or_else(|_| PathBuf::from("windserve"));
    let gw = gateway::GatewayOptions {
        bin: &bin,
        seed: opts.seed,
        seconds: opts.seconds,
    };
    (
        Family::Gateway,
        gateway::run(&gw, opts.traced.then_some(spans)),
    )
}

/// Prints the human-readable view of one run: a metric row, and for a
/// traced run the self time per span name.
fn print_row(name: &str, family: Family, outcome: &Outcome, traced: bool, spans: &Spans) {
    if traced {
        println!("{name}: self time by span (ms, count)");
        for (span, ms, count) in spans.self_time_by_name() {
            println!("    {span:<20} {ms:>12.3} {count:>8}");
        }
        println!("{name}: per-layer metrics");
        for (metric, unit, value) in outcome.selected(family, true) {
            match value {
                Some(v) => println!("    {metric:<32} {v:>14.4} {unit}"),
                None => println!("    {metric:<32} {:>14} {unit}", "missing"),
            }
        }
    } else {
        let cells: Vec<String> = outcome
            .selected(family, false)
            .into_iter()
            .map(|(metric, unit, v)| match v {
                Some(v) => format!("{metric}={v:.4} {unit}"),
                None => format!("{metric}=missing"),
            })
            .collect();
        println!("{name:<20} {}", cells.join("  "));
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for name in &opts.workloads {
        let mut spans = Spans::new(Instant::now());
        let (family, outcome) = run_one(name, &opts, &mut spans);
        if opts.traced {
            let path = PathBuf::from(TRACE_DIR).join(format!("trace-{name}.json"));
            let written = std::fs::create_dir_all(TRACE_DIR)
                .and_then(|()| std::fs::write(&path, spans.chrome_json()));
            match written {
                Ok(()) => eprintln!("{name}: spans written to {}", path.display()),
                Err(e) => eprintln!("{name}: could not write {}: {e}", path.display()),
            }
        }
        print_row(name, family, &outcome, opts.traced, &spans);
        let result = outcome.result_json(family, opts.traced);
        if let Some(path) = &opts.out {
            let mut line = result.clone();
            line["workload"] = name.as_str().into();
            line["seed"] = opts.seed.into();
            line["traced"] = opts.traced.into();
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("could not append to {}: {e}", path.display());
            }
        }
        println!("{result}");
        all_correct &= outcome.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
