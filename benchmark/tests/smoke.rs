//! Runs the benchmark binary on the three simulator workloads at tiny sizes,
//! untraced and traced, and checks each result line: its shape, every
//! metric the run must report, and that every output check passed.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

const SIM_WORKLOADS: [&str; 3] = ["sharegpt_steady", "longbench_overload", "sessions_prefix"];

/// Metric names BENCHMARK.json lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    spec[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |f: &str| m[f].as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(dir: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_windserve-benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn simulator_workloads_report_every_metric_and_pass_their_checks() {
    let dir =
        std::env::temp_dir().join(format!("windserve-benchmark-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for workload in SIM_WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                workload,
                "--smoke",
                "--seconds",
                "0.01",
                "--trace",
                trace,
            ];
            let (ok, stdout) = run(&dir, &args);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result["correct"].as_bool(), Some(true), "{stdout}");
            assert!(result["attempted"].as_u64().is_some_and(|n| n >= 1));
            assert_eq!(result["failed"].as_u64(), Some(0));
            let metrics = result["metrics"].as_object().expect("metrics object");
            for (name, unit) in listed(key) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert_eq!(
                    m["unit"].as_str(),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
                assert!(
                    m["value"].as_f64().is_some_and(f64::is_finite),
                    "{workload}: {name}"
                );
            }
            if trace == "0" {
                for (name, _) in listed(key) {
                    let v = metrics
                        .get(&name)
                        .and_then(|m| m["value"].as_f64())
                        .unwrap_or(0.0);
                    assert!(v > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            } else {
                let spans = dir.join(format!("results/benchmark/trace-{workload}.json"));
                let text = std::fs::read_to_string(&spans).expect("the traced run writes spans");
                let chrome: Value = serde_json::from_str(&text).expect("Chrome trace JSON");
                let events = chrome["traceEvents"].as_array().expect("traceEvents");
                assert!(events.iter().any(|e| e["name"].as_str() == Some("slice")));
            }
        }
    }
    let (ok, _) = run(&dir, &["--workload", "no_such_workload"]);
    assert!(!ok, "an unknown workload is an error");
    let _ = std::fs::remove_dir_all(&dir);
}
