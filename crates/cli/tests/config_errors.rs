//! A config file or flag the simulator cannot run ends the real `windserve`
//! binary with exit code 1 and a one-line error, not a panic.

use std::process::Command;

/// Writes `text` to a per-test file under the temp directory.
fn config_file(name: &str, text: &str) -> String {
    let dir = std::env::temp_dir().join("windserve-cli-config-errors");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{name}-{}.toml", std::process::id()));
    std::fs::write(&path, text).expect("write config file");
    path.to_str().expect("utf8 path").to_string()
}

#[test]
fn zero_topology_fields_exit_one() {
    let topology = |n_gpus, numa_width, node_width| {
        format!(
            "[topology]\nn_gpus = {n_gpus}\nnvlink_pairs = false\n\
             numa_width = {numa_width}\nnode_width = {node_width}\n"
        )
    };
    let fleet = "[[deployments]]\nname = \"solo\"\nexpansion_units = 0\n\
                 [[deployments.tenants]]\nname = \"t0\"\ndataset = \"fixed:32:4\"\n\
                 rate = 2.0\nrequests = 10\ntier = 0\n";
    let cases = [
        ("run", "run-node-width", topology(8, 4, 0)),
        ("run", "run-numa-width", topology(8, 0, 8)),
        (
            "fleet",
            "fleet-n-gpus",
            format!("{fleet}{}", topology(0, 4, 8)),
        ),
        (
            "fleet",
            "fleet-node-width",
            format!("{fleet}{}", topology(16, 4, 0)),
        ),
    ];
    for (command, name, text) in cases {
        let path = config_file(name, &text);
        let out = Command::new(env!("CARGO_BIN_EXE_windserve"))
            .args([command, "--config", &path])
            .output()
            .expect("run windserve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("error: "), "{name}: {stderr}");
        assert!(stderr.contains("must be positive"), "{name}: {stderr}");
    }
}

#[test]
fn bad_durations_and_zero_slos_exit_one() {
    let mut cases: Vec<String> = [
        "--thrd -1",
        "--slo-ttft -1",
        "--slo-tpot nan",
        "--deadline -5",
        "--thrd inf",
        "--slo-ttft 0",
        "--slo-tpot 0",
    ]
    .map(String::from)
    .into();
    for (name, text) in [
        ("slo-ttft", "[slo]\nttft = 0\n"),
        ("slo-tpot", "[slo]\ntpot = 0\n"),
    ] {
        cases.push(format!("--config {}", config_file(name, text)));
    }
    for flags in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_windserve"))
            .args(["run", "--requests", "10"])
            .args(flags.split_whitespace())
            .output()
            .expect("run windserve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags}: {stderr}");
        assert!(stderr.starts_with("error: "), "{flags}: {stderr}");
    }
}

/// Runs `windserve` with `line`'s arguments and asserts a one-line error
/// exit, not a panic.
fn assert_exits_one(line: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_windserve"))
        .args(line.split_whitespace())
        .output()
        .expect("run windserve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
    assert!(stderr.starts_with("error: "), "{line}: {stderr}");
}

#[test]
fn overflowing_rates_exit_one() {
    for line in [
        "run --requests 10 --rate 1e308",
        "run --requests 10 --arrivals uniform --rate 1e308",
        "compare --requests 10 --rate 1e308",
        "compare --requests 10 --vary rate=1e308",
        "trace-stats --requests 10 --rate 1e308",
        "trace --requests 10 --preset opt13b-sharegpt --rate 1e308",
    ] {
        assert_exits_one(line);
    }
}

#[test]
fn unrepresentable_durations_exit_one() {
    for line in [
        "serve --port 0 --duration 1e30",
        "serve --port 0 --duration 1e308m",
        "serve --port 0 --duration 1e19",
        "loadgen --port 9 --duration 1e30",
    ] {
        assert_exits_one(line);
    }
}

#[test]
fn hostile_vary_input_exits_one() {
    for flags in [
        "--vary speed=1,2",
        "--vary rate",
        "--vary rate=",
        "--vary rate=1,,2",
        "--vary rate=1,",
        "--vary rate=1 --vary system=vllm --vary rate=2",
        "--vary rate=0",
        "--vary rate=-1",
        "--vary rate=nan",
        "--vary rate=inf",
        "--vary system=windserve,orca",
        "--vary faults=none,meteor-strike",
        "--vary overload=off,maybe",
        "--vary overload=off,on --overload-factor 0",
        "--vary overload=off,on --overload-factor -2",
    ] {
        assert_exits_one(&format!("compare --requests 10 {flags}"));
    }
}

/// The README's sessions scenario: its arrivals come from the config
/// file, not from `--rate` and `--requests`.
const SESSIONS: &str = "[workload.scenario.Sessions]\nsessions = 30\nsession_rate = 6.0\n\
    turns_min = 2\nturns_max = 6\nmean_think_secs = 20.0\nfollowup_min_tokens = 16\n\
    followup_max_tokens = 192\n[workload.scenario.Sessions.dataset.Named]\n\
    name = \"sharegpt\"\nmax_context = 2048\n";

#[test]
fn flag_arrival_axes_reject_a_scenario_config() {
    let path = config_file("sessions", SESSIONS);
    for axis in ["rate=1,2", "faults=none,decode-crash"] {
        let out = Command::new(env!("CARGO_BIN_EXE_windserve"))
            .args(["compare", "--config", &path, "--vary", axis])
            .output()
            .expect("run windserve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{axis}: {stderr}");
        assert!(stderr.contains("[workload.scenario]"), "{axis}: {stderr}");
    }
    // The system axis runs the scenario, and no line prints the unused
    // `--requests` default as a count.
    let out = Command::new(env!("CARGO_BIN_EXE_windserve"))
        .args(["compare", "--config", &path, "--vary", "system=windserve"])
        .output()
        .expect("run windserve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(!stdout.contains("1000"), "{stdout}");
}
