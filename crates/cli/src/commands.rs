//! CLI subcommands.

use crate::args::{ArgError, Args};
use crate::build::{preset_by_name, RunSpec};
use crate::grid::{self, Axis};
use crate::render;
use windserve::{Cluster, RequestId, RunReport, TraceLog, TraceMode};
use windserve_workload::{Dataset, Trace};

/// Runs one serving simulation and prints (or JSON-dumps) the report.
///
/// # Errors
///
/// Reports invalid flags or a failed simulation.
pub(crate) fn run(args: &Args) -> Result<String, ArgError> {
    let spec = RunSpec::from_args(args)?;
    let trace = match args.get("trace-file") {
        Some(path) => load_trace(path)?,
        None => spec.generate_trace()?,
    };
    if let Some(path) = args.get("save-trace") {
        save_trace(path, &trace)?;
    }
    let (report, _) = run_cluster(spec.config.clone(), &trace)?;
    if args.switch("json") {
        render::json_envelope("run", serde_json::to_value(&report))
    } else if args.switch("quiet") {
        Ok(render::report_brief(&spec, &report))
    } else {
        Ok(render::report_text(&spec, &report))
    }
}

/// Runs `cfg` over `trace`, mapping build and run failures to CLI errors.
fn run_cluster(
    cfg: windserve::ServeConfig,
    trace: &Trace,
) -> Result<(RunReport, TraceLog), ArgError> {
    Cluster::new(cfg)
        .map_err(|e| ArgError(format!("config: {e}")))?
        .run(trace)
        .map_err(|e| ArgError(format!("simulation: {e}")))
}

/// Writes `log` as Chrome `trace_event` JSON to `--out`, if given, and
/// says so.
fn write_out(args: &Args, log: &TraceLog) -> Result<String, ArgError> {
    let Some(path) = args.get("out") else {
        return Ok(String::new());
    };
    std::fs::write(path, log.to_chrome_json())
        .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    Ok(format!(
        "wrote Chrome trace ({} events) to {path}\n",
        log.len()
    ))
}

/// Runs a multi-deployment fleet over one shared GPU pool and prints
/// per-tenant SLO attainment plus per-deployment lease/GPU-seconds
/// accounting. Without `--config` the built-in two-deployment example
/// runs; `--emit-config` prints that example as TOML to start from.
///
/// # Errors
///
/// Reports invalid flags, an invalid fleet config file, or a failed run.
pub(crate) fn fleet(args: &Args) -> Result<String, ArgError> {
    use windserve::fleet::FleetConfig;
    if args.switch("emit-config") {
        return Ok(FleetConfig::example().to_toml());
    }
    let mut cfg = match args.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
            FleetConfig::from_toml(&text).map_err(|e| ArgError(format!("{path}: {e}")))?
        }
        None => FleetConfig::example(),
    };
    if let Some(seed) = args.get_opt::<u64>("seed")? {
        cfg.seed = seed;
    }
    let jobs = args.get_or("jobs", 1usize)?.max(1);
    let fleet = cfg
        .build()
        .map_err(|e| ArgError(format!("fleet config: {e}")))?;
    let (report, log) = fleet
        .run(jobs)
        .map_err(|e| ArgError(format!("fleet: {e}")))?;
    let mut out = write_out(args, &log)?;
    if args.switch("json") {
        return render::json_envelope("fleet", serde_json::to_value(&report));
    }
    out += &render::fleet_text(fleet.config(), &report, &log);
    Ok(out)
}

/// Runs the same workload at every point of a `--vary` grid (see
/// [`grid`]) and tabulates the reports.
///
/// # Errors
///
/// Reports invalid flags, a malformed `--vary`, or a failed simulation.
pub(crate) fn compare(args: &Args) -> Result<String, ArgError> {
    let base = RunSpec::from_args(args)?;
    let grid = grid::parse(args)?;
    // When overload varies, every point replays the generated trace at
    // `--overload-factor` times its rate, in three seeded priority tiers.
    let factor: f64 = args.get_or("overload-factor", 2.0)?;
    let scale = grid
        .iter()
        .any(|(axis, _)| *axis == Axis::Overload)
        .then_some(factor);
    if scale.is_some() && !(factor.is_finite() && factor > 0.0) {
        return Err(ArgError(format!(
            "--overload-factor must be positive, got {factor}"
        )));
    }
    let mut rows = Vec::new();
    for (point, spec) in grid::points(&grid, &base, args)? {
        let mut trace = spec.generate_trace()?;
        if let Some(factor) = scale {
            trace = trace.with_rate_scaled(factor).with_tiers(3, spec.seed);
        }
        rows.push((point, run_cluster(spec.config, &trace)?.0));
    }
    if args.switch("json") {
        render::grid_json(&grid, &rows)
    } else {
        Ok(render::grid_text(&base, &grid, scale, &rows))
    }
}

/// Runs a simulation with full scheduling-trace capture; optionally writes
/// a Chrome `trace_event` JSON file (`--out`, loadable in Perfetto or
/// `chrome://tracing`) and prints a per-request decision audit
/// (`--audit <request-id>`).
///
/// # Errors
///
/// Reports invalid flags, a failed simulation, or an unwritable `--out`.
pub(crate) fn trace(args: &Args) -> Result<String, ArgError> {
    let mut spec = RunSpec::from_args(args)?;
    if let Some(name) = args.get("preset") {
        let (config, dataset) = preset_by_name(name)?;
        spec.dataset = Dataset::by_name(dataset, config.model.max_context)
            .map_err(|e| ArgError(e.to_string()))?;
        spec.arrivals = RunSpec::arrivals_at(args, config.total_rate(spec.rate_per_gpu))?;
        spec.config = config;
    }
    spec.config.trace = TraceMode::Full;
    let trace = spec.generate_trace()?;
    let (report, log) = run_cluster(spec.config.clone(), &trace)?;
    let mut out = write_out(args, &log)?;
    if let Some(id) = args.get_opt::<u64>("audit")? {
        if log.for_request(RequestId(id)).is_empty() {
            return Err(ArgError(format!("no trace events for request {id}")));
        }
        out += &log.audit(RequestId(id));
    } else {
        out += &render::scheduling_trace_text(&spec, &report, &log);
    }
    Ok(out)
}

/// Serves the simulated cluster over live HTTP/SSE: `POST
/// /v1/completions` (streamed or unary), `GET /v1/cluster/status`, and
/// `GET /healthz` on `--port` (0 picks an ephemeral port). The simulated
/// clock runs `--time-scale` times faster than real time. With
/// `--duration` the gateway stops after that long and prints its final
/// accounting (useful for smoke tests); without it, it serves until the
/// process is killed.
///
/// # Errors
///
/// Reports invalid flags, an unbindable port, or an invalid config.
pub(crate) fn serve(args: &Args) -> Result<String, ArgError> {
    use windserve_faults::NetFaultPlan;
    use windserve_gateway::server::{Gateway, GatewayConfig};
    let spec = RunSpec::from_args(args)?;
    let port: u16 = args.get_or("port", 8080u16)?;
    let workers = args.get_or("workers", 4usize)?.max(1);
    let time_scale: f64 = args.get_or("time-scale", 100.0)?;
    if !(time_scale.is_finite() && time_scale > 0.0) {
        return Err(ArgError(format!(
            "--time-scale must be positive, got {time_scale}"
        )));
    }
    // The deadline is fixed before the gateway starts, so one too far off
    // to represent is reported before anything is announced.
    let deadline = match args.secs("duration", false)? {
        Some(secs) => {
            let raw = args.get("duration").unwrap_or_default();
            let too_long = || ArgError(format!("--duration {raw:?} is too long"));
            let run_for = std::time::Duration::try_from_secs_f64(secs).map_err(|_| too_long())?;
            Some(
                std::time::Instant::now()
                    .checked_add(run_for)
                    .ok_or_else(too_long)?,
            )
        }
        None => None,
    };
    let request_timeout_secs = args.secs("request-timeout", false)?;
    let net_faults = match args.get("net-chaos") {
        Some(preset) => {
            let seed: u64 = match args.get("net-fault-seed") {
                Some(_) => args.get_or("net-fault-seed", 0u64)?,
                None => args.get_or("seed", 2766u64)?,
            };
            Some(
                NetFaultPlan::from_preset(preset, seed)
                    .map_err(|e| ArgError(format!("--net-chaos: {e}")))?,
            )
        }
        None if args.get("net-fault-seed").is_some() => {
            return Err(ArgError(
                "--net-fault-seed needs --net-chaos <preset>".to_string(),
            ));
        }
        None => None,
    };
    // Install the SIGTERM handler before anything is announced, so a
    // supervisor that signals the moment it sees liveness always takes
    // the graceful-drain path.
    sigterm::install();
    // Every thread the gateway spawns inherits this thread's timer slack,
    // so each timed wait in the driver and workers wakes on time.
    timer_slack::tighten();
    let gateway = Gateway::start(GatewayConfig {
        cfg: spec.config,
        addr: "127.0.0.1".to_string(),
        port,
        workers,
        time_scale,
        request_timeout_secs,
        net_faults,
    })
    .map_err(|e| ArgError(format!("{e}")))?;
    // The final report goes to stdout on exit; announce liveness on
    // stderr so scripts can wait for the listener.
    eprintln!(
        "windserve gateway listening on http://{} (time-scale {time_scale}x, {workers} workers)",
        gateway.addr()
    );
    let mut terminated = false;
    loop {
        if sigterm::received() {
            terminated = true;
            break;
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    if terminated {
        // Graceful drain: flip health to draining (new requests get a
        // typed 503 + Retry-After), then shutdown, which stops the
        // acceptor and lets the driver run every admitted request to a
        // terminal state at full simulation speed.
        eprintln!("windserve gateway: SIGTERM received, draining");
        gateway.drain();
    }
    let report = gateway.shutdown();
    let d = &report.driver;
    let run = d.run_report.as_ref();
    let value = serde_json::json!({
        "submitted": d.submitted,
        "completed": d.completed,
        "rejected": d.rejected,
        "aborted": d.aborted,
        "deadline_exceeded": d.deadline_exceeded,
        "disconnected": d.disconnected,
        "net_faults": report.net_faults.len(),
        "worker_panics": report.worker_panics,
        "final_health": report.final_health,
        "drained": terminated,
        "prefix_hits": run.map(|r| r.prefix_hits).unwrap_or(0),
        "prefix_misses": run.map(|r| r.prefix_misses).unwrap_or(0),
        "prefix_hit_rate": run.map(|r| r.prefix_hit_rate()).unwrap_or(0.0),
        "error": d.error,
    });
    if args.switch("json") {
        render::json_envelope("serve", value)
    } else {
        let mut out = format!(
            "gateway served {} requests: {} completed, {} rejected, {} aborted, \
             {} deadline-exceeded, {} disconnected\n\
             injected {} net faults | {} worker panics | final health {}\n",
            d.submitted,
            d.completed,
            d.rejected,
            d.aborted,
            d.deadline_exceeded,
            d.disconnected,
            report.net_faults.len(),
            report.worker_panics,
            report.final_health,
        );
        if let Some(r) = run.filter(|r| r.prefix_hits + r.prefix_misses > 0) {
            out += &format!(
                "prefix cache: {} hits / {} misses ({:.1}% hit rate)\n",
                r.prefix_hits,
                r.prefix_misses,
                r.prefix_hit_rate() * 100.0,
            );
        }
        Ok(out)
    }
}

/// SIGTERM-to-flag plumbing for `serve`'s graceful drain. One audited
/// FFI call installs a handler that flips an atomic; the serve wait
/// loop polls the flag. Only async-signal-safe work (a relaxed store)
/// happens inside the handler.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RECEIVED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigterm(_signo: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM handler (idempotent).
    #[allow(unsafe_code)]
    pub(crate) fn install() {
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: `signal` is the libc entry point with this exact
        // signature on every unix target we build for, and the handler
        // only stores to an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }

    /// True once SIGTERM has been delivered.
    pub(crate) fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

/// On non-unix targets the flag never flips; `--duration` (or a hard
/// kill) remains the only way to stop the gateway.
#[cfg(not(unix))]
mod sigterm {
    /// No-op.
    pub(crate) fn install() {}

    /// Always false.
    pub(crate) fn received() -> bool {
        false
    }
}

/// Timer slack for the live paths: Linux delays every timed wait by the
/// thread's slack (50 µs by default), which would make each streamed
/// token land late. One audited FFI call sets it to 1 ns; threads spawned
/// afterwards inherit it.
#[cfg(target_os = "linux")]
mod timer_slack {
    use std::ffi::{c_int, c_ulong};

    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// Sets the calling thread's timer slack to 1 ns.
    #[allow(unsafe_code)]
    pub(crate) fn tighten() {
        // SAFETY: `prctl` is the libc entry point, variadic as declared;
        // `PR_SET_TIMERSLACK` reads one `unsigned long` and touches only
        // the calling thread's timer slack. A failure leaves the default
        // slack, which is harmless.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const PR_GET_TIMERSLACK: c_int = 30;

        #[allow(unsafe_code)]
        fn slack_ns() -> c_int {
            // SAFETY: `PR_GET_TIMERSLACK` takes no argument and only reads
            // the calling thread's timer slack.
            unsafe { prctl(PR_GET_TIMERSLACK) }
        }

        #[test]
        fn slack_is_one_ns_here_and_on_threads_spawned_after() {
            tighten();
            assert_eq!(slack_ns(), 1);
            assert_eq!(std::thread::spawn(slack_ns).join().unwrap(), 1);
        }
    }
}

/// Elsewhere the platform's default timer slack stays.
#[cfg(not(target_os = "linux"))]
mod timer_slack {
    /// No-op.
    pub(crate) fn tighten() {}
}

/// Fires an open-loop Poisson request stream at a running gateway
/// (`--port`, `--rate` req/s for `--duration`) and reports client-side
/// TTFT/TBT percentiles, typed rejections, and goodput.
///
/// # Errors
///
/// Reports invalid flags; per-connection failures are counted in the
/// report instead.
pub(crate) fn loadgen(args: &Args) -> Result<String, ArgError> {
    use windserve_gateway::loadgen::LoadgenConfig;
    let port: u16 = args.get_or("port", 8080u16)?;
    let cfg = LoadgenConfig {
        addr: format!("127.0.0.1:{port}"),
        rate: args.get_or("rate", 20.0)?,
        duration_secs: args.secs("duration", false)?.unwrap_or(5.0),
        prompt_tokens: args.get_or("prompt-tokens", 256u32)?,
        output_tokens: args.get_or("output-tokens", 32u32)?,
        seed: args.get_or("seed", 2766u64)?,
        retries: args.get_or("retries", 0u32)?,
        retry_budget: args.get_or("retry-budget", 0.25f64)?,
    };
    if !(cfg.retry_budget.is_finite() && cfg.retry_budget >= 0.0) {
        return Err(ArgError(format!(
            "--retry-budget must be a non-negative fraction, got {}",
            cfg.retry_budget
        )));
    }
    // The sweep's short socket polls would otherwise oversleep and inflate
    // the TTFT and TBT it reports.
    timer_slack::tighten();
    let report = windserve_gateway::loadgen::run(&cfg).map_err(|e| ArgError(format!("{e}")))?;
    if args.switch("json") {
        return render::json_envelope("loadgen", serde_json::to_value(&report));
    }
    let stat = |p: &windserve::Percentiles, v: f64| {
        if p.is_empty() {
            "n/a".to_string()
        } else {
            format!("{v:.4}s")
        }
    };
    let mut out = format!(
        "loadgen: {} submitted @ {:.1} req/s over {:.1}s wall | peak {} concurrent streams\n\
         completed {} | 429 {} | 503 {} | aborted {} | deadline-exceeded {} | transport errors {}\n\
         TTFT p50 {} p99 {} | TBT p50 {} p99 {}\n\
         goodput {:.3} completions/s\n",
        report.submitted,
        cfg.rate,
        report.wall_secs,
        report.peak_concurrent,
        report.completed,
        report.rejected_429,
        report.rejected_503,
        report.aborted,
        report.deadline_exceeded,
        report.transport_errors,
        stat(&report.ttft, report.ttft.p50),
        stat(&report.ttft, report.ttft.p99),
        stat(&report.tbt, report.tbt.p50),
        stat(&report.tbt, report.tbt.p99),
        report.goodput_rps,
    );
    if cfg.retries > 0 {
        let fa = &report.first_attempt;
        let r = &report.retry;
        out.push_str(&format!(
            "first attempt: {} completed | 429 {} | 503 {} | aborted {} | \
             deadline-exceeded {} | transport errors {}\n\
             retries: {} sent | {} recovered by retry | {} budget-exhausted \
             (budget {:.0}% of submitted)\n",
            fa.completed,
            fa.rejected_429,
            fa.rejected_503,
            fa.aborted,
            fa.deadline_exceeded,
            fa.transport_errors,
            r.retries_sent,
            r.completed_after_retry,
            r.budget_exhausted,
            cfg.retry_budget * 100.0,
        ));
    }
    Ok(out)
}

/// Prints Table 2-style statistics of a generated trace.
///
/// # Errors
///
/// Reports invalid flags.
pub(crate) fn trace_stats(args: &Args) -> Result<String, ArgError> {
    let spec = RunSpec::from_args(args)?;
    let trace = spec.generate_trace()?;
    Ok(render::trace_stats_text(&spec, &trace))
}

/// Prints the calibrated Algorithm 1 budget and profiler fit for a config.
///
/// # Errors
///
/// Reports invalid flags or an infeasible placement.
pub(crate) fn budget(args: &Args) -> Result<String, ArgError> {
    let spec = RunSpec::from_args(args)?;
    let cluster =
        Cluster::new(spec.config.clone()).map_err(|e| ArgError(format!("config: {e}")))?;
    Ok(render::budget_text(&spec, &cluster))
}

/// The help text.
pub(crate) fn help() -> String {
    r#"windserve — phase-disaggregated LLM serving simulator (WindServe, ISCA'25)

USAGE:
    windserve <COMMAND> [FLAGS]

COMMANDS:
    run          simulate one serving run and report latencies
    fleet        run several deployments over one shared GPU pool and
                 report per-tenant SLO attainment and lease accounting
    compare      run the same workload at every point of a grid (--vary)
                 and tabulate the reports
    trace        capture every scheduling decision of a run
    trace-stats  show Table 2-style statistics of a generated trace
    budget       show the calibrated Algorithm 1 budget and profiler fit
    serve        expose the simulated cluster as a live HTTP/SSE gateway
                 (POST /v1/completions, GET /v1/cluster/status, /healthz)
    loadgen      fire an open-loop request stream at a running gateway and
                 report client-side TTFT/TBT percentiles and goodput
    help         this text

COMMON FLAGS (with defaults):
    --model opt-13b|opt-30b|opt-66b|llama2-13b|llama2-70b   [opt-13b]
    --dataset sharegpt|longbench|fixed:<prompt>:<output>    [sharegpt]
    --system windserve|distserve|vllm|no-split|no-resche    [windserve]
    --gpu a800|a100|h100|rtx4090                            [a800]
    --prefill-gpu <gpu>          heterogeneous prefill pool
    --prefill-par TP[xPP]        [2, or 2x2 for 66B/70B]
    --decode-par TP[xPP]
    --prefill-replicas N / --decode-replicas N              [1]
    --nodes N / --split-nodes    multi-node topology
    --rate <req/s/GPU>           [3.0]
    --requests N                 [1000]
    --seed N                     [2766]
    --arrivals poisson|uniform|bursty                       [poisson]
    --thrd <secs>                Algorithm 1 threshold
    --slo-ttft / --slo-tpot <secs>
    --victims longest|shortest   migration victim policy
    --preemption swap|recompute
    --sample                     record time series (100 ms cadence)
    --autoscale                  activate replicas on demand (replica
                                 counts become maximums)
    --min-prefill / --min-decode always-active replicas under --autoscale
    --save-trace <path>          (run) write the generated trace as JSON
    --trace-file <path>          (run) replay a saved trace instead
    --config <file.toml>         (run, fleet) read the configuration from a
                                 TOML file; explicit flags override it
    --jobs N                     (fleet) deployments simulated in parallel;
                                 results are identical for any N [1]
    --emit-config                (fleet) print the example fleet TOML
    --preset <name>              (trace) Table 3/4 operating point:
                                 opt13b-sharegpt, opt66b-sharegpt,
                                 llama2-13b-longbench, llama2-70b-longbench
    --out <path>                 (trace) write Chrome trace_event JSON
                                 (open in Perfetto / chrome://tracing)
    --audit <request-id>         (trace) print one request's decision audit
    --vary <axis>=<v1,v2,...>    (compare, repeatable) a grid axis; several run
                                 as a product, row-major in flag order:
                                 system=<names>, rate=<req/s/GPU>,
                                 faults=none|decode-crash|prefill-crash|
                                 flaky-transfers|degraded-link|chaos,
                                 overload=off|on (every point's trace then
                                 runs at --overload-factor x its rate)
                                 [system=windserve,distserve,vllm]
    --overload                   enable overload control with defaults
    --max-queue N                cap resident (admitted, unfinished) requests
    --max-queued-tokens N        cap queued prefill tokens at admission
    --shed-factor F              shed when predicted TTFT > F x TTFT SLO
    --preempt-watermark F        preempt decodes when KV free fraction < F
    --deadline <secs>            watchdog aborts requests older than this
    --audit-every N              run the cluster invariant auditor every N
                                 events (always once more at drain)
    --overload-factor F          (compare) arrival-rate multiplier [2.0]
    --port N                     (serve, loadgen) gateway TCP port; 0 picks
                                 an ephemeral port [8080]
    --time-scale F               (serve) virtual seconds per wall second [100]
    --workers N                  (serve) HTTP worker threads [4]
    --duration 5s|500ms|2m       (serve) stop after this long and report;
                                 (loadgen) injection window [5s]
    --prompt-tokens N            (loadgen) prompt length per request [256]
    --output-tokens N            (loadgen) tokens streamed per request [32]
    --request-timeout 5s|500ms   (serve) default per-request deadline; a
                                 client x-request-timeout-ms header wins
    --net-chaos <preset>         (serve) inject seeded network faults:
                                 resets, slow-loris, stalled-writes,
                                 worker-panics, driver-stalls, chaos
    --net-fault-seed N           (serve) network-fault plan seed [--seed]
    --retries N                  (loadgen) client retries per request for
                                 429/503/transport errors, with jittered
                                 exponential backoff honoring Retry-After [0]
    --retry-budget F             (loadgen) cap total retries at this
                                 fraction of submitted requests [0.25]
    --json                       machine-readable output
    --quiet                      (run) one-line summary
    --help                       this text
"#
    .to_string()
}

/// Loads a trace from a JSON file previously written with `--save-trace`.
///
/// # Errors
///
/// Reports I/O and parse failures with the path.
pub(crate) fn load_trace(path: &str) -> Result<Trace, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| ArgError(format!("cannot parse {path}: {e}")))
}

/// Writes a trace as JSON.
///
/// # Errors
///
/// Reports I/O failures with the path.
pub(crate) fn save_trace(path: &str, trace: &Trace) -> Result<(), ArgError> {
    let text = serde_json::to_string(trace).map_err(|e| ArgError(format!("serialize: {e}")))?;
    std::fs::write(path, text).map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    /// Parses `--json` output, asserts the shared envelope, and returns
    /// the `report` payload.
    fn envelope(out: &str, command: &str) -> serde_json::Value {
        let v: serde_json::Value = serde_json::from_str(out).expect("valid json");
        assert_eq!(
            v["schema_version"].as_u64(),
            Some(windserve_gateway::ENVELOPE_SCHEMA_VERSION),
            "every --json output shares one envelope"
        );
        assert_eq!(v["command"].as_str(), Some(command));
        v["report"].clone()
    }

    #[test]
    fn run_produces_a_report() {
        let out = run(&args("run --requests 120 --rate 2")).unwrap();
        assert!(out.contains("TTFT"));
        assert!(out.contains("WindServe"));
    }

    #[test]
    fn split_node_overflow_is_an_invalid_configuration() {
        let err = run(&args("run --nodes 2 --split-nodes --prefill-replicas 5")).unwrap_err();
        assert!(err.0.starts_with("invalid configuration"), "{}", err.0);
    }

    #[test]
    fn run_json_is_valid_json() {
        let out = run(&args("run --requests 80 --rate 2 --json")).unwrap();
        let report = envelope(&out, "run");
        assert_eq!(report["summary"]["completed"], 80);
    }

    /// The rows of a `compare --json` grid.
    fn grid_rows(out: &str) -> Vec<serde_json::Value> {
        envelope(out, "compare")["rows"].as_array().unwrap().clone()
    }

    #[test]
    fn compare_includes_all_requested_systems() {
        let out = compare(&args(
            "compare --requests 80 --rate 2 --vary system=windserve,distserve",
        ))
        .unwrap();
        assert!(out.contains("windserve"));
        assert!(out.contains("distserve"));
        assert!(!out.contains("vllm"));
        // Without --vary the grid is the three systems.
        let out = compare(&args("compare --requests 40 --rate 2 --json")).unwrap();
        let axes = &envelope(&out, "compare")["axes"];
        assert_eq!(axes[0]["name"], "system");
        assert_eq!(
            axes[0]["values"],
            serde_json::json!(["windserve", "distserve", "vllm"])
        );
        let labels: Vec<_> = grid_rows(&out)
            .iter()
            .map(|r| r["report"]["system"].clone())
            .collect();
        assert_eq!(
            labels,
            ["WindServe", "DistServe", "VllmColocated"].map(serde_json::Value::from)
        );
    }

    #[test]
    fn sweep_emits_one_row_per_rate() {
        let out = compare(&args("compare --requests 60 --vary rate=1,2")).unwrap();
        let rows: Vec<_> = (out.lines().map(str::trim_start))
            .filter(|l| l.starts_with(['1', '2']))
            .collect();
        assert_eq!(rows.len(), 2, "{out}");
        assert!(
            out.contains("TTFT p50") && out.contains("completed"),
            "{out}"
        );
        // Fault and overload columns appear only when their axis varies.
        assert!(
            !out.contains("injected") && !out.contains("peak queue"),
            "{out}"
        );
    }

    #[test]
    fn sweep_and_trace_presets_honour_the_arrival_process() {
        let flags = "--requests 40 --arrivals uniform --json";
        let grid = compare(&args(&format!(
            "compare --vary system=windserve,distserve --vary rate=1,2 {flags}"
        )))
        .unwrap();
        let rows = grid_rows(&grid);
        assert_eq!(rows.len(), 4);
        // Row-major in flag order: the last axis varies fastest.
        let points = [("windserve", "1"), ("windserve", "2")]
            .into_iter()
            .chain([("distserve", "1"), ("distserve", "2")]);
        for (row, (system, rate)) in rows.iter().zip(points) {
            assert_eq!(
                row["point"],
                serde_json::json!({ "system": system, "rate": rate })
            );
            let single = run(&args(&format!(
                "run --system {system} --rate {rate} {flags}"
            )))
            .unwrap();
            assert_eq!(row["report"], envelope(&single, "run"), "{system} @ {rate}");
        }
        let none = compare(&args(&format!(
            "compare --vary faults=none --rate 2 {flags}"
        )))
        .unwrap();
        let single = run(&args(&format!("run --rate 2 {flags}"))).unwrap();
        assert_eq!(grid_rows(&none)[0]["report"], envelope(&single, "run"));
        // The preset is the default deployment, so only the arrivals could
        // tell the two traces apart.
        let preset = trace(&args(
            "trace --requests 40 --arrivals uniform --preset opt13b-sharegpt",
        ))
        .unwrap();
        let flags = trace(&args("trace --requests 40 --arrivals uniform")).unwrap();
        assert_eq!(preset, flags);
    }

    #[test]
    fn trace_stats_reports_medians() {
        let out = trace_stats(&args("trace-stats --requests 5000")).unwrap();
        assert!(out.contains("median"));
    }

    #[test]
    fn budget_reports_tokens_and_fit() {
        let out = budget(&args("budget")).unwrap();
        assert!(out.contains("budget"));
        assert!(out.contains("tokens"));
    }

    #[test]
    fn faults_compares_against_fault_free_baseline() {
        let out = compare(&args(
            "compare --vary faults=none,decode-crash --requests 120 --rate 2 --seed 11",
        ))
        .unwrap();
        for column in ["injected", "rescheduled", "backup hits", "transfer retries"] {
            assert!(out.contains(column), "{out}");
        }
        let row = |point: &str| {
            let line = out
                .lines()
                .find(|l| l.trim_start().starts_with(point))
                .unwrap();
            line.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        };
        // `completed` is the eighth column; `injected` follows it.
        let (none, crash) = (row("none "), row("decode-crash "));
        assert_eq!((none[7].as_str(), none[8].as_str()), ("120", "0"), "{out}");
        assert_eq!(crash[7], "120", "{out}");
        assert_ne!(crash[8], "0", "{out}");
    }

    #[test]
    fn faults_flaky_preset_retries_and_completes() {
        let out = compare(&args(
            "compare --vary faults=decode-crash,flaky-transfers --requests 100 --rate 2 --json",
        ))
        .unwrap();
        let rows = grid_rows(&out);
        for row in &rows {
            assert_eq!(
                row["report"]["summary"]["completed"], 100,
                "{}",
                row["point"]
            );
        }
        assert!(rows[1]["report"]["transfer_retries"].as_u64().unwrap() > 0);
    }

    #[test]
    fn faults_unknown_preset_is_a_clean_error() {
        let err = compare(&args(
            "compare --vary faults=none,meteor-strike --requests 10",
        ))
        .unwrap_err();
        assert!(err.0.contains("meteor-strike"), "{err}");
        assert!(err.0.contains("decode-crash"), "{err}");
    }

    #[test]
    fn faults_json_carries_both_reports() {
        let out = compare(&args(
            "compare --vary faults=none,degraded-link --requests 60 --rate 2 --json",
        ))
        .unwrap();
        let v = envelope(&out, "compare");
        assert_eq!(v["axes"][0]["name"], "faults");
        let rows = grid_rows(&out);
        assert_eq!(rows[1]["point"]["faults"], "degraded-link");
        assert_eq!(rows[0]["report"]["summary"]["completed"], 60);
        assert_eq!(rows[1]["report"]["summary"]["completed"], 60);
    }

    #[test]
    fn overload_compares_against_uncontrolled_baseline() {
        let out = compare(&args(
            "compare --vary overload=off,on --requests 150 --rate 4 --seed 7",
        ))
        .unwrap();
        assert!(out.contains("2.0x its rate in 3 priority tiers"), "{out}");
        for column in [
            "peak queue",
            "rejected",
            "shed",
            "preempted",
            "aborts",
            "audits",
        ] {
            assert!(out.contains(column), "{out}");
        }
        let points: Vec<_> = out
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(points.ends_with(&["overload", "off", "on"]), "{out}");
    }

    #[test]
    fn overload_json_carries_both_reports() {
        let out = compare(&args(
            "compare --vary overload=off,on --requests 100 --rate 4 --json",
        ))
        .unwrap();
        let rows = grid_rows(&out);
        let (off, on) = (&rows[0]["report"], &rows[1]["report"]);
        assert_eq!(rows[1]["point"]["overload"], "on");
        // The demo bundle arms the auditor on `on` only.
        assert_eq!(off["invariant_checks"], 0);
        assert!(on["invariant_checks"].as_u64().unwrap() > 0);
    }

    #[test]
    fn overload_rejects_bad_factor_and_tiers() {
        let err =
            compare(&args("compare --vary overload=off,on --overload-factor -2")).unwrap_err();
        assert!(err.0.contains("--overload-factor"), "{err}");
        // The tier count is the constant 3 now.
        let err = Args::parse("compare --tiers 0".split(' ').map(String::from)).unwrap_err();
        assert!(err.0.starts_with("unknown flag --tiers"), "{err}");
    }

    #[test]
    fn overload_flags_flow_into_the_controlled_config() {
        // A hard queue cap must bound the peak queue depth reported.
        let out = compare(&args(
            "compare --vary overload=off,on --requests 120 --rate 4 --max-queue 24 --json",
        ))
        .unwrap();
        let on = &grid_rows(&out)[1]["report"];
        let peak = on["peak_pending"].as_u64().unwrap();
        assert!(peak <= 24, "peak_pending {peak} exceeds --max-queue 24");
        assert!(on["requests_rejected"].as_u64().unwrap() > 0);
    }

    #[test]
    fn help_text_and_flag_registries_stay_in_sync() {
        let help = help();
        for name in crate::args::SWITCHES.iter().chain(crate::args::VALUE_FLAGS) {
            assert!(
                help.contains(&format!("--{name}")),
                "--{name} is registered in args.rs but missing from the help text"
            );
        }
        for token in help.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if let Some(name) = token.strip_prefix("--") {
                if name.is_empty() {
                    continue;
                }
                assert!(
                    crate::args::SWITCHES.contains(&name)
                        || crate::args::VALUE_FLAGS.contains(&name),
                    "help text mentions --{name}, which is not registered in args.rs"
                );
            }
        }
    }

    #[test]
    fn quiet_run_is_one_line() {
        let out = run(&args("run --requests 60 --rate 2 --quiet")).unwrap();
        assert_eq!(out.trim_end().lines().count(), 1, "{out}");
        assert!(out.contains("SLO"));
    }

    /// Writes the small fleet config to a file of its own per `test`, so
    /// tests running in parallel never read a file another is rewriting.
    fn small_fleet_toml(test: &str) -> String {
        let dir = std::env::temp_dir().join("windserve-cli-fleet-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{test}-{}.toml", std::process::id()));
        std::fs::write(
            &path,
            r#"
seed = 5
[[deployments]]
name = "a"
expansion_units = 0
[[deployments.tenants]]
name = "t-a"
dataset = "fixed:64:8"
rate = 6.0
requests = 30
tier = 0
[[deployments]]
name = "b"
expansion_units = 0
[[deployments.tenants]]
name = "t-b"
dataset = "fixed:64:8"
rate = 3.0
requests = 20
tier = 1
"#,
        )
        .unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn fleet_emit_config_prints_the_example_toml() {
        let out = fleet(&args("fleet --emit-config")).unwrap();
        assert!(out.contains("[[deployments]]"), "{out}");
        assert!(out.contains("chatbot"));
        assert!(out.contains("[[deployments.tenants]]"));
    }

    #[test]
    fn fleet_reports_per_tenant_slo_attainment() {
        let path = small_fleet_toml("per-tenant");
        let out = fleet(&args(&format!("fleet --config {path}"))).unwrap();
        assert!(out.contains("SLO both"), "{out}");
        assert!(out.contains("t-a"));
        assert!(out.contains("t-b"));
        assert!(out.contains("balanced"));
    }

    #[test]
    fn fleet_json_is_identical_across_job_counts() {
        let path = small_fleet_toml("job-counts");
        let seq = fleet(&args(&format!("fleet --config {path} --jobs 1 --json"))).unwrap();
        let par = fleet(&args(&format!("fleet --config {path} --jobs 4 --json"))).unwrap();
        assert_eq!(seq, par, "fleet report must not depend on --jobs");
        let v = envelope(&seq, "fleet");
        assert_eq!(v["tenants"].as_array().unwrap().len(), 2);
        assert_eq!(v["pool"]["balanced"], true);
    }

    #[test]
    fn rates_parser_rejects_garbage() {
        for bad in ["1,2,x", "-1", "0", "nan", "inf"] {
            let err = compare(&args(&format!("compare --vary rate={bad}"))).unwrap_err();
            assert!(err.0.starts_with("bad rate"), "{bad}: {err}");
        }
        let out = compare(&args("compare --requests 10 --vary rate=1,2.5 --json")).unwrap();
        let axes = &envelope(&out, "compare")["axes"];
        assert_eq!(axes[0]["values"], serde_json::json!(["1", "2.5"]));
    }

    #[test]
    fn durations_parse_with_units() {
        // `None` marks a rejected value. `serve`'s `--duration` and
        // `--request-timeout` (and `loadgen`'s `--duration`) reject zero;
        // `--thrd`, `--slo-ttft`, `--slo-tpot` and `--deadline` take it.
        let cases: [(&str, Option<f64>, Option<f64>); 14] = [
            ("500ms", Some(0.5), Some(0.5)),
            ("5s", Some(5.0), Some(5.0)),
            ("2m", Some(120.0), Some(120.0)),
            ("1.5", Some(1.5), Some(1.5)),
            ("0.25", Some(0.25), Some(0.25)),
            ("1e3", Some(1000.0), Some(1000.0)),
            ("+2", Some(2.0), Some(2.0)),
            ("0", None, Some(0.0)),
            ("0s", None, Some(0.0)),
            ("fast", None, None),
            ("-3s", None, None),
            ("-1", None, None),
            ("inf", None, None),
            ("nan", None, None),
        ];
        for (raw, positive, non_negative) in cases {
            for (flag, zero_ok, want) in [
                ("duration", false, positive),
                ("request-timeout", false, positive),
                ("thrd", true, non_negative),
                ("slo-ttft", true, non_negative),
                ("slo-tpot", true, non_negative),
                ("deadline", true, non_negative),
            ] {
                let got = args(&format!("serve --{flag} {raw}")).secs(flag, zero_ok);
                match want {
                    Some(secs) => assert_eq!(got.unwrap(), Some(secs), "--{flag} {raw}"),
                    None => assert!(got.is_err(), "--{flag} {raw} must be rejected"),
                }
            }
        }
        assert_eq!(args("serve").secs("duration", false).unwrap(), None);
    }

    #[test]
    fn serve_with_a_duration_runs_and_reports_the_envelope() {
        // Port 0 → ephemeral, so the test never collides with a real server.
        let out = serve(&args("serve --port 0 --duration 200ms --json")).unwrap();
        let v = envelope(&out, "serve");
        assert_eq!(v["submitted"].as_u64(), Some(0));
        assert_eq!(v["deadline_exceeded"].as_u64(), Some(0));
        assert_eq!(v["net_faults"].as_u64(), Some(0));
        assert_eq!(v["worker_panics"].as_u64(), Some(0));
        assert_eq!(v["final_health"].as_str(), Some("healthy"));
        assert!(v["error"].is_null(), "{v:?}");
    }

    #[test]
    fn serve_accepts_a_net_chaos_preset_and_reports_injected_faults() {
        let out = serve(&args(
            "serve --port 0 --duration 200ms --net-chaos chaos --net-fault-seed 7 --json",
        ))
        .unwrap();
        let v = envelope(&out, "serve");
        assert!(v["error"].is_null(), "{v:?}");
        assert_eq!(v["final_health"].as_str(), Some("healthy"));
    }

    #[test]
    fn serve_rejects_an_unknown_chaos_preset_and_an_orphan_fault_seed() {
        let err = serve(&args("serve --port 0 --duration 1s --net-chaos banana")).unwrap_err();
        assert!(err.0.contains("--net-chaos"), "{err}");
        let err = serve(&args("serve --port 0 --duration 1s --net-fault-seed 7")).unwrap_err();
        assert!(err.0.contains("--net-fault-seed"), "{err}");
    }

    #[test]
    fn serve_rejects_a_nonpositive_time_scale() {
        let err = serve(&args("serve --port 0 --duration 1s --time-scale -4")).unwrap_err();
        assert!(err.0.contains("--time-scale"), "{err}");
    }

    #[test]
    fn loadgen_command_measures_a_live_gateway() {
        let mut gc = windserve_gateway::server::GatewayConfig::local(
            windserve::ServeConfig::opt_13b_sharegpt(windserve::SystemKind::WindServe),
        );
        gc.time_scale = 1000.0;
        let gw = windserve_gateway::server::Gateway::start(gc).unwrap();
        let port = gw.addr().port();
        let out = loadgen(&args(&format!(
            "loadgen --port {port} --rate 40 --duration 500ms \
             --prompt-tokens 48 --output-tokens 4 --json"
        )))
        .unwrap();
        let v = envelope(&out, "loadgen");
        assert!(v["submitted"].as_u64().unwrap() > 0);
        assert!(v["completed"].as_u64().unwrap() > 0, "{v:?}");
        assert_eq!(v["transport_errors"].as_u64(), Some(0), "{v:?}");
        let text = loadgen(&args(&format!(
            "loadgen --port {port} --rate 20 --duration 200ms \
             --prompt-tokens 48 --output-tokens 4"
        )))
        .unwrap();
        assert!(text.contains("goodput"), "{text}");
        // --retries adds the first-attempt/retry breakdown to the text.
        let text = loadgen(&args(&format!(
            "loadgen --port {port} --rate 20 --duration 200ms \
             --prompt-tokens 48 --output-tokens 4 --retries 2"
        )))
        .unwrap();
        assert!(text.contains("first attempt:"), "{text}");
        assert!(text.contains("retries:"), "{text}");
        gw.shutdown();
    }

    #[test]
    fn loadgen_against_a_dead_port_counts_transport_errors() {
        // Bind-then-drop guarantees the port is closed, not filtered.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = dead.local_addr().unwrap().port();
        drop(dead);
        let out = loadgen(&args(&format!(
            "loadgen --port {port} --rate 50 --duration 200ms --json"
        )))
        .unwrap();
        let v = envelope(&out, "loadgen");
        assert_eq!(v["completed"].as_u64(), Some(0));
        assert!(v["transport_errors"].as_u64().unwrap() > 0, "{v:?}");
    }
}

#[cfg(test)]
mod trace_io_tests {
    use super::*;

    #[test]
    fn traces_round_trip_through_files() {
        let dir = std::env::temp_dir().join("windserve-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let path = path.to_str().unwrap();
        let a = args_line(&format!("run --requests 60 --rate 2 --save-trace {path}"));
        let first = run(&a).unwrap();
        // Re-running from the file reproduces the identical report.
        let b = args_line(&format!("run --requests 999 --trace-file {path}"));
        let second = run(&b).unwrap();
        // The header echoes the (unused) flag defaults; the simulation body
        // must be identical.
        let body = |s: &str| {
            s.split_once('\n')
                .map(|(_, rest)| rest.to_string())
                .unwrap()
        };
        assert_eq!(
            body(&first),
            body(&second),
            "file-replayed trace must be identical"
        );
        let trace = load_trace(path).unwrap();
        assert_eq!(trace.requests().len(), 60);
    }

    #[test]
    fn missing_trace_file_is_a_clean_error() {
        let a = args_line("run --trace-file /nonexistent/trace.json");
        let err = run(&a).unwrap_err();
        assert!(err.0.contains("/nonexistent/trace.json"));
    }

    fn args_line(line: &str) -> crate::args::Args {
        crate::args::Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }
}
