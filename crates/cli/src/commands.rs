//! CLI subcommands.

use crate::args::{ArgError, Args};
use crate::build::{preset_by_name, system_by_name, RunSpec};
use crate::render;
use windserve::{Cluster, FaultPlan, RequestId, RunReport, TraceMode};
use windserve_engine::InstanceRole;
use windserve_sim::SimDuration;
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
    let report = run_cluster(spec.config.clone(), &trace)?;
    if args.switch("json") {
        render::report_json(&report)
    } else if args.switch("quiet") {
        Ok(render::report_brief(&spec, &report))
    } else {
        Ok(render::report_text(&spec, &report))
    }
}

/// Runs `cfg` over `trace`, mapping build and run failures to CLI errors.
fn run_cluster(cfg: windserve::ServeConfig, trace: &Trace) -> Result<RunReport, ArgError> {
    Cluster::new(cfg)
        .map_err(|e| ArgError(format!("config: {e}")))?
        .run(trace)
        .map(|(report, _)| report)
        .map_err(|e| ArgError(format!("simulation: {e}")))
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
    let mut out = String::new();
    if let Some(path) = args.get("out") {
        std::fs::write(path, log.to_chrome_json())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        out += &format!("wrote Chrome trace ({} events) to {path}\n", log.len());
    }
    if args.switch("json") {
        return render::fleet_json(&report);
    }
    out += &render::fleet_text(fleet.config(), &report, &log);
    Ok(out)
}

/// Runs the same workload under several systems and prints a comparison.
///
/// # Errors
///
/// Reports invalid flags or a failed simulation.
pub(crate) fn compare(args: &Args) -> Result<String, ArgError> {
    let base = RunSpec::from_args(args)?;
    let systems: Vec<&str> = match args.get("systems") {
        Some(list) => list.split(',').collect(),
        None => vec!["windserve", "distserve", "vllm"],
    };
    let mut rows = Vec::new();
    for name in systems {
        let mut spec = base.clone();
        spec.config.system = system_by_name(name.trim())?;
        let report = execute(&spec)?;
        rows.push(report);
    }
    if args.switch("json") {
        render::reports_json(&rows)
    } else {
        Ok(render::comparison_text(&base, &rows))
    }
}

/// Sweeps the per-GPU rate and prints one row per operating point.
///
/// # Errors
///
/// Reports invalid flags or a failed simulation.
pub(crate) fn sweep(args: &Args) -> Result<String, ArgError> {
    let base = RunSpec::from_args(args)?;
    if base.config.workload.is_some() {
        return Err(ArgError(
            "sweep varies the arrival rate, which a [workload.scenario] config fixes; \
             drop the [workload] section to sweep"
                .into(),
        ));
    }
    let rates = parse_rates(args.get("rates").unwrap_or("1,2,3,4,5"))?;
    let mut rows = Vec::new();
    for rate in rates {
        let mut spec = base.clone();
        spec.rate_per_gpu = rate;
        // Rebuild the arrival process at the new rate.
        spec.arrivals = RunSpec::arrivals_at(args, spec.config.total_rate(rate))?;
        let report = execute(&spec)?;
        rows.push((rate, report));
    }
    if args.switch("json") {
        render::sweep_json(&rows)
    } else {
        Ok(render::sweep_text(&base, &rows))
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
    let (report, log) = Cluster::new(spec.config.clone())
        .map_err(|e| ArgError(format!("config: {e}")))?
        .run(&trace)
        .map_err(|e| ArgError(format!("simulation: {e}")))?;
    let mut out = String::new();
    if let Some(path) = args.get("out") {
        std::fs::write(path, log.to_chrome_json())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        out += &format!("wrote Chrome trace ({} events) to {path}\n", log.len());
    }
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

/// Runs the same workload with and without an injected fault plan and
/// prints the degradation: goodput, latency tails, and the recovery
/// actions the cluster took (reschedules, retries, backup hits).
///
/// # Errors
///
/// Reports invalid flags or a failed simulation.
pub(crate) fn faults(args: &Args) -> Result<String, ArgError> {
    let base = RunSpec::from_args(args)?;
    let preset = args.get("preset").unwrap_or("decode-crash");
    let fault_seed = args.get_or("fault-seed", base.seed)?;
    // Faults are placed relative to the expected span of the arrival
    // schedule so crash/recover land mid-run at any --rate/--requests.
    let horizon =
        SimDuration::from_secs_f64(base.requests as f64 / base.arrivals.mean_rate().max(1e-9));
    // Colocated replicas all serve both phases, so replica 0 stands in for
    // the first decode replica.
    let first_decode = base
        .config
        .layout()
        .map_err(|e| ArgError(format!("invalid configuration: {e}")))?
        .iter()
        .position(|r| r.role == InstanceRole::Decode)
        .unwrap_or(0) as u32;
    let plan = FaultPlan::from_preset(preset, first_decode, horizon, fault_seed)
        .map_err(|e| ArgError(format!("--preset: {e}")))?;
    let trace = base.generate_trace()?;
    let baseline = run_cluster(base.config.clone(), &trace)?;
    let mut faulted_cfg = base.config.clone();
    faulted_cfg.faults = Some(plan);
    let faulted = run_cluster(faulted_cfg, &trace)?;
    if args.switch("json") {
        return render::json_envelope(
            "faults",
            serde_json::json!({
                "preset": preset,
                "fault_seed": fault_seed,
                "baseline": baseline,
                "faulted": faulted,
            }),
        );
    }
    let mut out = format!(
        "fault preset {preset:?} (seed {fault_seed}) | {} | {} requests\n\n",
        base.config.model.name, base.requests,
    );
    out += &format!(
        "{:<12} {:>9} {:>10} {:>10} {:>10} {:>9}\n",
        "", "goodput", "TTFT p50", "TTFT p99", "TPOT p99", "SLO both"
    );
    for (label, r) in [("fault-free", &baseline), ("faulted", &faulted)] {
        out += &format!(
            "{:<12} {:>9.3} {:>10.4} {:>10.4} {:>10.4} {:>8.1}%\n",
            label,
            r.goodput(),
            r.summary.ttft.p50,
            r.summary.ttft.p99,
            r.summary.tpot.p99,
            r.summary.slo.both * 100.0,
        );
    }
    out += &format!(
        "\nrecovery: {} faults injected | {} requests rescheduled \
         ({} backup hits) | {} transfer retries\n\
         completed {}/{} requests\n",
        faulted.faults_injected,
        faulted.requests_rescheduled,
        faulted.backup_hits,
        faulted.transfer_retries,
        faulted.summary.completed,
        base.requests,
    );
    Ok(out)
}

/// Drives the same workload at an overload rate (default 2x) with and
/// without overload control and prints the comparison: goodput, latency
/// tails, peak queue depth, and the typed outcomes of every request that
/// did not complete (rejected, shed, preempted, watchdog-aborted).
///
/// # Errors
///
/// Reports invalid flags or a failed simulation.
pub(crate) fn overload(args: &Args) -> Result<String, ArgError> {
    let base = RunSpec::from_args(args)?;
    let factor: f64 = args.get_or("overload-factor", 2.0)?;
    if !(factor.is_finite() && factor > 0.0) {
        return Err(ArgError(format!(
            "--overload-factor must be positive, got {factor}"
        )));
    }
    let tiers: u8 = args.get_or("tiers", 3u8)?;
    if tiers == 0 {
        return Err(ArgError("--tiers must be at least 1".into()));
    }
    let trace = base
        .generate_trace()?
        .with_rate_scaled(factor)
        .with_tiers(tiers, base.seed);
    let mut controlled_cfg = base.config.clone();
    if controlled_cfg.overload.is_none() {
        // No overload flags given: defaults plus pressure preemption and a
        // periodic audit, so every subsystem participates in the demo.
        controlled_cfg.overload = Some(windserve::OverloadConfig {
            preempt_kv_watermark: Some(0.05),
            audit_interval_events: Some(10_000),
            ..Default::default()
        });
    }
    let mut baseline_cfg = base.config.clone();
    baseline_cfg.overload = None;
    let baseline = run_cluster(baseline_cfg, &trace)?;
    let controlled = run_cluster(controlled_cfg, &trace)?;
    if args.switch("json") {
        return render::json_envelope(
            "overload",
            serde_json::json!({
                "overload_factor": factor,
                "tiers": tiers,
                "baseline": baseline,
                "controlled": controlled,
            }),
        );
    }
    Ok(render::overload_text(&base, factor, &baseline, &controlled))
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
    compare      run the same workload under several systems
    sweep        sweep the per-GPU request rate
    trace        capture every scheduling decision of a run
    trace-stats  show Table 2-style statistics of a generated trace
    budget       show the calibrated Algorithm 1 budget and profiler fit
    faults       inject a fault preset and compare against the fault-free run
    overload     drive the workload past capacity and compare overload
                 control (admit/shed/preempt/watchdog) against no control
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
    --systems a,b,c              (compare) systems to compare
    --rates 1,2,3                (sweep) per-GPU rates
    --preset <name>              (faults) decode-crash, prefill-crash,
                                 flaky-transfers, degraded-link, chaos
                                 [decode-crash]
    --fault-seed N               (faults) fault-plan seed [--seed]
    --overload                   enable overload control with defaults
    --max-queue N                cap resident (admitted, unfinished) requests
    --max-queued-tokens N        cap queued prefill tokens at admission
    --shed-factor F              shed when predicted TTFT > F x TTFT SLO
    --preempt-watermark F        preempt decodes when KV free fraction < F
    --deadline <secs>            watchdog aborts requests older than this
    --audit-every N              run the cluster invariant auditor every N
                                 events (always once more at drain)
    --overload-factor F          (overload) arrival-rate multiplier [2.0]
    --tiers N                    (overload) priority tiers to assign [3]
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

fn execute(spec: &RunSpec) -> Result<RunReport, ArgError> {
    let trace = spec.generate_trace()?;
    run_cluster(spec.config.clone(), &trace)
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

fn parse_rates(spec: &str) -> Result<Vec<f64>, ArgError> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r > 0.0)
                .ok_or_else(|| ArgError(format!("bad rate {s:?}")))
        })
        .collect()
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

    #[test]
    fn compare_includes_all_requested_systems() {
        let out = compare(&args(
            "compare --requests 80 --rate 2 --systems windserve,distserve",
        ))
        .unwrap();
        assert!(out.contains("WindServe"));
        assert!(out.contains("DistServe"));
        assert!(!out.contains("vLLM"));
    }

    #[test]
    fn sweep_emits_one_row_per_rate() {
        let out = sweep(&args("sweep --requests 60 --rates 1,2")).unwrap();
        let rows = out.lines().filter(|l| l.contains("req/s")).count();
        assert!(rows >= 2, "{out}");
    }

    #[test]
    fn sweep_and_trace_presets_honour_the_arrival_process() {
        let swept = sweep(&args(
            "sweep --requests 40 --rates 2 --arrivals uniform --json",
        ))
        .unwrap();
        let single = run(&args(
            "run --requests 40 --rate 2 --arrivals uniform --json",
        ))
        .unwrap();
        assert_eq!(
            envelope(&swept, "sweep")[0]["report"],
            envelope(&single, "run")
        );
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
        let out = faults(&args(
            "faults --preset decode-crash --requests 120 --rate 2 --seed 11",
        ))
        .unwrap();
        assert!(out.contains("fault-free"));
        assert!(out.contains("faulted"));
        assert!(out.contains("faults injected"));
        assert!(out.contains("completed 120/120"), "{out}");
    }

    #[test]
    fn faults_flaky_preset_retries_and_completes() {
        let out = faults(&args(
            "faults --preset flaky-transfers --requests 100 --rate 2",
        ))
        .unwrap();
        assert!(out.contains("transfer retries"));
        assert!(out.contains("completed 100/100"), "{out}");
    }

    #[test]
    fn faults_unknown_preset_is_a_clean_error() {
        let err = faults(&args("faults --preset meteor-strike --requests 10")).unwrap_err();
        assert!(err.0.contains("meteor-strike"));
        assert!(err.0.contains("decode-crash"));
    }

    #[test]
    fn faults_json_carries_both_reports() {
        let out = faults(&args(
            "faults --preset degraded-link --requests 60 --rate 2 --json",
        ))
        .unwrap();
        let v = envelope(&out, "faults");
        assert_eq!(v["preset"], "degraded-link");
        assert_eq!(v["baseline"]["summary"]["completed"], 60);
        assert_eq!(v["faulted"]["summary"]["completed"], 60);
    }

    #[test]
    fn overload_compares_against_uncontrolled_baseline() {
        let out = overload(&args("overload --requests 150 --rate 4 --seed 7")).unwrap();
        assert!(out.contains("uncontrolled"));
        assert!(out.contains("controlled"));
        assert!(out.contains("invariant auditor"));
        assert!(out.contains("typed outcomes"));
    }

    #[test]
    fn overload_json_carries_both_reports() {
        let out = overload(&args("overload --requests 100 --rate 4 --json")).unwrap();
        let v = envelope(&out, "overload");
        assert!(v["overload_factor"].as_f64().unwrap() > 1.9);
        assert!(v["baseline"]["summary"].as_object().is_some());
        assert!(v["controlled"]["summary"].as_object().is_some());
    }

    #[test]
    fn overload_rejects_bad_factor_and_tiers() {
        let err = overload(&args("overload --overload-factor -2")).unwrap_err();
        assert!(err.0.contains("--overload-factor"));
        let err = overload(&args("overload --tiers 0")).unwrap_err();
        assert!(err.0.contains("--tiers"));
    }

    #[test]
    fn overload_flags_flow_into_the_controlled_config() {
        // A hard queue cap must bound the peak queue depth reported.
        let out = overload(&args(
            "overload --requests 120 --rate 4 --max-queue 24 --json",
        ))
        .unwrap();
        let v = envelope(&out, "overload");
        let peak = v["controlled"]["peak_pending"].as_u64().unwrap();
        assert!(peak <= 24, "peak_pending {peak} exceeds --max-queue 24");
        assert!(v["controlled"]["requests_rejected"].as_u64().unwrap() > 0);
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
        assert!(parse_rates("1,2,x").is_err());
        assert!(parse_rates("-1").is_err());
        assert_eq!(parse_rates("1, 2.5").unwrap(), vec![1.0, 2.5]);
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
