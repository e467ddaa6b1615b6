//! The three simulator workloads, driven in-process through the public
//! session API only: `Scenario::generate` → `Cluster::new` →
//! `into_session` → `inject` / `pump_until` / `pump_to_drain` → `finish`.

use crate::output::{Metrics, Outcome};
use crate::probe::{HostProbe, NOMINAL_PASS_SECS};
use crate::spans::Spans;
use crate::stats;
use serde_json::Value;
use std::fmt::Write as _;
use std::time::Instant;
use windserve::{
    ArrivalProcess, Cluster, ClusterSession, Dataset, DatasetSpec, PrefixCacheConfig, RunReport,
    Scenario, ServeConfig, SessionsScenario, SystemKind, Trace, TraceMode,
};
use windserve_gpu::Topology;
use windserve_sim::SimTime;

/// Timed repetitions per run, at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// How strongly set-up time follows the host probe: a host that slows the
/// probe by `h` slows `Scenario::generate` + `Cluster::new` by about
/// `h^0.5`, and the replays by about `h` (fitted over host slowdowns of
/// 1.0x to 2.7x; `NOISE.md`).
const SETUP_EXPONENT: f64 = 0.5;

/// Backlog bands for the per-event cost: slices that start with fewer
/// resident requests than `LO`, or at least `HI`.
const BACKLOG_LO: usize = 256;
const BACKLOG_HI: usize = 4096;

/// Virtual length of the traced run's `pump_until` slices.
const TRACE_SLICE_US: u64 = 10_000_000;

/// A condition the workload's output must meet for the workload to still
/// exercise the layer it was chosen for.
#[derive(Debug, Clone, Copy)]
enum Regime {
    PeakPendingBelow(f64),
    PeakPendingAtLeast(f64),
    PrefixHitRateAtLeast(f64),
}

#[derive(Debug)]
pub struct SimWorkload {
    pub name: &'static str,
    config: fn() -> ServeConfig,
    /// The scenario at full size, or at a tiny size for `--smoke`.
    scenario: fn(&ServeConfig, bool) -> Scenario,
    regime: Regime,
}

pub const WORKLOADS: [SimWorkload; 3] = [
    SimWorkload {
        name: "sharegpt_steady",
        config: || ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
        scenario: |cfg, smoke| {
            Scenario::single_shot(
                Dataset::sharegpt(2048),
                // 4 req/s per GPU: the middle rate of the Fig. 10 sweep.
                ArrivalProcess::poisson(cfg.total_rate(4.0)),
                if smoke { 400 } else { 40_000 },
            )
        },
        regime: Regime::PeakPendingBelow(1024.0),
    },
    SimWorkload {
        name: "longbench_overload",
        config: || ServeConfig::llama2_13b_longbench(SystemKind::WindServe),
        scenario: |cfg, smoke| {
            Scenario::single_shot(
                Dataset::longbench(4096),
                // 3 req/s per GPU: 2.4x the case's middle rate, so the
                // backlog grows for the whole arrival window.
                ArrivalProcess::poisson(cfg.total_rate(3.0)),
                if smoke { 200 } else { 14_000 },
            )
        },
        regime: Regime::PeakPendingAtLeast(4096.0),
    },
    SimWorkload {
        name: "sessions_prefix",
        config: || {
            ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
                .to_builder()
                .topology(Topology::a800_multi_node(2))
                .prefill_replicas(4)
                .decode_replicas(4)
                .with_prefix_cache(PrefixCacheConfig::default())
                .build()
                .expect("the sessions deployment is a valid config")
        },
        scenario: |_, smoke| {
            let sessions = SessionsScenario::builder()
                .sessions(if smoke { 60 } else { 8_000 })
                .session_rate(8.0)
                .turns(2, 6)
                .mean_think_secs(20.0)
                .followup_tokens(16, 192)
                .dataset(DatasetSpec::named("sharegpt", 2048))
                .build()
                .expect("the sessions scenario is valid");
            Scenario::sessions(sessions)
        },
        regime: Regime::PrefixHitRateAtLeast(0.5),
    },
];

/// Options shared by every simulator run.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Set-up: generate the trace and build the deployment. Both happen
/// before every repetition; their wall time is the `setup_s` sample.
fn set_up(
    w: &SimWorkload,
    cfg: &ServeConfig,
    seed: u64,
    smoke: bool,
) -> Result<(Trace, Cluster, f64), String> {
    let start = Instant::now();
    let trace = (w.scenario)(cfg, smoke)
        .generate(seed)
        .map_err(|e| format!("generate: {e}"))?;
    let cluster = Cluster::new(cfg.clone()).map_err(|e| format!("Cluster::new: {e}"))?;
    Ok((trace, cluster, start.elapsed().as_secs_f64()))
}

fn seeded_session(cluster: Cluster, trace: &Trace) -> ClusterSession {
    let mut session = cluster.into_session();
    for req in trace.requests() {
        session.inject(*req);
    }
    session
}

/// Replays the whole trace with one `pump_to_drain`.
fn run_whole(cluster: Cluster, trace: &Trace) -> Result<RunReport, String> {
    let mut session = seeded_session(cluster, trace);
    session
        .pump_to_drain()
        .map_err(|e| format!("pump_to_drain: {e}"))?;
    Ok(session.finish().map_err(|e| format!("finish: {e}"))?.0)
}

/// Pumps to drain in slices of `TRACE_SLICE_US` virtual microseconds,
/// calling `each(session, wall start, wall end, pending at start)` per
/// slice. Idle stretches are crossed in one slice.
fn pump_sliced(
    session: &mut ClusterSession,
    mut each: impl FnMut(&ClusterSession, Instant, Instant, usize),
) -> Result<(), String> {
    let mut horizon = 0u64;
    while let Some(next) = session.next_event_at() {
        horizon = (horizon + TRACE_SLICE_US).max(next.as_micros());
        let pending = session.pending_requests();
        let start = Instant::now();
        session
            .pump_until(SimTime::from_micros(horizon))
            .map_err(|e| format!("pump_until: {e}"))?;
        each(session, start, Instant::now(), pending);
    }
    Ok(())
}

/// FNV-1a over a byte stream, fed through `fmt::Write`.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// A hash of the whole report: its `Debug` rendering (every field, floats
/// in round-trip precision) streamed through FNV-1a, so the tens of MB of
/// text are never held in memory at once.
fn digest(report: &RunReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{report:?}").expect("hashing into memory cannot fail");
    h.0
}

/// The report serialized with its per-request arrays left out. Counters
/// are read from it by key, so a field a refactor renames turns into a
/// missing metric rather than a build break.
struct Keyed(Value);

impl Keyed {
    fn of(mut report: RunReport) -> Keyed {
        report.records = Vec::new();
        report.ttft_predictions = Vec::new();
        Keyed(serde_json::to_value(&report))
    }

    fn num(&self, path: &[&str]) -> Option<f64> {
        path.iter().try_fold(&self.0, |v, k| v.get(k))?.as_f64()
    }

    /// Sum of `fields` over every element of the array at `key`.
    fn sum(&self, key: &str, fields: &[&str]) -> Option<f64> {
        self.0
            .get(key)?
            .as_array()?
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| item.get(f)?.as_f64())
                    .sum::<Option<f64>>()
            })
            .sum()
    }

    fn len(&self, key: &str) -> Option<f64> {
        Some(self.0.get(key)?.as_array()?.len() as f64)
    }

    fn ratio(&self, hits: &str, misses: &str) -> Option<(f64, f64)> {
        let (h, m) = (self.num(&[hits])?, self.num(&[misses])?);
        Some((if h + m > 0.0 { h / (h + m) } else { 0.0 }, h + m))
    }
}

/// Checks one replay's output: every request completes (none dropped) and
/// the workload is still in the regime it was chosen for.
fn check_report(w: &SimWorkload, requests: usize, keyed: &Keyed, smoke: bool, out: &mut Outcome) {
    let completed = keyed.num(&["summary", "completed"]);
    let dropped = keyed.len("dropped");
    out.check(
        completed.zip(dropped).is_some_and(|(c, d)| c + d == requests as f64 && d == 0.0),
        || format!("{}: completed {completed:?} + dropped {dropped:?} != {requests} requests with none dropped", w.name),
    );
    out.failed += dropped.unwrap_or(0.0) as u64;
    if smoke {
        return;
    }
    let peak = keyed.num(&["peak_pending"]);
    let hit_rate = keyed.ratio("prefix_hits", "prefix_misses").map(|r| r.0);
    let (ok, what) = match w.regime {
        Regime::PeakPendingBelow(max) => (
            peak.is_some_and(|p| p < max),
            format!("peak pending {peak:?} < {max}"),
        ),
        Regime::PeakPendingAtLeast(min) => (
            peak.is_some_and(|p| p >= min),
            format!("peak pending {peak:?} >= {min}"),
        ),
        Regime::PrefixHitRateAtLeast(min) => (
            hit_rate.is_some_and(|r| r >= min),
            format!("prefix hit rate {hit_rate:?} >= {min}"),
        ),
    };
    out.check(ok, || {
        format!("{}: regime guard failed: expected {what}", w.name)
    });
}

/// Per-layer counters from a replay and from the generated trace.
fn layer_counters(trace: &Trace, keyed: &Keyed, m: &mut Metrics) {
    let reqs = trace.requests();
    let n = reqs.len() as f64;
    let prompt: f64 = reqs.iter().map(|r| f64::from(r.prompt_tokens)).sum();
    // A fold from +0.0: an empty float `sum()` is -0.0.
    let shared = reqs
        .iter()
        .filter_map(|r| r.session.map(|s| f64::from(s.shared_prefix_tokens)))
        .fold(0.0, |a, b| a + b);
    m.put("workload.requests", n);
    m.put("workload.prompt_tokens_mean", prompt / n);
    m.put(
        "workload.output_tokens_mean",
        reqs.iter().map(|r| f64::from(r.output_tokens)).sum::<f64>() / n,
    );
    m.put("workload.shared_prefix_frac", shared / prompt);
    m.put_opt("core.peak_pending", keyed.num(&["peak_pending"]));
    m.put_opt(
        "core.dispatches_per_req",
        keyed.num(&["dispatched_prefills"]).map(|d| d / n),
    );
    m.put_opt("core.migrations", keyed.num(&["migrations_started"]));
    m.put_opt(
        "sim.events_per_req",
        keyed.num(&["events_processed"]).map(|e| e / n),
    );
    let steps = keyed.sum(
        "instances",
        &["prefill_steps", "decode_steps", "hybrid_steps", "aux_steps"],
    );
    m.put_opt("engine.steps_per_req", steps.map(|s| s / n));
    let cache = keyed.ratio("cost_cache_hits", "cost_cache_misses");
    m.put_opt("model.cost_cache_hit_rate", cache.map(|c| c.0));
    m.put_opt("model.cost_cache_lookups", cache.map(|c| c.1));
    let prefix = keyed.ratio("prefix_hits", "prefix_misses");
    m.put_opt("kvcache.prefix_hit_rate", prefix.map(|p| p.0));
    m.put_opt("kvcache.prefix_probes", prefix.map(|p| p.1));
    m.put_opt(
        "kvcache.prefix_cached_tokens",
        keyed.num(&["prefix_cached_tokens"]),
    );
    m.put_opt("kvcache.prefix_evictions", keyed.num(&["prefix_evictions"]));
    m.put_opt("kvcache.swap_outs", keyed.sum("instances", &["swap_outs"]));
    m.put_opt("kvcache.backups_created", keyed.num(&["backups_created"]));
    m.put_opt(
        "kvcache.kv_transfer_gb",
        keyed.num(&["kv_bytes_transferred"]).map(|b| b / 1e9),
    );
}

/// The end-to-end run: one untimed warm-up replay fixes the reference
/// digest, then replays are timed until `seconds` of replay time has been
/// measured (at least `MIN_REPS`).
pub fn run(w: &SimWorkload, opts: SimOptions) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(w, opts, &mut out) {
        out.problems.push(format!("{}: {e}", w.name));
    }
    out
}

fn measure(w: &SimWorkload, opts: SimOptions, out: &mut Outcome) -> Result<(), String> {
    let cfg = (w.config)();
    crate::output::reset_peak_rss();
    let (trace, cluster, _) = set_up(w, &cfg, opts.seed, opts.smoke)?;
    let requests = trace.requests().len();
    let warm = run_whole(cluster, &trace)?;
    out.attempted += requests as u64;
    let reference = digest(&warm);
    // What the simulated users see: arrival to last token, simulated ms.
    let latency = stats::Summary::of(
        &warm
            .records
            .iter()
            .map(|r| r.e2e() * 1e3)
            .collect::<Vec<_>>(),
    );
    check_report(w, requests, &Keyed::of(warm), opts.smoke, out);
    // The memory one simulation needs: later replays only add allocator
    // churn (a second trace alive while the next is generated).
    let peak_rss = crate::output::peak_rss_mb("self");

    // The probe's map is allocated after the memory reading above. Probe
    // passes bracket every repetition.
    let mut probe = HostProbe::new();
    let mut probe_secs = vec![probe.pass()];
    let (mut setup, mut rep_secs) = (Vec::new(), Vec::new());
    while rep_secs.len() < MIN_REPS || rep_secs.iter().sum::<f64>() < opts.seconds {
        let (again, cluster, secs) = set_up(w, &cfg, opts.seed, opts.smoke)?;
        setup.push(secs);
        out.check(again == trace, || {
            format!("{}: the same seed generated a different trace", w.name)
        });
        let start = Instant::now();
        let report = run_whole(cluster, &again)?;
        rep_secs.push(start.elapsed().as_secs_f64());
        out.attempted += requests as u64;
        let rep = digest(&report);
        out.check(rep == reference, || {
            format!(
                "{}: repetition {} digest {rep:016x} != reference {reference:016x}",
                w.name,
                rep_secs.len()
            )
        });
        check_report(w, requests, &Keyed::of(report), opts.smoke, out);
        probe_secs.push(probe.pass());
    }

    // The host's slowdown during each repetition: the mean of the two probe
    // passes around it over the nominal pass time. A time is divided by the
    // slowdown raised to `exponent` and the median taken.
    let slowdown: Vec<f64> = probe_secs
        .windows(2)
        .map(|p| (p[0] + p[1]) / 2.0 / NOMINAL_PASS_SECS)
        .collect();
    let nominal = |secs: &[f64], exponent: f64| {
        let scaled: Vec<f64> = secs
            .iter()
            .zip(&slowdown)
            .map(|(s, h)| s / h.powf(exponent))
            .collect();
        stats::median(&scaled)
    };
    let replay_secs = nominal(&rep_secs, 1.0);
    let m = &mut out.metrics;
    m.put("setup_s", nominal(&setup, SETUP_EXPONENT));
    m.put("req_per_s", requests as f64 / replay_secs);
    m.put("latency_p50_ms", latency.p50);
    m.put("latency_p90_ms", latency.p90);
    m.put_opt("peak_rss_mb", peak_rss);
    let [q1, q2, q3] = stats::quartiles(&rep_secs);
    eprintln!(
        "{}: {requests} requests x {} timed replays: measured {q1:.3} / {q2:.3} / {q3:.3} s (quartiles), \
         {replay_secs:.3} s at the probe's nominal speed; host slowdown {:.2}x",
        w.name,
        rep_secs.len(),
        stats::median(&probe_secs) / NOMINAL_PASS_SECS,
    );
    Ok(())
}

/// The traced run: an untraced replay as the baseline, a replay in traced
/// slices with a span per call and a snapshot after every slice, then
/// untraced replays alternating with replays that have the
/// scheduling-trace ring sink on.
pub fn run_traced(w: &SimWorkload, opts: SimOptions, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure_traced(w, opts, spans, &mut out) {
        out.problems.push(format!("{}: {e}", w.name));
    }
    out
}

fn measure_traced(
    w: &SimWorkload,
    opts: SimOptions,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = (w.config)();
    let ms = |(s, e): (Instant, Instant)| (e - s).as_secs_f64() * 1e3;

    let (trace, cluster, _) = set_up(w, &cfg, opts.seed, opts.smoke)?;
    let requests = trace.requests().len();
    let start = Instant::now();
    let untraced = run_whole(cluster, &trace)?;
    let untraced_secs = start.elapsed().as_secs_f64();
    let reference = digest(&untraced);
    out.attempted += requests as u64;
    let keyed = Keyed::of(untraced);
    check_report(w, requests, &keyed, opts.smoke, out);
    layer_counters(&trace, &keyed, &mut out.metrics);

    let root = spans.open(w.name, Instant::now());
    let t = Instant::now();
    let trace = (w.scenario)(&cfg, opts.smoke)
        .generate(opts.seed)
        .map_err(|e| format!("generate: {e}"))?;
    let generate = (t, Instant::now());
    spans.record(
        "generate",
        generate,
        0,
        Some(root),
        vec![("requests", requests as f64)],
    );
    let t = Instant::now();
    let cluster = Cluster::new(cfg.clone()).map_err(|e| format!("Cluster::new: {e}"))?;
    let build = (t, Instant::now());
    spans.record("build", build, 0, Some(root), Vec::new());

    let rep_start = Instant::now();
    let mut session = seeded_session(cluster, &trace);
    let inject = (rep_start, Instant::now());
    spans.record(
        "inject",
        inject,
        0,
        Some(root),
        vec![("requests", requests as f64)],
    );
    // (pending at start, events, self ns) per slice.
    let mut slices: Vec<(usize, f64, f64)> = Vec::new();
    let mut events_before = 0.0;
    let mut snapshots = Vec::new();
    pump_sliced(&mut session, |s, start, end, pending| {
        let snap_start = Instant::now();
        let snap = s.snapshot();
        let snap_end = Instant::now();
        let events = snap.events_processed as f64 - events_before;
        events_before = snap.events_processed as f64;
        let kv = snap
            .instances
            .iter()
            .map(|i| i.kv_used_fraction)
            .fold(0.0, f64::max);
        slices.push((pending, events, (end - start).as_secs_f64() * 1e9));
        snapshots.push((
            start,
            end,
            snap_start,
            snap_end,
            events,
            snap.pending_requests,
            kv,
        ));
    })?;
    for (start, end, snap_start, snap_end, events, pending, kv) in snapshots {
        let args = vec![
            ("events", events),
            ("pending", pending as f64),
            ("kv_used_max", kv),
        ];
        spans.record("slice", (start, end), 0, Some(root), args);
        spans.record(
            "snapshot",
            (snap_start, snap_end),
            0,
            Some(root),
            Vec::new(),
        );
    }
    let t = Instant::now();
    let (report, _) = session.finish().map_err(|e| format!("finish: {e}"))?;
    let finish = (t, Instant::now());
    spans.record("finish", finish, 0, Some(root), Vec::new());
    let traced_secs = rep_start.elapsed().as_secs_f64();
    let rep = digest(&report);
    out.check(rep == reference, || {
        format!(
            "{}: sliced traced replay digest {rep:016x} != untraced {reference:016x}",
            w.name
        )
    });
    let t = Instant::now();
    let rendered = serde_json::to_value(&report).to_string();
    let render = (t, Instant::now());
    spans.record(
        "render",
        render,
        0,
        Some(root),
        vec![("bytes", rendered.len() as f64)],
    );
    out.attempted += requests as u64;
    drop(report);

    // Tracing costs are compared best-of-three against best-of-two,
    // alternating, so that one replay slowed by the host decides nothing.
    let mut ring_cfg = cfg.clone();
    ring_cfg.trace = TraceMode::Ring(65_536);
    let (mut untraced_secs, mut ring_secs) = (untraced_secs, f64::INFINITY);
    for _ in 0..2 {
        for (name, c, best) in [
            ("untraced_replay", &cfg, &mut untraced_secs),
            ("ring_replay", &ring_cfg, &mut ring_secs),
        ] {
            let cluster = Cluster::new(c.clone()).map_err(|e| format!("Cluster::new: {e}"))?;
            let t = Instant::now();
            let report = run_whole(cluster, &trace)?;
            *best = best.min(t.elapsed().as_secs_f64());
            spans.record(name, (t, Instant::now()), 0, Some(root), Vec::new());
            out.attempted += requests as u64;
            out.check(digest(&report) == reference, || {
                format!("{}: {name} changed the report", w.name)
            });
        }
    }
    spans.close(root, Instant::now());

    let band = |keep: &dyn Fn(usize) -> bool| -> f64 {
        let (events, ns) = slices
            .iter()
            .filter(|s| keep(s.0))
            .fold((0.0, 0.0), |(e, n), s| (e + s.1, n + s.2));
        if events > 0.0 {
            ns / events
        } else {
            0.0
        }
    };
    let m = &mut out.metrics;
    m.put("workload.generate_ms", ms(generate));
    m.put("core.build_ms", ms(build));
    m.put("core.inject_ms", ms(inject));
    m.put("core.finish_ms", ms(finish));
    m.put("core.ns_per_event", band(&|_| true));
    m.put("core.ns_per_event.backlog_lo", band(&|p| p < BACKLOG_LO));
    m.put("core.ns_per_event.backlog_hi", band(&|p| p >= BACKLOG_HI));
    m.put("report.render_ms", ms(render));
    m.put("report.mb", rendered.len() as f64 / 1e6);
    m.put(
        "trace.sink_overhead_pct",
        (ring_secs / untraced_secs - 1.0) * 100.0,
    );
    m.put(
        "bench.span_overhead_pct",
        (traced_secs / untraced_secs - 1.0) * 100.0,
    );
    Ok(())
}
