//! Human- and machine-readable rendering of run reports.

use crate::args::ArgError;
use crate::build::RunSpec;
use windserve::fleet::{FleetConfig, FleetReport};
use windserve::trace::LeaseAction;
use windserve::{Cluster, Percentiles, RunReport, TraceLog};
use windserve_workload::Trace;

/// Serializes a report inside the shared machine-readable envelope
/// (`{"schema_version": 1, "command": ..., "report": ...}`) — the same
/// wrapper the gateway's control-plane responses use, so one parser
/// handles every `--json` output and `GET /v1/cluster/status` alike.
///
/// # Errors
///
/// Propagates serialization failures (should not happen for these types).
pub(crate) fn json_envelope(command: &str, report: serde_json::Value) -> Result<String, ArgError> {
    serde_json::to_string_pretty(&windserve_gateway::json_envelope(command, report))
        .map_err(|e| ArgError(format!("serialize: {e}")))
}

/// Formats one statistic of a latency sample, right-aligned to `width`:
/// "n/a" when the sample is empty (its zeros are placeholders, not
/// measurements), the value otherwise.
fn stat(p: &Percentiles, value: f64, width: usize) -> String {
    if p.is_empty() {
        format!("{:>width$}", "n/a")
    } else {
        format!("{value:>width$.4}")
    }
}

/// Plain-text rendering of a single report.
pub(crate) fn report_text(spec: &RunSpec, report: &RunReport) -> String {
    let mut out = String::new();
    let s = &report.summary;
    out += &format!(
        "{} | {} | {} on {} | {:.2} req/s/GPU | {} requests\n",
        report.system.label(),
        spec.config.model.name,
        spec.dataset.name,
        spec.config.gpu.name,
        spec.rate_per_gpu,
        s.completed,
    );
    out += &format!(
        "  TTFT  p50 {}s   p99 {}s\n  TPOT  p90 {}s   p99 {}s\n",
        stat(&s.ttft, s.ttft.p50, 8),
        stat(&s.ttft, s.ttft.p99, 8),
        stat(&s.tpot, s.tpot.p90, 8),
        stat(&s.tpot, s.tpot.p99, 8),
    );
    out += &format!(
        "  SLO attainment {:.1}% (ttft {:.1}%, tpot {:.1}%)\n",
        s.slo.both * 100.0,
        s.slo.ttft * 100.0,
        s.slo.tpot * 100.0
    );
    out += &format!(
        "  dispatched {} | migrations {}/{} | swaps {} | backups {} ({} hits) | KV moved {:.2} GiB\n",
        report.dispatched_prefills,
        report.migrations_completed,
        report.migrations_started,
        report.total_swap_outs(),
        report.backups_created,
        report.backup_hits,
        report.kv_bytes_transferred as f64 / (1u64 << 30) as f64,
    );
    if report.prefix_hits + report.prefix_misses > 0 {
        out += &format!(
            "  prefix cache: {} hits / {} misses ({:.1}% hit rate) | {} prompt tokens served from cache | {} evictions\n",
            report.prefix_hits,
            report.prefix_misses,
            report.prefix_hit_rate() * 100.0,
            report.prefix_cached_tokens,
            report.prefix_evictions,
        );
    }
    for inst in &report.instances {
        out += &format!(
            "  [{:12}] compute {:5.1}%  mem-bw {:5.1}%  steps p/d/h/aux {}/{}/{}/{}\n",
            inst.name,
            inst.utilization.compute * 100.0,
            inst.utilization.bandwidth * 100.0,
            inst.prefill_steps,
            inst.decode_steps,
            inst.hybrid_steps,
            inst.aux_steps,
        );
    }
    for series in &report.series {
        out += &format!(
            "  [{:12}] kv-used mean {:.2} max {:.2} | running mean {:.1} max {:.0}\n",
            series.name,
            series.kv_used.mean(),
            series.kv_used.max(),
            series.running.mean(),
            series.running.max(),
        );
        out += &format!(
            "  [{:12}] kv {} \n  [{:12}] run {}\n",
            series.name,
            sparkline(series.kv_used.values(), 64),
            series.name,
            sparkline(series.running.values(), 64),
        );
    }
    out
}

/// One-line summary of a run (the `--quiet` rendering).
pub(crate) fn report_brief(spec: &RunSpec, report: &RunReport) -> String {
    let s = &report.summary;
    format!(
        "{} | {} | {} completed | goodput {:.3} req/s | SLO {:.1}% (ttft {:.1}%, tpot {:.1}%)\n",
        report.system.label(),
        spec.config.model.name,
        s.completed,
        report.goodput(),
        s.slo.both * 100.0,
        s.slo.ttft * 100.0,
        s.slo.tpot * 100.0,
    )
}

/// Plain-text rendering of a fleet run: shared-pool accounting, one row
/// per deployment, and per-tenant SLO attainment.
pub(crate) fn fleet_text(cfg: &FleetConfig, report: &FleetReport, log: &TraceLog) -> String {
    let lease_moves = log.lease_events();
    let count = |want: LeaseAction| {
        lease_moves
            .iter()
            .filter(|(_, _, action, _)| *action == want)
            .count()
    };
    let mut out = format!(
        "fleet: {} deployments, {} tenants on {} shared GPUs (seed {})\n",
        report.deployments.len(),
        report.tenants.len(),
        cfg.topology.n_gpus(),
        cfg.seed,
    );
    out += &format!(
        "pool: {} GPU-grants, {} returned, {} | leases: {} granted, {} reclaimed, {} returned\n\n",
        report.pool.granted_gpus,
        report.pool.returned_gpus,
        if report.pool.balanced {
            "balanced"
        } else {
            "UNBALANCED"
        },
        count(LeaseAction::Granted),
        count(LeaseAction::Reclaimed),
        count(LeaseAction::Returned),
    );
    out += &format!(
        "{:<14} {:>5} {:>6} {:>7} {:>12} {:>10} {:>9}\n",
        "deployment", "base", "units", "leased", "pressure", "GPU-s", "goodput"
    );
    for d in &report.deployments {
        out += &format!(
            "{:<14} {:>5} {:>6} {:>7} {:>12.0} {:>10.1} {:>9.3}\n",
            d.name,
            d.base_gpus,
            format!("+{}", d.granted_units),
            d.leased_gpus,
            d.pressure,
            d.gpu_seconds,
            d.report.goodput(),
        );
    }
    out += &format!(
        "\n{:<12} {:<14} {:>9} {:>10} {:>10} {:>9} {:>9}\n",
        "tenant", "deployment", "completed", "TTFT p50", "TTFT p99", "SLO both", "goodput"
    );
    for t in &report.tenants {
        out += &format!(
            "{:<12} {:<14} {:>9} {:>10} {:>10} {:>8.1}% {:>9.3}\n",
            t.name,
            t.deployment,
            t.summary.completed,
            stat(&t.summary.ttft, t.summary.ttft.p50, 10),
            stat(&t.summary.ttft, t.summary.ttft.p99, 10),
            t.slo_attainment * 100.0,
            t.goodput,
        );
    }
    out += &format!(
        "\nfleet goodput {:.3} req/s over {:.1} GPU-seconds\n",
        report.total_goodput(),
        report.total_gpu_seconds(),
    );
    out
}

/// JSON rendering of a fleet report.
///
/// # Errors
///
/// Propagates serialization failures (should not happen for these types).
pub(crate) fn fleet_json(report: &FleetReport) -> Result<String, ArgError> {
    json_envelope("fleet", serde_json::to_value(report))
}

/// Renders values as a unicode sparkline, downsampled to at most `width`
/// buckets (each bucket shows its mean).
pub(crate) fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let buckets = width.min(values.len());
    let mut compacted = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * values.len() / buckets;
        let hi = ((b + 1) * values.len() / buckets).max(lo + 1);
        let slice = &values[lo..hi.min(values.len())];
        compacted.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    let max = compacted.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
    compacted
        .iter()
        .map(|&v| {
            let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[idx]
        })
        .collect()
}

/// JSON rendering of a report.
///
/// # Errors
///
/// Propagates serialization failures (should not happen for these types).
pub(crate) fn report_json(report: &RunReport) -> Result<String, ArgError> {
    json_envelope("run", serde_json::to_value(report))
}

/// JSON rendering of several reports.
///
/// # Errors
///
/// Propagates serialization failures.
pub(crate) fn reports_json(reports: &[RunReport]) -> Result<String, ArgError> {
    json_envelope("compare", serde_json::to_value(reports))
}

/// Comparison table across systems.
pub(crate) fn comparison_text(spec: &RunSpec, reports: &[RunReport]) -> String {
    let mut out = format!(
        "{} on {} @ {:.2} req/s/GPU, {} requests\n\n",
        spec.config.model.name, spec.dataset.name, spec.rate_per_gpu, spec.requests
    );
    out += &format!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>9} {:>6} {:>6} {:>6}\n",
        "system",
        "TTFT p50",
        "TTFT p99",
        "TPOT p90",
        "TPOT p99",
        "SLO both",
        "disp",
        "migr",
        "swaps"
    );
    for r in reports {
        out += &format!(
            "{:<22} {} {} {} {} {:>8.1}% {:>6} {:>6} {:>6}\n",
            r.system.label(),
            stat(&r.summary.ttft, r.summary.ttft.p50, 10),
            stat(&r.summary.ttft, r.summary.ttft.p99, 10),
            stat(&r.summary.tpot, r.summary.tpot.p90, 10),
            stat(&r.summary.tpot, r.summary.tpot.p99, 10),
            r.summary.slo.both * 100.0,
            r.dispatched_prefills,
            r.migrations_started,
            r.total_swap_outs(),
        );
    }
    out
}

/// Overload A/B comparison: an uncontrolled baseline against the same
/// workload under overload control. Latency columns go through `stat`,
/// so a run that completes nothing prints "n/a" instead of placeholder
/// zeros.
pub(crate) fn overload_text(
    spec: &RunSpec,
    factor: f64,
    baseline: &RunReport,
    controlled: &RunReport,
) -> String {
    use windserve::DropReason;
    let mut out = format!(
        "overload: {factor:.1}x arrival rate ({:.2} req/s/GPU) | {} | {} requests\n\n",
        spec.rate_per_gpu * factor,
        spec.config.model.name,
        spec.requests,
    );
    out += &format!(
        "{:<13} {:>9} {:>10} {:>10} {:>10} {:>9} {:>7} {:>7}\n",
        "", "goodput", "TTFT p50", "TTFT p99", "TPOT p99", "SLO both", "done", "peak-q"
    );
    for (label, r) in [("uncontrolled", baseline), ("controlled", controlled)] {
        out += &format!(
            "{:<13} {:>9.3} {} {} {} {:>8.1}% {:>7} {:>7}\n",
            label,
            r.goodput(),
            stat(&r.summary.ttft, r.summary.ttft.p50, 10),
            stat(&r.summary.ttft, r.summary.ttft.p99, 10),
            stat(&r.summary.tpot, r.summary.tpot.p99, 10),
            r.summary.slo.both * 100.0,
            r.summary.completed,
            r.peak_pending,
        );
    }
    out += &format!(
        "\noverload control: {} rejected ({} queue-full, {} token-budget) | \
         {} shed | {} preempted | {} watchdog aborts\n\
         accounting: {} completed + {} dropped with typed outcomes = {} requests\n\
         invariant auditor: {} passes, zero violations\n",
        controlled.requests_rejected,
        controlled.dropped_with(DropReason::QueueFull),
        controlled.dropped_with(DropReason::TokenBudget),
        controlled.requests_shed,
        controlled.requests_preempted,
        controlled.watchdog_aborts,
        controlled.summary.completed,
        controlled.dropped.len(),
        controlled.summary.completed + controlled.dropped.len(),
        controlled.invariant_checks,
    );
    out
}

/// Rate-sweep table.
pub(crate) fn sweep_text(spec: &RunSpec, rows: &[(f64, RunReport)]) -> String {
    let mut out = format!(
        "{} | {} on {}, {} requests per point\n\n",
        spec.config.system.label(),
        spec.config.model.name,
        spec.dataset.name,
        spec.requests
    );
    out += &format!(
        "{:>9} {:>10} {:>10} {:>10} {:>10} {:>9}\n",
        "req/s", "TTFT p50", "TTFT p99", "TPOT p90", "TPOT p99", "SLO both"
    );
    for (rate, r) in rows {
        out += &format!(
            "{rate:>6.2} req/s {} {} {} {} {:>8.1}%\n",
            stat(&r.summary.ttft, r.summary.ttft.p50, 7),
            stat(&r.summary.ttft, r.summary.ttft.p99, 10),
            stat(&r.summary.tpot, r.summary.tpot.p90, 10),
            stat(&r.summary.tpot, r.summary.tpot.p99, 10),
            r.summary.slo.both * 100.0,
        );
    }
    out
}

/// JSON rendering of a rate sweep.
///
/// # Errors
///
/// Propagates serialization failures.
pub(crate) fn sweep_json(rows: &[(f64, RunReport)]) -> Result<String, ArgError> {
    let values: Vec<serde_json::Value> = rows
        .iter()
        .map(|(rate, r)| {
            serde_json::json!({
                "rate_per_gpu": rate,
                "report": r,
            })
        })
        .collect();
    json_envelope("sweep", serde_json::Value::Array(values))
}

/// Table 2-style statistics of a generated trace.
pub(crate) fn trace_stats_text(spec: &RunSpec, trace: &Trace) -> String {
    let stats = trace.stats();
    format!(
        "{} trace: {} requests, {:.2} req/s observed\n\
         prompt tokens: mean {:.1}  median {:.0}  p90 {:.0}\n\
         output tokens: mean {:.1}  median {:.0}  p90 {:.0}\n",
        spec.dataset.name,
        trace.requests().len(),
        stats.arrival_rate,
        stats.prompt.mean,
        stats.prompt.median,
        stats.prompt.p90,
        stats.output.mean,
        stats.output.median,
        stats.output.p90,
    )
}

/// Summary of a captured scheduling trace: event mix, Algorithm 1 verdict
/// counts, and how to dig further.
pub(crate) fn scheduling_trace_text(
    spec: &RunSpec,
    report: &RunReport,
    log: &windserve::TraceLog,
) -> String {
    use std::collections::BTreeMap;
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    for e in log.events() {
        *kinds.entry(e.event.kind()).or_insert(0) += 1;
    }
    let decisions = log.dispatch_decisions();
    let mut verdicts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (_, d) in &decisions {
        *verdicts.entry(d.verdict.label()).or_insert(0) += 1;
    }
    let mut out = format!(
        "{} | {} | {} requests | {} trace events over {:.2}s\n",
        report.system.label(),
        spec.config.model.name,
        report.summary.completed,
        log.len(),
        report.duration_secs,
    );
    out += "  events:";
    for (kind, n) in &kinds {
        out += &format!(" {kind} {n}");
    }
    out += "\n";
    if !decisions.is_empty() {
        out += &format!("  Algorithm 1 decisions ({}):", decisions.len());
        for (verdict, n) in &verdicts {
            out += &format!(" {verdict} {n}");
        }
        out += "\n";
    }
    let admissions = log.admission_decisions();
    if !admissions.is_empty() {
        let mut verdicts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (_, a) in &admissions {
            *verdicts.entry(a.verdict.label()).or_insert(0) += 1;
        }
        out += &format!("  admission decisions ({}):", admissions.len());
        for (verdict, n) in &verdicts {
            out += &format!(" {verdict} {n}");
        }
        out += "\n";
    }
    out += "  use --audit <request-id> for one request's decisions, \
            --out <path> for a Chrome trace\n";
    out
}

/// Budget/profiler summary for a configuration.
pub(crate) fn budget_text(spec: &RunSpec, cluster: &Cluster) -> String {
    let profiler = cluster.profiler();
    let [cp, ap, bp] = profiler.prefill_coefficients();
    let [cd, ad] = profiler.decode_coefficients();
    let (pe, de) = profiler.fit_errors();
    format!(
        "{} | {} | thrd {:.3}s\n\
         Algorithm 1 budget: {} guest-prefill tokens per pass\n\
         Eq.1 prefill fit: {ap:.3e}*N + {bp:.3e}*N^2 + {cp:.3e}  (err {:.1}%)\n\
         Eq.2 decode fit:  {ad:.3e}*SumL + {cd:.3e}  (err {:.1}%)\n",
        spec.config.model.name,
        spec.config.system.label(),
        spec.config.effective_dispatch_threshold().as_secs_f64(),
        cluster.aux_budget_tokens(),
        pe * 100.0,
        de * 100.0,
    )
}
#[cfg(test)]
mod tests {
    use super::{sparkline, stat};
    use windserve::Percentiles;

    #[test]
    fn empty_percentiles_render_as_na() {
        let empty = Percentiles::zero();
        assert_eq!(stat(&empty, empty.p99, 8), "     n/a");
        let one = Percentiles::of(vec![0.25]);
        assert_eq!(stat(&one, one.p50, 8), "  0.2500");
    }

    #[test]
    fn sparkline_scales_and_downsamples() {
        let ramp: Vec<f64> = (0..100).map(f64::from).collect();
        let line = sparkline(&ramp, 10);
        assert_eq!(line.chars().count(), 10);
        let first = line.chars().next().unwrap();
        let last = line.chars().last().unwrap();
        assert!(last > first, "{line}");
    }

    #[test]
    fn sparkline_handles_degenerate_inputs() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0], 0), "");
        assert_eq!(sparkline(&[0.0, 0.0], 2).chars().count(), 2);
    }
}
