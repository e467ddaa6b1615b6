//! Human- and machine-readable rendering of run reports.

use crate::args::ArgError;
use crate::build::RunSpec;
use crate::grid::{Axis, Grid};
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

/// A count column a grid table adds when its axis varies: the axis, the
/// header, and how the count reads a report.
type Count = (Axis, &'static str, fn(&RunReport) -> u64);

/// The count columns, in table order.
const COUNTS: [Count; 10] = [
    (Axis::Faults, "injected", |r| r.faults_injected),
    (Axis::Faults, "rescheduled", |r| r.requests_rescheduled),
    (Axis::Faults, "backup hits", |r| r.backup_hits),
    (Axis::Faults, "transfer retries", |r| r.transfer_retries),
    (Axis::Overload, "peak queue", |r| r.peak_pending as u64),
    (Axis::Overload, "rejected", |r| r.requests_rejected),
    (Axis::Overload, "shed", |r| r.requests_shed),
    (Axis::Overload, "preempted", |r| r.requests_preempted),
    (Axis::Overload, "aborts", |r| r.watchdog_aborts),
    (Axis::Overload, "audits", |r| r.invariant_checks),
];

/// The grid table: one row per point, its value on each axis, then
/// latency, SLO and throughput, then the counts of each varied axis.
/// Latencies go through `stat`, so a point that completes nothing prints
/// "n/a", not placeholder zeros.
pub(crate) fn grid_text(
    base: &RunSpec,
    grid: &Grid,
    scale: Option<f64>,
    rows: &[(Vec<&str>, RunReport)],
) -> String {
    let varies = |axis| grid.iter().any(|(a, _)| *a == axis);
    let mut out = format!("{} on {}", base.config.model.name, base.config.gpu.name);
    if !varies(Axis::System) {
        out += &format!(" | {}", base.config.system.label());
    }
    if let Some(factor) = scale {
        out += &format!(" | trace at {factor:.1}x its rate in 3 priority tiers");
    }
    let counts: Vec<_> = COUNTS.iter().filter(|(axis, ..)| varies(*axis)).collect();
    let mut head: Vec<&str> = grid.iter().map(|(axis, _)| axis.name()).collect();
    head.extend(["TTFT p50", "TTFT p99", "TPOT p90", "TPOT p99"]);
    head.extend(["SLO both", "goodput", "completed"]);
    head.extend(counts.iter().map(|(_, name, _)| *name));
    let mut table = vec![head.into_iter().map(String::from).collect::<Vec<_>>()];
    for (point, r) in rows {
        let s = &r.summary;
        let mut row: Vec<String> = point.iter().map(|v| v.to_string()).collect();
        row.extend([(&s.ttft, s.ttft.p50), (&s.ttft, s.ttft.p99)].map(|(p, v)| stat(p, v, 0)));
        row.extend([(&s.tpot, s.tpot.p90), (&s.tpot, s.tpot.p99)].map(|(p, v)| stat(p, v, 0)));
        row.push(format!("{:.1}%", s.slo.both * 100.0));
        row.push(format!("{:.3}", r.goodput()));
        row.push(s.completed.to_string());
        row.extend(counts.iter().map(|(.., count)| count(r).to_string()));
        table.push(row);
    }
    let widths: Vec<usize> = (0..table[0].len())
        .map(|c| table.iter().map(|row| row[c].len()).max().unwrap_or(0))
        .collect();
    out += "\n";
    for row in table {
        let cells: Vec<String> = (row.iter().zip(&widths))
            .map(|(v, &w)| format!("{v:>w$}"))
            .collect();
        out += &format!("\n{}", cells.join("  "));
    }
    out + "\n"
}

/// JSON rendering of a grid: `{axes: [{name, values}], rows: [{point,
/// report}]}`, each point mapping every axis to its value.
///
/// # Errors
///
/// Propagates serialization failures (should not happen for these types).
pub(crate) fn grid_json(grid: &Grid, rows: &[(Vec<&str>, RunReport)]) -> Result<String, ArgError> {
    let axes: Vec<_> = grid
        .iter()
        .map(|(axis, values)| serde_json::json!({ "name": axis.name(), "values": values }))
        .collect();
    let rows: Vec<_> = rows
        .iter()
        .map(|(point, report)| {
            let point: serde_json::Map = grid
                .iter()
                .zip(point)
                .map(|((axis, _), v)| (axis.name().to_string(), (*v).into()))
                .collect();
            serde_json::json!({ "point": point, "report": report })
        })
        .collect();
    json_envelope("compare", serde_json::json!({ "axes": axes, "rows": rows }))
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
    let mut out = format!(
        "{} | {} | {} requests | {} trace events over {:.2}s\n",
        report.system.label(),
        spec.config.model.name,
        report.summary.completed,
        log.len(),
        report.duration_secs,
    );
    out += &format!(
        "  events:{}\n",
        tally(log.events().iter().map(|e| e.event.kind()))
    );
    let decisions = log.dispatch_decisions();
    if !decisions.is_empty() {
        let verdicts = tally(decisions.iter().map(|(_, d)| d.verdict.label()));
        out += &format!("  Algorithm 1 decisions ({}):{verdicts}\n", decisions.len());
    }
    let admissions = log.admission_decisions();
    if !admissions.is_empty() {
        let verdicts = tally(admissions.iter().map(|(_, a)| a.verdict.label()));
        out += &format!("  admission decisions ({}):{verdicts}\n", admissions.len());
    }
    out += "  use --audit <request-id> for one request's decisions, \
            --out <path> for a Chrome trace\n";
    out
}

/// Counts each label, as ` <label> <count>` pairs in label order.
fn tally(labels: impl Iterator<Item = &'static str>) -> String {
    let mut counts = std::collections::BTreeMap::new();
    for label in labels {
        *counts.entry(label).or_insert(0usize) += 1;
    }
    counts
        .iter()
        .map(|(label, n)| format!(" {label} {n}"))
        .collect()
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
