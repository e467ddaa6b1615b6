//! The metric catalogue and the result line every run ends with.

use serde_json::{json, Map, Value};

/// Which workloads exercise a per-layer metric. A metric of a family the
/// workload does not exercise reads 0: that layer did no work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Sim,
    Gateway,
    All,
}

/// End-to-end metrics, `(name, unit)`, measured with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit, family)`, from the traced run. Layers
/// are named after the crates; `client` is the benchmark's own load
/// generator and `bench` the traced run itself.
pub const PER_LAYER: [(&str, &str, Family); 49] = [
    ("workload.requests", "count", Family::All),
    ("workload.generate_ms", "ms", Family::Sim),
    ("workload.prompt_tokens_mean", "tokens", Family::Sim),
    ("workload.output_tokens_mean", "tokens", Family::Sim),
    ("workload.shared_prefix_frac", "ratio", Family::Sim),
    ("core.build_ms", "ms", Family::Sim),
    ("core.inject_ms", "ms", Family::Sim),
    ("core.finish_ms", "ms", Family::Sim),
    ("core.ns_per_event", "ns", Family::Sim),
    ("core.ns_per_event.backlog_lo", "ns", Family::Sim),
    ("core.ns_per_event.backlog_hi", "ns", Family::Sim),
    ("core.peak_pending", "count", Family::All),
    ("core.dispatches_per_req", "ratio", Family::Sim),
    ("core.migrations", "count", Family::Sim),
    ("sim.events_per_req", "ratio", Family::All),
    ("engine.steps_per_req", "ratio", Family::Sim),
    ("model.cost_cache_hit_rate", "ratio", Family::Sim),
    ("model.cost_cache_lookups", "count", Family::Sim),
    ("kvcache.prefix_hit_rate", "ratio", Family::All),
    ("kvcache.prefix_probes", "count", Family::All),
    ("kvcache.prefix_cached_tokens", "count", Family::Sim),
    ("kvcache.prefix_evictions", "count", Family::Sim),
    ("kvcache.swap_outs", "count", Family::Sim),
    ("kvcache.backups_created", "count", Family::Sim),
    ("kvcache.kv_transfer_gb", "GB", Family::Sim),
    ("report.render_ms", "ms", Family::Sim),
    ("report.mb", "MB", Family::Sim),
    ("trace.sink_overhead_pct", "%", Family::Sim),
    ("gateway.connect_ms.p50", "ms", Family::Gateway),
    ("gateway.connect_ms.p90", "ms", Family::Gateway),
    ("gateway.admit_ms.p50", "ms", Family::Gateway),
    ("gateway.admit_ms.p90", "ms", Family::Gateway),
    ("gateway.first_token_ms.p50", "ms", Family::Gateway),
    ("gateway.first_token_ms.p90", "ms", Family::Gateway),
    ("gateway.token_lag_ms.p50", "ms", Family::Gateway),
    ("gateway.token_lag_ms.p90", "ms", Family::Gateway),
    ("gateway.close_ms.p50", "ms", Family::Gateway),
    ("gateway.rejected", "count", Family::Gateway),
    ("gateway.deadline_exceeded", "count", Family::Gateway),
    ("gateway.worker_panics", "count", Family::Gateway),
    ("client.samples", "count", Family::Gateway),
    ("client.send_lag_ms.p50", "ms", Family::Gateway),
    ("client.send_lag_ms.tail", "ms", Family::Gateway),
    ("client.ttft_ms.p50", "ms", Family::Gateway),
    ("client.ttft_ms.p90", "ms", Family::Gateway),
    ("client.ttft_ms.tail", "ms", Family::Gateway),
    ("client.tpot_ms.p50", "ms", Family::Gateway),
    ("client.tpot_ms.p90", "ms", Family::Gateway),
    ("bench.span_overhead_pct", "%", Family::All),
];

/// Named measurements collected by one workload run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records (or overwrites) a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Records a metric whose source may be missing (a `RunReport` key a
    /// later refactor renamed): a missing value leaves the metric unset.
    pub fn put_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.put(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulated requests, or HTTP requests sent).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metrics a run reports — end-to-end ones, or per-layer ones for
    /// a traced run — as `(name, unit, value)`; `None` marks a metric the
    /// run could not measure.
    pub fn selected(
        &self,
        family: Family,
        traced: bool,
    ) -> Vec<(&'static str, &'static str, Option<f64>)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit, fam)| {
                    let value = self.metrics.get(name).or(
                        // A layer this workload never drives did no work.
                        (fam != family && fam != Family::All).then_some(0.0),
                    );
                    (name, unit, value)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name, unit, self.metrics.get(name)))
                .collect()
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// measured metrics. Unmeasurable metrics are left out.
    pub fn result_json(&self, family: Family, traced: bool) -> Value {
        let mut metrics = Map::new();
        for (name, unit, value) in self.selected(family, traced) {
            if let Some(v) = value.filter(|v| v.is_finite()) {
                metrics.insert(name, json!({ "value": v, "unit": unit }));
            }
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// Resets this process's `VmHWM` to its current resident set, so a
/// workload's peak does not include an earlier workload's in the same run.
pub fn reset_peak_rss() {
    // Best effort: without it the reading is only an upper bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this catalogue must list the same metrics, in
    /// the same order, with the same units.
    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().expect("string field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        let layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(listed("per_layer"), own(&layer));
    }

    #[test]
    fn unexercised_layers_read_zero_and_missing_ones_are_left_out() {
        let mut outcome = Outcome::default();
        outcome.metrics.put("core.ns_per_event", 812.5);
        outcome.metrics.put("bench.span_overhead_pct", 1.5);
        let v = outcome.result_json(Family::Sim, true);
        let metrics = v["metrics"].as_object().expect("metrics object");
        assert_eq!(
            metrics
                .get("core.ns_per_event")
                .and_then(|m| m["value"].as_f64()),
            Some(812.5)
        );
        assert_eq!(
            metrics
                .get("gateway.admit_ms.p50")
                .and_then(|m| m["value"].as_f64()),
            Some(0.0)
        );
        assert!(
            metrics.get("core.build_ms").is_none(),
            "a sim metric the sim run lacks is missing"
        );
        assert!(
            metrics.get("workload.requests").is_none(),
            "shared metrics are never zero-filled"
        );
        assert_eq!(v["correct"].as_bool(), Some(true));
    }
}
