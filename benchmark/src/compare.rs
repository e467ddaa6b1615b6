//! `compare <parent.jsonl> <change.jsonl>`: judges two sets of runs with
//! the choosing-metrics rule, using the bounds in `BENCHMARK.json`.
//!
//! Each input holds one JSON result line per run, as `--out` appends them.
//! For every workload and end-to-end metric the verdict is:
//!
//! * `better`: the change wins at least nine tenths of the run pairs (ties
//!   count for neither) and the medians differ by more than the parent's
//!   interquartile range;
//! * `unresolved`: the parent's spread is wider than the bound, unless
//!   every change run reads better than every parent run;
//! * `worse`: the change's median is worse than the parent's by more than
//!   the bound;
//! * `no-worse`: otherwise.

use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    NoWorse,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric on one workload. `bound` is the share of
/// the parent's median by which the metric may worsen.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let [q1, _, q3] = stats::quartiles(parent);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > q3 - q1 {
        return Verdict::Better;
    }
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if stats::iqr_share(parent) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better { pm - cm } else { cm - pm } / pm.abs();
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    }
}

/// Runs in a result file, by workload then metric, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = v["workload"]
            .as_str()
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = v["metrics"].as_object().into_iter().flat_map(|m| m.iter());
        for (name, m) in metrics {
            if let Some(x) = m["value"].as_f64() {
                let by_metric = runs.entry(workload.to_string()).or_default();
                by_metric.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(runs)
}

/// Prints one row per workload; returns whether any verdict is `worse`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("usage: compare <parent.jsonl> <change.jsonl>".to_string());
    };
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec: Value =
        serde_json::from_str(&spec_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let (parent, change) = (load(parent)?, load(change)?);
    let mut any_worse = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        let mut row = format!("{workload:<20}");
        for m in metrics {
            let name = m["name"].as_str().unwrap_or_default();
            let higher = m["better"].as_str() == Some("higher");
            let bound = m["bound"].as_f64().unwrap_or(0.0);
            let (Some(p), Some(c)) = (p_runs.get(name), c_runs.get(name)) else {
                row += &format!("  {name}=missing");
                continue;
            };
            let v = verdict(p, c, higher, bound);
            any_worse |= v == Verdict::Worse;
            let (pm, cm) = (stats::median(p), stats::median(c));
            row += &format!(
                "  {name}={} ({pm:.4} -> {cm:.4}, {:+.1}%, spread {:.1}%/{:.1}%, n={}/{})",
                v.label(),
                (cm / pm - 1.0) * 100.0,
                stats::iqr_share(p) * 100.0,
                stats::iqr_share(c) * 100.0,
                p.len(),
                c.len(),
            );
        }
        println!("{row}");
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn a_consistent_win_beyond_the_spread_is_better() {
        let parent = runs(100.0, 2.0);
        let change = runs(108.0, 2.0);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Better);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::NoWorse);
    }

    #[test]
    fn a_drop_beyond_the_bound_is_worse() {
        let parent = runs(100.0, 2.0);
        let change = runs(85.0, 2.0);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Worse);
        assert_eq!(verdict(&parent, &change, true, 0.2), Verdict::NoWorse);
        // Lower-is-better metrics mirror it.
        assert_eq!(
            verdict(&parent, &runs(115.0, 2.0), false, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn the_same_code_twice_is_no_worse() {
        let a = runs(100.0, 3.0);
        let mut b = a.clone();
        b.reverse();
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::NoWorse);
        assert_eq!(verdict(&a, &b, false, 0.1), Verdict::NoWorse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = runs(100.0, 30.0);
        let change = runs(97.0, 30.0);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let far = runs(200.0, 10.0);
        assert_eq!(verdict(&parent, &far, true, 0.1), Verdict::Better);
    }

    #[test]
    fn winning_too_few_pairs_is_not_better() {
        let parent = runs(100.0, 2.0);
        // Eight of ten pairs better, by a margin wider than the spread.
        let mut change: Vec<f64> = parent.iter().map(|p| p + 5.0).collect();
        change[0] = parent[0] - 1.0;
        change[9] = parent[9] - 1.0;
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::NoWorse);
    }
}
