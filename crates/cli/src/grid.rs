//! `compare`'s grid: the `--vary` axes, and the step each one takes on a
//! [`RunSpec`] to reach one point.

use crate::args::{ArgError, Args};
use crate::build::{system_by_name, RunSpec};
use windserve::{FaultPlan, OverloadConfig};
use windserve_engine::InstanceRole;
use windserve_sim::SimDuration;

/// A dimension `compare` can vary: `system` (`--system` names), `rate`
/// (per-GPU req/s), `faults` (`none` or a fault preset) or `overload`
/// (`off` or `on`). Steps apply in declaration order, whatever the flag
/// order, so a fault plan spans its point's rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Axis {
    System,
    Rate,
    Faults,
    Overload,
}

/// The grid's axes in flag order, each with its values as given.
pub(crate) type Grid = Vec<(Axis, Vec<String>)>;

impl Axis {
    const ALL: [Axis; 4] = [Axis::System, Axis::Rate, Axis::Faults, Axis::Overload];

    /// The name `--vary` takes.
    pub(crate) fn name(self) -> &'static str {
        ["system", "rate", "faults", "overload"][self as usize]
    }

    /// Sets this axis to `value` on `spec`, with the rule of the command
    /// the axis replaced.
    fn step(self, mut spec: RunSpec, value: &str, args: &Args) -> Result<RunSpec, ArgError> {
        if matches!(self, Axis::Rate | Axis::Faults) && spec.config.workload.is_some() {
            return Err(ArgError(format!(
                "--vary {} needs the flag-driven arrivals, which a [workload.scenario] \
                 config replaces; drop the [workload] section to vary it",
                self.name()
            )));
        }
        match (self, value) {
            (Axis::System, name) => spec.config.system = system_by_name(name)?,
            (Axis::Rate, rate) => {
                spec.rate_per_gpu = (rate.parse::<f64>().ok())
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| ArgError(format!("bad rate {rate:?}")))?;
                let total = spec.config.total_rate(spec.rate_per_gpu);
                spec.arrivals = RunSpec::arrivals_at(args, total)?;
            }
            (Axis::Faults, "none") => spec.config.faults = None,
            (Axis::Faults, preset) => spec.config.faults = Some(fault_plan(&spec, preset)?),
            (Axis::Overload, "off") => spec.config.overload = None,
            // No overload flags: defaults plus pressure preemption and a
            // periodic audit, so every subsystem takes part.
            (Axis::Overload, "on") => {
                let demo = OverloadConfig {
                    preempt_kv_watermark: Some(0.05),
                    audit_interval_events: Some(10_000),
                    ..Default::default()
                };
                spec.config.overload = spec.config.overload.or(Some(demo));
            }
            (Axis::Overload, other) => {
                return Err(ArgError(format!(
                    "--vary overload takes on or off, got {other:?}"
                )))
            }
        }
        Ok(spec)
    }
}

/// The preset's plan on the point's first decode replica (replica 0 when
/// colocated, where every replica decodes), seeded by `--seed` and placed
/// over the expected span of the arrivals, so crash and recovery land
/// mid-run at any rate and request count.
fn fault_plan(spec: &RunSpec, preset: &str) -> Result<FaultPlan, ArgError> {
    let horizon =
        SimDuration::from_secs_f64(spec.requests as f64 / spec.arrivals.mean_rate().max(1e-9));
    let first_decode = spec
        .config
        .layout()
        .map_err(|e| ArgError(format!("invalid configuration: {e}")))?
        .iter()
        .position(|r| r.role == InstanceRole::Decode)
        .unwrap_or(0) as u32;
    FaultPlan::from_preset(preset, first_decode, horizon, spec.seed)
        .map_err(|e| ArgError(format!("--vary faults: {e}")))
}

/// Parses every `--vary <axis>=<v1,v2,…>`; without one the grid is
/// `system=windserve,distserve,vllm`.
///
/// # Errors
///
/// Reports an unknown axis, a missing `=`, an empty value, or an axis
/// given twice.
pub(crate) fn parse(args: &Args) -> Result<Grid, ArgError> {
    let default = ["system=windserve,distserve,vllm".to_string()];
    let flags = match args.get_all("vary") {
        [] => &default[..],
        flags => flags,
    };
    let mut grid = Grid::new();
    for raw in flags {
        let Some((name, list)) = raw.split_once('=') else {
            return Err(ArgError(format!(
                "--vary takes <axis>=<v1,v2,...>, got {raw:?}"
            )));
        };
        let Some(axis) = Axis::ALL.into_iter().find(|a| a.name() == name) else {
            return Err(ArgError(format!(
                "unknown --vary axis {name:?}; try system, rate, faults, overload"
            )));
        };
        if grid.iter().any(|(a, _)| *a == axis) {
            return Err(ArgError(format!("--vary {name} is given more than once")));
        }
        let values: Vec<String> = list.split(',').map(|v| v.trim().to_string()).collect();
        if values.iter().any(String::is_empty) {
            return Err(ArgError(format!("--vary {name}: empty value in {list:?}")));
        }
        grid.push((axis, values));
    }
    Ok(grid)
}

/// Every point of `grid`, row-major in flag order (the last axis varies
/// fastest): its value on each axis, and the spec that runs it. Every
/// spec is built from `base` before any point runs, so a bad value fails
/// at once.
///
/// # Errors
///
/// Reports the first value an axis rejects.
pub(crate) fn points<'g>(
    grid: &'g Grid,
    base: &RunSpec,
    args: &Args,
) -> Result<Vec<(Vec<&'g str>, RunSpec)>, ArgError> {
    let mut points: Vec<Vec<&str>> = vec![Vec::new()];
    for (_, values) in grid {
        points = (points.iter())
            .flat_map(|p| values.iter().map(move |v| [&p[..], &[v.as_str()]].concat()))
            .collect();
    }
    let mut order: Vec<usize> = (0..grid.len()).collect();
    order.sort_by_key(|&k| grid[k].0);
    (points.into_iter())
        .map(|point| {
            let spec = order.iter().try_fold(base.clone(), |spec, &k| {
                grid[k].0.step(spec, point[k], args)
            })?;
            Ok((point, spec))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The points of `compare <flags>`, built but not run.
    fn grid_points(flags: &str) -> Vec<(Vec<String>, RunSpec)> {
        let line = format!("compare --requests 200 {flags}");
        let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
        let grid = parse(&args).unwrap();
        let base = RunSpec::from_args(&args).unwrap();
        let points = points(&grid, &base, &args).unwrap();
        let owned = |p: Vec<&str>| p.into_iter().map(String::from).collect();
        points
            .into_iter()
            .map(|(p, spec)| (owned(p), spec))
            .collect()
    }

    #[test]
    fn steps_apply_in_axis_order_whatever_the_flag_order() {
        let faults_first = grid_points("--vary faults=decode-crash --vary rate=1,4");
        let rate_first = grid_points("--vary rate=1,4 --vary faults=decode-crash");
        assert_eq!(faults_first.len(), 2);
        for ((point, a), (_, b)) in faults_first.iter().zip(&rate_first) {
            // The crash lands at a quarter of the point's own span.
            assert_eq!(a.config, b.config, "{point:?}");
            assert_eq!(a.rate_per_gpu, b.rate_per_gpu, "{point:?}");
        }
        assert_ne!(faults_first[0].1.config, faults_first[1].1.config);
    }

    #[test]
    fn points_run_row_major_in_flag_order() {
        let points = grid_points("--vary overload=off,on --vary system=vllm,distserve");
        let got: Vec<_> = points.iter().map(|(p, _)| p.join(" ")).collect();
        assert_eq!(
            got,
            ["off vllm", "off distserve", "on vllm", "on distserve"]
        );
        let on_vllm = &points[2].1.config;
        assert_eq!(on_vllm.system, windserve::SystemKind::VllmColocated);
        // `on` without overload flags arms the demo bundle; `off` disarms.
        let overload = on_vllm.overload.as_ref().unwrap();
        assert_eq!(overload.preempt_kv_watermark, Some(0.05));
        assert_eq!(overload.audit_interval_events, Some(10_000));
        assert!(points[0].1.config.overload.is_none());
        let armed = grid_points("--vary overload=off,on --max-queue 24");
        let on = armed[1].1.config.overload.as_ref().unwrap();
        assert_eq!(
            (on.max_queued_requests, on.preempt_kv_watermark),
            (Some(24), None)
        );
        assert!(armed[0].1.config.overload.is_none());
    }
}
