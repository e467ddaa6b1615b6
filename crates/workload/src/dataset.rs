//! Dataset length distributions.
//!
//! The paper evaluates on ShareGPT (chatbot: wide prompt/output spread) and
//! LongBench (summarization: long prompts, short skewed outputs), and
//! reports their statistics in Table 2:
//!
//! | Dataset  | Prompt avg/med/P90   | Output avg/med/P90 |
//! |----------|----------------------|--------------------|
//! | ShareGPT | 768.2 / 695 / 1556   | 195.9 / 87 / 518   |
//! | LongBench| 2890.4 / 2887 / 3792 | 97.4 / 12 / 369    |
//!
//! We cannot ship the datasets themselves, so each is modeled as a
//! [`QuantileSampler`] — a piecewise-linear inverse CDF through hand-tuned
//! control points whose analytic mean/median/P90 match Table 2 to within a
//! few percent (unit-tested below, and end-to-end in the `table2_datasets`
//! experiment).

use crate::request::{Request, RequestId};
use serde::{Deserialize, Serialize};
use windserve_sim::{SimRng, SimTime};

/// A distribution over token counts defined by its inverse CDF, given as
/// piecewise-linear control points `(quantile, value)`.
///
/// # Examples
///
/// ```
/// use windserve_workload::QuantileSampler;
/// use windserve_sim::SimRng;
///
/// let s = QuantileSampler::new(vec![(0.0, 1.0), (0.5, 10.0), (1.0, 100.0)]).unwrap();
/// assert_eq!(s.quantile(0.5), 10.0);
/// let mut rng = SimRng::seed_from_u64(1);
/// let x = s.sample(&mut rng);
/// assert!((1..=100).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSampler {
    points: Vec<(f64, f64)>,
}

impl QuantileSampler {
    /// Builds a sampler from control points.
    ///
    /// # Errors
    ///
    /// Returns an error unless the points start at quantile 0.0, end at
    /// 1.0, and are strictly increasing in quantile and non-decreasing in
    /// value, with all values ≥ 1.
    pub fn new(points: Vec<(f64, f64)>) -> crate::Result<Self> {
        let sampler = QuantileSampler { points };
        sampler.validate()?;
        Ok(sampler)
    }

    /// Re-checks the control-point invariants enforced by
    /// [`QuantileSampler::new`]. Samplers built through `new` are always
    /// valid; this covers samplers that arrived through deserialization,
    /// whose points were never screened.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSampler`](crate::Error::InvalidSampler)
    /// describing the first violated invariant.
    pub fn validate(&self) -> crate::Result<()> {
        let points = &self.points;
        let invalid = |reason: String| crate::Error::InvalidSampler { reason };
        if points.len() < 2 {
            return Err(invalid("need at least two control points".into()));
        }
        if points[0].0 != 0.0 || points[points.len() - 1].0 != 1.0 {
            return Err(invalid("quantiles must span [0, 1]".into()));
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(invalid(format!(
                    "quantiles must increase: {} then {}",
                    w[0].0, w[1].0
                )));
            }
            if w[1].1 < w[0].1 {
                return Err(invalid(format!(
                    "values must not decrease: {} then {}",
                    w[0].1, w[1].1
                )));
            }
        }
        if points.iter().any(|&(_, v)| v < 1.0 || !v.is_finite()) {
            return Err(invalid("token counts must be finite and >= 1".into()));
        }
        Ok(())
    }

    /// The value at quantile `q ∈ [0, 1]` (linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let mut iter = self.points.windows(2);
        while let Some([a, b]) = iter.next().map(|w| [w[0], w[1]]) {
            if q <= b.0 {
                let t = (q - a.0) / (b.0 - a.0);
                return a.1 + t * (b.1 - a.1);
            }
        }
        self.points[self.points.len() - 1].1
    }

    /// Analytic mean of the distribution (trapezoid rule over the inverse
    /// CDF, which is exact for a piecewise-linear one).
    pub fn mean(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0)
            .sum()
    }

    /// Draws one sample, rounded to a whole token count (min 1).
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        (self.quantile(rng.next_f64()).round() as u32).max(1)
    }
}

/// A workload dataset: paired prompt/output length distributions plus the
/// context-window cap of the serving model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Dataset name (for reports).
    pub name: String,
    /// Prompt-length distribution.
    pub prompt: QuantileSampler,
    /// Output-length distribution.
    pub output: QuantileSampler,
    /// Hard cap on prompt + output (the serving model's context window).
    pub max_context: u32,
}

impl Dataset {
    /// ShareGPT-like chatbot workload (Table 2 row 1). `max_context`
    /// should be the serving model's window (2048 for OPT).
    pub fn sharegpt(max_context: u32) -> Self {
        Dataset {
            name: "ShareGPT".to_string(),
            prompt: QuantileSampler::new(vec![
                (0.0, 4.0),
                (0.25, 330.0),
                (0.5, 695.0),
                (0.75, 1060.0),
                (0.9, 1556.0),
                (1.0, 2048.0),
            ])
            .expect("static control points"),
            output: QuantileSampler::new(vec![
                (0.0, 1.0),
                (0.25, 25.0),
                (0.5, 87.0),
                (0.75, 230.0),
                (0.9, 518.0),
                (1.0, 1200.0),
            ])
            .expect("static control points"),
            max_context,
        }
    }

    /// LongBench-like summarization workload (Table 2 row 2). Long prompts,
    /// short and heavily skewed outputs. `max_context` should be 4096 for
    /// LLaMA2.
    pub fn longbench(max_context: u32) -> Self {
        Dataset {
            name: "LongBench".to_string(),
            prompt: QuantileSampler::new(vec![
                (0.0, 1200.0),
                (0.25, 2700.0),
                (0.5, 2887.0),
                (0.75, 3350.0),
                (0.9, 3792.0),
                (1.0, 4096.0),
            ])
            .expect("static control points"),
            output: QuantileSampler::new(vec![
                (0.0, 1.0),
                (0.25, 3.0),
                (0.5, 12.0),
                (0.75, 70.0),
                (0.9, 369.0),
                (1.0, 700.0),
            ])
            .expect("static control points"),
            max_context,
        }
    }

    /// A fixed-length synthetic workload (useful for microbenchmarks and
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if either length is zero or their sum exceeds `max_context`.
    pub fn fixed(prompt_tokens: u32, output_tokens: u32, max_context: u32) -> Self {
        assert!(prompt_tokens > 0 && output_tokens > 0, "degenerate lengths");
        assert!(
            prompt_tokens + output_tokens <= max_context,
            "lengths exceed context window"
        );
        let constant = |v: u32| {
            QuantileSampler::new(vec![(0.0, f64::from(v)), (1.0, f64::from(v))])
                .expect("constant sampler")
        };
        Dataset {
            name: format!("Fixed({prompt_tokens}+{output_tokens})"),
            prompt: constant(prompt_tokens),
            output: constant(output_tokens),
            max_context,
        }
    }

    /// Resolves a dataset by its textual name — the single source of truth
    /// for every name-driven surface (CLI flags, fleet config files).
    /// Accepts `sharegpt`, `longbench` and `fixed:<prompt>:<output>`
    /// (case-insensitive), capping lengths to `max_context`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDataset`](crate::Error::UnknownDataset)
    /// listing the accepted names, or
    /// describing a malformed / out-of-window `fixed` spec.
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve_workload::Dataset;
    ///
    /// let d = Dataset::by_name("sharegpt", 2048).unwrap();
    /// assert_eq!(d.name, "ShareGPT");
    /// let f = Dataset::by_name("fixed:100:10", 2048).unwrap();
    /// assert_eq!(f.max_context, 2048);
    /// assert!(Dataset::by_name("imagenet", 2048).is_err());
    /// ```
    pub fn by_name(spec: &str, max_context: u32) -> crate::Result<Dataset> {
        let unknown = |reason: String| crate::Error::UnknownDataset { reason };
        let lower = spec.to_ascii_lowercase();
        if let Some(rest) = lower.strip_prefix("fixed:") {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 2 {
                return Err(unknown("fixed dataset is fixed:<prompt>:<output>".into()));
            }
            let parse = |s: &str| -> crate::Result<u32> {
                s.parse()
                    .map_err(|_| unknown(format!("bad token length {s:?}")))
            };
            let (prompt, output) = (parse(parts[0])?, parse(parts[1])?);
            if prompt == 0 || output == 0 || prompt + output > max_context {
                return Err(unknown(format!(
                    "fixed:{prompt}:{output} does not fit the {max_context}-token window"
                )));
            }
            return Ok(Dataset::fixed(prompt, output, max_context));
        }
        match lower.as_str() {
            "sharegpt" => Ok(Dataset::sharegpt(max_context)),
            "longbench" => Ok(Dataset::longbench(max_context)),
            other => Err(unknown(format!(
                "unknown dataset {other:?}; try sharegpt, longbench, fixed:<prompt>:<output>"
            ))),
        }
    }

    /// Checks that this dataset can actually produce requests: both
    /// samplers' control points hold their invariants and the context
    /// window leaves room for at least one prompt and one output token.
    /// Datasets built through the named constructors are always valid;
    /// this covers datasets assembled by hand or deserialized from a
    /// config file, which [`Dataset::sample_request`] would otherwise
    /// answer with a panic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDataset`](crate::Error::InvalidDataset) (or
    /// the underlying
    /// [`Error::InvalidSampler`](crate::Error::InvalidSampler)) describing
    /// the first violated invariant.
    pub fn validate(&self) -> crate::Result<()> {
        self.prompt.validate()?;
        self.output.validate()?;
        if self.max_context < 2 {
            return Err(crate::Error::InvalidDataset {
                reason: format!(
                    "{}: max_context {} leaves no room for a prompt and an output token",
                    self.name, self.max_context
                ),
            });
        }
        Ok(())
    }

    /// Samples one request with the given id and arrival time, clamping
    /// lengths so that `prompt + output <= max_context` (prompts are capped
    /// at `max_context - 1`; outputs fill what remains).
    pub fn sample_request(&self, id: RequestId, arrival: SimTime, rng: &mut SimRng) -> Request {
        let prompt = self.prompt.sample(rng).min(self.max_context - 1);
        let output = self.output.sample(rng).min(self.max_context - prompt);
        Request::new(id, arrival, prompt, output.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(sampler: &QuantileSampler, n: usize) -> (f64, f64, f64) {
        let mut rng = SimRng::seed_from_u64(42);
        let mut xs: Vec<u32> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        xs.sort_unstable();
        let mean = xs.iter().map(|&x| f64::from(x)).sum::<f64>() / n as f64;
        let median = f64::from(xs[n / 2]);
        let p90 = f64::from(xs[(n as f64 * 0.9) as usize]);
        (mean, median, p90)
    }

    fn assert_close(label: &str, actual: f64, target: f64, tol: f64) {
        assert!(
            (actual / target - 1.0).abs() < tol,
            "{label}: got {actual:.1}, want ~{target} (+/-{:.0}%)",
            tol * 100.0
        );
    }

    #[test]
    fn sharegpt_matches_table2_prompt_stats() {
        let d = Dataset::sharegpt(2048);
        let (mean, median, p90) = sample_stats(&d.prompt, 100_000);
        assert_close("mean", mean, 768.2, 0.05);
        assert_close("median", median, 695.0, 0.05);
        assert_close("p90", p90, 1556.0, 0.05);
    }

    #[test]
    fn sharegpt_matches_table2_output_stats() {
        let d = Dataset::sharegpt(2048);
        let (mean, median, p90) = sample_stats(&d.output, 100_000);
        assert_close("mean", mean, 195.9, 0.08);
        assert_close("median", median, 87.0, 0.05);
        assert_close("p90", p90, 518.0, 0.05);
    }

    #[test]
    fn longbench_matches_table2_prompt_stats() {
        let d = Dataset::longbench(4096);
        let (mean, median, p90) = sample_stats(&d.prompt, 100_000);
        assert_close("mean", mean, 2890.4, 0.05);
        assert_close("median", median, 2887.0, 0.05);
        assert_close("p90", p90, 3792.0, 0.05);
    }

    #[test]
    fn longbench_matches_table2_output_stats() {
        let d = Dataset::longbench(4096);
        let (mean, median, p90) = sample_stats(&d.output, 100_000);
        assert_close("mean", mean, 97.4, 0.10);
        assert_close("median", median, 12.0, 0.10);
        assert_close("p90", p90, 369.0, 0.06);
    }

    #[test]
    fn requests_respect_context_window() {
        let d = Dataset::sharegpt(2048);
        let mut rng = SimRng::seed_from_u64(7);
        for i in 0..10_000 {
            let r = d.sample_request(RequestId(i), SimTime::ZERO, &mut rng);
            assert!(r.final_context() <= 2048, "overflow: {r:?}");
            assert!(r.prompt_tokens >= 1 && r.output_tokens >= 1);
        }
    }

    #[test]
    fn analytic_mean_matches_empirical() {
        let d = Dataset::sharegpt(2048);
        let (mean, _, _) = sample_stats(&d.prompt, 200_000);
        assert!((d.prompt.mean() / mean - 1.0).abs() < 0.02);
    }

    #[test]
    fn quantile_interpolates_between_points() {
        let s = QuantileSampler::new(vec![(0.0, 1.0), (1.0, 101.0)]).unwrap();
        assert_eq!(s.quantile(0.5), 51.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 101.0);
    }

    #[test]
    fn invalid_control_points_are_rejected() {
        assert!(QuantileSampler::new(vec![(0.0, 1.0)]).is_err());
        assert!(QuantileSampler::new(vec![(0.1, 1.0), (1.0, 2.0)]).is_err());
        assert!(QuantileSampler::new(vec![(0.0, 5.0), (1.0, 2.0)]).is_err());
        assert!(QuantileSampler::new(vec![(0.0, 0.0), (1.0, 2.0)]).is_err());
    }

    #[test]
    fn validate_catches_hand_assembled_datasets() {
        assert!(Dataset::sharegpt(2048).validate().is_ok());
        // A window of one token cannot hold a prompt plus an output; only
        // validate() stands between this and an arithmetic panic inside
        // sample_request.
        let mut d = Dataset::fixed(1, 1, 2);
        d.max_context = 1;
        let err = d.validate().unwrap_err();
        assert!(matches!(err, crate::Error::InvalidDataset { .. }), "{err}");
        // Deserialized samplers are re-screened too.
        let mut d = Dataset::sharegpt(2048);
        d.prompt.validate().unwrap();
        d.output = QuantileSampler {
            points: vec![(0.5, 3.0)],
        };
        assert!(matches!(
            d.validate().unwrap_err(),
            crate::Error::InvalidSampler { .. }
        ));
    }

    #[test]
    fn fixed_dataset_is_deterministic() {
        let d = Dataset::fixed(100, 10, 2048);
        let mut rng = SimRng::seed_from_u64(1);
        let r = d.sample_request(RequestId(0), SimTime::ZERO, &mut rng);
        assert_eq!((r.prompt_tokens, r.output_tokens), (100, 10));
    }

    #[test]
    fn longbench_outputs_are_more_skewed_than_sharegpt() {
        // Mean far above median is the signature the paper exploits:
        // summarization outputs are short but heavy-tailed.
        let lb = Dataset::longbench(4096);
        let sg = Dataset::sharegpt(2048);
        let skew = |s: &QuantileSampler| s.mean() / s.quantile(0.5);
        assert!(skew(&lb.output) > skew(&sg.output));
    }
}
