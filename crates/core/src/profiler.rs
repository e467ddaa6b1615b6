//! The Global Scheduler's Profiler (paper §3.2.1).
//!
//! Before runtime, the Profiler characterizes the instance's computing
//! capability by sweeping batch shapes and fitting
//!
//! * `T̂_prefill = a_p·N + b_p·N² + c_p`  (Eq. 1), and
//! * `T̂_decode  = a_d·ΣL + c_d`          (Eq. 2)
//!
//! by least squares ("obtained by profiling and quadratic regression before
//! runtime"). At runtime it predicts batch completion times — most
//! importantly `TTFT_pred` for Algorithm 1's overload test, fed with the
//! cumulative prefill-token backlog plus the anticipated remaining time of
//! the batch currently prefilling.
//!
//! In this reproduction the "measurements" come from the roofline cost
//! model, but the Profiler does not get to peek at it: it only sees
//! (shape, time) samples and must learn the curve, exactly as on real
//! hardware. Note the prefill curve is *not* a pure quadratic — below the
//! bandwidth roofline knee it is flat — so the fit genuinely has work to do.

use serde::{Deserialize, Serialize};
use windserve_model::{BatchPlan, CostModel};
use windserve_sim::SimDuration;

/// Fitted Eq. 1/2 coefficients and prediction entry points.
///
/// # Examples
///
/// ```
/// use windserve::Profiler;
/// use windserve_gpu::GpuSpec;
/// use windserve_model::{CostModel, ModelSpec, Parallelism};
///
/// # fn main() -> Result<(), windserve_model::Error> {
/// let cost = CostModel::new(ModelSpec::opt_13b(), GpuSpec::a800_80gb(),
///                           Parallelism::tp(2))?;
/// let profiler = Profiler::fit(&cost);
/// // Eq. 2: a decode step of 16 requests at context 1024.
/// let t = profiler.predict_decode(16 * 1024);
/// let truth = cost.step_time(&windserve_model::BatchPlan::decode_only(vec![1024; 16]));
/// let err = (t.as_secs_f64() / truth.as_secs_f64() - 1.0).abs();
/// assert!(err < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profiler {
    /// `[c_p, a_p, b_p]`: constant, linear, quadratic prefill coefficients.
    prefill_coeffs: [f64; 3],
    /// `[c_d, a_d]`: constant and per-context-token decode coefficients.
    decode_coeffs: [f64; 2],
    /// Mean relative fit error on the prefill training sweep.
    prefill_fit_error: f64,
    /// Mean relative fit error on the decode training sweep.
    decode_fit_error: f64,
}

impl Profiler {
    /// Profiles `cost` offline (sweeps of prefill sizes and decode context
    /// sums) and fits Eq. 1 and Eq. 2.
    pub fn fit(cost: &CostModel) -> Self {
        let max_n = cost.model().max_context.min(8192);
        // Prefill sweep: N from small to the context limit.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut n = 32u32;
        while n <= max_n {
            xs.push(f64::from(n));
            ys.push(cost.step_time(&BatchPlan::single_prefill(n)).as_secs_f64());
            n = (n as f64 * 1.3).ceil() as u32;
        }
        let prefill_coeffs = fit_poly2(&xs, &ys);
        let prefill_fit_error = mean_rel_error(&xs, &ys, |x| {
            prefill_coeffs[0] + prefill_coeffs[1] * x + prefill_coeffs[2] * x * x
        });

        // Decode sweep: a representative batch of 16 with varying ΣL.
        let mut dxs = Vec::new();
        let mut dys = Vec::new();
        for ctx in (64..=u64::from(max_n)).step_by((u64::from(max_n) / 12).max(1) as usize) {
            let contexts = vec![ctx as u32; 16];
            let sum_l: f64 = 16.0 * ctx as f64;
            dxs.push(sum_l);
            dys.push(
                cost.step_time(&BatchPlan::decode_only(contexts))
                    .as_secs_f64(),
            );
        }
        let decode_coeffs = fit_poly1(&dxs, &dys);
        let decode_fit_error =
            mean_rel_error(&dxs, &dys, |x| decode_coeffs[0] + decode_coeffs[1] * x);

        Profiler {
            prefill_coeffs,
            decode_coeffs,
            prefill_fit_error,
            decode_fit_error,
        }
    }

    /// Predicted duration of prefilling `n_tokens` prompt tokens (Eq. 1).
    pub(crate) fn predict_prefill(&self, n_tokens: u64) -> SimDuration {
        let x = n_tokens as f64;
        let [c, a, b] = self.prefill_coeffs;
        SimDuration::from_secs_f64((c + a * x + b * x * x).max(0.0))
    }

    /// Predicted duration of one decode iteration over a batch whose
    /// context lengths sum to `sum_context` (Eq. 2).
    pub fn predict_decode(&self, sum_context: u64) -> SimDuration {
        let [c, a] = self.decode_coeffs;
        SimDuration::from_secs_f64((c + a * sum_context as f64).max(0.0))
    }

    /// Algorithm 1's `TTFT_pred`: the predicted prefill completion time of
    /// a new request, given the queue's cumulative backlog tokens, the new
    /// request's prompt, and the anticipated remaining time of the batch
    /// currently prefilling.
    pub(crate) fn predict_ttft(
        &self,
        backlog_tokens: u64,
        new_prompt_tokens: u64,
        current_batch_remaining: SimDuration,
    ) -> SimDuration {
        self.predict_prefill(backlog_tokens + new_prompt_tokens) + current_batch_remaining
    }

    /// `(prefill, decode)` mean relative training errors — small values
    /// certify the Eq. 1/2 functional forms on this hardware/model pair.
    pub fn fit_errors(&self) -> (f64, f64) {
        (self.prefill_fit_error, self.decode_fit_error)
    }

    /// Raw Eq. 1 coefficients `[c_p, a_p, b_p]`.
    pub fn prefill_coefficients(&self) -> [f64; 3] {
        self.prefill_coeffs
    }

    /// Raw Eq. 2 coefficients `[c_d, a_d]`.
    pub fn decode_coefficients(&self) -> [f64; 2] {
        self.decode_coeffs
    }
}

/// Least-squares fit of `y = c0 + c1·x` (returns `[c0, c1]`).
fn fit_poly1(xs: &[f64], ys: &[f64]) -> [f64; 2] {
    assert!(xs.len() >= 2, "need at least two samples");
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let det = n * sxx - sx * sx;
    assert!(det.abs() > 1e-12, "degenerate design matrix");
    let c1 = (n * sxy - sx * sy) / det;
    let c0 = (sy - c1 * sx) / n;
    [c0, c1]
}

/// Least-squares fit of `y = c0 + c1·x + c2·x²` (returns `[c0, c1, c2]`)
/// via the 3×3 normal equations.
fn fit_poly2(xs: &[f64], ys: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 3, "need at least three samples");
    // Normal equations: A^T A c = A^T y with A = [1, x, x^2].
    let mut m = [[0.0f64; 4]; 3]; // augmented 3x4
    for (&x, &y) in xs.iter().zip(ys) {
        let row = [1.0, x, x * x];
        for i in 0..3 {
            for j in 0..3 {
                m[i][j] += row[i] * row[j];
            }
            m[i][3] += row[i] * y;
        }
    }
    solve3(&mut m)
}

/// Gaussian elimination with partial pivoting on an augmented 3×4 system.
fn solve3(m: &mut [[f64; 4]; 3]) -> [f64; 3] {
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&a, &b| {
                m[a][col]
                    .abs()
                    .partial_cmp(&m[b][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        m.swap(col, pivot);
        assert!(m[col][col].abs() > 1e-18, "singular system");
        for row in (col + 1)..3 {
            let f = m[row][col] / m[col][col];
            let pivot_row = m[col];
            for (cell, pivot) in m[row].iter_mut().zip(pivot_row).skip(col) {
                *cell -= f * pivot;
            }
        }
    }
    let mut c = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut acc = m[row][3];
        for k in (row + 1)..3 {
            acc -= m[row][k] * c[k];
        }
        c[row] = acc / m[row][row];
    }
    c
}

fn mean_rel_error(xs: &[f64], ys: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let total: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| ((f(x) - y) / y.max(1e-12)).abs())
        .sum();
    total / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use windserve_gpu::GpuSpec;
    use windserve_model::{ModelSpec, Parallelism};

    fn profiler_for(model: ModelSpec, par: Parallelism) -> (Profiler, CostModel) {
        let cost = CostModel::new(model, GpuSpec::a800_80gb(), par).unwrap();
        (Profiler::fit(&cost), cost)
    }

    #[test]
    fn prefill_fit_is_tight_enough_for_scheduling() {
        let (p, cost) = profiler_for(ModelSpec::opt_13b(), Parallelism::tp(2));
        let (pe, de) = p.fit_errors();
        assert!(pe < 0.15, "prefill fit error {pe}");
        assert!(de < 0.05, "decode fit error {de}");
        for n in [300u32, 900, 1700] {
            let pred = p.predict_prefill(u64::from(n)).as_secs_f64();
            let truth = cost.step_time(&BatchPlan::single_prefill(n)).as_secs_f64();
            assert!((pred / truth - 1.0).abs() < 0.3, "N={n}: {pred} vs {truth}");
        }
    }

    #[test]
    fn decode_fit_recovers_linearity() {
        // Eq. 2 is exactly linear in ΣL in the decode regime, so the fit
        // should be near-perfect there.
        let (p, cost) = profiler_for(ModelSpec::opt_66b(), Parallelism::new(2, 2));
        for ctx in [500u32, 1000, 2000] {
            let pred = p.predict_decode(16 * u64::from(ctx)).as_secs_f64();
            let truth = cost
                .step_time(&BatchPlan::decode_only(vec![ctx; 16]))
                .as_secs_f64();
            assert!(
                (pred / truth - 1.0).abs() < 0.1,
                "ctx={ctx}: {pred} vs {truth}"
            );
        }
    }

    #[test]
    fn ttft_pred_adds_backlog_and_remaining() {
        let (p, _) = profiler_for(ModelSpec::opt_13b(), Parallelism::tp(2));
        let base = p.predict_ttft(0, 700, SimDuration::ZERO);
        let queued = p.predict_ttft(3000, 700, SimDuration::from_millis(40));
        assert!(queued > base + SimDuration::from_millis(40));
    }

    #[test]
    fn quadratic_term_is_positive() {
        let (p, _) = profiler_for(ModelSpec::llama2_13b(), Parallelism::tp(2));
        let [_, a, b] = p.prefill_coefficients();
        assert!(a > 0.0, "linear term {a}");
        assert!(b > 0.0, "quadratic term {b}");
    }

    #[test]
    fn predictions_are_monotone() {
        let (p, _) = profiler_for(ModelSpec::opt_13b(), Parallelism::tp(2));
        let mut last = SimDuration::ZERO;
        for n in (100..4000).step_by(300) {
            let t = p.predict_prefill(n);
            assert!(t >= last);
            last = t;
        }
    }

    proptest! {
        /// The quadratic solver recovers exact polynomial coefficients.
        #[test]
        fn solver_recovers_exact_polynomials(c0 in -10.0f64..10.0, c1 in -1.0f64..1.0,
                                             c2 in 0.0001f64..0.1) {
            let xs: Vec<f64> = (1..40).map(|i| i as f64 * 3.0).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
            let got = fit_poly2(&xs, &ys);
            prop_assert!((got[0] - c0).abs() < 1e-5);
            prop_assert!((got[1] - c1).abs() < 1e-6);
            prop_assert!((got[2] - c2).abs() < 1e-8);
        }

        /// The linear solver recovers exact lines.
        #[test]
        fn linear_solver_recovers_lines(c0 in -10.0f64..10.0, c1 in -1.0f64..1.0) {
            let xs: Vec<f64> = (1..20).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x).collect();
            let got = fit_poly1(&xs, &ys);
            prop_assert!((got[0] - c0).abs() < 1e-8);
            prop_assert!((got[1] - c1).abs() < 1e-9);
        }
    }
}
