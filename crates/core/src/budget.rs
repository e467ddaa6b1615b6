//! Calibration of the Algorithm 1 *budget*.
//!
//! "We establish a budget for assisting prefill jobs in the decoding
//! instance, limiting the maximum number of prefill tokens that do not
//! exceed the TPOT SLO in a single forward pass. WindServe determines the
//! budget through simulation and profiling before runtime" (§3.2.2).
//!
//! We binary-search the largest guest-prefill size whose co-execution with
//! a representative decode batch keeps the decode iteration within the
//! TPOT SLO — under the stream-sharing model when SBD is on, or under the
//! serialized hybrid-batch model when it is off. The cluster calibrates
//! every system under stream sharing, the no-split ablation (Fig. 13a)
//! included: that ablation removes only the execution-level stream
//! separation, not the dispatch policy, so it gets WindServe's budget and
//! its fused hybrid steps pay for it in TPOT.

use windserve_metrics::SloSpec;
use windserve_model::{BatchPlan, CostModel, PrefillChunk};
use windserve_sim::SimDuration;

/// A representative decode batch for calibration: 16 requests at the given
/// context (the paper's TPOT SLO definition uses batch 16 at the dataset's
/// average context).
fn reference_decode_plan(typical_context: u32) -> BatchPlan {
    BatchPlan::decode_only(vec![typical_context.max(1); 16])
}

/// Decode-iteration time when a guest prefill of `n` tokens co-executes.
fn decode_time_with_guest(
    cost: &CostModel,
    sbd: bool,
    typical_context: u32,
    n: u32,
) -> SimDuration {
    let decode = reference_decode_plan(typical_context);
    if n == 0 {
        return cost.step_time(&decode);
    }
    if sbd {
        let kd = cost.kernel_cost(&decode);
        let kp = cost.kernel_cost(&BatchPlan::single_prefill(n));
        let slow = windserve_gpu::slowdown(kd, kp);
        SimDuration::from_secs_f64(kd.alone_secs() * slow)
    } else {
        // Fused hybrid batch: the decode waits for the whole prefill.
        let mut plan = reference_decode_plan(typical_context);
        plan.add_prefill(PrefillChunk::whole(n));
        cost.hybrid_step_time(&plan)
    }
}

/// The largest guest-prefill token count that keeps a decode iteration
/// within `slo.tpot`, capped at `cap`. Returns 0 when even the smallest
/// guest violates the objective.
pub fn calibrate_aux_budget(
    cost: &CostModel,
    sbd: bool,
    slo: &SloSpec,
    typical_context: u32,
    cap: u32,
) -> u32 {
    let tpot = slo.tpot;
    if decode_time_with_guest(cost, sbd, typical_context, 16) > tpot {
        return 0;
    }
    let (mut lo, mut hi) = (16u32, cap.max(16));
    if decode_time_with_guest(cost, sbd, typical_context, hi) <= tpot {
        return hi;
    }
    while hi - lo > 16 {
        let mid = lo + (hi - lo) / 2;
        if decode_time_with_guest(cost, sbd, typical_context, mid) <= tpot {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use windserve_gpu::GpuSpec;
    use windserve_metrics::SloSpec;
    use windserve_model::{ModelSpec, Parallelism};

    fn opt13b() -> CostModel {
        CostModel::new(
            ModelSpec::opt_13b(),
            GpuSpec::a800_80gb(),
            Parallelism::tp(2),
        )
        .unwrap()
    }

    #[test]
    fn sbd_budget_exceeds_fused_budget() {
        // The whole point of stream-based disaggregation: the decode
        // instance can absorb far more guest prefill under SBD than when
        // fusing, for the same TPOT objective.
        let cost = opt13b();
        let slo = SloSpec::opt_13b_sharegpt();
        let sbd = calibrate_aux_budget(&cost, true, &slo, 968, 8192);
        let fused = calibrate_aux_budget(&cost, false, &slo, 968, 8192);
        assert!(sbd > fused, "sbd {sbd} vs fused {fused}");
        assert!(sbd >= 2048, "sbd budget should be generous: {sbd}");
    }

    #[test]
    fn fused_budget_respects_tpot() {
        let cost = opt13b();
        let slo = SloSpec::opt_13b_sharegpt();
        let budget = calibrate_aux_budget(&cost, false, &slo, 968, 8192);
        if budget > 0 {
            let t = decode_time_with_guest(&cost, false, 968, budget);
            assert!(t <= slo.tpot, "budget {budget} violates TPOT: {t}");
        }
    }

    #[test]
    fn impossible_slo_yields_zero_budget() {
        let cost = opt13b();
        let slo = SloSpec::new(SimDuration::from_millis(250), SimDuration::from_micros(100));
        assert_eq!(calibrate_aux_budget(&cost, true, &slo, 968, 8192), 0);
    }

    #[test]
    fn budget_monotone_in_tpot() {
        let cost = opt13b();
        let tight = SloSpec::new(SimDuration::from_millis(250), SimDuration::from_millis(20));
        let loose = SloSpec::new(SimDuration::from_millis(250), SimDuration::from_millis(200));
        let b_tight = calibrate_aux_budget(&cost, false, &tight, 968, 8192);
        let b_loose = calibrate_aux_budget(&cost, false, &loose, 968, 8192);
        assert!(b_loose >= b_tight);
    }
}
