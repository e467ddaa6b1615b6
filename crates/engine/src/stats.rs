//! Per-instance execution statistics.

use crate::outcome::StepKind;
use serde::{Deserialize, Serialize};
use windserve_gpu::KernelCost;
use windserve_metrics::Utilization;
use windserve_sim::SimDuration;

/// Counters and resource integrals for one instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Steps executed, by kind.
    pub prefill_steps: u64,
    /// Pure decode steps.
    pub decode_steps: u64,
    /// Single-stream hybrid steps.
    pub hybrid_steps: u64,
    /// Guest-prefill (aux stream) steps.
    pub aux_steps: u64,
    /// Prefill tokens processed.
    pub prefill_tokens: u64,
    /// Decode tokens produced.
    pub decode_tokens: u64,
    /// Seconds of compute-leg work executed (at full TP-group rate).
    pub compute_busy_secs: f64,
    /// Seconds of I/O-leg work executed.
    pub io_busy_secs: f64,
    /// Wall seconds during which at least this step ran (summed per step;
    /// lanes overlap, so this can exceed elapsed time).
    pub step_wall_secs: f64,
    /// Swap delay charged to steps, seconds.
    pub swap_delay_secs: f64,
    /// Recompute preemptions performed.
    pub recomputes: u64,
    /// Injected crashes survived (fault injection).
    pub crashes: u64,
}

impl InstanceStats {
    /// Records one completed step.
    pub(crate) fn record_step(
        &mut self,
        kind: StepKind,
        duration: SimDuration,
        kernel: &KernelCost,
    ) {
        match kind {
            StepKind::Prefill => self.prefill_steps += 1,
            StepKind::Decode => self.decode_steps += 1,
            StepKind::Hybrid => self.hybrid_steps += 1,
            StepKind::AuxPrefill => self.aux_steps += 1,
        }
        self.compute_busy_secs += kernel.compute_secs;
        self.io_busy_secs += kernel.io_secs;
        self.step_wall_secs += duration.as_secs_f64();
    }

    /// Mean utilization over `wall_secs` of elapsed time, with `lanes`
    /// parallel pipeline slots (resource integrals are per TP-group; an
    /// instance has `lanes` of them).
    pub fn utilization(&self, wall_secs: f64, lanes: usize) -> Utilization {
        let denom = (wall_secs * lanes as f64).max(f64::MIN_POSITIVE);
        Utilization {
            compute: (self.compute_busy_secs / denom).min(1.0),
            bandwidth: (self.io_busy_secs / denom).min(1.0),
            steps: self.prefill_steps + self.decode_steps + self.hybrid_steps + self.aux_steps,
            wall_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_counted_by_kind() {
        let mut s = InstanceStats::default();
        s.record_step(
            StepKind::Decode,
            SimDuration::from_millis(10),
            &KernelCost::new(0.001, 0.009),
        );
        s.record_step(
            StepKind::Prefill,
            SimDuration::from_millis(60),
            &KernelCost::new(0.058, 0.006),
        );
        assert_eq!(s.decode_steps, 1);
        assert_eq!(s.prefill_steps, 1);
        assert!((s.compute_busy_secs - 0.059).abs() < 1e-12);
    }

    #[test]
    fn utilization_reflects_regime() {
        let mut s = InstanceStats::default();
        // A prefill-heavy second: compute-saturated, I/O light.
        s.record_step(
            StepKind::Prefill,
            SimDuration::from_secs(1),
            &KernelCost::new(0.95, 0.1),
        );
        let u = s.utilization(1.0, 1);
        assert!(u.compute > 0.9);
        assert!(u.bandwidth < 0.2);
    }

    #[test]
    fn utilization_divides_across_lanes() {
        let mut s = InstanceStats::default();
        s.record_step(
            StepKind::Decode,
            SimDuration::from_secs(1),
            &KernelCost::new(0.1, 0.9),
        );
        let one = s.utilization(1.0, 1);
        let two = s.utilization(1.0, 2);
        assert!((one.bandwidth / two.bandwidth - 2.0).abs() < 1e-9);
    }
}
