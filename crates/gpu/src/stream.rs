//! CUDA-stream contention model.
//!
//! Stream-based disaggregation (paper §3.4) runs decode and a few prefill
//! jobs in *separate CUDA streams* on the same GPU. Modern GPUs (Hyper-Q)
//! co-schedule kernels from different streams onto the same SMs, so streams
//! share compute and memory bandwidth directly — flexible but with "poor
//! isolation".
//!
//! We model this with proportional resource sharing. Each kernel is
//! summarized by its standalone compute time and I/O time (the two legs of
//! the roofline); running alone it takes `max(compute, io)`. Its *demand* on
//! a resource is the fraction of its standalone runtime for which it would
//! saturate that resource. When several streams run concurrently, each
//! resource with total demand above 1.0 is divided proportionally, which
//! stretches every kernel's leg on that resource by the oversubscription
//! factor. A small per-extra-stream concurrency tax accounts for the
//! effects the paper concedes in §7 (doubled model I/O for weights read by
//! both streams, reduced kernel parallelism from the opaque CTA scheduler).
//!
//! This is exactly why SBD works: prefill is compute-saturated (demand
//! ≈ (1.0, ε)) and decode is bandwidth-saturated (demand ≈ (ε, 1.0)), so
//! their demands are complementary and both run near full speed — unlike a
//! hybrid batch, which serializes them in one stream.

use serde::{Deserialize, Serialize};

/// Standalone roofline legs of one kernel (or one fused step): the time it
/// would spend if it were purely compute-bound, and purely I/O-bound.
/// Standalone runtime is `max(compute_secs, io_secs)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Compute leg, seconds at full effective FLOP rate.
    pub compute_secs: f64,
    /// Memory-traffic leg, seconds at full effective bandwidth.
    pub io_secs: f64,
}

impl KernelCost {
    /// A kernel with no work.
    pub const ZERO: KernelCost = KernelCost {
        compute_secs: 0.0,
        io_secs: 0.0,
    };

    /// Creates a kernel cost.
    ///
    /// # Panics
    ///
    /// Panics if either leg is negative or not finite.
    pub fn new(compute_secs: f64, io_secs: f64) -> Self {
        assert!(
            compute_secs.is_finite() && compute_secs >= 0.0,
            "invalid compute leg {compute_secs}"
        );
        assert!(
            io_secs.is_finite() && io_secs >= 0.0,
            "invalid io leg {io_secs}"
        );
        KernelCost {
            compute_secs,
            io_secs,
        }
    }

    /// Runtime when the kernel has the GPU to itself.
    pub fn alone_secs(&self) -> f64 {
        self.compute_secs.max(self.io_secs)
    }

    /// Fraction of standalone runtime during which the compute pipes are
    /// saturated (0 for an empty kernel).
    fn compute_demand(&self) -> f64 {
        let alone = self.alone_secs();
        if alone == 0.0 {
            0.0
        } else {
            self.compute_secs / alone
        }
    }

    /// Fraction of standalone runtime during which HBM is saturated.
    fn bandwidth_demand(&self) -> f64 {
        let alone = self.alone_secs();
        if alone == 0.0 {
            0.0
        } else {
            self.io_secs / alone
        }
    }

    /// True if the kernel does no work.
    pub(crate) fn is_zero(&self) -> bool {
        self.compute_secs == 0.0 && self.io_secs == 0.0
    }
}

/// Multiplicative overhead added per concurrent stream beyond the first
/// (weights re-read, scheduler friction). The paper's Fig. 8 data imply a
/// few percent.
const CONCURRENCY_TAX: f64 = 0.06;

/// Per-stream slowdown factors (`>= 1`) when all `kernels` run
/// concurrently in separate streams. Index `i` of the result scales
/// kernel `i`'s standalone runtime.
///
/// Zero-work kernels get slowdown 1 and impose no demand.
pub fn slowdowns(kernels: &[KernelCost]) -> Vec<f64> {
    let active = kernels.iter().filter(|k| !k.is_zero()).count();
    let total_compute: f64 = kernels.iter().map(|k| k.compute_demand()).sum();
    let total_bw: f64 = kernels.iter().map(|k| k.bandwidth_demand()).sum();
    let compute_stretch = total_compute.max(1.0);
    let bw_stretch = total_bw.max(1.0);
    let tax = 1.0 + CONCURRENCY_TAX * active.saturating_sub(1) as f64;
    kernels
        .iter()
        .map(|k| {
            let alone = k.alone_secs();
            if alone == 0.0 {
                return 1.0;
            }
            let shared = (k.compute_secs * compute_stretch).max(k.io_secs * bw_stretch) * tax;
            shared / alone
        })
        .collect()
}

/// Slowdown of `kernel` while `other` runs in a second stream: exactly
/// `slowdowns(&[kernel, other])[0]`, without the `Vec`. The engine prices
/// every decode step formed next to a guest prefill with it.
pub fn slowdown(kernel: KernelCost, other: KernelCost) -> f64 {
    let alone = kernel.alone_secs();
    if alone == 0.0 {
        return 1.0;
    }
    let active = usize::from(!kernel.is_zero()) + usize::from(!other.is_zero());
    let compute_stretch = (kernel.compute_demand() + other.compute_demand()).max(1.0);
    let bw_stretch = (kernel.bandwidth_demand() + other.bandwidth_demand()).max(1.0);
    let tax = 1.0 + CONCURRENCY_TAX * active.saturating_sub(1) as f64;
    let shared = (kernel.compute_secs * compute_stretch).max(kernel.io_secs * bw_stretch) * tax;
    shared / alone
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefill_like() -> KernelCost {
        // Compute-bound: 60 ms of compute, 7 ms of I/O.
        KernelCost::new(0.060, 0.007)
    }

    fn decode_like() -> KernelCost {
        // Bandwidth-bound: 1.5 ms of compute, 13 ms of I/O.
        KernelCost::new(0.0015, 0.013)
    }

    #[test]
    fn alone_time_is_roofline_max() {
        assert_eq!(prefill_like().alone_secs(), 0.060);
        assert_eq!(decode_like().alone_secs(), 0.013);
    }

    #[test]
    fn complementary_kernels_overlap_cheaply() {
        let sp = slowdown(prefill_like(), decode_like());
        let sd = slowdown(decode_like(), prefill_like());
        // Demands: compute 1.0 + 0.115, bandwidth 0.117 + 1.0 — both barely
        // oversubscribed, so slowdowns stay well under the serialization
        // factor.
        assert!(sp > 1.0 && sp < 1.35, "prefill slowdown {sp}");
        assert!(sd > 1.0 && sd < 1.35, "decode slowdown {sd}");
    }

    #[test]
    fn identical_compute_bound_kernels_halve_throughput() {
        let k = KernelCost::new(0.05, 0.001);
        // Net of the one extra stream's tax, each kernel runs at half speed.
        let s: Vec<f64> = slowdowns(&[k, k])
            .into_iter()
            .map(|x| x / (1.0 + CONCURRENCY_TAX))
            .collect();
        assert!((s[0] - 2.0).abs() < 0.05, "got {}", s[0]);
        assert!((s[1] - 2.0).abs() < 0.05);
    }

    #[test]
    fn sbd_beats_fusion_for_decode_latency() {
        // The paper's core micro-claim (Fig. 8): with SBD the decode
        // iteration stays near its standalone cost, while a hybrid (fused)
        // batch makes the decode wait for the whole prefill.
        let p = prefill_like();
        let d = decode_like();
        let sd = slowdown(d, p);
        let sbd_decode = d.alone_secs() * sd;
        // A hybrid batch runs both kernels back-to-back, so their legs add.
        let fused_step =
            KernelCost::new(p.compute_secs + d.compute_secs, p.io_secs + d.io_secs).alone_secs();
        assert!(sbd_decode < 0.4 * fused_step);
    }

    #[test]
    fn two_kernel_slowdown_is_bit_identical_to_slowdowns() {
        let kernels = [
            KernelCost::ZERO,
            KernelCost::new(0.0, 0.004),
            KernelCost::new(-0.0, 0.0),
            prefill_like(),
            decode_like(),
            KernelCost::new(0.05, 0.001),
            KernelCost::new(0.0123456789, 0.0123456789),
            KernelCost::new(3.5e-4, 1.9e-2),
        ];
        for &a in &kernels {
            for &b in &kernels {
                let reference = slowdowns(&[a, b])[0];
                let got = slowdown(a, b);
                assert_eq!(got.to_bits(), reference.to_bits(), "{a:?} beside {b:?}");
            }
        }
    }

    #[test]
    fn zero_kernel_is_inert() {
        let s = slowdowns(&[KernelCost::ZERO, decode_like()]);
        assert_eq!(s[0], 1.0);
        assert!((s[1] - 1.0).abs() < 1e-9, "solo kernel should be unshared");
    }

    #[test]
    fn slowdowns_are_monotone_in_load() {
        let d = decode_like();
        let one = slowdowns(&[d, prefill_like()])[0];
        let big_prefill = KernelCost::new(0.2, 0.05);
        let two = slowdowns(&[d, big_prefill])[0];
        assert!(two >= one);
    }

    #[test]
    #[should_panic(expected = "invalid compute leg")]
    fn negative_cost_rejected() {
        let _ = KernelCost::new(-0.1, 0.0);
    }
}
