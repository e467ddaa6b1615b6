//! Tensor/pipeline parallelism configuration.
//!
//! Placement strategies in the paper (Table 3) are written `[TP-a, PP-b]`.
//! Tensor parallelism shards every layer across `tp` GPUs, dividing both
//! FLOPs and weight/KV traffic per GPU at the cost of collective
//! communication (NCCL all-reduces); pipeline parallelism splits layers
//! into `pp` sequential stages, which leaves single-pass latency unchanged
//! but lets `pp` batches be in flight at once (the engine models this as
//! `pp` execution lanes).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A `[TP-x, PP-y]` placement for one serving instance.
///
/// # Examples
///
/// ```
/// use windserve_model::Parallelism;
///
/// let p = Parallelism::new(2, 2);
/// assert_eq!(p.n_gpus(), 4);
/// assert_eq!(p.to_string(), "TP-2, PP-2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism {
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Pipeline-parallel degree.
    pub pp: u32,
}

impl Parallelism {
    /// Creates a placement.
    ///
    /// # Panics
    ///
    /// Panics if either degree is zero.
    pub fn new(tp: u32, pp: u32) -> Self {
        assert!(tp > 0 && pp > 0, "parallel degrees must be positive");
        Parallelism { tp, pp }
    }

    /// Tensor-parallel only.
    pub fn tp(tp: u32) -> Self {
        Parallelism::new(tp, 1)
    }

    /// GPUs consumed by the instance.
    pub fn n_gpus(&self) -> usize {
        (self.tp * self.pp) as usize
    }

    /// Fraction of linear TP speedup actually realized, accounting for
    /// all-reduce overhead (two collectives per layer). Calibrated to the
    /// commonly observed ~92-96% scaling at TP-2/TP-4 on NVLink-class
    /// fabrics.
    pub(crate) fn tp_efficiency(&self) -> f64 {
        1.0 / (1.0 + 0.05 * (self.tp as f64 - 1.0))
    }

    /// Number of concurrent execution lanes (in-flight batches) the
    /// pipeline sustains.
    pub fn lanes(&self) -> usize {
        self.pp as usize
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::new(1, 1)
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TP-{}, PP-{}", self.tp, self.pp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_count_is_product() {
        assert_eq!(Parallelism::new(2, 2).n_gpus(), 4);
        assert_eq!(Parallelism::tp(2).n_gpus(), 2);
    }

    #[test]
    fn tp_efficiency_decreases_with_degree() {
        let e1 = Parallelism::tp(1).tp_efficiency();
        let e2 = Parallelism::tp(2).tp_efficiency();
        let e4 = Parallelism::tp(4).tp_efficiency();
        assert_eq!(e1, 1.0);
        assert!(e2 < e1 && e4 < e2);
        assert!(e4 > 0.8, "TP-4 should still scale well");
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Parallelism::new(2, 1).to_string(), "TP-2, PP-1");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_degree_rejected() {
        let _ = Parallelism::new(0, 1);
    }
}
