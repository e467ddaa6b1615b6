//! Resource-utilization accounting.
//!
//! The paper's Fig. 2 motivates dynamic scheduling by showing that prefill
//! instances saturate tensor cores while decode instances saturate memory
//! bandwidth — each leaving the other resource mostly idle.
//! [`Utilization`] carries those mean-utilization numbers; an instance's
//! step statistics compute them.

use serde::{Deserialize, Serialize};

/// Mean utilization fractions over the observed window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    /// Mean tensor-core (compute) utilization, 0..=1.
    pub compute: f64,
    /// Mean memory-bandwidth utilization, 0..=1.
    pub bandwidth: f64,
    /// Number of execution steps observed.
    pub steps: u64,
    /// Total wall time observed, seconds.
    pub wall_secs: f64,
}
