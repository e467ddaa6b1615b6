//! # windserve-model
//!
//! Transformer cost modeling for the WindServe reproduction:
//!
//! * [`ModelSpec`] — architecture presets (OPT-13B/30B/66B, LLaMA2-13B/70B)
//!   with parameter counts, KV sizing, MHA vs GQA;
//! * [`flops`] — the paper's Table 1 per-layer FLOPs/IO formulas, exact and
//!   generalized;
//! * [`BatchPlan`] — the work content of one forward pass (prefill chunks +
//!   decode jobs);
//! * [`CostModel`] — prices a plan on a `(model, GPU, parallelism)` triple,
//!   yielding the roofline legs consumed by the stream-contention model.
//!
//! # Examples
//!
//! The paper's central asymmetry — prefill compute-bound, decode I/O-bound —
//! falls straight out of the cost model:
//!
//! ```
//! use windserve_model::{BatchPlan, CostModel, ModelSpec, Parallelism};
//! use windserve_gpu::GpuSpec;
//!
//! let cm = CostModel::new(ModelSpec::opt_13b(), GpuSpec::a800_80gb(),
//!                         Parallelism::tp(2)).unwrap();
//! assert!(cm.is_compute_bound(&BatchPlan::single_prefill(1024)));
//! assert!(!cm.is_compute_bound(&BatchPlan::decode_only(vec![1024; 8])));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cost;
mod error;
pub mod flops;
mod parallel;
mod spec;

pub use batch::{BatchPlan, PrefillChunk};
pub use cost::{CostModel, DecodePricer, StepCacheStats};
pub use error::{Error, Result};
pub use parallel::Parallelism;
pub use spec::{AttentionKind, FfnKind, ModelSpec};
