//! # windserve-gpu
//!
//! Analytic hardware models for the WindServe reproduction:
//!
//! * [`GpuSpec`] — roofline parameters of one GPU (A800/A100/H100/RTX4090
//!   presets);
//! * [`KernelCost`] / [`StreamSharing`] — the CUDA-stream contention model
//!   behind stream-based disaggregation (paper §3.4);
//! * [`LinkKind`] / [`RouteSpec`] / [`TransferEngine`] — interconnect timing
//!   for KV handoff, migration and swap;
//! * [`Topology`] — the Fig. 9 testbed (NVLink-bridged pairs, two NUMA
//!   domains) and placement/route derivation.
//!
//! # Examples
//!
//! Reproducing the paper's §2.2 observation that a PCIe KV handoff costs
//! several decode iterations while NVLink is near-free:
//!
//! ```
//! use windserve_gpu::{GpuId, Topology};
//!
//! let topo = Topology::a800_testbed();
//! let (prefill, decode) = topo.paired_placement(2, 2);
//! let route = topo.route_between(&prefill, &decode);
//! let kv_bytes = (1.5 * (1u64 << 30) as f64) as u64; // OPT-13B, 2048 tokens
//! assert!(route.duration(kv_bytes).as_secs_f64() < 0.01); // NVLink pairs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod link;
mod spec;
mod stream;
mod topology;

pub use error::{Error, Result};
pub use link::{LinkKind, RouteId, RouteSpec, TransferEngine};
pub use spec::{GpuSpec, GIB};
pub use stream::{KernelCost, StreamSharing};
pub use topology::{GpuId, Topology};
