//! # windserve-sim
//!
//! Deterministic discrete-event simulation kernel underpinning the WindServe
//! reproduction. It provides a few primitives, each small and heavily
//! tested:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time;
//! * [`EventQueue`] — the future-event list (time-ordered, FIFO ties);
//! * [`SimRng`] — a stable, seedable RNG (xoshiro256++) so every simulation
//!   is reproducible from one `u64`, and [`mix64`] / [`keyed_seed`] — the
//!   SplitMix64 finalizer and keyed seed behind every seeded hash;
//! * [`FxHashMap`] / [`FxHashSet`] — deterministic, fast hashing for the
//!   hot maps of the layers above (no per-process SipHash seed);
//! * [`KeyedSlab`] — values at stable, recycled slots, found by key through
//!   one such map, so hot loops that keep a slot skip the hash probe.
//!
//! The actual serving semantics (instances, batches, KV caches, the global
//! scheduler) live in the higher-level crates; this crate knows nothing
//! about LLMs.
//!
//! # Examples
//!
//! A minimal M/D/1 queue simulated with these primitives:
//!
//! ```
//! use windserve_sim::{EventQueue, SimDuration, SimRng, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let mut q = EventQueue::new();
//! let mut rng = SimRng::seed_from_u64(1);
//! let service = SimDuration::from_millis(10);
//! let mut t = SimTime::ZERO;
//! for _ in 0..100 {
//!     t += SimDuration::from_secs_f64(rng.next_exp(50.0));
//!     q.schedule(t, Ev::Arrival);
//! }
//! let mut busy_until = SimTime::ZERO;
//! let mut served = 0;
//! while let Some(ev) = q.pop() {
//!     match ev.event {
//!         Ev::Arrival => {
//!             let start = busy_until.max(ev.at);
//!             busy_until = start + service;
//!             q.schedule(busy_until, Ev::Departure);
//!         }
//!         Ev::Departure => served += 1,
//!     }
//! }
//! assert_eq!(served, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
mod queue;
mod rng;
mod slab;
mod time;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::{EventQueue, Scheduled};
pub use rng::{keyed_seed, mix64, SimRng, GOLDEN_GAMMA};
pub use slab::KeyedSlab;
pub use time::{SimDuration, SimTime};
