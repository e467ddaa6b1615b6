//! # windserve-faults
//!
//! Seeded, deterministic fault injection for the WindServe simulator.
//!
//! A [`FaultPlan`] is a declarative description of everything that goes
//! wrong during a run: replica crashes and recoveries pinned to simulated
//! timestamps, a per-attempt KV-transfer failure probability, link
//! degradation windows, and straggler delays. The cluster event loop
//! schedules the plan's [`FaultEvent`]s on the same clock as every other
//! event, so the same seed and the same plan always produce the same
//! byte-identical trace — failure scenarios inherit the simulator's
//! determinism guarantee instead of weakening it.
//!
//! Transfer failures are *not* drawn from a shared RNG stream: each
//! `(transfer id, attempt)` pair is hashed together with the plan seed
//! into its own one-shot generator ([`FaultPlan::transfer_fails`]). The
//! verdict for a given transfer attempt is therefore a pure function of
//! the plan, independent of the order in which the cluster happens to ask.
//!
//! # Examples
//!
//! ```
//! use windserve_faults::{FaultKind, FaultPlan};
//! use windserve_sim::{SimDuration, SimTime};
//!
//! let plan = FaultPlan::new(42)
//!     .with_event(SimTime::from_secs_f64(30.0), FaultKind::ReplicaCrash { inst: 1 })
//!     .with_event(SimTime::from_secs_f64(90.0), FaultKind::ReplicaRecover { inst: 1 })
//!     .with_transfer_failures(0.2, 3, SimDuration::from_millis(5));
//! assert!(plan.validate().is_ok());
//! // Same plan, same transfer, same attempt: same verdict, always.
//! assert_eq!(plan.transfer_fails(7, 0), plan.transfer_fails(7, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use windserve_sim::{keyed_seed, SimDuration, SimRng, SimTime};

pub mod net;

pub use net::{NetFaultKind, NetFaultPlan, NetFaultRecord, NET_PRESETS};

/// A typed fault-plan validation failure.
///
/// Carried by [`FaultPlan::validate`] and [`NetFaultPlan::validate`]
/// instead of a bare string, so callers can match on the failure class;
/// the [`Display`](std::fmt::Display) form keeps the original
/// human-readable message for error envelopes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// A probability field was outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which probability field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A link degradation factor was below 1 or non-finite.
    BadDegradeFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A straggler delay was zero (the fault would be a no-op).
    ZeroStragglerDelay,
    /// A duration field must be nonzero while its fault is enabled.
    ZeroDuration {
        /// Which duration field.
        field: &'static str,
    },
    /// A preset name did not match any known preset.
    UnknownPreset {
        /// The name as given.
        name: String,
        /// The accepted preset names.
        known: &'static [&'static str],
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} must be in [0, 1], got {value}")
            }
            FaultError::BadDegradeFactor { factor } => {
                write!(f, "link degradation factor must be >= 1, got {factor}")
            }
            FaultError::ZeroStragglerDelay => write!(f, "straggler delay must be nonzero"),
            FaultError::ZeroDuration { field } => {
                write!(f, "{field} must be nonzero while its fault is enabled")
            }
            FaultError::UnknownPreset { name, known } => {
                write!(f, "unknown preset {name:?}; try one of {known:?}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// The instance at this index stops abruptly: every resident sequence
    /// and KV block is lost and the replica routes no further traffic
    /// until a matching [`FaultKind::ReplicaRecover`].
    ReplicaCrash {
        /// Cluster-wide instance index.
        inst: u32,
    },
    /// The instance at this index rejoins the cluster empty.
    ReplicaRecover {
        /// Cluster-wide instance index.
        inst: u32,
    },
    /// The interconnect slows down: transfers cost `factor`× their
    /// healthy duration until a [`FaultKind::LinkRestore`].
    LinkDegrade {
        /// Multiplier on effective transfer cost; must be ≥ 1.
        factor: f64,
    },
    /// The interconnect returns to full speed.
    LinkRestore,
    /// The instance at this index hiccups once: its next engine step is
    /// stretched by `delay` (a GC pause, a preempted VM, a slow peer).
    Straggler {
        /// Cluster-wide instance index.
        inst: u32,
        /// Extra latency added to the instance's next step.
        delay: SimDuration,
    },
}

impl FaultKind {
    /// Short machine-readable label, used in traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ReplicaCrash { .. } => "replica_crash",
            FaultKind::ReplicaRecover { .. } => "replica_recover",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::LinkRestore => "link_restore",
            FaultKind::Straggler { .. } => "straggler",
        }
    }

    /// The instance this fault targets, if it targets one.
    pub fn instance(&self) -> Option<u32> {
        match self {
            FaultKind::ReplicaCrash { inst }
            | FaultKind::ReplicaRecover { inst }
            | FaultKind::Straggler { inst, .. } => Some(*inst),
            FaultKind::LinkDegrade { .. } | FaultKind::LinkRestore => None,
        }
    }
}

/// A fault pinned to a point on the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The known preset names accepted by [`FaultPlan::from_preset`].
pub const FAULT_PRESETS: &[&str] = &[
    "decode-crash",
    "prefill-crash",
    "flaky-transfers",
    "degraded-link",
    "chaos",
];

/// A complete, seeded description of the failures injected into one run.
///
/// Build one with [`FaultPlan::new`] plus the `with_*` methods, or use a
/// preset ([`FaultPlan::from_preset`], [`FaultPlan::replica_crash`],
/// ...). Attach it to a serving configuration by setting its `faults`
/// field: `ServeConfig { faults: Some(plan), ..base }`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Timed faults, fired in chronological order.
    pub events: Vec<FaultEvent>,
    /// Probability in `[0, 1]` that any single KV-transfer attempt fails.
    pub transfer_failure_p: f64,
    /// How many times a failed transfer is retried before the cluster
    /// falls back to a degraded path (local decode or re-prefill).
    pub max_transfer_retries: u32,
    /// Base backoff before a retry; attempt `k` waits `backoff × k`.
    pub retry_backoff: SimDuration,
    /// Seed for the plan's own randomness (transfer-failure verdicts).
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan: no timed faults, no transfer failures.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            events: Vec::new(),
            transfer_failure_p: 0.0,
            max_transfer_retries: 3,
            retry_backoff: SimDuration::from_millis(5),
            seed,
        }
    }

    /// Adds one timed fault.
    #[must_use]
    pub fn with_event(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Enables probabilistic KV-transfer failures with bounded retry.
    #[must_use]
    pub fn with_transfer_failures(
        mut self,
        p: f64,
        max_retries: u32,
        backoff: SimDuration,
    ) -> Self {
        self.transfer_failure_p = p;
        self.max_transfer_retries = max_retries;
        self.retry_backoff = backoff;
        self
    }

    /// Resolves a preset by name (see [`FAULT_PRESETS`]). Crashes land on
    /// replica `first_decode` (`decode-crash`, `chaos`) or replica 0
    /// (`prefill-crash`); timed faults are placed over `horizon`, the
    /// run's expected span.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnknownPreset`] for a name outside the registry.
    pub fn from_preset(
        name: &str,
        first_decode: u32,
        horizon: SimDuration,
        seed: u64,
    ) -> Result<Self, FaultError> {
        match name {
            "decode-crash" => Ok(FaultPlan::replica_crash(first_decode, horizon, seed)),
            "prefill-crash" => Ok(FaultPlan::replica_crash(0, horizon, seed)),
            "flaky-transfers" => Ok(FaultPlan::flaky_transfers(seed)),
            "degraded-link" => Ok(FaultPlan::degraded_link(horizon, seed)),
            "chaos" => Ok(FaultPlan::chaos(first_decode, horizon, seed)),
            other => Err(FaultError::UnknownPreset {
                name: other.to_string(),
                known: FAULT_PRESETS,
            }),
        }
    }

    /// Preset: crash one replica partway through the run, recover it later.
    ///
    /// `horizon` is the expected run length; the crash lands at 25% and the
    /// recovery at 65% of it, which leaves enough healthy tail for the
    /// backlog to drain.
    pub fn replica_crash(inst: u32, horizon: SimDuration, seed: u64) -> Self {
        let crash = SimTime::ZERO + horizon.mul_f64(0.25);
        let recover = SimTime::ZERO + horizon.mul_f64(0.65);
        FaultPlan::new(seed)
            .with_event(crash, FaultKind::ReplicaCrash { inst })
            .with_event(recover, FaultKind::ReplicaRecover { inst })
    }

    /// Preset: every KV transfer fails with probability 0.3, retried up to
    /// 4 times with 5 ms backoff.
    pub fn flaky_transfers(seed: u64) -> Self {
        FaultPlan::new(seed).with_transfer_failures(0.3, 4, SimDuration::from_millis(5))
    }

    /// Preset: the interconnect runs 4× slower for the middle half of the
    /// run.
    pub fn degraded_link(horizon: SimDuration, seed: u64) -> Self {
        let start = SimTime::ZERO + horizon.mul_f64(0.25);
        let end = SimTime::ZERO + horizon.mul_f64(0.75);
        FaultPlan::new(seed)
            .with_event(start, FaultKind::LinkDegrade { factor: 4.0 })
            .with_event(end, FaultKind::LinkRestore)
    }

    /// Preset: everything at once — a crash/recover cycle, a degraded-link
    /// window, flaky transfers and a straggler hiccup.
    pub fn chaos(inst: u32, horizon: SimDuration, seed: u64) -> Self {
        FaultPlan::replica_crash(inst, horizon, seed)
            .with_event(
                SimTime::ZERO + horizon.mul_f64(0.10),
                FaultKind::LinkDegrade { factor: 2.0 },
            )
            .with_event(
                SimTime::ZERO + horizon.mul_f64(0.50),
                FaultKind::LinkRestore,
            )
            .with_event(
                SimTime::ZERO + horizon.mul_f64(0.40),
                FaultKind::Straggler {
                    inst: 0,
                    delay: SimDuration::from_millis(200),
                },
            )
            .with_transfer_failures(0.15, 3, SimDuration::from_millis(5))
    }

    /// The timed events sorted chronologically (stable, so same-time
    /// events keep their declaration order).
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at);
        events
    }

    /// Checks the plan for nonsense values.
    ///
    /// # Errors
    ///
    /// Returns a typed [`FaultError`] when a probability is outside
    /// `[0, 1]`, a degradation factor is below 1, or a straggler delay is
    /// zero.
    pub fn validate(&self) -> Result<(), FaultError> {
        if !(0.0..=1.0).contains(&self.transfer_failure_p) {
            return Err(FaultError::ProbabilityOutOfRange {
                field: "transfer_failure_p",
                value: self.transfer_failure_p,
            });
        }
        for event in &self.events {
            match event.kind {
                FaultKind::LinkDegrade { factor } if !(factor >= 1.0 && factor.is_finite()) => {
                    return Err(FaultError::BadDegradeFactor { factor });
                }
                FaultKind::Straggler { delay, .. } if delay.is_zero() => {
                    return Err(FaultError::ZeroStragglerDelay);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Whether transfer `tid`'s attempt number `attempt` fails.
    ///
    /// The verdict is a pure function of `(seed, tid, attempt)`: each pair
    /// seeds its own one-shot xoshiro generator, so the answer does not
    /// depend on how many other transfers were asked about first or in
    /// what order. This is what keeps fault runs byte-identical across
    /// repeats even though the cluster consults the plan from inside
    /// hash-map-driven bookkeeping.
    pub fn transfer_fails(&self, tid: u64, attempt: u32) -> bool {
        if self.transfer_failure_p <= 0.0 {
            return false;
        }
        if self.transfer_failure_p >= 1.0 {
            return true;
        }
        let mut rng = SimRng::seed_from_u64(keyed_seed(self.seed, tid, u64::from(attempt)));
        rng.next_f64() < self.transfer_failure_p
    }

    /// Backoff before retry attempt `attempt` (1-based): `backoff × attempt`.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        SimDuration::from_micros(
            self.retry_backoff
                .as_micros()
                .saturating_mul(u64::from(attempt)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when the plan injects nothing at all.
    fn is_empty(plan: &FaultPlan) -> bool {
        plan.events.is_empty() && plan.transfer_failure_p <= 0.0
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new(1);
        assert!(is_empty(&plan));
        assert!(plan.validate().is_ok());
        assert!(!plan.transfer_fails(0, 0));
    }

    #[test]
    fn sorted_events_are_chronological_and_stable() {
        let plan = FaultPlan::new(0)
            .with_event(SimTime::from_micros(300), FaultKind::LinkRestore)
            .with_event(
                SimTime::from_micros(100),
                FaultKind::ReplicaCrash { inst: 1 },
            )
            .with_event(
                SimTime::from_micros(100),
                FaultKind::ReplicaRecover { inst: 2 },
            );
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0].kind, FaultKind::ReplicaCrash { inst: 1 });
        assert_eq!(sorted[1].kind, FaultKind::ReplicaRecover { inst: 2 });
        assert_eq!(sorted[2].kind, FaultKind::LinkRestore);
    }

    #[test]
    fn validate_rejects_bad_probability_and_factor() {
        let mut plan = FaultPlan::new(0);
        plan.transfer_failure_p = 1.5;
        let err = plan.validate().unwrap_err();
        assert!(
            matches!(
                err,
                FaultError::ProbabilityOutOfRange {
                    field: "transfer_failure_p",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("[0, 1]"), "{err}");

        let plan =
            FaultPlan::new(0).with_event(SimTime::ZERO, FaultKind::LinkDegrade { factor: 0.5 });
        assert!(matches!(
            plan.validate(),
            Err(FaultError::BadDegradeFactor { .. })
        ));

        let plan = FaultPlan::new(0).with_event(
            SimTime::ZERO,
            FaultKind::Straggler {
                inst: 0,
                delay: SimDuration::ZERO,
            },
        );
        assert!(plan.validate().is_err());
    }

    #[test]
    fn transfer_verdicts_are_order_independent() {
        let plan = FaultPlan::new(99).with_transfer_failures(0.5, 3, SimDuration::from_millis(1));
        // Record verdicts in one order...
        let forward: Vec<bool> = (0..64).map(|tid| plan.transfer_fails(tid, 0)).collect();
        // ...then ask in reverse; every answer must match.
        let backward: Vec<bool> = (0..64)
            .rev()
            .map(|tid| plan.transfer_fails(tid, 0))
            .collect();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn transfer_failure_rate_tracks_probability() {
        let plan = FaultPlan::new(7).with_transfer_failures(0.3, 3, SimDuration::from_millis(1));
        let n = 20_000u64;
        let fails = (0..n).filter(|&tid| plan.transfer_fails(tid, 0)).count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical failure rate {rate}");
    }

    #[test]
    fn different_attempts_get_independent_verdicts() {
        let plan = FaultPlan::new(3).with_transfer_failures(0.5, 8, SimDuration::from_millis(1));
        // With p = 0.5 and 128 (tid, attempt) pairs, seeing only one
        // verdict would mean attempts are correlated with tids.
        let mut saw_fail = false;
        let mut saw_pass = false;
        for tid in 0..16 {
            for attempt in 0..8 {
                if plan.transfer_fails(tid, attempt) {
                    saw_fail = true;
                } else {
                    saw_pass = true;
                }
            }
        }
        assert!(saw_fail && saw_pass);
    }

    #[test]
    fn extreme_probabilities_short_circuit() {
        let never = FaultPlan::new(0).with_transfer_failures(0.0, 3, SimDuration::from_millis(1));
        let always = FaultPlan::new(0).with_transfer_failures(1.0, 3, SimDuration::from_millis(1));
        for tid in 0..32 {
            assert!(!never.transfer_fails(tid, 0));
            assert!(always.transfer_fails(tid, 0));
        }
    }

    #[test]
    fn backoff_grows_linearly() {
        let plan = FaultPlan::new(0).with_transfer_failures(0.5, 3, SimDuration::from_millis(2));
        assert_eq!(plan.backoff_for(1), SimDuration::from_millis(2));
        assert_eq!(plan.backoff_for(3), SimDuration::from_millis(6));
    }

    #[test]
    fn presets_validate_and_serialize_round_trip() {
        let horizon = SimDuration::from_secs_f64(120.0);
        for plan in [
            FaultPlan::replica_crash(1, horizon, 9),
            FaultPlan::flaky_transfers(9),
            FaultPlan::degraded_link(horizon, 9),
            FaultPlan::chaos(1, horizon, 9),
        ] {
            plan.validate().expect("preset must validate");
            assert!(!is_empty(&plan));
            let json = serde_json::to_string(&plan).unwrap();
            let back: FaultPlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn presets_resolve_by_name() {
        let horizon = SimDuration::from_secs_f64(120.0);
        for name in FAULT_PRESETS {
            let plan = FaultPlan::from_preset(name, 1, horizon, 9).expect("known preset");
            plan.validate().expect("preset must validate");
            assert!(!is_empty(&plan), "preset {name} must inject something");
        }
        let err = FaultPlan::from_preset("nope", 1, horizon, 9).unwrap_err();
        assert!(matches!(err, FaultError::UnknownPreset { .. }), "{err}");
        for name in FAULT_PRESETS {
            assert!(err.to_string().contains(name), "{err}");
        }
    }
}
