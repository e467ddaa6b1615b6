//! Seeded network-layer fault injection for the live gateway.
//!
//! A [`NetFaultPlan`] mirrors the simulator's [`FaultPlan`](crate::FaultPlan)
//! one layer up the stack: instead of crashing simulated replicas it
//! breaks *connections* — resets, slow-loris reads, stalled writes,
//! worker panics, and driver stalls. Verdicts are pure functions of
//! `(seed, connection id, fault kind)`, hashed into one-shot generators
//! exactly like [`FaultPlan::transfer_fails`](crate::FaultPlan::transfer_fails),
//! so the same seed and the same connection-arrival order produce the
//! identical injected-fault log — chaos runs are replayable.
//!
//! Faults apply only to the first [`fault_window_conns`] connections
//! (the *fault window*); connections after it are served cleanly, which
//! is what lets a chaos test assert the gateway recovers to `Healthy`
//! once the window ends.
//!
//! [`fault_window_conns`]: NetFaultPlan::fault_window_conns

use serde::{Deserialize, Serialize};
use windserve_sim::{keyed_seed, SimRng};

use crate::FaultError;

/// One kind of injected network fault, resolved per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum NetFaultKind {
    /// Drop the accepted socket before reading the request: the client
    /// sees the connection close with no response bytes.
    ConnReset,
    /// A slow-loris client: the request head trickles in, occupying a
    /// worker for `delay_ms` before the request is parsed.
    SlowLorisRead {
        /// How long the read is held up, milliseconds.
        delay_ms: u64,
    },
    /// The response write path stalls for `stall_ms` before any bytes
    /// flush (a congested or unread client socket).
    StalledWrite {
        /// How long writes are held back, milliseconds.
        stall_ms: u64,
    },
    /// The connection's worker panics mid-handling; the pool must absorb
    /// it and the client sees the socket close.
    WorkerPanic,
    /// The simulation driver sleeps for `stall_ms` before processing the
    /// submission (a GC pause or scheduling hiccup on the engine thread).
    DriverStall {
        /// How long the driver is held up, milliseconds.
        stall_ms: u64,
    },
}

impl NetFaultKind {
    /// Short machine-readable label, used in traces, reports, and the
    /// determinism regression test.
    pub fn label(&self) -> &'static str {
        match self {
            NetFaultKind::ConnReset => "conn-reset",
            NetFaultKind::SlowLorisRead { .. } => "slow-loris-read",
            NetFaultKind::StalledWrite { .. } => "stalled-write",
            NetFaultKind::WorkerPanic => "worker-panic",
            NetFaultKind::DriverStall { .. } => "driver-stall",
        }
    }
}

/// One injected fault as recorded in the gateway's report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetFaultRecord {
    /// The connection (in accept order, starting at 0) the fault hit.
    pub conn: u64,
    /// The fault's [`NetFaultKind::label`].
    pub kind: String,
}

/// The known preset names accepted by [`NetFaultPlan::from_preset`].
pub const NET_PRESETS: &[&str] = &[
    "resets",
    "slow-loris",
    "stalled-writes",
    "worker-panics",
    "driver-stalls",
    "chaos",
];

/// A complete, seeded description of the network faults injected into a
/// live gateway run.
///
/// Each fault class has its own probability; a connection is tested
/// against the classes in a fixed priority order (reset, slow-loris,
/// stalled write, worker panic, driver stall) and suffers at most one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetFaultPlan {
    /// Probability a connection is reset before its request is read.
    pub reset_p: f64,
    /// Probability a connection's read is slow-loris delayed.
    pub slow_loris_p: f64,
    /// Slow-loris read delay, milliseconds.
    pub slow_loris_delay_ms: u64,
    /// Probability a connection's response writes stall.
    pub stalled_write_p: f64,
    /// Write-stall duration, milliseconds.
    pub stalled_write_ms: u64,
    /// Probability the connection's worker panics mid-handling.
    pub worker_panic_p: f64,
    /// Probability the driver stalls before the submission.
    pub driver_stall_p: f64,
    /// Driver-stall duration, milliseconds.
    pub driver_stall_ms: u64,
    /// Faults apply only to connections with id below this bound; later
    /// connections are served cleanly so health can recover.
    pub fault_window_conns: u64,
    /// Seed for the per-connection verdict hashes.
    pub seed: u64,
}

impl NetFaultPlan {
    /// An empty plan: every probability zero, an unbounded fault window.
    pub(crate) fn new(seed: u64) -> Self {
        NetFaultPlan {
            reset_p: 0.0,
            slow_loris_p: 0.0,
            slow_loris_delay_ms: 100,
            stalled_write_p: 0.0,
            stalled_write_ms: 100,
            worker_panic_p: 0.0,
            driver_stall_p: 0.0,
            driver_stall_ms: 20,
            fault_window_conns: u64::MAX,
            seed,
        }
    }

    /// Preset: ~30% of connections in the window are reset cold.
    fn resets(seed: u64) -> Self {
        NetFaultPlan {
            reset_p: 0.3,
            ..NetFaultPlan::new(seed)
        }
    }

    /// Preset: ~30% of connections read slowly, tying up workers.
    fn slow_loris(seed: u64) -> Self {
        NetFaultPlan {
            slow_loris_p: 0.3,
            slow_loris_delay_ms: 150,
            ..NetFaultPlan::new(seed)
        }
    }

    /// Preset: ~30% of connections see their response writes stall.
    fn stalled_writes(seed: u64) -> Self {
        NetFaultPlan {
            stalled_write_p: 0.3,
            stalled_write_ms: 150,
            ..NetFaultPlan::new(seed)
        }
    }

    /// Preset: ~20% of connections panic their worker.
    fn worker_panics(seed: u64) -> Self {
        NetFaultPlan {
            worker_panic_p: 0.2,
            ..NetFaultPlan::new(seed)
        }
    }

    /// Preset: ~30% of submissions stall the driver briefly.
    fn driver_stalls(seed: u64) -> Self {
        NetFaultPlan {
            driver_stall_p: 0.3,
            driver_stall_ms: 20,
            ..NetFaultPlan::new(seed)
        }
    }

    /// Preset: everything at once at lower rates.
    pub fn chaos(seed: u64) -> Self {
        NetFaultPlan {
            reset_p: 0.1,
            slow_loris_p: 0.1,
            slow_loris_delay_ms: 100,
            stalled_write_p: 0.1,
            stalled_write_ms: 100,
            worker_panic_p: 0.08,
            driver_stall_p: 0.1,
            driver_stall_ms: 15,
            ..NetFaultPlan::new(seed)
        }
    }

    /// Resolves a preset by name (see [`NET_PRESETS`]).
    ///
    /// # Errors
    ///
    /// [`FaultError::UnknownPreset`] for a name outside the registry.
    pub fn from_preset(name: &str, seed: u64) -> Result<Self, FaultError> {
        match name {
            "resets" => Ok(NetFaultPlan::resets(seed)),
            "slow-loris" => Ok(NetFaultPlan::slow_loris(seed)),
            "stalled-writes" => Ok(NetFaultPlan::stalled_writes(seed)),
            "worker-panics" => Ok(NetFaultPlan::worker_panics(seed)),
            "driver-stalls" => Ok(NetFaultPlan::driver_stalls(seed)),
            "chaos" => Ok(NetFaultPlan::chaos(seed)),
            other => Err(FaultError::UnknownPreset {
                name: other.to_string(),
                known: NET_PRESETS,
            }),
        }
    }

    /// Bounds the fault window to the first `conns` connections.
    #[must_use]
    pub fn with_fault_window(mut self, conns: u64) -> Self {
        self.fault_window_conns = conns;
        self
    }

    /// Checks the plan for nonsense values.
    ///
    /// # Errors
    ///
    /// A typed [`FaultError`] when a probability is outside `[0, 1]` or
    /// an enabled fault class has a zero duration.
    pub fn validate(&self) -> Result<(), FaultError> {
        let probs: [(&'static str, f64); 5] = [
            ("reset_p", self.reset_p),
            ("slow_loris_p", self.slow_loris_p),
            ("stalled_write_p", self.stalled_write_p),
            ("worker_panic_p", self.worker_panic_p),
            ("driver_stall_p", self.driver_stall_p),
        ];
        for (field, value) in probs {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultError::ProbabilityOutOfRange { field, value });
            }
        }
        if self.slow_loris_p > 0.0 && self.slow_loris_delay_ms == 0 {
            return Err(FaultError::ZeroDuration {
                field: "slow_loris_delay_ms",
            });
        }
        if self.stalled_write_p > 0.0 && self.stalled_write_ms == 0 {
            return Err(FaultError::ZeroDuration {
                field: "stalled_write_ms",
            });
        }
        if self.driver_stall_p > 0.0 && self.driver_stall_ms == 0 {
            return Err(FaultError::ZeroDuration {
                field: "driver_stall_ms",
            });
        }
        Ok(())
    }

    /// The fault (if any) hitting connection `conn` — a pure function of
    /// `(seed, conn, kind)`, independent of evaluation order, like
    /// [`FaultPlan::transfer_fails`](crate::FaultPlan::transfer_fails).
    /// Classes are tried in a fixed priority order and a connection
    /// suffers at most one fault.
    pub fn fault_for(&self, conn: u64) -> Option<NetFaultKind> {
        if conn >= self.fault_window_conns {
            return None;
        }
        if self.roll(conn, 1, self.reset_p) {
            return Some(NetFaultKind::ConnReset);
        }
        if self.roll(conn, 2, self.slow_loris_p) {
            return Some(NetFaultKind::SlowLorisRead {
                delay_ms: self.slow_loris_delay_ms,
            });
        }
        if self.roll(conn, 3, self.stalled_write_p) {
            return Some(NetFaultKind::StalledWrite {
                stall_ms: self.stalled_write_ms,
            });
        }
        if self.roll(conn, 4, self.worker_panic_p) {
            return Some(NetFaultKind::WorkerPanic);
        }
        if self.roll(conn, 5, self.driver_stall_p) {
            return Some(NetFaultKind::DriverStall {
                stall_ms: self.driver_stall_ms,
            });
        }
        None
    }

    /// One seeded verdict for `(conn, kind salt)`.
    fn roll(&self, conn: u64, salt: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut rng = SimRng::seed_from_u64(keyed_seed(self.seed, conn, salt));
        rng.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when the plan injects nothing at all.
    fn is_empty(plan: &NetFaultPlan) -> bool {
        plan.reset_p <= 0.0
            && plan.slow_loris_p <= 0.0
            && plan.stalled_write_p <= 0.0
            && plan.worker_panic_p <= 0.0
            && plan.driver_stall_p <= 0.0
    }

    #[test]
    fn empty_plan_injects_nothing_and_validates() {
        let plan = NetFaultPlan::new(7);
        assert!(is_empty(&plan));
        assert!(plan.validate().is_ok());
        for conn in 0..256 {
            assert_eq!(plan.fault_for(conn), None);
        }
    }

    #[test]
    fn verdicts_are_pure_functions_of_seed_and_conn() {
        let plan = NetFaultPlan::chaos(42);
        let forward: Vec<_> = (0..128).map(|c| plan.fault_for(c)).collect();
        let backward: Vec<_> = (0..128).rev().map(|c| plan.fault_for(c)).collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        // A different seed must not reproduce the same fault sequence.
        let other = NetFaultPlan::chaos(43);
        let shifted: Vec<_> = (0..128).map(|c| other.fault_for(c)).collect();
        assert_ne!(forward, shifted);
    }

    #[test]
    fn fault_rates_track_probabilities() {
        let plan = NetFaultPlan::resets(9);
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&c| plan.fault_for(c) == Some(NetFaultKind::ConnReset))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical reset rate {rate}");
    }

    #[test]
    fn the_fault_window_bounds_injection() {
        let plan = NetFaultPlan::chaos(5).with_fault_window(32);
        assert!((0..32).any(|c| plan.fault_for(c).is_some()));
        for conn in 32..256 {
            assert_eq!(plan.fault_for(conn), None, "conn {conn} outside window");
        }
    }

    #[test]
    fn presets_resolve_by_name_and_validate() {
        for name in NET_PRESETS {
            let plan = NetFaultPlan::from_preset(name, 11).expect("known preset");
            plan.validate().expect("preset must validate");
            assert!(!is_empty(&plan), "preset {name} must inject something");
            let json = serde_json::to_string(&plan).unwrap();
            let back: NetFaultPlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
        let err = NetFaultPlan::from_preset("nope", 0).unwrap_err();
        assert!(matches!(err, FaultError::UnknownPreset { .. }), "{err}");
        assert!(err.to_string().contains("resets"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_probabilities_and_zero_durations() {
        let mut plan = NetFaultPlan::new(0);
        plan.reset_p = -0.1;
        assert!(matches!(
            plan.validate(),
            Err(FaultError::ProbabilityOutOfRange {
                field: "reset_p",
                ..
            })
        ));
        let mut plan = NetFaultPlan::slow_loris(0);
        plan.slow_loris_delay_ms = 0;
        assert!(matches!(
            plan.validate(),
            Err(FaultError::ZeroDuration {
                field: "slow_loris_delay_ms"
            })
        ));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(NetFaultKind::ConnReset.label(), "conn-reset");
        assert_eq!(
            NetFaultKind::SlowLorisRead { delay_ms: 1 }.label(),
            "slow-loris-read"
        );
        assert_eq!(
            NetFaultKind::StalledWrite { stall_ms: 1 }.label(),
            "stalled-write"
        );
        assert_eq!(NetFaultKind::WorkerPanic.label(), "worker-panic");
        assert_eq!(
            NetFaultKind::DriverStall { stall_ms: 1 }.label(),
            "driver-stall"
        );
    }
}
