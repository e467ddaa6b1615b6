//! The gateway's health state machine and admission circuit breaker.
//!
//! Health is `Healthy → Degraded → Draining`: a rolling window of
//! admission outcomes drives the `Healthy ↔ Degraded` edge (an error/shed
//! rate at or above `DEGRADE_THRESHOLD` degrades, one at or below
//! `RECOVER_THRESHOLD` recovers), while `Draining` is absorbing — set once
//! by graceful shutdown, it rejects all new work until the process exits.
//!
//! Orthogonally, a circuit breaker guards the admission path:
//! `BREAKER_FAILURES` *consecutive* admission failures open it,
//! fast-failing submissions with `503` + `Retry-After` without touching
//! the driver; after `BREAKER_COOLDOWN` it half-opens and lets probe
//! requests through — one success closes it, one failure re-opens it.
//! Every transition surfaces as a `HealthSignal` the server forwards
//! into the scheduling trace.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use serde::Serialize;
use windserve_trace::TraceEvent;

/// The gateway-wide health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub(crate) enum HealthState {
    /// Admission outcomes are predominantly successful.
    Healthy,
    /// The rolling error/shed rate crossed the degrade threshold; the
    /// gateway still serves, but `/healthz` advertises the strain.
    Degraded,
    /// Graceful shutdown began: new completions are rejected while
    /// in-flight streams finish. Absorbing.
    Draining,
}

impl HealthState {
    /// Short lowercase label used by `/healthz` and trace events.
    pub(crate) fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }
}

// The health machine's and breaker's thresholds are the reproduction's
// defaults.

/// Rolling admission-outcome window length.
const WINDOW: usize = 32;

/// Minimum samples in the window before the error rate can degrade or
/// recover the state.
const MIN_SAMPLES: usize = 8;

/// Degrade (`Healthy → Degraded`) when the window error rate reaches this
/// fraction.
const DEGRADE_THRESHOLD: f64 = 0.5;

/// Recover (`Degraded → Healthy`) when the window error rate falls to or
/// below this fraction.
const RECOVER_THRESHOLD: f64 = 0.2;

/// Consecutive admission failures that open the breaker.
const BREAKER_FAILURES: u32 = 8;

/// How long the breaker stays open before half-opening for probes.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(250);

/// The admission verdict from the health layer, checked by workers
/// before a submission reaches the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Proceed with the submission (`probe` marks a half-open breaker
    /// probe whose outcome decides the breaker's next state).
    Allow {
        /// True when the breaker is half-open and this request probes it.
        probe: bool,
    },
    /// The gateway is draining; reject with `503` and `Retry-After`.
    Draining,
    /// The breaker is open; fast-fail with `503` and `Retry-After`.
    BreakerOpen {
        /// Time until the breaker half-opens.
        retry_after: Duration,
    },
}

/// A health-layer transition the server records into the trace.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HealthSignal {
    /// The gateway-wide state moved.
    StateChanged {
        /// State before.
        from: HealthState,
        /// State after.
        to: HealthState,
        /// The window error rate at the transition.
        error_rate: f64,
    },
    /// The circuit breaker moved.
    Breaker {
        /// New breaker state label (`closed`, `open`, `half-open`).
        state: &'static str,
        /// Consecutive admission failures at the transition.
        consecutive_failures: u32,
    },
}

impl From<HealthSignal> for TraceEvent {
    fn from(signal: HealthSignal) -> Self {
        match signal {
            HealthSignal::StateChanged {
                from,
                to,
                error_rate,
            } => TraceEvent::GatewayHealthChanged {
                from: from.label().to_string(),
                to: to.label().to_string(),
                error_rate,
            },
            HealthSignal::Breaker {
                state,
                consecutive_failures,
            } => TraceEvent::GatewayBreaker {
                state: state.to_string(),
                consecutive_failures,
            },
        }
    }
}

/// A point-in-time health snapshot for `/healthz` and the cluster
/// status endpoint.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct HealthSnapshot {
    /// The gateway-wide state label.
    pub status: &'static str,
    /// Error/shed fraction over the rolling window.
    pub error_rate: f64,
    /// Outcomes currently in the window.
    pub window_samples: usize,
    /// Breaker state label (`closed`, `open`, `half-open`).
    pub breaker: &'static str,
    /// Current consecutive admission failures.
    pub consecutive_failures: u32,
}

#[derive(Debug, Clone, Copy)]
enum Breaker {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

impl Breaker {
    fn label(self) -> &'static str {
        match self {
            Breaker::Closed => "closed",
            Breaker::Open { .. } => "open",
            Breaker::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Rolling admission outcomes; `true` marks a failure.
    window: VecDeque<bool>,
    failures_in_window: usize,
    consecutive_failures: u32,
    state: HealthState,
    breaker: Breaker,
}

impl Inner {
    fn error_rate(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.failures_in_window as f64 / self.window.len() as f64
        }
    }
}

/// Shared health state: cheap to consult on every admission, updated on
/// every verdict. Lock poisoning recovers the guard (the state is a few
/// counters; a panicked recorder cannot corrupt it structurally).
#[derive(Debug)]
pub(crate) struct Health {
    inner: Mutex<Inner>,
}

impl Health {
    /// A healthy gateway with a closed breaker.
    pub(crate) fn new() -> Self {
        Health {
            inner: Mutex::new(Inner {
                window: VecDeque::with_capacity(WINDOW),
                failures_in_window: 0,
                consecutive_failures: 0,
                state: HealthState::Healthy,
                breaker: Breaker::Closed,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The admission verdict, plus a breaker transition signal when this
    /// call moved an open breaker to half-open.
    pub(crate) fn gate(&self) -> (Gate, Option<HealthSignal>) {
        let mut inner = self.lock();
        if inner.state == HealthState::Draining {
            return (Gate::Draining, None);
        }
        match inner.breaker {
            Breaker::Closed => (Gate::Allow { probe: false }, None),
            Breaker::HalfOpen => (Gate::Allow { probe: true }, None),
            Breaker::Open { until } => {
                let now = Instant::now();
                if now >= until {
                    inner.breaker = Breaker::HalfOpen;
                    let signal = HealthSignal::Breaker {
                        state: "half-open",
                        consecutive_failures: inner.consecutive_failures,
                    };
                    (Gate::Allow { probe: true }, Some(signal))
                } else {
                    (
                        Gate::BreakerOpen {
                            retry_after: until - now,
                        },
                        None,
                    )
                }
            }
        }
    }

    /// Records one admission outcome (`failed` = rejection or driver
    /// unavailability) and returns every transition it caused.
    pub(crate) fn record(&self, failed: bool) -> Vec<HealthSignal> {
        let mut signals = Vec::new();
        let mut inner = self.lock();
        inner.window.push_back(failed);
        if failed {
            inner.failures_in_window += 1;
        }
        while inner.window.len() > WINDOW {
            if inner.window.pop_front() == Some(true) {
                inner.failures_in_window -= 1;
            }
        }
        inner.consecutive_failures = if failed {
            inner.consecutive_failures.saturating_add(1)
        } else {
            0
        };
        // Breaker edges.
        match inner.breaker {
            Breaker::Closed if inner.consecutive_failures >= BREAKER_FAILURES => {
                inner.breaker = Breaker::Open {
                    until: Instant::now() + BREAKER_COOLDOWN,
                };
                signals.push(HealthSignal::Breaker {
                    state: "open",
                    consecutive_failures: inner.consecutive_failures,
                });
            }
            Breaker::HalfOpen => {
                if failed {
                    inner.breaker = Breaker::Open {
                        until: Instant::now() + BREAKER_COOLDOWN,
                    };
                    signals.push(HealthSignal::Breaker {
                        state: "open",
                        consecutive_failures: inner.consecutive_failures,
                    });
                } else {
                    inner.breaker = Breaker::Closed;
                    signals.push(HealthSignal::Breaker {
                        state: "closed",
                        consecutive_failures: 0,
                    });
                }
            }
            _ => {}
        }
        // Health edges (Draining is absorbing).
        if inner.state != HealthState::Draining && inner.window.len() >= MIN_SAMPLES {
            let rate = inner.error_rate();
            let next = match inner.state {
                HealthState::Healthy if rate >= DEGRADE_THRESHOLD => Some(HealthState::Degraded),
                HealthState::Degraded if rate <= RECOVER_THRESHOLD => Some(HealthState::Healthy),
                _ => None,
            };
            if let Some(to) = next {
                signals.push(HealthSignal::StateChanged {
                    from: inner.state,
                    to,
                    error_rate: rate,
                });
                inner.state = to;
            }
        }
        signals
    }

    /// Marks the gateway draining (absorbing); returns the transition
    /// signal the first time.
    pub(crate) fn begin_drain(&self) -> Option<HealthSignal> {
        let mut inner = self.lock();
        if inner.state == HealthState::Draining {
            return None;
        }
        let signal = HealthSignal::StateChanged {
            from: inner.state,
            to: HealthState::Draining,
            error_rate: inner.error_rate(),
        };
        inner.state = HealthState::Draining;
        Some(signal)
    }

    /// The current gateway-wide state.
    pub(crate) fn state(&self) -> HealthState {
        self.lock().state
    }

    /// A serializable snapshot for the control plane.
    pub(crate) fn snapshot(&self) -> HealthSnapshot {
        let inner = self.lock();
        HealthSnapshot {
            status: inner.state.label(),
            error_rate: inner.error_rate(),
            window_samples: inner.window.len(),
            breaker: inner.breaker.label(),
            consecutive_failures: inner.consecutive_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_healthy_on_successes_and_degrades_on_error_burst() {
        let h = Health::new();
        for _ in 0..16 {
            assert!(h.record(false).is_empty());
        }
        assert_eq!(h.state(), HealthState::Healthy);
        // A burst of failures pushes the window rate past 0.5.
        let mut degraded = false;
        for _ in 0..32 {
            for s in h.record(true) {
                if matches!(
                    s,
                    HealthSignal::StateChanged {
                        to: HealthState::Degraded,
                        ..
                    }
                ) {
                    degraded = true;
                }
            }
        }
        assert!(degraded);
        assert_eq!(h.state(), HealthState::Degraded);
        // Enough successes flush the window and recover.
        let mut recovered = false;
        for _ in 0..64 {
            for s in h.record(false) {
                if matches!(
                    s,
                    HealthSignal::StateChanged {
                        to: HealthState::Healthy,
                        ..
                    }
                ) {
                    recovered = true;
                }
            }
        }
        assert!(recovered);
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn breaker_opens_on_consecutive_failures_and_probes_half_open() {
        let h = Health::new();
        assert!(matches!(h.gate().0, Gate::Allow { probe: false }));
        for _ in 1..BREAKER_FAILURES {
            assert!(h
                .record(true)
                .iter()
                .all(|s| !matches!(s, HealthSignal::Breaker { .. })));
        }
        let signals = h.record(true);
        assert!(signals
            .iter()
            .any(|s| matches!(s, HealthSignal::Breaker { state: "open", .. })));
        match h.gate().0 {
            Gate::BreakerOpen { retry_after } => {
                assert!(retry_after <= BREAKER_COOLDOWN);
            }
            other => panic!("breaker must be open, got {other:?}"),
        }
        // After the cooldown the gate half-opens and allows a probe.
        std::thread::sleep(BREAKER_COOLDOWN + Duration::from_millis(5));
        let (gate, signal) = h.gate();
        assert!(matches!(gate, Gate::Allow { probe: true }));
        assert!(matches!(
            signal,
            Some(HealthSignal::Breaker {
                state: "half-open",
                ..
            })
        ));
        // A successful probe closes it.
        let signals = h.record(false);
        assert!(signals.iter().any(|s| matches!(
            s,
            HealthSignal::Breaker {
                state: "closed",
                ..
            }
        )));
        assert!(matches!(h.gate().0, Gate::Allow { probe: false }));
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let h = Health::new();
        for _ in 0..BREAKER_FAILURES {
            h.record(true);
        }
        std::thread::sleep(BREAKER_COOLDOWN + Duration::from_millis(5));
        assert!(matches!(h.gate().0, Gate::Allow { probe: true }));
        let signals = h.record(true);
        assert!(signals
            .iter()
            .any(|s| matches!(s, HealthSignal::Breaker { state: "open", .. })));
        assert!(matches!(h.gate().0, Gate::BreakerOpen { .. }));
    }

    #[test]
    fn draining_is_absorbing_and_gates_everything() {
        let h = Health::new();
        let first = h.begin_drain();
        assert!(matches!(
            first,
            Some(HealthSignal::StateChanged {
                to: HealthState::Draining,
                ..
            })
        ));
        assert!(h.begin_drain().is_none(), "drain must be idempotent");
        assert_eq!(h.gate().0, Gate::Draining);
        // Outcomes keep being recorded but never change the state.
        for _ in 0..64 {
            h.record(false);
        }
        assert_eq!(h.state(), HealthState::Draining);
        assert_eq!(h.snapshot().status, "draining");
    }
}
