//! The trace recorder threaded through the cluster.

use crate::event::{TimedEvent, TraceEvent};
use crate::log::TraceLog;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use windserve_sim::SimTime;

/// How a run records its trace; lives in the serving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TraceMode {
    /// No recording; tracing costs nothing.
    #[default]
    Off,
    /// Keep only the most recent events (bounded memory) — enough for
    /// post-mortems of the end of a long run.
    Ring(usize),
    /// Keep every event.
    Full,
}

/// The recorder handle the cluster threads through its event loop.
///
/// It retains at most `capacity` events, dropping the oldest past it:
/// none for [`TraceMode::Off`], the last `n` for [`TraceMode::Ring`], all
/// for [`TraceMode::Full`]. [`Tracer::emit`] takes the payload as a
/// closure so a disabled tracer costs one inlined comparison per site — no
/// formatting, no cloning, no allocation.
#[derive(Debug, Default)]
pub struct Tracer {
    capacity: usize,
    events: VecDeque<TimedEvent>,
}

impl Tracer {
    /// The tracer matching a [`TraceMode`].
    pub fn for_mode(mode: TraceMode) -> Self {
        let capacity = match mode {
            TraceMode::Off => 0,
            TraceMode::Ring(n) => n,
            TraceMode::Full => usize::MAX,
        };
        Tracer {
            capacity,
            events: VecDeque::new(),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records the event built by `f` at time `at`; `f` never runs when
    /// the tracer is disabled.
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&mut self, at: SimTime, f: F) {
        if self.enabled() {
            if self.events.len() == self.capacity {
                self.events.pop_front();
            }
            self.events.push_back(TimedEvent { at, event: f() });
        }
    }

    /// Finishes recording and hands back the collected log.
    pub fn finish(self) -> TraceLog {
        TraceLog::new(self.events.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windserve_workload::RequestId;

    fn ev(id: u64) -> TraceEvent {
        TraceEvent::Finished { id: RequestId(id) }
    }

    #[test]
    fn null_sink_records_nothing_and_skips_payloads() {
        let mut t = Tracer::for_mode(TraceMode::Off);
        assert!(!t.enabled());
        let mut built = false;
        t.emit(SimTime::ZERO, || {
            built = true;
            ev(1)
        });
        assert!(!built, "payload closure must not run when disabled");
        assert!(t.finish().is_empty());
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut t = Tracer::for_mode(TraceMode::Ring(2));
        for i in 0..5 {
            t.emit(SimTime::from_micros(i), || ev(i));
        }
        let log = t.finish();
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].event.request_id(), Some(RequestId(3)));
        assert_eq!(log.events()[1].event.request_id(), Some(RequestId(4)));
    }

    #[test]
    fn collecting_keeps_everything_in_order() {
        let mut t = Tracer::for_mode(TraceMode::Full);
        for i in 0..10 {
            t.emit(SimTime::from_micros(i), || ev(i));
        }
        let log = t.finish();
        assert_eq!(log.len(), 10);
        assert!(log.events().windows(2).all(|w| w[0].at <= w[1].at));
    }
}
