//! The future-event list at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by
//! time, with FIFO tie-breaking so that events scheduled earlier at the same
//! instant are delivered earlier. Cancellation uses the epoch pattern (see
//! [`crate::epoch`]): rather than deleting entries, schedulers tag events
//! with a generation counter and ignore stale deliveries.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event, ready for delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The instant at which the event fires.
    pub at: SimTime,
    /// Monotonically increasing insertion id; breaks ties FIFO.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list: events pop in non-decreasing time order, FIFO within
/// a single instant.
///
/// # Examples
///
/// ```
/// use windserve_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(20), "late");
/// q.schedule(SimTime::from_micros(10), "early");
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("at", &self.at)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped event: delivering into
    /// the past would violate causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.last_popped,
            "cannot schedule at {at} before current time {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Advances the queue's notion of "now".
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.last_popped);
        self.last_popped = entry.at;
        Some(Scheduled {
            at: entry.at,
            seq: entry.seq,
            event: entry.event,
        })
    }

    /// The firing time of the next event, if any, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes every event firing at `at` — the current earliest instant —
    /// and appends them to `out` in `(at, seq)` order.
    ///
    /// Returns the number of events drained. The cohort is exactly the set
    /// of entries whose timestamp equals `at` *at call time*; events newly
    /// scheduled for the same instant while the caller processes the batch
    /// form the next cohort, so interleaving `drain_at` with `schedule` is
    /// byte-identical to popping one event at a time. Draining advances the
    /// queue's notion of "now" just like [`pop`](Self::pop).
    ///
    /// Draining at a time other than [`peek_time`](Self::peek_time) (or on
    /// an empty queue) removes nothing and returns 0: skipping over earlier
    /// events would break causality.
    pub fn drain_at(&mut self, at: SimTime, out: &mut Vec<Scheduled<E>>) -> usize {
        let mut drained = 0;
        loop {
            // Only the earliest instant may drain; an `at` in the future
            // would skip over earlier entries.
            if self.heap.peek().is_none_or(|e| e.at != at) {
                break;
            }
            let Some(entry) = self.heap.pop() else { break };
            debug_assert!(entry.at >= self.last_popped);
            self.last_popped = entry.at;
            out.push(Scheduled {
                at: entry.at,
                seq: entry.seq,
                event: entry.event,
            });
            drained += 1;
        }
        drained
    }

    /// Moves "now" forward to `to` without delivering anything: for a
    /// caller that applied events of its own, which it never scheduled
    /// here, up to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than "now" or later than the next pending
    /// event: either would let an event be delivered out of order.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(
            to >= self.last_popped,
            "cannot advance to {to} before current time {}",
            self.last_popped
        );
        assert!(
            self.heap.peek().is_none_or(|e| e.at >= to),
            "cannot advance to {to} past a pending event"
        );
        self.last_popped = to;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn drain_at_takes_exactly_the_earliest_cohort() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), 'a');
        q.schedule(SimTime::from_micros(5), 'b');
        q.schedule(SimTime::from_micros(9), 'c');
        let mut out = Vec::new();
        assert_eq!(q.drain_at(SimTime::from_micros(5), &mut out), 2);
        assert_eq!(
            out.iter().map(|s| s.event).collect::<Vec<_>>(),
            vec!['a', 'b']
        );
        assert_eq!(q.now(), SimTime::from_micros(5));
        // Draining at a non-earliest instant is a no-op.
        out.clear();
        assert_eq!(q.drain_at(SimTime::from_micros(7), &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(q.pop().unwrap().event, 'c');
    }

    #[test]
    fn drain_then_schedule_same_instant_forms_a_new_cohort() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        q.schedule(t, 0);
        let mut out = Vec::new();
        q.drain_at(t, &mut out);
        // A same-instant event scheduled after the drain is still delivered
        // (next cohort), exactly as a sequential pop loop would.
        q.schedule(t, 1);
        q.drain_at(t, &mut out);
        assert_eq!(out.iter().map(|s| s.event).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn advance_moves_now_up_to_the_next_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(9), 'a');
        q.advance_to(SimTime::from_micros(9));
        assert_eq!(q.now(), SimTime::from_micros(9));
        assert_eq!(q.pop().unwrap().event, 'a');
        q.advance_to(SimTime::from_micros(20));
        assert_eq!(q.now(), SimTime::from_micros(20));
    }

    #[test]
    #[should_panic(expected = "past a pending event")]
    fn advancing_over_an_event_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        q.advance_to(SimTime::from_micros(6));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(9), 'a');
        q.schedule(SimTime::from_micros(3), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.pop().unwrap().event, 'b');
    }

    proptest! {
        #[test]
        fn pops_are_time_monotone(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(ev) = q.pop() {
                prop_assert!(ev.at >= last);
                last = ev.at;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        /// `drain_at` must deliver the exact same `(at, seq)` stream as a
        /// sequential pop loop, under arbitrary interleavings of schedule
        /// and drain operations (schedule times are offsets from "now" so
        /// causality always holds).
        #[test]
        fn drain_at_matches_sequential_pops(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u64..50).prop_map(Some), // schedule at now + offset
                    Just(None),                // drain the earliest cohort
                ],
                1..200,
            )
        ) {
            let mut batched = EventQueue::new();
            let mut sequential = EventQueue::new();
            let mut batched_log = Vec::new();
            let mut sequential_log = Vec::new();
            let mut scratch = Vec::new();
            let mut next_payload = 0u32;
            for op in ops {
                match op {
                    Some(offset) => {
                        let at = SimTime::from_micros(batched.now().as_micros() + offset);
                        batched.schedule(at, next_payload);
                        sequential.schedule(at, next_payload);
                        next_payload += 1;
                    }
                    None => {
                        if let Some(t) = batched.peek_time() {
                            scratch.clear();
                            batched.drain_at(t, &mut scratch);
                            prop_assert!(!scratch.is_empty());
                            batched_log.extend(
                                scratch.iter().map(|s| (s.at, s.seq, s.event)),
                            );
                            while sequential.peek_time() == Some(t) {
                                let s = sequential.pop().unwrap();
                                sequential_log.push((s.at, s.seq, s.event));
                            }
                        }
                    }
                }
            }
            // Flush the rest the same way.
            while let Some(t) = batched.peek_time() {
                scratch.clear();
                batched.drain_at(t, &mut scratch);
                batched_log.extend(scratch.iter().map(|s| (s.at, s.seq, s.event)));
            }
            while let Some(s) = sequential.pop() {
                sequential_log.push((s.at, s.seq, s.event));
            }
            prop_assert_eq!(&batched_log, &sequential_log);
            // The combined stream is (at, seq)-ordered.
            for w in batched_log.windows(2) {
                prop_assert!((w[0].0, w[0].1) < (w[1].0, w[1].1));
            }
        }

        #[test]
        fn equal_times_preserve_insertion_order(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_micros(1);
            for i in 0..n {
                q.schedule(t, i);
            }
            let mut prev = None;
            while let Some(ev) = q.pop() {
                if let Some(p) = prev {
                    prop_assert!(ev.event > p);
                }
                prev = Some(ev.event);
            }
        }
    }
}
