//! The future-event list at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by
//! time, with FIFO tie-breaking so that events scheduled earlier at the same
//! instant are delivered earlier. Cancellation uses the epoch pattern:
//! rather than deleting entries, schedulers tag events with a generation
//! counter and ignore stale deliveries.
//!
//! Events are kept in two places. An event scheduled no earlier than the
//! last event of the *run* — a FIFO — joins the run's tail; any other goes
//! to a binary heap. The run is therefore sorted by `(at, seq)` by
//! construction, and `pop` takes the smaller of the two heads, so delivery
//! order is exactly that of one heap over all events. A replay injects its
//! arrivals in time order before anything else, so they all land in the
//! run and the heap holds only in-flight work: a few hundred entries
//! instead of tens of thousands.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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
    /// Events in non-decreasing `(at, seq)` order, earliest at the front.
    run: VecDeque<Entry<E>>,
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
            run: VecDeque::new(),
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
        let entry = Entry { at, seq, event };
        // `seq` grows with every schedule, so an event no earlier than the
        // run's tail keeps the run sorted by `(at, seq)`.
        if self.run.back().is_none_or(|last| at >= last.at) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// True if the next event is the run's head rather than the heap's.
    fn run_is_next(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(heap)) => (run.at, run.seq) < (heap.at, heap.seq),
            (run, _) => run.is_some(),
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Advances the queue's notion of "now".
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = if self.run_is_next() {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }?;
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
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(heap)) => Some(run.at.min(heap.at)),
            (run, heap) => run.or(heap).map(|e| e.at),
        }
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
            self.peek_time().is_none_or(|next| next >= to),
            "cannot advance to {to} past a pending event"
        );
        self.last_popped = to;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
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

    /// The arrival run's precondition: a replay's arrivals, injected in
    /// time order, never touch the heap, and an event scheduled before the
    /// run's tail goes to the heap and still pops in `(at, seq)` order.
    #[test]
    fn in_order_schedules_bypass_the_heap() {
        let mut q = EventQueue::new();
        for t in [1, 2, 2, 5] {
            q.schedule(SimTime::from_micros(t), t);
        }
        assert!(q.heap.is_empty());
        assert_eq!(q.run.len(), 4);

        q.schedule(SimTime::from_micros(3), 3);
        assert_eq!(q.heap.len(), 1);
        let mut delivered = Vec::new();
        while let Some(e) = q.pop() {
            delivered.push((e.at.as_micros(), e.seq));
        }
        assert_eq!(delivered, [(1, 0), (2, 1), (2, 2), (3, 4), (5, 3)]);
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

        /// Interleaving `advance_to` (never past the next pending event)
        /// with schedules and pops keeps delivery in `(at, seq)` order and
        /// "now" monotone: what the run-ahead relies on when it moves "now"
        /// over steps it applied itself.
        #[test]
        fn advance_to_keeps_delivery_ordered(
            ops in proptest::collection::vec((0u8..3, 0u64..50), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut last: Option<(SimTime, u64)> = None;
            let mut scheduled = 0;
            let mut delivered = 0;
            for (op, offset) in ops {
                let now = q.now();
                let later = SimTime::from_micros(now.as_micros() + offset);
                match op {
                    0 => {
                        q.schedule(later, ());
                        scheduled += 1;
                    }
                    1 => {
                        if let Some(ev) = q.pop() {
                            prop_assert!(ev.at >= now);
                            prop_assert!(last < Some((ev.at, ev.seq)));
                            last = Some((ev.at, ev.seq));
                            delivered += 1;
                        }
                    }
                    _ => {
                        let to = q.peek_time().map_or(later, |next| later.min(next));
                        q.advance_to(to);
                        prop_assert_eq!(q.now(), to);
                    }
                }
            }
            while let Some(ev) = q.pop() {
                prop_assert!(last < Some((ev.at, ev.seq)));
                last = Some((ev.at, ev.seq));
                delivered += 1;
            }
            prop_assert_eq!(delivered, scheduled);
        }

        /// The heap-plus-run queue delivers exactly what one binary heap
        /// over every event delivers, in `(at, seq, event)`, under
        /// schedules in and out of time order, same-instant ties, pops,
        /// `peek_time` and `advance_to`.
        #[test]
        fn run_and_heap_deliver_like_one_heap(
            ops in proptest::collection::vec((0u8..6, 0u64..40), 1..300)
        ) {
            use std::cmp::Reverse;
            let at_micros = |t: SimTime, offset: u64| SimTime::from_micros(t.as_micros() + offset);
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut latest = SimTime::ZERO;
            for (i, (op, offset)) in ops.into_iter().enumerate() {
                let now = q.now();
                let at = match op {
                    // In time order: no earlier than anything scheduled.
                    0 => Some(at_micros(latest.max(now), offset)),
                    // Anywhere from "now" on, often before queued events.
                    1 => Some(at_micros(now, offset)),
                    // A tie with the latest scheduled instant.
                    2 => Some(latest.max(now)),
                    _ => None,
                };
                if let Some(at) = at {
                    q.schedule(at, i);
                    reference.push(Reverse((at, next_seq, i)));
                    next_seq += 1;
                    latest = latest.max(at);
                } else if op == 5 {
                    let next = reference.peek().map(|Reverse((at, _, _))| *at);
                    let to = next.map_or(at_micros(now, offset), |n| n.min(at_micros(now, offset)));
                    q.advance_to(to);
                    prop_assert_eq!(q.now(), to);
                } else {
                    let got = q.pop().map(|e| (e.at, e.seq, e.event));
                    prop_assert_eq!(got, reference.pop().map(|Reverse(e)| e));
                }
                prop_assert_eq!(q.peek_time(), reference.peek().map(|Reverse((at, _, _))| *at));
                prop_assert_eq!(q.len(), reference.len());
            }
            while let Some(Reverse(want)) = reference.pop() {
                let got = q.pop().map(|e| (e.at, e.seq, e.event));
                prop_assert_eq!(got, Some(want));
            }
            prop_assert!(q.is_empty() && q.pop().is_none());
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
