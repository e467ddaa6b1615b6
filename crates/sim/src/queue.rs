//! The future-event list at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] delivers two kinds of entry in one order: events the
//! simulation schedules for itself (`E`) and arrivals fed in from outside
//! (`A`). Entries pop in time order, FIFO within an instant: both kinds draw
//! their tie-breaking `seq` from one counter, so whatever was added earlier
//! at the same instant is delivered earlier. Cancellation uses the epoch
//! pattern: rather than deleting entries, schedulers tag events with a
//! generation counter and ignore stale deliveries.
//!
//! Each kind has its own store. Scheduled events go to a binary heap.
//! Arrivals go to the *arrival lane*, a deque kept sorted by `(at, seq)`,
//! which holds each arrival by value until it is delivered. A replay's
//! arrivals come in time order, so each joins the lane's tail; one earlier
//! than the tail is inserted at its place. `pop` takes the smaller of the
//! two heads, so delivery order is exactly that of one heap over all
//! entries, and the heap holds only in-flight work: a few hundred entries
//! instead of tens of thousands.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An entry ready for delivery, or queued in the arrival lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The instant at which the entry fires.
    pub at: SimTime,
    /// Monotonically increasing insertion id; breaks ties FIFO.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// What [`EventQueue::pop`] delivers: a scheduled event or an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery<E, A> {
    /// An event added by [`EventQueue::schedule`].
    Event(E),
    /// An arrival added by [`EventQueue::arrive`].
    Arrival(A),
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

/// A future-event list: scheduled events and arrivals pop in
/// non-decreasing time order, FIFO within a single instant.
///
/// # Examples
///
/// ```
/// use windserve_sim::{Delivery, EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.arrive(SimTime::from_micros(10), "request");
/// q.schedule(SimTime::from_micros(20), "late");
/// q.schedule(SimTime::from_micros(5), "early");
/// assert_eq!(q.pop().unwrap().event, Delivery::Event("early"));
/// assert_eq!(q.pop().unwrap().event, Delivery::Arrival("request"));
/// assert_eq!(q.pop().unwrap().event, Delivery::Event("late"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E, A> {
    /// Scheduled events only.
    heap: BinaryHeap<Entry<E>>,
    /// Arrivals in `(at, seq)` order, earliest at the front.
    lane: VecDeque<Scheduled<A>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E, A> Default for EventQueue<E, A> {
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

impl<E, A> EventQueue<E, A> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// The insertion id of an entry firing at `at`.
    fn next_seq(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.last_popped,
            "cannot schedule at {at} before current time {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped entry: delivering
    /// into the past would violate causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq(at);
        self.heap.push(Entry { at, seq, event });
    }

    /// Queues `arrival` for delivery at `at`, in the arrival lane.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped entry, like
    /// [`schedule`](EventQueue::schedule).
    pub fn arrive(&mut self, at: SimTime, arrival: A) {
        let seq = self.next_seq(at);
        let entry = Scheduled {
            at,
            seq,
            event: arrival,
        };
        // `seq` is the largest yet, so an arrival no earlier than the tail
        // keeps the lane sorted; an earlier one goes after every queued
        // arrival at or before its instant.
        if self.lane.back().is_none_or(|last| at >= last.at) {
            self.lane.push_back(entry);
        } else {
            let place = self.lane.partition_point(|queued| queued.at <= at);
            self.lane.insert(place, entry);
        }
    }

    /// Removes and returns the earliest entry, or `None` if the queue is
    /// empty. Advances the queue's notion of "now".
    pub fn pop(&mut self) -> Option<Scheduled<Delivery<E, A>>> {
        let arrival_next = match (self.lane.front(), self.heap.peek()) {
            (Some(arrival), Some(event)) => (arrival.at, arrival.seq) < (event.at, event.seq),
            (arrival, _) => arrival.is_some(),
        };
        let next = if arrival_next {
            let Scheduled { at, seq, event } = self.lane.pop_front()?;
            Scheduled {
                at,
                seq,
                event: Delivery::Arrival(event),
            }
        } else {
            let Entry { at, seq, event } = self.heap.pop()?;
            Scheduled {
                at,
                seq,
                event: Delivery::Event(event),
            }
        };
        debug_assert!(next.at >= self.last_popped);
        self.last_popped = next.at;
        Some(next)
    }

    /// The firing time of the next entry, if any, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(arrival), Some(event)) => Some(arrival.at.min(event.at)),
            (arrival, event) => arrival.map(|a| a.at).or(event.map(|e| e.at)),
        }
    }

    /// Moves "now" forward to `to` without delivering anything: for a
    /// caller that applied events of its own, which it never scheduled
    /// here, up to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than "now" or later than the next pending
    /// entry: either would let an entry be delivered out of order.
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

    /// The time of the most recently popped entry (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// The number of arrivals the lane has room for without growing: its
    /// footprint, which stays at the most arrivals ever queued at once.
    pub fn arrival_capacity(&self) -> usize {
        self.lane.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A queue with no arrivals, for tests of scheduled events alone.
    fn events<E>() -> EventQueue<E, ()> {
        EventQueue::new()
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = events();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().event, Delivery::Event(i));
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_into_the_past_panics() {
        let mut q = events();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn arriving_into_the_past_panics() {
        let mut q = EventQueue::<(), ()>::new();
        q.arrive(SimTime::from_micros(10), ());
        q.pop();
        q.arrive(SimTime::from_micros(5), ());
    }

    #[test]
    fn advance_moves_now_up_to_the_next_event() {
        let mut q = events();
        q.schedule(SimTime::from_micros(9), 'a');
        q.advance_to(SimTime::from_micros(9));
        assert_eq!(q.now(), SimTime::from_micros(9));
        assert_eq!(q.pop().unwrap().event, Delivery::Event('a'));
        q.advance_to(SimTime::from_micros(20));
        assert_eq!(q.now(), SimTime::from_micros(20));
    }

    #[test]
    #[should_panic(expected = "past a pending event")]
    fn advancing_over_an_event_panics() {
        let mut q = events();
        q.schedule(SimTime::from_micros(5), ());
        q.advance_to(SimTime::from_micros(6));
    }

    #[test]
    #[should_panic(expected = "past a pending event")]
    fn advancing_over_an_arrival_panics() {
        let mut q = EventQueue::<(), ()>::new();
        q.arrive(SimTime::from_micros(5), ());
        q.advance_to(SimTime::from_micros(6));
    }

    /// Arrivals in time order, out of it and at equal stamps all stay in
    /// the lane; the heap holds only what was scheduled, and the two
    /// merge in `(at, seq)` order.
    #[test]
    fn arrivals_never_touch_the_heap() {
        let mut q = EventQueue::new();
        for t in [1, 2, 2, 5, 3, 0, 5] {
            q.arrive(SimTime::from_micros(t), t);
        }
        assert!(q.heap.is_empty());
        assert_eq!(q.lane.len(), 7);

        q.schedule(SimTime::from_micros(3), 30);
        assert_eq!((q.lane.len(), q.heap.len()), (7, 1));
        let mut delivered = Vec::new();
        while let Some(e) = q.pop() {
            delivered.push((e.at.as_micros(), e.seq, e.event));
        }
        use Delivery::{Arrival, Event};
        assert_eq!(
            delivered,
            [
                (0, 5, Arrival(0)),
                (1, 0, Arrival(1)),
                (2, 1, Arrival(2)),
                (2, 2, Arrival(2)),
                (3, 4, Arrival(3)),
                (3, 7, Event(30)),
                (5, 3, Arrival(5)),
                (5, 6, Arrival(5)),
            ]
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(9), 'a');
        q.arrive(SimTime::from_micros(3), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.pop().unwrap().event, Delivery::Arrival('b'));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
    }

    proptest! {
        #[test]
        fn pops_are_time_monotone(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                if i % 2 == 0 {
                    q.schedule(SimTime::from_micros(t), i);
                } else {
                    q.arrive(SimTime::from_micros(t), i);
                }
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
            let mut q = events();
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

        /// The lane-plus-heap queue delivers exactly what one binary heap
        /// over every entry delivers, in `(at, seq, payload)`, under
        /// arrivals and schedules in and out of time order, same-instant
        /// ties, pops, `peek_time` and `advance_to`; and the heap only
        /// ever holds scheduled events.
        #[test]
        fn lane_and_heap_deliver_like_one_heap(
            ops in proptest::collection::vec((0u8..8, 0u64..40), 1..300)
        ) {
            use std::cmp::Reverse;
            let at_micros = |t: SimTime, offset: u64| SimTime::from_micros(t.as_micros() + offset);
            // `(at, seq, is an arrival, payload)`: what one heap would hold.
            let flat = |e: Scheduled<Delivery<usize, usize>>| match e.event {
                Delivery::Arrival(i) => (e.at, e.seq, true, i),
                Delivery::Event(i) => (e.at, e.seq, false, i),
            };
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut latest = SimTime::ZERO;
            let mut scheduled_left = 0usize;
            for (i, (op, offset)) in ops.into_iter().enumerate() {
                let now = q.now();
                let at = match op {
                    // In time order: no earlier than anything queued.
                    0 | 3 => Some(at_micros(latest.max(now), offset)),
                    // Anywhere from "now" on, often before queued entries.
                    1 | 4 => Some(at_micros(now, offset)),
                    // A tie with the latest queued instant.
                    2 | 5 => Some(latest.max(now)),
                    _ => None,
                };
                if let Some(at) = at {
                    let arrival = op < 3;
                    if arrival {
                        q.arrive(at, i);
                    } else {
                        q.schedule(at, i);
                        scheduled_left += 1;
                    }
                    reference.push(Reverse((at, next_seq, arrival, i)));
                    next_seq += 1;
                    latest = latest.max(at);
                } else if op == 6 {
                    let next = reference.peek().map(|Reverse((at, ..))| *at);
                    let to = next.map_or(at_micros(now, offset), |n| n.min(at_micros(now, offset)));
                    q.advance_to(to);
                    prop_assert_eq!(q.now(), to);
                } else {
                    let got = q.pop().map(flat);
                    if let Some((_, _, false, _)) = got {
                        scheduled_left -= 1;
                    }
                    prop_assert_eq!(got, reference.pop().map(|Reverse(e)| e));
                }
                prop_assert_eq!(q.peek_time(), reference.peek().map(|Reverse((at, ..))| *at));
                prop_assert_eq!(q.heap.len(), scheduled_left);
                prop_assert_eq!(q.lane.len() + q.heap.len(), reference.len());
            }
            while let Some(Reverse(want)) = reference.pop() {
                prop_assert_eq!(q.pop().map(flat), Some(want));
            }
            prop_assert!(q.lane.is_empty() && q.heap.is_empty() && q.pop().is_none());
        }

        #[test]
        fn equal_times_preserve_insertion_order(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_micros(1);
            for i in 0..n {
                if i % 3 == 0 {
                    q.arrive(t, i);
                } else {
                    q.schedule(t, i);
                }
            }
            let mut prev = None;
            while let Some(ev) = q.pop() {
                let (Delivery::Event(i) | Delivery::Arrival(i)) = ev.event;
                if let Some(p) = prev {
                    prop_assert!(i > p);
                }
                prev = Some(i);
            }
        }
    }
}
