//! Per-instance session prefix cache.
//!
//! WindServe keeps a finished prefill's KV on the prefill instance (it is
//! the migration source, and §3.3's backups already exploit the copy). For
//! multi-turn sessions that residue is reusable work: a follow-up turn's
//! prompt begins with the prior turn's full context, so an instance that
//! still holds the session's KV can skip recomputing that prefix and charge
//! prefill only for the fresh suffix.
//!
//! [`PrefixStore`] is the per-instance registry of that retained KV, keyed
//! by session. It enforces a token-capacity budget with least-recently-used
//! eviction, expires idle sessions after a TTL, and keeps conservation
//! counters: every token ever inserted is either still live or has been
//! evicted — nothing leaks, nothing is double-counted (property-tested
//! below).
//!
//! The store tracks *token counts*, not block ids: the simulator charges
//! compute from lengths, and the capacity budget models the block pressure
//! the retained KV puts on the instance.
//!
//! The entries live in a hash map keyed by session, so [`peek`] — which
//! affinity routing calls on every routable prefill replica for each
//! session arrival — is one hash probe. Beside the map the store keeps two
//! lazy orders, each receiving one record per touch:
//!
//! - the *LRU log*, a queue of `(stamp, session)` in stamp order (stamps
//!   are issued in increasing order, so appending keeps it sorted):
//!   capacity eviction pops its head;
//! - the *TTL heap*, a min-heap on `(touched_at, stamp, session)`: expiry
//!   pops its top while that is older than the TTL. It is exact even when
//!   callers pass times out of order.
//!
//! A record is live while its session's entry still carries its stamp;
//! a later touch or an eviction leaves the old record dead in place, and
//! pops skip dead records. Once the dead records of either order outnumber
//! the live entries, both are compacted down to the live ones, so memory
//! stays O(live) and each operation costs O(1) amortized plus the heap's
//! logarithmic push and pop.
//!
//! [`peek`]: PrefixStore::peek

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use windserve_sim::{FxHashMap, SimDuration, SimTime};

/// Key identifying a session (the session id's raw value).
pub type SessionKey = u64;

/// Dead records either lazy order may hold beyond the live entries before
/// it is compacted, so a small store is not compacted on every touch.
const COMPACT_SLACK: usize = 16;

/// Lifetime counters of one [`PrefixStore`]. Conserved:
/// `inserted_tokens == live tokens + evicted_tokens` at every point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixStats {
    /// Lookups that found a usable prefix.
    pub hits: u64,
    /// Lookups that found nothing (or only expired KV).
    pub misses: u64,
    /// Entries removed by capacity pressure, TTL expiry, or invalidation.
    pub evictions: u64,
    /// Cumulative tokens ever added to the store.
    pub inserted_tokens: u64,
    /// Cumulative tokens removed from the store.
    pub evicted_tokens: u64,
    /// Cumulative prompt tokens served from cache across all hits.
    pub hit_tokens: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Context tokens of retained KV for the session.
    tokens: u32,
    /// Sim time of the last insert or serving lookup (TTL basis).
    touched_at: SimTime,
    /// Logical LRU stamp (monotone per store operation).
    stamp: u64,
}

/// True while `session`'s entry still carries `stamp`: the record filed
/// with that stamp is live, not superseded or evicted.
fn holds(entries: &FxHashMap<SessionKey, Entry>, session: SessionKey, stamp: u64) -> bool {
    entries.get(&session).is_some_and(|e| e.stamp == stamp)
}

/// Session-keyed prefix cache with a token budget, LRU + TTL eviction and
/// conservation accounting.
///
/// Two stores are equal when they hold the same entries (tokens, touch
/// times and stamps), counters, clock, budget and TTL; the dead records
/// their histories left in the lazy orders do not count.
///
/// # Examples
///
/// ```
/// use windserve_kvcache::PrefixStore;
/// use windserve_sim::{SimDuration, SimTime};
///
/// let mut store = PrefixStore::new(10_000, SimDuration::from_secs_f64(600.0));
/// let t = SimTime::ZERO;
/// store.insert(7, 1200, t);
/// // A follow-up with a 1300-token prompt reuses all 1200 retained tokens.
/// assert_eq!(store.lookup(7, 1300, t), 1200);
/// // An unknown session is a miss.
/// assert_eq!(store.lookup(8, 500, t), 0);
/// assert_eq!(store.stats().hits, 1);
/// assert_eq!(store.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixStore {
    entries: FxHashMap<SessionKey, Entry>,
    /// `(stamp, session)` per touch, in stamp order: the LRU log. The
    /// first live record is the least recently used entry.
    by_stamp: VecDeque<(u64, SessionKey)>,
    /// `(touched_at, stamp, session)` per touch, stalest on top: the TTL
    /// heap. The sessions idle past the TTL are its live records on top.
    by_touch: BinaryHeap<Reverse<(SimTime, u64, SessionKey)>>,
    capacity_tokens: u64,
    ttl: SimDuration,
    live_tokens: u64,
    clock: u64,
    stats: PrefixStats,
}

impl PartialEq for PrefixStore {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.capacity_tokens == other.capacity_tokens
            && self.ttl == other.ttl
            && self.live_tokens == other.live_tokens
            && self.clock == other.clock
            && self.stats == other.stats
    }
}

impl Eq for PrefixStore {}

impl PrefixStore {
    /// Creates a store holding at most `capacity_tokens` of retained KV,
    /// expiring sessions idle longer than `ttl`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero (a cache that can hold nothing is a
    /// misconfiguration, not a policy).
    pub fn new(capacity_tokens: u64, ttl: SimDuration) -> Self {
        assert!(capacity_tokens > 0, "prefix cache needs a token budget");
        PrefixStore {
            entries: FxHashMap::default(),
            by_stamp: VecDeque::new(),
            by_touch: BinaryHeap::new(),
            capacity_tokens,
            ttl,
            live_tokens: 0,
            clock: 0,
            stats: PrefixStats::default(),
        }
    }

    /// Records that this instance retains `tokens` of KV for `session` as
    /// of `now`. Growing an existing entry only accounts the delta; an
    /// entry never shrinks (KV accumulates monotonically within a
    /// session). Evicts least-recently-used sessions if the budget
    /// overflows — possibly including the new entry itself when it alone
    /// exceeds the budget.
    pub fn insert(&mut self, session: SessionKey, tokens: u32, now: SimTime) {
        self.expire(now);
        let held = self.entries.get(&session).map_or(0, |e| e.tokens);
        let grown = u64::from(tokens.max(held) - held);
        self.live_tokens += grown;
        self.stats.inserted_tokens += grown;
        self.touch(session, tokens.max(held), now);
        while self.live_tokens > self.capacity_tokens {
            let (stamp, lru) = self
                .by_stamp
                .pop_front()
                .expect("live tokens imply live entries");
            if holds(&self.entries, lru, stamp) {
                self.evict(lru);
            }
        }
    }

    /// Sets `session`'s entry to `tokens`, touched at `now` with a fresh
    /// LRU stamp, and files it in both orders. The entry's old records
    /// die in place.
    fn touch(&mut self, session: SessionKey, tokens: u32, now: SimTime) {
        self.clock += 1;
        let stamp = self.clock;
        self.entries.insert(
            session,
            Entry {
                tokens,
                touched_at: now,
                stamp,
            },
        );
        self.by_stamp.push_back((stamp, session));
        self.by_touch.push(Reverse((now, stamp, session)));
        self.compact();
    }

    /// Usable cached prefix for a follow-up of `session` whose prompt
    /// shares `want_tokens` leading tokens with the retained context:
    /// returns how many of those the store can serve (0 on a miss or
    /// expired entry). A serving lookup refreshes the entry's TTL and LRU
    /// position and records a hit; anything else records a miss.
    pub fn lookup(&mut self, session: SessionKey, want_tokens: u32, now: SimTime) -> u32 {
        self.expire(now);
        let held = self.entries.get(&session).map_or(0, |e| e.tokens);
        let served = held.min(want_tokens);
        if served > 0 {
            self.touch(session, held, now);
            self.stats.hits += 1;
            self.stats.hit_tokens += u64::from(served);
        } else {
            self.stats.misses += 1;
        }
        served
    }

    /// Usable cached prefix without touching TTL, LRU order or hit/miss
    /// counters — for routing decisions that probe many instances before
    /// admitting the request to one.
    pub fn peek(&self, session: SessionKey, want_tokens: u32, now: SimTime) -> u32 {
        match self.entries.get(&session) {
            Some(entry) if now.saturating_since(entry.touched_at) <= self.ttl => {
                entry.tokens.min(want_tokens)
            }
            _ => 0,
        }
    }

    /// Drops everything (instance crash or scale-down): all retained KV is
    /// gone, accounted as evictions.
    pub fn clear(&mut self) {
        self.stats.evictions += self.entries.len() as u64;
        self.stats.evicted_tokens += self.live_tokens;
        self.live_tokens = 0;
        self.entries.clear();
        self.by_stamp.clear();
        self.by_touch.clear();
    }

    /// Evicts every session idle longer than the TTL as of `now`. Called
    /// lazily by [`insert`](Self::insert) and [`lookup`](Self::lookup);
    /// exposed so owners can sweep at reporting boundaries too.
    pub(crate) fn expire(&mut self, now: SimTime) {
        // Every record below the top, live or dead, was touched no earlier,
        // so a fresh top ends the sweep without a probe.
        while let Some(&Reverse((touched_at, stamp, session))) = self.by_touch.peek() {
            if now.saturating_since(touched_at) <= self.ttl {
                break;
            }
            self.by_touch.pop();
            if holds(&self.entries, session, stamp) {
                self.evict(session);
            }
        }
    }

    /// Removes `session`'s entry, accounted as an eviction; returns its
    /// tokens. Its records die in place.
    fn evict(&mut self, session: SessionKey) -> Option<u32> {
        let entry = self.entries.remove(&session)?;
        self.live_tokens -= u64::from(entry.tokens);
        self.stats.evictions += 1;
        self.stats.evicted_tokens += u64::from(entry.tokens);
        self.compact();
        Some(entry.tokens)
    }

    /// Drops the dead records of both orders once either holds more dead
    /// records than live entries (past the slack). Each compaction follows
    /// at least as many touches and evictions as it drops records, so its
    /// cost is O(1) amortized per operation.
    fn compact(&mut self) {
        let bound = 2 * self.entries.len() + COMPACT_SLACK;
        if self.by_stamp.len().max(self.by_touch.len()) <= bound {
            return;
        }
        let entries = &self.entries;
        self.by_stamp
            .retain(|&(stamp, session)| holds(entries, session, stamp));
        self.by_touch
            .retain(|&Reverse((_, stamp, session))| holds(entries, session, stamp));
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PrefixStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    fn store() -> PrefixStore {
        PrefixStore::new(10_000, secs(600.0))
    }

    #[test]
    fn hit_serves_min_of_retained_and_wanted() {
        let mut s = store();
        s.insert(1, 1000, SimTime::ZERO);
        // Wants fewer tokens than retained: serve what is wanted.
        assert_eq!(s.lookup(1, 400, SimTime::ZERO), 400);
        // Wants more than retained: serve what is retained.
        assert_eq!(s.lookup(1, 1500, SimTime::ZERO), 1000);
        assert_eq!(s.stats().hit_tokens, 1400);
    }

    #[test]
    fn entries_grow_monotonically() {
        let mut s = store();
        s.insert(1, 1000, SimTime::ZERO);
        s.insert(1, 1400, SimTime::ZERO);
        s.insert(1, 200, SimTime::ZERO); // stale smaller snapshot: no shrink
        assert_eq!(s.lookup(1, 2000, SimTime::ZERO), 1400);
        assert_eq!(s.live_tokens, 1400);
        assert_eq!(s.stats().inserted_tokens, 1400);
    }

    #[test]
    fn capacity_evicts_least_recently_used_first() {
        let mut s = PrefixStore::new(1000, secs(600.0));
        s.insert(1, 400, SimTime::ZERO);
        s.insert(2, 400, SimTime::ZERO);
        // Touch 1 so 2 is now the LRU entry.
        assert_eq!(s.lookup(1, 400, SimTime::ZERO), 400);
        s.insert(3, 400, SimTime::ZERO);
        assert_eq!(s.peek(2, 400, SimTime::ZERO), 0, "LRU entry evicted");
        assert_eq!(s.peek(1, 400, SimTime::ZERO), 400);
        assert_eq!(s.peek(3, 400, SimTime::ZERO), 400);
        assert!(s.live_tokens <= 1000);
    }

    #[test]
    fn oversized_insert_cannot_wedge_the_store() {
        let mut s = PrefixStore::new(1000, secs(600.0));
        s.insert(1, 5000, SimTime::ZERO);
        // The entry alone exceeds the budget: it is evicted immediately and
        // the store stays consistent.
        assert_eq!(s.live_tokens, 0);
        assert_eq!(s.lookup(1, 5000, SimTime::ZERO), 0);
        assert_eq!(s.stats().evicted_tokens, 5000);
    }

    #[test]
    fn ttl_expires_idle_sessions() {
        let mut s = PrefixStore::new(10_000, secs(60.0));
        s.insert(1, 500, SimTime::ZERO);
        let fresh = SimTime::ZERO + secs(59.0);
        assert_eq!(s.peek(1, 500, fresh), 500);
        // A serving lookup refreshes the TTL.
        assert_eq!(s.lookup(1, 500, fresh), 500);
        assert_eq!(s.peek(1, 500, fresh + secs(59.0)), 500);
        // Idle past the TTL: gone, and the lookup is a miss.
        let stale = fresh + secs(61.0);
        assert_eq!(s.lookup(1, 500, stale), 0);
        assert_eq!(s.stats().evictions, 1);
        assert!(s.entries.is_empty());
    }

    #[test]
    fn remove_and_clear_account_as_evictions() {
        let mut s = store();
        s.insert(1, 300, SimTime::ZERO);
        s.insert(2, 200, SimTime::ZERO);
        assert_eq!(s.evict(1), Some(300));
        assert_eq!(s.evict(1), None);
        s.clear();
        assert!(s.entries.is_empty());
        let st = s.stats();
        assert_eq!(st.evictions, 2);
        assert_eq!(st.inserted_tokens, st.evicted_tokens);
        assert_eq!(s.live_tokens, 0);
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let mut s = store();
        assert_eq!((s.stats().hits, s.stats().misses), (0, 0));
        s.insert(1, 100, SimTime::ZERO);
        s.lookup(1, 100, SimTime::ZERO);
        s.lookup(2, 100, SimTime::ZERO);
        assert_eq!((s.stats().hits, s.stats().misses), (1, 1));
    }

    #[test]
    fn equality_ignores_dead_records() {
        let ttl = secs(60.0);
        let (mut swept, mut unswept) = (PrefixStore::new(1000, ttl), PrefixStore::new(1000, ttl));
        for s in [&mut swept, &mut unswept] {
            s.insert(1, 400, SimTime::ZERO);
            // The refresh leaves the first touch's records dead.
            assert_eq!(s.lookup(1, 400, SimTime::ZERO + secs(10.0)), 400);
        }
        // Only one store sweeps past the dead record's TTL; the live entry
        // is still fresh, so nothing live changes.
        swept.expire(SimTime::ZERO + secs(65.0));
        assert_ne!(swept.by_touch.len(), unswept.by_touch.len());
        assert_eq!(swept, unswept);

        // Growing an entry and re-inserting a stale smaller snapshot reach
        // the same live state too.
        let (mut a, mut b) = (store(), store());
        a.insert(1, 300, SimTime::ZERO);
        a.insert(1, 300, SimTime::ZERO);
        b.insert(1, 300, SimTime::ZERO);
        b.insert(1, 100, SimTime::ZERO);
        assert_eq!(a, b);

        // Different LRU stamps are different states.
        let (mut a, mut b) = (store(), store());
        a.insert(1, 100, SimTime::ZERO);
        a.insert(2, 100, SimTime::ZERO);
        b.insert(2, 100, SimTime::ZERO);
        b.insert(1, 100, SimTime::ZERO);
        assert_ne!(a, b);
    }

    #[test]
    fn refreshing_one_session_compacts_both_orders() {
        let mut s = store();
        for session in 0..8 {
            s.insert(session, 100, SimTime::ZERO);
        }
        // Session 7's stale records pile up behind the other sessions' live
        // ones, where no pop reaches them; only compaction drops them.
        for _ in 0..1000 {
            assert_eq!(s.lookup(7, 100, SimTime::ZERO), 100);
            let bound = 2 * s.entries.len() + COMPACT_SLACK;
            assert!(s.by_stamp.len() <= bound && s.by_touch.len() <= bound);
        }
        // The LRU order survived the compactions.
        s.insert(8, 9300, SimTime::ZERO);
        assert_eq!(s.peek(0, 100, SimTime::ZERO), 0, "LRU entry evicted");
        assert_eq!(s.peek(7, 100, SimTime::ZERO), 100);
    }

    #[test]
    #[should_panic(expected = "token budget")]
    fn zero_capacity_rejected() {
        let _ = PrefixStore::new(0, secs(1.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The store as it was before the expiry and LRU orders: every expiry
    /// walks all entries and every eviction scans for the smallest stamp.
    /// Kept as the oracle for the indexed store.
    struct ScanStore {
        entries: BTreeMap<SessionKey, Entry>,
        capacity_tokens: u64,
        ttl: SimDuration,
        live_tokens: u64,
        clock: u64,
        stats: PrefixStats,
    }

    impl ScanStore {
        fn new(capacity_tokens: u64, ttl: SimDuration) -> Self {
            ScanStore {
                entries: BTreeMap::new(),
                capacity_tokens,
                ttl,
                live_tokens: 0,
                clock: 0,
                stats: PrefixStats::default(),
            }
        }

        fn insert(&mut self, session: SessionKey, tokens: u32, now: SimTime) {
            self.expire(now);
            self.clock += 1;
            let stamp = self.clock;
            match self.entries.get_mut(&session) {
                Some(entry) => {
                    let grown = u64::from(tokens.max(entry.tokens)) - u64::from(entry.tokens);
                    entry.tokens = entry.tokens.max(tokens);
                    entry.touched_at = now;
                    entry.stamp = stamp;
                    self.live_tokens += grown;
                    self.stats.inserted_tokens += grown;
                }
                None => {
                    let entry = Entry {
                        tokens,
                        touched_at: now,
                        stamp,
                    };
                    self.entries.insert(session, entry);
                    self.live_tokens += u64::from(tokens);
                    self.stats.inserted_tokens += u64::from(tokens);
                }
            }
            while self.live_tokens > self.capacity_tokens {
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(&k, _)| k)
                    .expect("live tokens imply live entries");
                self.evict(lru);
            }
        }

        fn lookup(&mut self, session: SessionKey, want_tokens: u32, now: SimTime) -> u32 {
            self.expire(now);
            let served = match self.entries.get_mut(&session) {
                Some(entry) => {
                    let served = entry.tokens.min(want_tokens);
                    if served > 0 {
                        self.clock += 1;
                        entry.touched_at = now;
                        entry.stamp = self.clock;
                    }
                    served
                }
                None => 0,
            };
            if served > 0 {
                self.stats.hits += 1;
                self.stats.hit_tokens += u64::from(served);
            } else {
                self.stats.misses += 1;
            }
            served
        }

        fn peek(&self, session: SessionKey, want_tokens: u32, now: SimTime) -> u32 {
            match self.entries.get(&session) {
                Some(entry) if now.saturating_since(entry.touched_at) <= self.ttl => {
                    entry.tokens.min(want_tokens)
                }
                _ => 0,
            }
        }

        fn remove(&mut self, session: SessionKey) -> Option<u32> {
            let tokens = self.entries.get(&session)?.tokens;
            self.evict(session);
            Some(tokens)
        }

        fn clear(&mut self) {
            let keys: Vec<SessionKey> = self.entries.keys().copied().collect();
            for key in keys {
                self.evict(key);
            }
        }

        fn expire(&mut self, now: SimTime) {
            let dead: Vec<SessionKey> = self
                .entries
                .iter()
                .filter(|(_, e)| now.saturating_since(e.touched_at) > self.ttl)
                .map(|(&k, _)| k)
                .collect();
            for key in dead {
                self.evict(key);
            }
        }

        fn evict(&mut self, session: SessionKey) {
            if let Some(entry) = self.entries.remove(&session) {
                self.live_tokens -= u64::from(entry.tokens);
                self.stats.evictions += 1;
                self.stats.evicted_tokens += u64::from(entry.tokens);
            }
        }
    }

    /// The store holds exactly the oracle's state: the same counters,
    /// clock and live entries (tokens, touch times and stamps). Each live
    /// entry has exactly one live record in each lazy order, the LRU log
    /// stays in stamp order, and neither order holds more than the
    /// compaction bound.
    fn assert_matches(store: &PrefixStore, oracle: &ScanStore) {
        assert_eq!(store.stats(), oracle.stats);
        assert_eq!(store.live_tokens, oracle.live_tokens);
        assert_eq!(store.clock, oracle.clock);
        let live: BTreeMap<SessionKey, Entry> =
            store.entries.iter().map(|(&k, &e)| (k, e)).collect();
        assert_eq!(&live, &oracle.entries);

        let log: Vec<(u64, SessionKey)> = store
            .by_stamp
            .iter()
            .copied()
            .filter(|&(stamp, session)| holds(&store.entries, session, stamp))
            .collect();
        let mut by_stamp: Vec<(u64, SessionKey)> =
            live.iter().map(|(&k, e)| (e.stamp, k)).collect();
        by_stamp.sort_unstable();
        assert_eq!(
            log, by_stamp,
            "LRU log: one live record per entry, in stamp order"
        );
        assert!(store.by_stamp.iter().is_sorted_by_key(|&(stamp, _)| stamp));

        let mut heap: Vec<(SimTime, u64, SessionKey)> = store
            .by_touch
            .iter()
            .map(|&Reverse(record)| record)
            .filter(|&(_, stamp, session)| holds(&store.entries, session, stamp))
            .collect();
        heap.sort_unstable();
        let mut by_touch: Vec<(SimTime, u64, SessionKey)> = live
            .iter()
            .map(|(&k, e)| (e.touched_at, e.stamp, k))
            .collect();
        by_touch.sort_unstable();
        assert_eq!(heap, by_touch, "TTL heap: one live record per entry");

        let bound = 2 * live.len() + COMPACT_SLACK;
        assert!(store.by_stamp.len() <= bound, "LRU log outgrew its bound");
        assert!(store.by_touch.len() <= bound, "TTL heap outgrew its bound");
    }

    proptest! {
        /// The indexed store answers, counts and holds exactly what the
        /// full-scan store does, under random inserts, lookups, peeks,
        /// removals, sweeps and clears at arbitrary (not only advancing)
        /// times, with the budget and the TTL both binding.
        #[test]
        fn indexed_store_matches_the_full_scan(
            capacity in 200u64..4000,
            ttl_secs in 1u32..60,
            ops in proptest::collection::vec(
                (0u8..6, 0u64..12, 0u32..1500, 0u32..200),
                1..300,
            ),
        ) {
            let ttl = SimDuration::from_secs_f64(f64::from(ttl_secs));
            let mut store = PrefixStore::new(capacity, ttl);
            let mut oracle = ScanStore::new(capacity, ttl);
            for (op, session, tokens, at) in ops {
                let now = SimTime::ZERO + SimDuration::from_secs_f64(f64::from(at));
                match op {
                    0 => {
                        store.insert(session, tokens, now);
                        oracle.insert(session, tokens, now);
                    }
                    1 => prop_assert_eq!(
                        store.lookup(session, tokens, now),
                        oracle.lookup(session, tokens, now)
                    ),
                    2 => prop_assert_eq!(
                        store.peek(session, tokens, now),
                        oracle.peek(session, tokens, now)
                    ),
                    3 => prop_assert_eq!(store.evict(session), oracle.remove(session)),
                    4 => {
                        store.expire(now);
                        oracle.expire(now);
                    }
                    _ => {
                        store.clear();
                        oracle.clear();
                    }
                }
                assert_matches(&store, &oracle);
            }
        }

        /// Token conservation under arbitrary interleavings of inserts,
        /// lookups, removals, sweeps and clears at advancing times: every
        /// token ever inserted is either still live or has been evicted,
        /// the live total matches the entries, and the budget holds after
        /// every operation.
        #[test]
        fn tokens_are_conserved(
            capacity in 500u64..5000,
            ttl_secs in 1u32..500,
            ops in proptest::collection::vec(
                (0u8..5, 0u64..8, 1u32..3000, 0u32..200),
                1..200,
            ),
        ) {
            let mut store = PrefixStore::new(
                capacity,
                SimDuration::from_secs_f64(f64::from(ttl_secs)),
            );
            let mut now = SimTime::ZERO;
            for (op, session, tokens, advance) in ops {
                now += SimDuration::from_secs_f64(f64::from(advance));
                match op {
                    0 => store.insert(session, tokens, now),
                    1 => { store.lookup(session, tokens, now); }
                    2 => { store.evict(session); }
                    3 => store.expire(now),
                    _ => store.clear(),
                }
                let stats = store.stats();
                prop_assert_eq!(
                    stats.inserted_tokens,
                    store.live_tokens + stats.evicted_tokens,
                    "conservation broke"
                );
                prop_assert!(store.live_tokens <= capacity, "budget overflow");
                let from_entries: u64 = (0..8)
                    .map(|k| u64::from(store.peek(k, u32::MAX, now)))
                    .sum();
                // peek applies the TTL filter; anything it cannot see must
                // already be expired, so entries can only under-count live
                // tokens, never exceed them.
                prop_assert!(from_entries <= store.live_tokens);
                prop_assert!(stats.hit_tokens <= stats.inserted_tokens.max(stats.hit_tokens));
            }
            // A final full sweep-and-clear returns every live token.
            store.clear();
            let stats = store.stats();
            prop_assert_eq!(store.live_tokens, 0);
            prop_assert_eq!(stats.inserted_tokens, stats.evicted_tokens);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A replica's store over a long run, shaped like the cluster's use:
        /// time advances, each turn looks up the session's context and then
        /// retains it grown by a fresh suffix, routing peeks in between, and
        /// sessions end, expire or are cleared by a crash now and then.
        /// Thousands of touches against a bounded live set make both
        /// orders compact many times; the store must still match the
        /// full-scan oracle after every operation.
        #[test]
        fn long_cluster_shaped_runs_match_the_full_scan(
            capacity in 8_000u64..80_000,
            ttl_secs in 5u32..60,
            ops in proptest::collection::vec(
                (0u8..40, 0u64..96, 16u32..400, 0u32..1500),
                3000..5000,
            ),
        ) {
            let ttl = SimDuration::from_secs_f64(f64::from(ttl_secs));
            let mut store = PrefixStore::new(capacity, ttl);
            let mut oracle = ScanStore::new(capacity, ttl);
            let mut context = [0u32; 96];
            let mut now = SimTime::ZERO;
            for (op, session, fresh, advance_ms) in ops {
                now += SimDuration::from_millis(u64::from(advance_ms));
                let ctx = &mut context[session as usize];
                match op {
                    0..=29 => {
                        if *ctx > 2048 {
                            // The conversation ended; a new one reuses the
                            // key while the old KV lingers.
                            *ctx = 0;
                        }
                        if *ctx > 0 {
                            prop_assert_eq!(
                                store.lookup(session, *ctx, now),
                                oracle.lookup(session, *ctx, now)
                            );
                        }
                        *ctx += fresh;
                        store.insert(session, *ctx, now);
                        oracle.insert(session, *ctx, now);
                    }
                    30..=36 => prop_assert_eq!(
                        store.peek(session, *ctx, now),
                        oracle.peek(session, *ctx, now)
                    ),
                    37 => {
                        *ctx = 0;
                        prop_assert_eq!(store.evict(session), oracle.remove(session));
                    }
                    38 => {
                        store.expire(now);
                        oracle.expire(now);
                    }
                    _ if session == 0 => {
                        store.clear();
                        oracle.clear();
                    }
                    _ => {}
                }
                assert_matches(&store, &oracle);
            }
            prop_assert!(
                store.clock > 4 * (2 * 96 + COMPACT_SLACK) as u64,
                "the run must push far more records than the bound allows"
            );
        }
    }
}
