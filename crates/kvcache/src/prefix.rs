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
//! Beside the entries the store keeps two orders: by last touch, so TTL
//! expiry pops the expired sessions off the front, and by LRU stamp, so
//! capacity eviction pops the least recently used one. Neither scans the
//! entries, so expiry and eviction touch only what they remove.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use windserve_sim::{SimDuration, SimTime};

/// Key identifying a session (the session id's raw value).
pub type SessionKey = u64;

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

impl PrefixStats {
    /// Hit fraction of all lookups so far (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
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

/// Session-keyed prefix cache with a token budget, LRU + TTL eviction and
/// conservation accounting.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixStore {
    entries: BTreeMap<SessionKey, Entry>,
    /// `(touched_at, stamp) → session` for every entry, stalest first:
    /// the sessions idle past the TTL are a prefix of this order.
    by_touch: BTreeMap<(SimTime, u64), SessionKey>,
    /// `stamp → session` for every entry, least recently used first.
    by_stamp: BTreeMap<u64, SessionKey>,
    capacity_tokens: u64,
    ttl: SimDuration,
    live_tokens: u64,
    clock: u64,
    stats: PrefixStats,
}

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
            entries: BTreeMap::new(),
            by_touch: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
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
            let (_, &lru) = self
                .by_stamp
                .first_key_value()
                .expect("live tokens imply live entries");
            self.evict(lru);
        }
    }

    /// Sets `session`'s entry to `tokens`, touched at `now` with a fresh
    /// LRU stamp, and files it in both orders.
    fn touch(&mut self, session: SessionKey, tokens: u32, now: SimTime) {
        self.clock += 1;
        let entry = Entry {
            tokens,
            touched_at: now,
            stamp: self.clock,
        };
        if let Some(old) = self.entries.insert(session, entry) {
            self.by_touch.remove(&(old.touched_at, old.stamp));
            self.by_stamp.remove(&old.stamp);
        }
        self.by_touch.insert((now, entry.stamp), session);
        self.by_stamp.insert(entry.stamp, session);
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

    /// Invalidates `session`'s retained KV (completed for good, or its
    /// blocks were reclaimed). Returns the evicted token count, if any.
    pub fn remove(&mut self, session: SessionKey) -> Option<u32> {
        self.evict(session)
    }

    /// Drops everything (instance crash or scale-down): all retained KV is
    /// gone, accounted as evictions.
    pub fn clear(&mut self) {
        let keys: Vec<SessionKey> = self.entries.keys().copied().collect();
        for key in keys {
            self.evict(key);
        }
    }

    /// Evicts every session idle longer than the TTL as of `now`. Called
    /// lazily by [`insert`](Self::insert) and [`lookup`](Self::lookup);
    /// exposed so owners can sweep at reporting boundaries too.
    pub fn expire(&mut self, now: SimTime) {
        while let Some((&(touched_at, _), &session)) = self.by_touch.first_key_value() {
            if now.saturating_since(touched_at) <= self.ttl {
                break;
            }
            self.evict(session);
        }
    }

    /// Removes `session`'s entry, accounted as an eviction; returns its
    /// tokens.
    fn evict(&mut self, session: SessionKey) -> Option<u32> {
        let entry = self.entries.remove(&session)?;
        self.by_touch.remove(&(entry.touched_at, entry.stamp));
        self.by_stamp.remove(&entry.stamp);
        self.live_tokens -= u64::from(entry.tokens);
        self.stats.evictions += 1;
        self.stats.evicted_tokens += u64::from(entry.tokens);
        Some(entry.tokens)
    }

    /// Tokens of retained KV currently live.
    pub fn live_tokens(&self) -> u64 {
        self.live_tokens
    }

    /// The configured token budget.
    pub fn capacity_tokens(&self) -> u64 {
        self.capacity_tokens
    }

    /// Number of sessions with live retained KV.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no session KV is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        assert_eq!(s.live_tokens(), 1400);
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
        assert!(s.live_tokens() <= 1000);
    }

    #[test]
    fn oversized_insert_cannot_wedge_the_store() {
        let mut s = PrefixStore::new(1000, secs(600.0));
        s.insert(1, 5000, SimTime::ZERO);
        // The entry alone exceeds the budget: it is evicted immediately and
        // the store stays consistent.
        assert_eq!(s.live_tokens(), 0);
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
        assert!(s.is_empty());
    }

    #[test]
    fn remove_and_clear_account_as_evictions() {
        let mut s = store();
        s.insert(1, 300, SimTime::ZERO);
        s.insert(2, 200, SimTime::ZERO);
        assert_eq!(s.remove(1), Some(300));
        assert_eq!(s.remove(1), None);
        s.clear();
        assert!(s.is_empty());
        let st = s.stats();
        assert_eq!(st.evictions, 2);
        assert_eq!(st.inserted_tokens, st.evicted_tokens);
        assert_eq!(s.live_tokens(), 0);
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let mut s = store();
        assert_eq!(s.stats().hit_rate(), 0.0);
        s.insert(1, 100, SimTime::ZERO);
        s.lookup(1, 100, SimTime::ZERO);
        s.lookup(2, 100, SimTime::ZERO);
        assert!((s.stats().hit_rate() - 0.5).abs() < 1e-12);
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
                    3 => prop_assert_eq!(store.remove(session), oracle.remove(session)),
                    4 => {
                        store.expire(now);
                        oracle.expire(now);
                    }
                    _ => {
                        store.clear();
                        oracle.clear();
                    }
                }
                prop_assert_eq!(store.stats(), oracle.stats);
                prop_assert_eq!(store.live_tokens(), oracle.live_tokens);
                prop_assert_eq!(&store.entries, &oracle.entries);
                prop_assert_eq!(store.by_touch.len(), store.entries.len());
                prop_assert_eq!(store.by_stamp.len(), store.entries.len());
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
                    2 => { store.remove(session); }
                    3 => store.expire(now),
                    _ => store.clear(),
                }
                let stats = store.stats();
                prop_assert_eq!(
                    stats.inserted_tokens,
                    store.live_tokens() + stats.evicted_tokens,
                    "conservation broke"
                );
                prop_assert!(store.live_tokens() <= capacity, "budget overflow");
                let from_entries: u64 = (0..8)
                    .map(|k| u64::from(store.peek(k, u32::MAX, now)))
                    .sum();
                // peek applies the TTL filter; anything it cannot see must
                // already be expired, so entries can only under-count live
                // tokens, never exceed them.
                prop_assert!(from_entries <= store.live_tokens());
                prop_assert!(stats.hit_tokens <= stats.inserted_tokens.max(stats.hit_tokens));
            }
            // A final full sweep-and-clear returns every live token.
            store.clear();
            let stats = store.stats();
            prop_assert_eq!(store.live_tokens(), 0);
            prop_assert_eq!(stats.inserted_tokens, stats.evicted_tokens);
        }
    }
}
