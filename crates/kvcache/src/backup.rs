//! Opportunistic KV backups on the prefill instance (paper §3.3).
//!
//! "To minimize migration overheads, the prefill instance dynamically backs
//! up the KV cache of some long-context requests when there is sufficient
//! KV blocks [there] and relatively limited KV blocks in decoding instance.
//! These backups can reduce migration costs when the backed-up requests are
//! later rescheduled."
//!
//! [`BackupStore`] tracks which sequences have a snapshot on the prefill
//! instance and how stale it is; a later migration only moves the delta.
//! Backups are strictly best-effort: they are evicted (oldest first)
//! whenever the prefill instance needs their blocks for real work.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Key identifying a sequence (the request id's raw value).
pub type SeqKey = u64;

/// One stored backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Backup {
    /// The backed-up sequence.
    pub key: SeqKey,
    /// Context tokens captured in the snapshot.
    pub tokens: u32,
}

/// Best-effort backup registry, FIFO-evictable.
///
/// # Examples
///
/// ```
/// use windserve_kvcache::BackupStore;
///
/// let mut store = BackupStore::new();
/// store.insert(7, 1500);
/// assert_eq!(store.delta_tokens(7, 1600), 100); // only 100 tokens to move
/// assert_eq!(store.delta_tokens(8, 1600), 1600); // no backup: move all
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackupStore {
    entries: VecDeque<Backup>,
}

impl BackupStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        BackupStore::default()
    }

    /// Records (or refreshes) a backup of `key` at `tokens` context tokens.
    pub fn insert(&mut self, key: SeqKey, tokens: u32) {
        self.remove(key);
        self.entries.push_back(Backup { key, tokens });
    }

    /// Tokens captured for `key`, if backed up.
    pub fn tokens_of(&self, key: SeqKey) -> Option<u32> {
        self.entries.iter().find(|b| b.key == key).map(|b| b.tokens)
    }

    /// Tokens a migration of `key` at `current_tokens` context still has to
    /// move, after crediting the backup.
    pub fn delta_tokens(&self, key: SeqKey, current_tokens: u32) -> u32 {
        self.tokens_of(key).map_or(current_tokens, |backed| {
            current_tokens.saturating_sub(backed)
        })
    }

    /// Drops `key`'s backup (e.g. the request completed). Returns the
    /// snapshot size, if any.
    pub fn remove(&mut self, key: SeqKey) -> Option<u32> {
        let pos = self.entries.iter().position(|b| b.key == key)?;
        self.entries.remove(pos).map(|b| b.tokens)
    }

    /// Evicts the oldest backup to reclaim blocks. Returns it, if any.
    pub fn evict_oldest(&mut self) -> Option<Backup> {
        self.entries.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_credits_the_snapshot() {
        let mut s = BackupStore::new();
        s.insert(1, 1000);
        assert_eq!(s.delta_tokens(1, 1200), 200);
        assert_eq!(s.delta_tokens(2, 1200), 1200);
    }

    #[test]
    fn refresh_replaces_and_moves_to_back() {
        let mut s = BackupStore::new();
        s.insert(1, 100);
        s.insert(2, 200);
        s.insert(1, 150); // refresh: now newest
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.evict_oldest().unwrap().key, 2);
        assert_eq!(s.tokens_of(1), Some(150));
    }

    #[test]
    fn eviction_empties_fifo() {
        let mut s = BackupStore::new();
        for i in 0..3 {
            s.insert(i, 10);
        }
        assert_eq!(s.entries.iter().map(|b| b.tokens).sum::<u32>(), 30);
        assert_eq!(s.evict_oldest().unwrap().key, 0);
        assert_eq!(s.evict_oldest().unwrap().key, 1);
        assert_eq!(s.evict_oldest().unwrap().key, 2);
        assert!(s.evict_oldest().is_none());
        assert!(s.entries.is_empty());
    }

    #[test]
    fn stale_backup_never_inflates_delta() {
        let mut s = BackupStore::new();
        s.insert(1, 5000);
        // Context shrank (e.g. recomputation) — delta saturates at zero.
        assert_eq!(s.delta_tokens(1, 100), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Inserts, refreshes, removals and evictions never corrupt the
        /// store: total tokens always equals the sum of live entries and a
        /// key appears at most once.
        #[test]
        fn store_consistency(ops in proptest::collection::vec((0u8..4, 0u64..6, 1u32..5000), 1..200)) {
            let mut store = BackupStore::new();
            for (op, key, tokens) in ops {
                match op {
                    0 => store.insert(key, tokens),
                    1 => { store.remove(key); }
                    2 => { store.evict_oldest(); }
                    _ => { store.delta_tokens(key, tokens); }
                }
                let mut seen = std::collections::HashSet::new();
                let mut sum = 0u64;
                let mut probe = store.clone();
                while let Some(b) = probe.evict_oldest() {
                    prop_assert!(seen.insert(b.key), "duplicate key {}", b.key);
                    sum += u64::from(b.tokens);
                }
                prop_assert_eq!(sum, store.entries.iter().map(|b| u64::from(b.tokens)).sum::<u64>());
                prop_assert_eq!(seen.len(), store.entries.len());
            }
        }

        /// Under arbitrary interleavings of inserts, crashes (a replica
        /// failure clears every backup it held) and restores, the store
        /// always agrees with a naive map oracle — no phantom hit ever
        /// survives a crash, and migrate deltas stay exact.
        #[test]
        fn crash_restore_interleavings_match_oracle(
            ops in proptest::collection::vec((0u8..5, 0u64..6, 1u32..5000), 1..200)
        ) {
            let mut store = BackupStore::new();
            let mut oracle: std::collections::HashMap<SeqKey, u32> =
                std::collections::HashMap::new();
            for (op, key, tokens) in ops {
                match op {
                    0 => {
                        store.insert(key, tokens);
                        oracle.insert(key, tokens);
                    }
                    1 => {
                        store.remove(key);
                        oracle.remove(&key);
                    }
                    2 => {
                        // Crash: the holding replica loses every snapshot.
                        while let Some(b) = store.evict_oldest() {
                            oracle.remove(&b.key);
                        }
                        prop_assert!(oracle.is_empty());
                    }
                    3 => {
                        // Restore re-snapshots at the current frontier.
                        store.insert(key, tokens);
                        oracle.insert(key, tokens);
                    }
                    _ => {
                        let delta = store.delta_tokens(key, tokens);
                        let expect = match oracle.get(&key) {
                            Some(&backed) => tokens.saturating_sub(backed),
                            None => tokens,
                        };
                        prop_assert_eq!(delta, expect);
                        prop_assert!(delta <= tokens, "delta exceeds the context");
                    }
                }
                prop_assert_eq!(store.entries.len(), oracle.len());
                for (&k, &v) in &oracle {
                    prop_assert_eq!(store.tokens_of(k), Some(v));
                }
            }
        }
    }
}
