//! Paged KV-cache block manager.
//!
//! Following vLLM's PagedAttention (which the paper integrates, §2.1),
//! each serving instance divides its KV memory into fixed-size blocks and
//! maps every running sequence to a block table. Growing a sequence by one
//! token allocates at most one new block; completion frees the whole table.
//! The manager also accounts swap-outs to host memory — the paper's Fig. 1a
//! and §2.2 blame exactly this swapping for degraded TPOT under load.
//!
//! Blocks are interchangeable, so the manager keeps counts, not block ids:
//! each table records how many blocks it holds, and the pool how many are
//! free. Tables live in a [`KeyedSlab`]: a caller that keeps a table's
//! slot (the engine does, for every decoding sequence) reads and grows it
//! by index with no hash probe. Each table also keeps the token room left
//! in its last block, so a one-token append is a decrement and takes a new
//! block only when the room is used up.
//!
//! Growth can also be *deferred*: a caller that knows how many blocks a
//! batch of appends will take debits them from the free pool at once
//! ([`debit_growth`](BlockManager::debit_growth)) and later moves the
//! tokens into each table ([`settle_at`](BlockManager::settle_at)), whose
//! new blocks then come out of the debited pool instead of the free one.

use std::error::Error;
use std::fmt;
use windserve_sim::hash::FxHashMap;
use windserve_sim::KeyedSlab;

/// Key identifying a sequence in the manager (the request id's raw value).
pub type SeqKey = u64;

/// Returned when an allocation cannot be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Blocks the allocation needed.
    pub needed: usize,
    /// Blocks currently free.
    pub available: usize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "insufficient KV blocks: need {}, have {}",
            self.needed, self.available
        )
    }
}

impl Error for AllocError {}

#[derive(Debug, Clone)]
struct SeqTable {
    blocks: usize,
    tokens: u32,
    /// Tokens the last block can still take: `blocks · block_tokens − tokens`.
    room: u32,
}

/// The per-instance block manager.
///
/// # Examples
///
/// ```
/// use windserve_kvcache::BlockManager;
///
/// let mut mgr = BlockManager::new(100, 16);
/// mgr.allocate(1, 40).unwrap();        // 3 blocks
/// mgr.append_tokens(1, 8).unwrap();    // still 3 blocks
/// mgr.append_tokens(1, 1).unwrap();    // 4th block
/// assert_eq!(mgr.free_blocks(), 96);
/// assert_eq!(mgr.release(1), 49);
/// assert_eq!(mgr.free_blocks(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct BlockManager {
    block_tokens: u32,
    total_blocks: usize,
    free: usize,
    /// Blocks debited for growth not yet settled into any table.
    deferred: usize,
    tables: KeyedSlab<SeqTable>,
    swapped: FxHashMap<SeqKey, u32>,
    swap_outs: u64,
    swap_ins: u64,
}

impl BlockManager {
    /// Creates a manager over `total_blocks` blocks of `block_tokens`
    /// tokens each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(total_blocks: usize, block_tokens: u32) -> Self {
        assert!(total_blocks > 0, "need at least one block");
        assert!(block_tokens > 0, "blocks must hold tokens");
        BlockManager {
            block_tokens,
            total_blocks,
            free: total_blocks,
            deferred: 0,
            tables: KeyedSlab::new(),
            swapped: FxHashMap::default(),
            swap_outs: 0,
            swap_ins: 0,
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u32 {
        self.block_tokens
    }

    /// Total blocks managed.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// Currently free blocks.
    pub fn free_blocks(&self) -> usize {
        self.free
    }

    /// Blocks debited by [`debit_growth`](Self::debit_growth) and not yet
    /// settled into a table.
    pub fn deferred_blocks(&self) -> usize {
        self.deferred
    }

    /// Fraction of blocks free, in `[0, 1]`.
    pub fn free_fraction(&self) -> f64 {
        self.free as f64 / self.total_blocks as f64
    }

    /// Blocks required to hold `tokens` tokens.
    pub fn blocks_for(&self, tokens: u32) -> usize {
        (tokens as usize).div_ceil(self.block_tokens as usize)
    }

    /// Largest token count an allocation could currently satisfy.
    pub fn free_token_capacity(&self) -> u64 {
        self.free as u64 * u64::from(self.block_tokens)
    }

    /// True if a new sequence of `tokens` tokens would fit right now.
    pub fn can_fit(&self, tokens: u32) -> bool {
        self.blocks_for(tokens) <= self.free
    }

    /// Tokens resident for `key`, if it is allocated on-device.
    pub fn tokens_of(&self, key: SeqKey) -> Option<u32> {
        self.tables.get(key).map(|t| t.tokens)
    }

    /// The slot of `key`'s table, if it is allocated on-device. The slot
    /// stays valid until the table is released or swapped out.
    pub fn slot_of(&self, key: SeqKey) -> Option<u32> {
        self.tables.slot_of(key)
    }

    /// Tokens held by the table in `slot`, and the room left in its last
    /// block (`0` when the tokens fill their blocks exactly).
    ///
    /// # Panics
    ///
    /// Panics if no table lives in `slot`.
    #[inline]
    pub fn fill_at(&self, slot: u32) -> (u32, u32) {
        let table = self.tables.at(slot);
        (table.tokens, table.room)
    }

    /// Keys of all resident sequences (unordered).
    pub fn resident_keys(&self) -> impl Iterator<Item = SeqKey> + '_ {
        self.tables.keys()
    }

    /// Allocates a fresh table of `tokens` tokens for `key`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if not enough blocks are free.
    ///
    /// # Panics
    ///
    /// Panics if `key` already has a table (double allocation is a
    /// scheduler bug).
    pub fn allocate(&mut self, key: SeqKey, tokens: u32) -> Result<(), AllocError> {
        assert!(
            !self.tables.contains_key(key),
            "sequence {key} already allocated"
        );
        let needed = self.blocks_for(tokens);
        if needed > self.free {
            return Err(AllocError {
                needed,
                available: self.free,
            });
        }
        self.free -= needed;
        let room = (needed * self.block_tokens as usize - tokens as usize) as u32;
        self.tables.insert(
            key,
            SeqTable {
                blocks: needed,
                tokens,
                room,
            },
        );
        Ok(())
    }

    /// Grows `key`'s sequence by `n` tokens, allocating blocks as needed.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if growth requires more blocks than are free;
    /// the sequence is left unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `key` has no table.
    pub fn append_tokens(&mut self, key: SeqKey, n: u32) -> Result<(), AllocError> {
        let slot = self.slot_of(key).expect("sequence not allocated");
        self.append_at(slot, n)
    }

    /// [`append_tokens`](Self::append_tokens) on the table in `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if growth requires more blocks than are free;
    /// the table is left unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if no table lives in `slot`.
    #[inline]
    pub fn append_at(&mut self, slot: u32, n: u32) -> Result<(), AllocError> {
        let extra = self.grow(slot, n, self.free)?;
        self.free -= extra;
        Ok(())
    }

    /// Takes `blocks` free blocks for growth that
    /// [`settle_at`](Self::settle_at) will later move into tables.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if fewer blocks are free; nothing changes.
    pub fn debit_growth(&mut self, blocks: usize) -> Result<(), AllocError> {
        if blocks > self.free {
            return Err(AllocError {
                needed: blocks,
                available: self.free,
            });
        }
        self.free -= blocks;
        self.deferred += blocks;
        Ok(())
    }

    /// Appends `n` tokens to the table in `slot`, taking any new blocks
    /// from those [`debit_growth`](Self::debit_growth) set aside.
    ///
    /// # Panics
    ///
    /// Panics if no table lives in `slot`, or if the growth needs more
    /// blocks than were debited (the caller's count was wrong).
    #[inline]
    pub fn settle_at(&mut self, slot: u32, n: u32) {
        let extra = self
            .grow(slot, n, self.deferred)
            .expect("settled growth exceeds the debited blocks");
        self.deferred -= extra;
    }

    /// Grows the table in `slot` by `n` tokens if the blocks that takes
    /// are at most `available`; returns how many it took.
    #[inline]
    fn grow(&mut self, slot: u32, n: u32, available: usize) -> Result<usize, AllocError> {
        let table = self.tables.at_mut(slot);
        if n <= table.room {
            table.room -= n;
            table.tokens += n;
            return Ok(0);
        }
        // Whole blocks until the room covers `n`: one pass for a one-token
        // append, and no division.
        let (mut room, mut extra) = (table.room, 0usize);
        while room < n {
            room += self.block_tokens;
            extra += 1;
        }
        if extra > available {
            return Err(AllocError {
                needed: extra,
                available,
            });
        }
        table.blocks += extra;
        table.room = room - n;
        table.tokens += n;
        Ok(extra)
    }

    /// Frees `key`'s table, returning the token count it held (0 if the key
    /// was unknown — releasing twice is tolerated so callers can be
    /// idempotent on completion paths).
    pub fn release(&mut self, key: SeqKey) -> u32 {
        match self.tables.remove(key) {
            Some(table) => {
                self.free += table.blocks;
                table.tokens
            }
            None => 0,
        }
    }

    /// Swaps `key` out to host memory: frees its device blocks but
    /// remembers the token count for a later swap-in. Returns the tokens
    /// moved.
    ///
    /// # Panics
    ///
    /// Panics if `key` has no device table.
    pub fn swap_out(&mut self, key: SeqKey) -> u32 {
        let table = self.tables.remove(key).expect("sequence not resident");
        self.free += table.blocks;
        self.swapped.insert(key, table.tokens);
        self.swap_outs += 1;
        table.tokens
    }

    /// Brings a swapped sequence back on-device.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if blocks are insufficient; the sequence
    /// remains swapped.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not swapped out.
    pub fn swap_in(&mut self, key: SeqKey) -> Result<u32, AllocError> {
        let tokens = *self.swapped.get(&key).expect("sequence not swapped");
        self.allocate(key, tokens)?;
        self.swapped.remove(&key);
        self.swap_ins += 1;
        Ok(tokens)
    }

    /// Tokens held in host memory for `key`, if swapped.
    pub fn swapped_tokens(&self, key: SeqKey) -> Option<u32> {
        self.swapped.get(&key).copied()
    }

    /// Discards a swapped-out sequence without bringing it back (e.g. the
    /// request completed or migrated away while on host). Returns the
    /// tokens dropped, if the key was swapped.
    pub fn forget_swapped(&mut self, key: SeqKey) -> Option<u32> {
        self.swapped.remove(&key)
    }

    /// Lifetime swap-out event count.
    pub fn swap_out_count(&self) -> u64 {
        self.swap_outs
    }

    /// Lifetime swap-in event count.
    pub fn swap_in_count(&self) -> u64 {
        self.swap_ins
    }

    /// Verifies conservation: the blocks in tables, the free blocks and
    /// the debited growth add up to the total, and every table holds
    /// exactly the blocks its tokens need, with the room it records left
    /// in the last one.
    ///
    /// # Errors
    ///
    /// Returns
    /// [`Error::InvariantViolated`](crate::Error::InvariantViolated)
    /// describing the violated invariant.
    pub fn check_invariants(&self) -> crate::Result<()> {
        let violated = |reason: String| crate::Error::InvariantViolated { reason };
        let in_tables: usize = self.tables.iter().map(|(_, t)| t.blocks).sum();
        if in_tables + self.free + self.deferred != self.total_blocks {
            return Err(violated(format!(
                "block leak: {} in tables + {} free + {} debited != {} total",
                in_tables, self.free, self.deferred, self.total_blocks
            )));
        }
        for (key, table) in self.tables.iter() {
            if self.blocks_for(table.tokens) != table.blocks {
                return Err(violated(format!(
                    "sequence {key}: {} tokens need {} blocks, has {}",
                    table.tokens,
                    self.blocks_for(table.tokens),
                    table.blocks
                )));
            }
            let room = table.blocks as u64 * u64::from(self.block_tokens) - u64::from(table.tokens);
            if u64::from(table.room) != room {
                return Err(violated(format!(
                    "sequence {key}: room {} but {} blocks hold {} tokens",
                    table.room, table.blocks, table.tokens
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocation_rounds_up_to_blocks() {
        let mut mgr = BlockManager::new(10, 16);
        mgr.allocate(1, 17).unwrap();
        assert_eq!(mgr.free_blocks(), 8);
        mgr.check_invariants().unwrap();
    }

    #[test]
    fn failed_allocation_changes_nothing() {
        let mut mgr = BlockManager::new(4, 16);
        mgr.allocate(1, 48).unwrap();
        let err = mgr.allocate(2, 32).unwrap_err();
        assert_eq!(err.needed, 2);
        assert_eq!(err.available, 1);
        assert_eq!(mgr.free_blocks(), 1);
        assert_eq!(mgr.tokens_of(2), None);
        mgr.check_invariants().unwrap();
    }

    #[test]
    fn append_allocates_lazily() {
        let mut mgr = BlockManager::new(4, 16);
        mgr.allocate(1, 16).unwrap();
        for _ in 0..16 {
            mgr.append_tokens(1, 1).unwrap();
        }
        assert_eq!(mgr.tokens_of(1), Some(32));
        assert_eq!(mgr.free_blocks(), 2);
        mgr.check_invariants().unwrap();
    }

    #[test]
    fn failed_append_leaves_sequence_intact() {
        let mut mgr = BlockManager::new(2, 16);
        mgr.allocate(1, 32).unwrap();
        assert!(mgr.append_tokens(1, 1).is_err());
        assert_eq!(mgr.tokens_of(1), Some(32));
        mgr.check_invariants().unwrap();
    }

    #[test]
    fn swap_roundtrip_preserves_tokens() {
        let mut mgr = BlockManager::new(10, 16);
        mgr.allocate(7, 100).unwrap();
        let moved = mgr.swap_out(7);
        assert_eq!(moved, 100);
        assert_eq!(mgr.free_blocks(), 10);
        assert_eq!(mgr.swapped_tokens(7), Some(100));
        assert_eq!(mgr.swap_in(7).unwrap(), 100);
        assert_eq!(mgr.tokens_of(7), Some(100));
        assert_eq!(mgr.swap_out_count(), 1);
        assert_eq!(mgr.swap_in_count(), 1);
        mgr.check_invariants().unwrap();
    }

    #[test]
    fn release_is_idempotent() {
        let mut mgr = BlockManager::new(10, 16);
        mgr.allocate(1, 50).unwrap();
        assert_eq!(mgr.release(1), 50);
        assert_eq!(mgr.release(1), 0);
        assert_eq!(mgr.free_blocks(), 10);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocation_panics() {
        let mut mgr = BlockManager::new(10, 16);
        mgr.allocate(1, 10).unwrap();
        let _ = mgr.allocate(1, 10);
    }

    #[test]
    fn auditor_catches_a_drifted_room() {
        let mut mgr = BlockManager::new(10, 16);
        mgr.allocate(3, 20).unwrap();
        assert_eq!(mgr.fill_at(mgr.slot_of(3).unwrap()), (20, 12));
        let slot = mgr.slot_of(3).unwrap();
        mgr.tables.at_mut(slot).room -= 1;
        let err = mgr.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("sequence 3: room 11 but 2 blocks hold 20 tokens"),
            "{err}"
        );
    }

    #[test]
    fn deferred_growth_settles_from_the_debit() {
        let mut mgr = BlockManager::new(10, 16);
        mgr.allocate(1, 16).unwrap();
        mgr.allocate(2, 20).unwrap();
        // Five appends each: table 1 crosses once, table 2 does not.
        mgr.debit_growth(1).unwrap();
        assert_eq!((mgr.free_blocks(), mgr.deferred_blocks()), (6, 1));
        assert_eq!(mgr.debit_growth(7).unwrap_err().available, 6);
        mgr.check_invariants().unwrap();
        mgr.settle_at(mgr.slot_of(2).unwrap(), 5);
        mgr.settle_at(mgr.slot_of(1).unwrap(), 5);
        assert_eq!(mgr.deferred_blocks(), 0);
        assert_eq!(mgr.tokens_of(1), Some(21));
        assert_eq!(mgr.release(1), 21);
        assert_eq!(mgr.free_blocks(), 8);
        mgr.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds the debited blocks")]
    fn settling_more_than_the_debit_panics() {
        let mut mgr = BlockManager::new(10, 16);
        mgr.allocate(1, 16).unwrap();
        mgr.settle_at(mgr.slot_of(1).unwrap(), 1);
    }

    #[test]
    fn auditor_catches_a_leaked_debit() {
        let mut mgr = BlockManager::new(10, 16);
        mgr.allocate(1, 20).unwrap();
        mgr.deferred += 1;
        let err = mgr.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("block leak: 2 in tables + 8 free + 1 debited != 10 total"),
            "{err}"
        );
    }

    proptest! {
        /// Random alloc/append/release/swap interleavings never leak or
        /// double-book blocks.
        #[test]
        fn conservation_under_random_ops(ops in proptest::collection::vec((0u8..5, 0u64..8, 1u32..200), 1..300)) {
            let mut mgr = BlockManager::new(64, 16);
            for (op, key, tokens) in ops {
                match op {
                    0 => {
                        if mgr.tokens_of(key).is_none() && mgr.swapped_tokens(key).is_none() {
                            let _ = mgr.allocate(key, tokens);
                        }
                    }
                    1 => {
                        if mgr.tokens_of(key).is_some() {
                            let _ = mgr.append_tokens(key, tokens % 32 + 1);
                        }
                    }
                    2 => {
                        // release only drops resident state; swapped stays.
                        if mgr.tokens_of(key).is_some() {
                            mgr.release(key);
                        }
                    }
                    3 => {
                        if mgr.tokens_of(key).is_some() {
                            mgr.swap_out(key);
                        }
                    }
                    _ => {
                        if mgr.swapped_tokens(key).is_some() {
                            let _ = mgr.swap_in(key);
                        }
                    }
                }
                mgr.check_invariants().unwrap();
            }
        }

        /// Room-based appends, by key and by slot, keep every table's tokens
        /// and block count where the `div_ceil` formula puts them, through
        /// allocations, appends of any size, failed appends, swaps and
        /// releases.
        #[test]
        fn room_keeps_blocks_at_the_div_ceil_formula(
            block_tokens in 1u32..20,
            ops in proptest::collection::vec((0u8..5, 0u64..6, 0u32..70), 1..300)
        ) {
            let total = 48;
            let mut mgr = BlockManager::new(total, block_tokens);
            // Key → tokens, resident and on host.
            let mut resident = std::collections::BTreeMap::new();
            let mut host = std::collections::BTreeMap::new();
            let blocks = |tokens: u32| tokens.div_ceil(block_tokens) as usize;
            for (op, key, n) in ops {
                match op {
                    0 if !resident.contains_key(&key) && !host.contains_key(&key) => {
                        if mgr.allocate(key, n).is_ok() {
                            resident.insert(key, n);
                        }
                    }
                    1 | 2 if resident.contains_key(&key) => {
                        let tokens = resident[&key];
                        let free = mgr.free_blocks();
                        let grown = if op == 1 {
                            mgr.append_tokens(key, n)
                        } else {
                            let slot = mgr.slot_of(key).expect("resident");
                            mgr.append_at(slot, n)
                        };
                        let extra = blocks(tokens + n) - blocks(tokens);
                        prop_assert_eq!(grown.is_ok(), extra <= free);
                        if grown.is_ok() {
                            resident.insert(key, tokens + n);
                        }
                    }
                    3 if resident.contains_key(&key) => {
                        prop_assert_eq!(mgr.swap_out(key), resident[&key]);
                        host.insert(key, resident.remove(&key).expect("resident"));
                    }
                    3 if host.contains_key(&key) => {
                        if mgr.swap_in(key).is_ok() {
                            resident.insert(key, host.remove(&key).expect("on host"));
                        }
                    }
                    _ => {
                        prop_assert_eq!(mgr.release(key), resident.remove(&key).unwrap_or(0));
                    }
                }
                mgr.check_invariants().unwrap();
                let mut held = 0;
                for (&key, &tokens) in &resident {
                    let (got, room) = mgr.fill_at(mgr.slot_of(key).expect("resident"));
                    prop_assert_eq!(got, tokens);
                    prop_assert_eq!((tokens + room) as usize, blocks(tokens) * block_tokens as usize);
                    held += blocks(tokens);
                }
                prop_assert_eq!(mgr.free_blocks(), total - held);
                prop_assert_eq!(mgr.tables.len(), resident.len());
            }
        }

        /// Growth debited up front and settled table by table leaves the
        /// manager exactly where appending each table directly does.
        #[test]
        fn deferred_growth_matches_direct_appends(
            block_tokens in 1u32..20,
            tables in proptest::collection::vec(0u32..60, 1..8),
            rounds in proptest::collection::vec(proptest::collection::vec(0u32..40, 8..9), 1..6),
        ) {
            let mut direct = BlockManager::new(400, block_tokens);
            let mut deferred = BlockManager::new(400, block_tokens);
            for (key, &tokens) in tables.iter().enumerate() {
                direct.allocate(key as u64, tokens).unwrap();
                deferred.allocate(key as u64, tokens).unwrap();
            }
            for grow in rounds {
                let free = direct.free_blocks();
                for (key, &n) in grow.iter().enumerate().take(tables.len()) {
                    let _ = direct.append_tokens(key as u64, n);
                }
                let taken = free - direct.free_blocks();
                deferred.debit_growth(taken).unwrap();
                for key in 0..tables.len() {
                    let want = direct.tokens_of(key as u64).unwrap();
                    let slot = deferred.slot_of(key as u64).unwrap();
                    let n = want - deferred.fill_at(slot).0;
                    deferred.settle_at(slot, n);
                    prop_assert_eq!(deferred.fill_at(slot), direct.fill_at(direct.slot_of(key as u64).unwrap()));
                }
                prop_assert_eq!(deferred.deferred_blocks(), 0);
                prop_assert_eq!(deferred.free_blocks(), direct.free_blocks());
                deferred.check_invariants().unwrap();
            }
        }

        /// free_token_capacity is an upper bound honoured by can_fit.
        #[test]
        fn can_fit_is_consistent(tokens in 1u32..2000) {
            let mut mgr = BlockManager::new(32, 16);
            mgr.allocate(1, 300).unwrap();
            let fits = mgr.can_fit(tokens);
            prop_assert_eq!(fits, mgr.blocks_for(tokens) <= mgr.free_blocks());
            if u64::from(tokens) <= mgr.free_token_capacity() {
                prop_assert!(fits);
            }
        }
    }
}
