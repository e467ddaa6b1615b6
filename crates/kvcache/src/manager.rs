//! Paged KV-cache block manager.
//!
//! Following vLLM's PagedAttention (which the paper integrates, §2.1),
//! each serving instance divides its KV memory into fixed-size blocks and
//! maps every running sequence to a block table. Growing a sequence by one
//! token allocates at most one new block; completion frees the whole table.
//! The manager also accounts swap-outs to host memory — the paper's Fig. 1a
//! and §2.2 blame exactly this swapping for degraded TPOT under load.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use windserve_sim::hash::FxHashMap;

/// Identifier of one physical KV block within an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

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

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SeqTable {
    blocks: Vec<BlockId>,
    tokens: u32,
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockManager {
    block_tokens: u32,
    total_blocks: usize,
    free: Vec<BlockId>,
    // Deterministic first-party hashing (see `windserve_sim::hash`): these
    // maps sit on the one-lookup-per-generated-token hot path.
    tables: FxHashMap<SeqKey, SeqTable>,
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
            free: (0..total_blocks as u32).rev().map(BlockId).collect(),
            tables: FxHashMap::default(),
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
        self.free.len()
    }

    /// Fraction of blocks free, in `[0, 1]`.
    pub fn free_fraction(&self) -> f64 {
        self.free.len() as f64 / self.total_blocks as f64
    }

    /// Blocks required to hold `tokens` tokens.
    pub fn blocks_for(&self, tokens: u32) -> usize {
        (tokens as usize).div_ceil(self.block_tokens as usize)
    }

    /// Largest token count an allocation could currently satisfy.
    pub fn free_token_capacity(&self) -> u64 {
        self.free.len() as u64 * u64::from(self.block_tokens)
    }

    /// True if a new sequence of `tokens` tokens would fit right now.
    pub fn can_fit(&self, tokens: u32) -> bool {
        self.blocks_for(tokens) <= self.free.len()
    }

    /// Tokens resident for `key`, if it is allocated on-device.
    pub fn tokens_of(&self, key: SeqKey) -> Option<u32> {
        self.tables.get(&key).map(|t| t.tokens)
    }

    /// Keys of all resident sequences (unordered).
    pub fn resident_keys(&self) -> impl Iterator<Item = SeqKey> + '_ {
        self.tables.keys().copied()
    }

    /// Number of resident sequences.
    pub fn resident_count(&self) -> usize {
        self.tables.len()
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
            !self.tables.contains_key(&key),
            "sequence {key} already allocated"
        );
        let needed = self.blocks_for(tokens);
        if needed > self.free.len() {
            return Err(AllocError {
                needed,
                available: self.free.len(),
            });
        }
        let mut blocks = Vec::with_capacity(needed);
        blocks.extend(self.free.drain(self.free.len() - needed..));
        self.tables.insert(key, SeqTable { blocks, tokens });
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
        // Single map lookup: this runs once per generated token across the
        // whole simulation, so the table is resolved exactly once and the
        // common no-new-block case touches nothing else.
        let block_tokens = self.block_tokens as usize;
        let free_len = self.free.len();
        let table = self.tables.get_mut(&key).expect("sequence not allocated");
        let new_tokens = table.tokens + n;
        let need = (new_tokens as usize).div_ceil(block_tokens);
        let extra = need.saturating_sub(table.blocks.len());
        if extra > free_len {
            return Err(AllocError {
                needed: extra,
                available: free_len,
            });
        }
        if extra > 0 {
            // Moves the top `extra` free blocks in stack order; unlike
            // `split_off`, draining allocates no intermediate `Vec`.
            table.blocks.extend(self.free.drain(free_len - extra..));
        }
        table.tokens = new_tokens;
        Ok(())
    }

    /// Frees `key`'s table, returning the token count it held (0 if the key
    /// was unknown — releasing twice is tolerated so callers can be
    /// idempotent on completion paths).
    pub fn release(&mut self, key: SeqKey) -> u32 {
        match self.tables.remove(&key) {
            Some(table) => {
                self.free.extend(table.blocks);
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
        let table = self.tables.remove(&key).expect("sequence not resident");
        self.free.extend(table.blocks);
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

    /// Verifies conservation: every block is either free or in exactly one
    /// table.
    ///
    /// # Errors
    ///
    /// Returns
    /// [`Error::InvariantViolated`](crate::Error::InvariantViolated)
    /// describing the violated invariant.
    pub fn check_invariants(&self) -> crate::Result<()> {
        let violated = |reason: String| crate::Error::InvariantViolated { reason };
        let in_tables: usize = self.tables.values().map(|t| t.blocks.len()).sum();
        if in_tables + self.free.len() != self.total_blocks {
            return Err(violated(format!(
                "block leak: {} in tables + {} free != {} total",
                in_tables,
                self.free.len(),
                self.total_blocks
            )));
        }
        let mut seen = vec![false; self.total_blocks];
        for id in self
            .free
            .iter()
            .chain(self.tables.values().flat_map(|t| t.blocks.iter()))
        {
            match seen.get_mut(id.0 as usize) {
                Some(s) if !*s => *s = true,
                Some(_) => return Err(violated(format!("block {id:?} appears twice"))),
                None => return Err(violated(format!("block {id:?} out of range"))),
            }
        }
        for (key, table) in &self.tables {
            if self.blocks_for(table.tokens) != table.blocks.len() {
                return Err(violated(format!(
                    "sequence {key}: {} tokens need {} blocks, has {}",
                    table.tokens,
                    self.blocks_for(table.tokens),
                    table.blocks.len()
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
