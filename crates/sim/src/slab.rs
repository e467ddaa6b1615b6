//! Keyed slab: values in reusable slots, found by key through one map.
//!
//! A [`KeyedSlab`] stores each value at a `u32` slot that stays fixed for
//! as long as the value lives, so a hot loop that has kept the slot reaches
//! the value by array index with no hash probe. The `key → slot` map serves
//! every by-key access. Freed slots are reused before the slab grows, so
//! storage scales with the values alive at once, not with the keys ever
//! seen.

use crate::hash::FxHashMap;

/// Values addressed by a `u64` key, stored at stable, recycled slots.
///
/// # Examples
///
/// ```
/// use windserve_sim::KeyedSlab;
///
/// let mut slab = KeyedSlab::new();
/// let a = slab.insert(7, "seven");
/// assert_eq!(slab.slot_of(7), Some(a));
/// assert_eq!(*slab.at(a), "seven");
/// assert_eq!(slab.remove(7), Some("seven"));
/// // The freed slot is reused before the slab grows.
/// assert_eq!(slab.insert(9, "nine"), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedSlab<T> {
    /// `(key, value)` per occupied slot; `None` marks a free slot.
    slots: Vec<Option<(u64, T)>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    index: FxHashMap<u64, u32>,
}

impl<T> Default for KeyedSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> KeyedSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        KeyedSlab {
            slots: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no value is live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if `key` has a live value.
    pub fn contains_key(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Stores `value` under `key` and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if `key` already has a value; callers that can see a
    /// duplicate check [`contains_key`](Self::contains_key) first.
    pub fn insert(&mut self, key: u64, value: T) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some((key, value));
                slot
            }
            None => {
                self.slots.push(Some((key, value)));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live values")
            }
        };
        let prior = self.index.insert(key, slot);
        assert!(prior.is_none(), "slab key {key} inserted twice");
        slot
    }

    /// Removes and returns `key`'s value, freeing its slot.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let slot = self.index.remove(&key)?;
        self.free.push(slot);
        self.slots[slot as usize].take().map(|(_, value)| value)
    }

    /// The slot holding `key`'s value.
    pub fn slot_of(&self, key: u64) -> Option<u32> {
        self.index.get(&key).copied()
    }

    /// `key`'s value.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.slot_of(key).map(|slot| self.at(slot))
    }

    /// `key`'s value, mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.slot_of(key).map(|slot| self.at_mut(slot))
    }

    /// The value in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free or out of range.
    #[inline]
    pub fn at(&self, slot: u32) -> &T {
        match &self.slots[slot as usize] {
            Some((_, value)) => value,
            None => panic!("slab slot {slot} is free"),
        }
    }

    /// The value in `slot`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free or out of range.
    #[inline]
    pub fn at_mut(&mut self, slot: u32) -> &mut T {
        match &mut self.slots[slot as usize] {
            Some((_, value)) => value,
            None => panic!("slab slot {slot} is free"),
        }
    }

    /// Live `(key, value)` pairs, in slot order (not key order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.slots
            .iter()
            .flatten()
            .map(|(key, value)| (*key, value))
    }

    /// Keys of the live values, in slot order (not key order).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(key, _)| key)
    }

    /// Removes every value, returning them in slot order.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.index.clear();
        self.free.clear();
        self.slots.drain(..).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_key_panics() {
        let mut slab = KeyedSlab::new();
        slab.insert(1, ());
        slab.insert(1, ());
    }

    #[test]
    fn drain_empties_and_restarts_at_slot_zero() {
        let mut slab = KeyedSlab::new();
        slab.insert(5, 'a');
        slab.insert(6, 'b');
        slab.remove(5);
        let drained: Vec<_> = slab.drain().collect();
        assert_eq!(drained, vec![(6, 'b')]);
        assert!(slab.is_empty());
        assert_eq!(slab.insert(8, 'c'), 0);
    }

    proptest! {
        /// Against a plain map: every key resolves to its value, by key
        /// and through its slot, and the slab never holds more slots than
        /// the most values ever alive at once.
        #[test]
        fn matches_a_map_and_reuses_slots(
            ops in proptest::collection::vec((0u8..2, 0u64..24, 0u32..1000), 1..300)
        ) {
            let mut slab = KeyedSlab::new();
            let mut model = std::collections::BTreeMap::new();
            let mut peak = 0;
            for (op, key, value) in ops {
                if op == 0 && !model.contains_key(&key) {
                    let slot = slab.insert(key, value);
                    prop_assert_eq!(*slab.at(slot), value);
                    model.insert(key, value);
                } else {
                    prop_assert_eq!(slab.remove(key), model.remove(&key));
                }
                peak = peak.max(model.len());
                prop_assert_eq!(slab.len(), model.len());
                prop_assert!(slab.slots.len() <= peak);
                for (&key, &value) in &model {
                    let slot = slab.slot_of(key).expect("live key");
                    prop_assert_eq!(*slab.at(slot), value);
                    prop_assert_eq!(slab.get(key), Some(&value));
                }
                let mut keys: Vec<u64> = slab.keys().collect();
                keys.sort_unstable();
                prop_assert_eq!(keys, model.keys().copied().collect::<Vec<_>>());
            }
        }
    }
}
