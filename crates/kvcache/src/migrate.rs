//! Stall-free migration bookkeeping (paper §3.3, Fig. 6).
//!
//! When dynamic rescheduling moves a long-context request from the decode
//! instance to the prefill instance, WindServe transfers the KV cache in
//! the background while the request *keeps decoding* and generating new KV
//! at the source. Only once the remaining backlog falls below a threshold
//! is the request paused, the tail flushed, and decoding resumed at the
//! destination.
//!
//! [`StallFreeMigration`] tracks one such migration: how many tokens were
//! snapshotted for the background phase, how many were generated while it
//! ran, and the final tail that the pause phase must move. Its invariant —
//! every token is transferred exactly once — is property-tested.

use serde::{Deserialize, Serialize};

/// The phase a migration is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// Bulk transfer running; the request still decodes at the source.
    Background,
    /// Request paused; the tail (threshold + tokens generated during the
    /// background phase) is being flushed.
    Paused,
}

/// One in-flight stall-free migration.
///
/// # Examples
///
/// ```
/// use windserve_kvcache::{MigrationPhase, StallFreeMigration};
///
/// let mut m = StallFreeMigration::new(1000, 64);
/// m.on_tokens_generated(10);           // still decoding at the source
/// let tail = m.begin_pause();
/// assert_eq!(tail, 64 + 10);
/// assert_eq!(m.phase(), MigrationPhase::Paused);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallFreeMigration {
    snapshot_tokens: u32,
    pause_threshold: u32,
    generated_in_background: u32,
    phase: MigrationPhase,
}

impl StallFreeMigration {
    /// Starts a migration of a sequence currently holding
    /// `context_tokens`, with the pause triggered when `pause_threshold`
    /// tokens (of the snapshot) remain. A threshold at or above the context
    /// degenerates to a fully stalled migration (background phase empty).
    ///
    /// # Panics
    ///
    /// Panics if the context is empty.
    pub fn new(context_tokens: u32, pause_threshold: u32) -> Self {
        assert!(context_tokens > 0, "nothing to migrate");
        StallFreeMigration {
            snapshot_tokens: context_tokens,
            pause_threshold: pause_threshold.min(context_tokens),
            generated_in_background: 0,
            phase: MigrationPhase::Background,
        }
    }

    /// Records `n` tokens decoded at the source while the background phase
    /// runs; their KV joins the tail.
    ///
    /// # Panics
    ///
    /// Panics if the migration is no longer in the background phase —
    /// decoding at the source after the pause would corrupt the handoff.
    pub fn on_tokens_generated(&mut self, n: u32) {
        assert_eq!(
            self.phase,
            MigrationPhase::Background,
            "source decoded after pause"
        );
        self.generated_in_background += n;
    }

    /// Ends the background phase, pausing the request. Returns the tail
    /// token count the pause phase must flush.
    ///
    /// # Panics
    ///
    /// Panics unless the migration is in the background phase.
    pub fn begin_pause(&mut self) -> u32 {
        assert_eq!(self.phase, MigrationPhase::Background, "not in background");
        self.phase = MigrationPhase::Paused;
        self.pause_threshold + self.generated_in_background
    }

    /// Current phase.
    pub fn phase(&self) -> MigrationPhase {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tokens the background (non-blocking) phase moves.
    fn background_tokens(m: &StallFreeMigration) -> u32 {
        m.snapshot_tokens - m.pause_threshold
    }

    /// Context tokens the destination ends up holding.
    fn total_tokens(m: &StallFreeMigration) -> u32 {
        m.snapshot_tokens + m.generated_in_background
    }

    #[test]
    fn lifecycle_moves_every_token_once() {
        let mut m = StallFreeMigration::new(500, 32);
        m.on_tokens_generated(7);
        m.on_tokens_generated(3);
        let tail = m.begin_pause();
        assert_eq!(background_tokens(&m) + tail, 510);
        assert_eq!(total_tokens(&m), 510);
    }

    #[test]
    fn oversized_threshold_degenerates_to_stalled() {
        let mut m = StallFreeMigration::new(100, 1000);
        assert_eq!(background_tokens(&m), 0);
        assert_eq!(m.begin_pause(), 100);
    }

    #[test]
    #[should_panic(expected = "source decoded after pause")]
    fn generating_after_pause_is_a_bug() {
        let mut m = StallFreeMigration::new(100, 10);
        m.begin_pause();
        m.on_tokens_generated(1);
    }

    proptest! {
        /// Token conservation under arbitrary decode activity.
        #[test]
        fn conservation(ctx in 1u32..10_000, thr in 0u32..2_000,
                        gens in proptest::collection::vec(0u32..50, 0..20)) {
            let mut m = StallFreeMigration::new(ctx, thr);
            let mut generated = 0;
            for g in gens {
                m.on_tokens_generated(g);
                generated += g;
            }
            let tail = m.begin_pause();
            prop_assert_eq!(background_tokens(&m) + tail, ctx + generated);
            prop_assert_eq!(total_tokens(&m), ctx + generated);
        }
    }
}
