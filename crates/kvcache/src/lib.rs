//! # windserve-kvcache
//!
//! KV-cache management substrate for the WindServe reproduction:
//!
//! * [`BlockManager`] — PagedAttention-style block allocator with swap
//!   accounting (vLLM §2.1 of the paper);
//! * [`StallFreeMigration`] — the §3.3 stall-free rescheduling state
//!   machine (background bulk transfer while decoding continues, bounded
//!   pause for the tail);
//! * [`BackupStore`] — opportunistic prefill-side KV backups that shrink
//!   later migration deltas;
//! * [`PrefixStore`] — session-keyed prefix cache over the KV retained on
//!   prefill instances, with a token budget, LRU + TTL eviction and
//!   conservation-checked accounting.
//!
//! # Examples
//!
//! ```
//! use windserve_kvcache::BlockManager;
//!
//! let mut kv = BlockManager::new(1024, 16);
//! kv.allocate(1, 700).unwrap();            // admit a prompt
//! kv.append_tokens(1, 1).unwrap();         // one decode step
//! assert!(kv.free_fraction() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backup;
mod error;
mod manager;
mod migrate;
mod prefix;

pub use backup::{Backup, BackupStore};
pub use error::{Error, Result};
pub use manager::{AllocError, BlockManager, SeqKey};
pub use migrate::{background_duration_secs, MigrationPhase, StallFreeMigration};
pub use prefix::{PrefixStats, PrefixStore, SessionKey};
