//! Batch composition.
//!
//! A forward pass processes a mix of *prefill work* (many new tokens per
//! job, possibly a chunk continuing an earlier context) and *decode work*
//! (one new token per job, attending over the job's full context). The
//! engines build [`BatchPlan`]s; the cost model prices them.

use serde::{Deserialize, Serialize};

/// One prefill job's contribution to a step: `new_tokens` fresh prompt
/// tokens appended to `past_tokens` already-processed ones (past is zero
/// for an unchunked prefill).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefillChunk {
    /// Prompt tokens processed in this step.
    pub new_tokens: u32,
    /// Prompt tokens already processed in earlier chunks.
    pub past_tokens: u32,
}

impl PrefillChunk {
    /// A whole-prompt (unchunked) prefill.
    pub fn whole(prompt_tokens: u32) -> Self {
        PrefillChunk {
            new_tokens: prompt_tokens,
            past_tokens: 0,
        }
    }

    /// Total context once this chunk completes.
    pub(crate) fn total_context(&self) -> u32 {
        self.new_tokens + self.past_tokens
    }
}

/// The work content of one forward pass, held as the five sums that
/// Table 1 prices it by: Σ new tokens, Σ new·context and Σ context over
/// the prefill chunks, the decode batch `B` and the decode context sum
/// `ΣL`. Plans with equal sums cost the same.
///
/// # Examples
///
/// ```
/// use windserve_model::{BatchPlan, PrefillChunk};
///
/// let mut plan = BatchPlan::decode_only([1024, 512]);
/// plan.add_prefill(PrefillChunk::whole(768));
/// // Two decodes whose contexts sum to 1536: the same plan.
/// let mut same = BatchPlan::single_prefill(768);
/// same.add_decodes(2, 1536);
/// assert_eq!(plan, same);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BatchPlan {
    /// Σ over prefill chunks of `new_tokens`.
    pub(crate) prefill_new: u64,
    /// Σ over prefill chunks of `new_tokens · total_context` (the N²-ish
    /// attention-score term).
    pub(crate) prefill_cross: u64,
    /// Σ over prefill chunks of `total_context` (KV read+write volume).
    pub(crate) prefill_ctx: u64,
    /// Decode batch size B.
    pub(crate) decode_batch: u64,
    /// Σ of decode context lengths.
    pub(crate) decode_sum_l: u64,
}

impl BatchPlan {
    /// An empty plan.
    pub fn new() -> Self {
        BatchPlan::default()
    }

    /// A plan containing a single whole prefill of `n` tokens.
    pub fn single_prefill(n: u32) -> Self {
        let mut plan = BatchPlan::new();
        plan.add_prefill(PrefillChunk::whole(n));
        plan
    }

    /// A plan decoding one token for each context length in `contexts`.
    pub fn decode_only<I: IntoIterator<Item = u32>>(contexts: I) -> Self {
        let mut plan = BatchPlan::new();
        for context in contexts {
            plan.add_decode(context);
        }
        plan
    }

    /// Adds a prefill chunk.
    ///
    /// # Panics
    ///
    /// Panics if the chunk has no new tokens.
    pub fn add_prefill(&mut self, chunk: PrefillChunk) {
        assert!(chunk.new_tokens > 0, "empty prefill chunk");
        let new = u64::from(chunk.new_tokens);
        let ctx = u64::from(chunk.total_context());
        self.prefill_new += new;
        self.prefill_cross += new * ctx;
        self.prefill_ctx += ctx;
    }

    /// Adds a decode job with the given context length (prompt + generated
    /// so far, at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `context` is zero.
    pub(crate) fn add_decode(&mut self, context: u32) {
        assert!(context > 0, "decode needs a context");
        self.add_decodes(1, u64::from(context));
    }

    /// Adds `batch` decode jobs whose context lengths sum to `sum_l`.
    ///
    /// # Panics
    ///
    /// Panics if `sum_l` is below `batch` (every decode context is at
    /// least one token).
    pub fn add_decodes(&mut self, batch: u64, sum_l: u64) {
        assert!(sum_l >= batch, "decode contexts are at least one token");
        self.decode_batch += batch;
        self.decode_sum_l += sum_l;
    }

    /// True if the plan contains no work. Every prefill chunk has new
    /// tokens, so that is no new prefill token and no decode job.
    pub(crate) fn is_empty(&self) -> bool {
        self.prefill_new == 0 && self.decode_batch == 0
    }

    /// Splits the plan into its prefill-only and decode-only halves (used
    /// by stream-based disaggregation to price each stream separately).
    pub(crate) fn split_phases(&self) -> (BatchPlan, BatchPlan) {
        (
            BatchPlan {
                decode_batch: 0,
                decode_sum_l: 0,
                ..*self
            },
            BatchPlan {
                decode_batch: self.decode_batch,
                decode_sum_l: self.decode_sum_l,
                ..BatchPlan::new()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_match_table1_symbols() {
        let mut plan = BatchPlan::new();
        plan.add_prefill(PrefillChunk::whole(512));
        plan.add_prefill(PrefillChunk {
            new_tokens: 256,
            past_tokens: 512,
        });
        plan.add_decode(100);
        plan.add_decode(200);
        plan.add_decode(300);
        assert_eq!(plan.prefill_new, 768);
        assert_eq!(plan.decode_batch, 3);
        assert_eq!(plan.decode_sum_l, 600);
        assert_eq!(plan.prefill_new + plan.decode_batch, 771);
        assert!(!plan.is_empty());
    }

    #[test]
    fn split_phases_partitions_work() {
        let mut plan = BatchPlan::new();
        plan.add_prefill(PrefillChunk::whole(64));
        plan.add_decode(10);
        let (p, d) = plan.split_phases();
        assert_eq!(p.prefill_new, 64);
        assert_eq!(p.decode_batch, 0);
        assert_eq!(d.prefill_new, 0);
        assert_eq!(d.decode_batch, 1);
    }

    #[test]
    fn constructors_cover_common_cases() {
        assert_eq!(BatchPlan::single_prefill(100).prefill_new, 100);
        let d = BatchPlan::decode_only([5, 6, 7]);
        assert_eq!(d.decode_batch, 3);
        assert!(BatchPlan::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "empty prefill")]
    fn zero_token_chunk_rejected() {
        BatchPlan::new().add_prefill(PrefillChunk::whole(0));
    }
}
