//! Transformer model descriptions.
//!
//! The paper evaluates the OPT family (MHA, 2K context) for chatbot
//! workloads and the LLaMA2 family (13B MHA, 70B GQA, 4K context) for
//! summarization. These presets carry exactly the architecture parameters
//! the cost model (Table 1) needs: layer count, hidden size, head layout,
//! FFN shape and datatype width.

use serde::{Deserialize, Serialize};

/// Attention flavor; GQA shrinks the KV cache (paper §5.2 notes this makes
/// LLaMA2-70B's transfer overhead smaller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttentionKind {
    /// Multi-head attention: one KV head per query head.
    Mha,
    /// Grouped-query attention with this many KV heads.
    Gqa {
        /// Number of key/value heads shared among the query heads.
        kv_heads: u32,
    },
}

/// Feed-forward network shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FfnKind {
    /// Two projections `H -> I -> H` (OPT/GPT style, usually `I = 4H`).
    Standard,
    /// Gated FFN with three projections (LLaMA style).
    Gated,
}

/// Architecture of a decoder-only transformer.
///
/// # Examples
///
/// ```
/// use windserve_model::ModelSpec;
///
/// let opt = ModelSpec::opt_13b();
/// // ~13B parameters
/// let billions = opt.param_count() as f64 / 1e9;
/// assert!((12.0..14.0).contains(&billions));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"OPT-13B"`.
    pub name: String,
    /// Number of transformer layers.
    pub n_layers: u32,
    /// Hidden (embedding) dimension `H`.
    pub hidden: u32,
    /// Number of query heads.
    pub n_heads: u32,
    /// Attention flavor (MHA or GQA).
    pub attention: AttentionKind,
    /// FFN flavor.
    pub ffn: FfnKind,
    /// FFN intermediate dimension `I`.
    pub ffn_intermediate: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// Maximum supported context length in tokens.
    pub max_context: u32,
    /// Bytes per parameter / activation element (2 for FP16).
    pub dtype_bytes: u32,
}

impl ModelSpec {
    /// OPT-13B (paper's chatbot model, Table 3/4).
    pub fn opt_13b() -> Self {
        ModelSpec {
            name: "OPT-13B".to_string(),
            n_layers: 40,
            hidden: 5120,
            n_heads: 40,
            attention: AttentionKind::Mha,
            ffn: FfnKind::Standard,
            ffn_intermediate: 4 * 5120,
            vocab: 50272,
            max_context: 2048,
            dtype_bytes: 2,
        }
    }

    /// OPT-125M (the smallest family member; handy for fast tests).
    pub fn opt_125m() -> Self {
        ModelSpec {
            name: "OPT-125M".to_string(),
            n_layers: 12,
            hidden: 768,
            n_heads: 12,
            attention: AttentionKind::Mha,
            ffn: FfnKind::Standard,
            ffn_intermediate: 4 * 768,
            vocab: 50272,
            max_context: 2048,
            dtype_bytes: 2,
        }
    }

    /// OPT-30B.
    pub fn opt_30b() -> Self {
        ModelSpec {
            name: "OPT-30B".to_string(),
            n_layers: 48,
            hidden: 7168,
            n_heads: 56,
            attention: AttentionKind::Mha,
            ffn: FfnKind::Standard,
            ffn_intermediate: 4 * 7168,
            vocab: 50272,
            max_context: 2048,
            dtype_bytes: 2,
        }
    }

    /// OPT-66B (paper's large chatbot model).
    pub fn opt_66b() -> Self {
        ModelSpec {
            name: "OPT-66B".to_string(),
            n_layers: 64,
            hidden: 9216,
            n_heads: 72,
            attention: AttentionKind::Mha,
            ffn: FfnKind::Standard,
            ffn_intermediate: 4 * 9216,
            vocab: 50272,
            max_context: 2048,
            dtype_bytes: 2,
        }
    }

    /// LLaMA2-13B (paper's summarization model; MHA, 4K context).
    pub fn llama2_13b() -> Self {
        ModelSpec {
            name: "LLaMA2-13B".to_string(),
            n_layers: 40,
            hidden: 5120,
            n_heads: 40,
            attention: AttentionKind::Mha,
            ffn: FfnKind::Gated,
            ffn_intermediate: 13824,
            vocab: 32000,
            max_context: 4096,
            dtype_bytes: 2,
        }
    }

    /// LLaMA2-70B (GQA with 8 KV heads, 4K context).
    pub fn llama2_70b() -> Self {
        ModelSpec {
            name: "LLaMA2-70B".to_string(),
            n_layers: 80,
            hidden: 8192,
            n_heads: 64,
            attention: AttentionKind::Gqa { kv_heads: 8 },
            ffn: FfnKind::Gated,
            ffn_intermediate: 28672,
            vocab: 32000,
            max_context: 4096,
            dtype_bytes: 2,
        }
    }

    /// Dimension of one attention head.
    pub(crate) fn head_dim(&self) -> u32 {
        self.hidden / self.n_heads
    }

    /// Number of KV heads (equals query heads for MHA).
    pub(crate) fn kv_heads(&self) -> u32 {
        match self.attention {
            AttentionKind::Mha => self.n_heads,
            AttentionKind::Gqa { kv_heads } => kv_heads,
        }
    }

    /// Combined K+V width per token per layer, in elements.
    pub(crate) fn kv_dim(&self) -> u64 {
        2 * u64::from(self.kv_heads()) * u64::from(self.head_dim())
    }

    /// KV-cache footprint of one token across all layers, in bytes.
    ///
    /// For OPT-13B this is ~0.78 MiB/token, matching the paper's §2.2
    /// estimate of ~1.5 GB for a 2048-token context.
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.kv_dim() * u64::from(self.n_layers) * u64::from(self.dtype_bytes)
    }

    /// Attention weight elements per layer (Q, K, V, O projections).
    pub(crate) fn attn_params_per_layer(&self) -> u64 {
        let h = u64::from(self.hidden);
        let kv_width = u64::from(self.kv_heads()) * u64::from(self.head_dim());
        // Q and O are H x H; K and V are H x kv_width.
        2 * h * h + 2 * h * kv_width
    }

    /// FFN weight elements per layer.
    pub(crate) fn ffn_params_per_layer(&self) -> u64 {
        let h = u64::from(self.hidden);
        let i = u64::from(self.ffn_intermediate);
        match self.ffn {
            FfnKind::Standard => 2 * h * i,
            FfnKind::Gated => 3 * h * i,
        }
    }

    /// Total parameter count (layers + embedding; OPT ties the input and
    /// output embeddings, and the untied LM head adds <2% on every model
    /// evaluated, so one embedding matrix is counted).
    pub fn param_count(&self) -> u64 {
        let per_layer = self.attn_params_per_layer() + self.ffn_params_per_layer();
        per_layer * u64::from(self.n_layers) + u64::from(self.vocab) * u64::from(self.hidden)
    }

    /// Total weight bytes.
    pub(crate) fn weight_bytes(&self) -> u64 {
        self.param_count() * u64::from(self.dtype_bytes)
    }

    /// Validates the architecture parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`](crate::Error::InvalidSpec) naming
    /// the first inconsistent field.
    pub fn validate(&self) -> crate::Result<()> {
        let invalid = |reason: &str| crate::Error::InvalidSpec {
            model: self.name.clone(),
            reason: reason.to_string(),
        };
        if self.n_layers == 0 || self.hidden == 0 || self.n_heads == 0 {
            return Err(invalid("degenerate architecture"));
        }
        if !self.hidden.is_multiple_of(self.n_heads) {
            return Err(invalid("hidden must divide by heads"));
        }
        if let AttentionKind::Gqa { kv_heads } = self.attention {
            if kv_heads == 0 || !self.n_heads.is_multiple_of(kv_heads) {
                return Err(invalid("query heads must divide by kv heads"));
            }
        }
        if self.dtype_bytes == 0 || self.max_context == 0 {
            return Err(invalid("dtype/context must be positive"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for m in [
            ModelSpec::opt_125m(),
            ModelSpec::opt_13b(),
            ModelSpec::opt_30b(),
            ModelSpec::opt_66b(),
            ModelSpec::llama2_13b(),
            ModelSpec::llama2_70b(),
        ] {
            m.validate().unwrap();
        }
    }

    #[test]
    fn parameter_counts_match_published_sizes() {
        let close = |spec: ModelSpec, billions: f64| {
            let actual = spec.param_count() as f64 / 1e9;
            assert!(
                (actual / billions - 1.0).abs() < 0.12,
                "{}: expected ~{billions}B, got {actual:.2}B",
                spec.name
            );
        };
        close(ModelSpec::opt_125m(), 0.125);
        close(ModelSpec::opt_13b(), 13.0);
        close(ModelSpec::opt_30b(), 30.0);
        close(ModelSpec::opt_66b(), 66.0);
        close(ModelSpec::llama2_13b(), 13.0);
        close(ModelSpec::llama2_70b(), 69.0);
    }

    #[test]
    fn opt13b_kv_matches_papers_example() {
        // §2.2: "for a request with 2048 tokens ... approximately 1.5 GB".
        let spec = ModelSpec::opt_13b();
        let gb = (spec.kv_bytes_per_token() * 2048) as f64 / (1u64 << 30) as f64;
        assert!((1.4..1.7).contains(&gb), "got {gb} GiB");
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        // §5.2: GQA reduces KV tensor size, hence transfer overhead.
        let mha = ModelSpec::llama2_13b();
        let gqa = ModelSpec::llama2_70b();
        // Per-token-per-layer KV; 70B has more layers but 8x fewer KV heads.
        let mha_per_layer = mha.kv_dim();
        let gqa_per_layer = gqa.kv_dim();
        assert!(gqa_per_layer * 4 < mha_per_layer * u64::from(gqa.n_heads / gqa.kv_heads()));
        assert!(gqa.kv_bytes_per_token() < mha.kv_bytes_per_token());
    }

    #[test]
    fn head_dim_is_consistent() {
        let m = ModelSpec::llama2_70b();
        assert_eq!(m.head_dim(), 128);
        assert_eq!(m.kv_heads(), 8);
        assert_eq!(m.kv_dim(), 2 * 8 * 128);
    }

    #[test]
    fn validation_catches_bad_gqa() {
        let mut m = ModelSpec::llama2_70b();
        m.attention = AttentionKind::Gqa { kv_heads: 7 };
        assert!(m.validate().is_err());
    }
}
