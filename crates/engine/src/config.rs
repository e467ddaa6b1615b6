//! Instance configuration.

use serde::{Deserialize, Serialize};

/// How a decode instance sheds sequences under KV pressure (vLLM offers
/// the same two modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PreemptionMode {
    /// Copy the victim's KV to host DRAM over PCIe and bring it back later
    /// (the paper's swapping pathology).
    #[default]
    Swap,
    /// Drop the victim's KV and recompute it at re-admission (pays compute
    /// instead of PCIe traffic).
    Recompute,
}

/// What an instance is for — determines its local scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceRole {
    /// Dedicated prompt processing; decodes appear here only via dynamic
    /// rescheduling and run in chunked-prefill hybrid batches (§3.3).
    Prefill,
    /// Dedicated decoding; prefills appear here only via dynamic prefill
    /// dispatch and run in a separate stream (§3.4) or a hybrid batch.
    Decode,
    /// vLLM-style colocated serving: prefill chunks and decodes share
    /// hybrid batches on one instance.
    Colocated,
}

/// What varies between serving instances. The local scheduler's fixed
/// limits are constants next to their readers: the batch cap and chunk
/// size in `step.rs` (which also caps prompts per step by role), the KV
/// block size in `instance.rs`, and the prompt budget of a whole-prompt
/// step is the model's context window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// Display name (for reports).
    pub name: String,
    /// Scheduling role.
    pub role: InstanceRole,
    /// Run guest prefills in a separate CUDA stream (stream-based
    /// disaggregation) instead of fusing them into the decode batch.
    pub stream_disaggregation: bool,
    /// Max guest-prefill tokens in flight in the auxiliary stream (the
    /// Algorithm 1 *budget*, calibrated so one forward pass stays within
    /// the TPOT SLO).
    pub aux_budget_tokens: u32,
    /// How KV pressure preempts running sequences.
    pub preemption: PreemptionMode,
}

impl InstanceConfig {
    fn with_role(name: impl Into<String>, role: InstanceRole) -> Self {
        InstanceConfig {
            name: name.into(),
            role,
            stream_disaggregation: role == InstanceRole::Decode,
            aux_budget_tokens: 2048,
            preemption: PreemptionMode::Swap,
        }
    }

    /// Defaults for a dedicated prefill instance.
    pub fn prefill(name: impl Into<String>) -> Self {
        Self::with_role(name, InstanceRole::Prefill)
    }

    /// Defaults for a dedicated decode instance with SBD enabled.
    pub fn decode(name: impl Into<String>) -> Self {
        Self::with_role(name, InstanceRole::Decode)
    }

    /// Defaults for a colocated (vLLM-like) instance with chunked prefill.
    pub fn colocated(name: impl Into<String>) -> Self {
        Self::with_role(name, InstanceRole::Colocated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_preset_enables_sbd() {
        assert!(InstanceConfig::decode("d").stream_disaggregation);
        assert!(!InstanceConfig::colocated("c").stream_disaggregation);
    }
}
