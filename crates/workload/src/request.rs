//! Inference requests.

use serde::{Deserialize, Serialize};
use std::fmt;
use windserve_sim::SimTime;

/// Unique identifier of a request within one trace/run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of the tenant a request belongs to. Tenants are workload
/// sources multiplexed onto one deployment (and, at the fleet level, onto
/// one shared GPU pool); reports break latency and SLO attainment down per
/// tenant. Tenant `0` is the default for untagged single-tenant traces.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TenantId(pub u16);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of the conversational session a request belongs to. All
/// turns of one multi-turn conversation share a [`SessionId`]; the
/// scheduler uses it as the prefix-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Conversational-session metadata attached to a request. Follow-up turns
/// carry the session they continue, their turn index, and how many of
/// their prompt tokens are a verbatim prefix of the previous turn's full
/// context — the tokens a prefix cache could serve without recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionTag {
    /// The session this turn continues.
    pub session: SessionId,
    /// Zero-based turn index within the session.
    pub turn: u32,
    /// Leading prompt tokens shared verbatim with the prior turn's full
    /// context (zero for a session's first turn).
    pub shared_prefix_tokens: u32,
}

/// One inference request: a prompt to prefill and a number of tokens to
/// decode. Output length is used only by the simulator's oracle (the real
/// system discovers it at EOS time); schedulers never read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Trace-unique id.
    pub id: RequestId,
    /// Arrival (issue) time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Number of output tokens the request will generate (incl. the first
    /// token produced by the prefill).
    pub output_tokens: u32,
    /// Priority tier for overload control: `0` is the lowest tier (shed
    /// first); higher tiers are more important. [`Request::new`] defaults
    /// it to `0`, so untiered workloads behave exactly as before.
    pub tier: u8,
    /// The tenant (workload source) this request belongs to.
    /// [`Request::new`] defaults it to tenant `0`, so untagged traces
    /// behave exactly as before.
    pub tenant: TenantId,
    /// Conversational-session metadata, if this request is a turn of a
    /// multi-turn session. [`Request::new`] defaults it to `None`, so
    /// single-shot traces behave exactly as before.
    pub session: Option<SessionTag>,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or no output token is generated.
    pub fn new(id: RequestId, arrival: SimTime, prompt_tokens: u32, output_tokens: u32) -> Self {
        assert!(prompt_tokens > 0, "empty prompt");
        assert!(output_tokens > 0, "requests generate at least one token");
        Request {
            id,
            arrival,
            prompt_tokens,
            output_tokens,
            tier: 0,
            tenant: TenantId(0),
            session: None,
        }
    }

    /// The same request with its priority tier set.
    pub fn with_tier(mut self, tier: u8) -> Self {
        self.tier = tier;
        self
    }

    /// The same request tagged with a tenant.
    pub(crate) fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The same request tagged as a turn of a conversational session. The
    /// shared-prefix claim is clamped so at least one prompt token is new
    /// (a prefill always has something to compute).
    pub fn with_session(
        mut self,
        session: SessionId,
        turn: u32,
        shared_prefix_tokens: u32,
    ) -> Self {
        self.session = Some(SessionTag {
            session,
            turn,
            shared_prefix_tokens: shared_prefix_tokens.min(self.prompt_tokens.saturating_sub(1)),
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn empty_prompt_rejected() {
        let _ = Request::new(RequestId(0), SimTime::ZERO, 0, 1);
    }

    #[test]
    fn tier_defaults_to_lowest() {
        let r = Request::new(RequestId(3), SimTime::ZERO, 10, 5);
        assert_eq!(r.tier, 0);
        let hi = r.with_tier(2);
        assert_eq!(hi.tier, 2);
        // Everything else is untouched by the tier.
        assert_eq!(hi.id, r.id);
        assert_eq!(hi.prompt_tokens, r.prompt_tokens);
        assert_eq!(hi.output_tokens, r.output_tokens);
    }

    #[test]
    fn tenant_defaults_to_zero_and_tags_cleanly() {
        let r = Request::new(RequestId(4), SimTime::ZERO, 10, 5);
        assert_eq!(r.tenant, TenantId(0));
        let tagged = r.with_tenant(TenantId(3));
        assert_eq!(tagged.tenant, TenantId(3));
        // Tier and lengths are untouched by tenant tagging.
        assert_eq!(tagged.tier, r.tier);
        assert_eq!(tagged.prompt_tokens, r.prompt_tokens);
        assert_eq!(format!("{}", tagged.tenant), "t3");
    }

    #[test]
    fn session_tag_defaults_off_and_clamps_prefix() {
        let r = Request::new(RequestId(5), SimTime::ZERO, 100, 5);
        assert!(r.session.is_none());
        let tagged = r.with_session(SessionId(2), 3, 40);
        let tag = tagged.session.unwrap();
        assert_eq!(tag.session, SessionId(2));
        assert_eq!(tag.turn, 3);
        assert_eq!(tag.shared_prefix_tokens, 40);
        assert_eq!(format!("{}", tag.session), "s2");
        // A prefix claim covering the whole prompt is clamped: at least one
        // token must be freshly prefilled.
        let clamped = r.with_session(SessionId(2), 4, 100).session.unwrap();
        assert_eq!(clamped.shared_prefix_tokens, 99);
    }
}
