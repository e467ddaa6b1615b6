//! Typed terminal outcomes for requests that never complete.
//!
//! Under overload control a request can leave the system without
//! producing its output: rejected at admission, shed to protect the SLO
//! of higher-tier work, aborted by the deadline watchdog, or cancelled by
//! the serving front-end when its client gave up on it. Each such
//! exit is recorded as a [`DroppedRequest`] with a typed [`DropReason`],
//! so a run report accounts for every request — completed or not — and
//! "silently vanished" is not a reachable state.

use serde::{Deserialize, Serialize};
use windserve_sim::SimTime;
use windserve_workload::RequestId;

/// Why a request was dropped instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DropReason {
    /// Rejected at admission: the resident-request cap was full.
    QueueFull,
    /// Rejected at admission: the queued-prefill token budget was
    /// exhausted.
    TokenBudget,
    /// Shed by SLO-aware load shedding (predicted TTFT past the shed
    /// threshold; this request was the lowest-value candidate).
    Shed,
    /// Aborted by the deadline watchdog after exceeding its wall-clock
    /// budget.
    DeadlineExceeded,
    /// Cancelled by the serving front-end: the client disconnected or the
    /// gateway's own deadline for it passed.
    Cancelled,
}

impl DropReason {
    /// Short kebab-case label used by reports and exporters.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue-full",
            DropReason::TokenBudget => "token-budget",
            DropReason::Shed => "shed",
            DropReason::DeadlineExceeded => "deadline-exceeded",
            DropReason::Cancelled => "cancelled",
        }
    }

    /// The HTTP status a serving front-end surfaces for this reason:
    /// `429 Too Many Requests` for load-induced admission rejections and
    /// shedding (the client may retry, ideally elsewhere), `503 Service
    /// Unavailable` when an accepted request was later given up on.
    pub fn http_status(self) -> u16 {
        match self {
            DropReason::QueueFull | DropReason::TokenBudget | DropReason::Shed => 429,
            DropReason::DeadlineExceeded | DropReason::Cancelled => 503,
        }
    }
}

/// A request that terminated without completing, with its typed reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DroppedRequest {
    /// The request.
    pub id: RequestId,
    /// Its priority tier.
    pub tier: u8,
    /// When it was dropped.
    pub at: SimTime,
    /// Why.
    pub reason: DropReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(DropReason::QueueFull.label(), "queue-full");
        assert_eq!(DropReason::TokenBudget.label(), "token-budget");
        assert_eq!(DropReason::Shed.label(), "shed");
        assert_eq!(DropReason::DeadlineExceeded.label(), "deadline-exceeded");
    }

    #[test]
    fn http_statuses_split_retryable_from_unavailable() {
        assert_eq!(DropReason::QueueFull.http_status(), 429);
        assert_eq!(DropReason::TokenBudget.http_status(), 429);
        assert_eq!(DropReason::Shed.http_status(), 429);
        assert_eq!(DropReason::DeadlineExceeded.http_status(), 503);
    }

    #[test]
    fn dropped_request_is_plain_data() {
        let d = DroppedRequest {
            id: RequestId(4),
            tier: 1,
            at: SimTime::from_micros(250_000),
            reason: DropReason::Shed,
        };
        assert_eq!(d, d);
        assert_eq!(d.reason.label(), "shed");
    }
}
