//! The gateway's wire API: OpenAI-flavored completion requests, token
//! stream events, and typed error bodies.

use serde_json::Value;
use windserve_metrics::DropReason;
use windserve_workload::RequestId;

/// A parsed `POST /v1/completions` body.
///
/// The simulator is token-count driven, so the request names lengths
/// rather than text: either `prompt_tokens` directly, or a `prompt`
/// string whose length is estimated at four characters per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionRequest {
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output budget in tokens (`max_tokens`; the sim generates exactly
    /// this many).
    pub max_tokens: u32,
    /// Stream token events over SSE (`true`) or answer with one JSON
    /// body at completion (`false`).
    pub stream: bool,
    /// Priority tier for overload control (`0` sheds first).
    pub tier: u8,
}

impl CompletionRequest {
    /// Parses a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for malformed JSON or out-of-range
    /// fields; the server answers `400` with it.
    pub(crate) fn from_json(body: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
        if value.as_object().is_none() {
            return Err("body must be a JSON object".to_string());
        }
        let prompt_tokens = match value.get("prompt_tokens") {
            Some(v) => v
                .as_u64()
                .filter(|&n| n >= 1)
                .ok_or("prompt_tokens must be a positive integer")?,
            None => match value.get("prompt") {
                Some(v) => {
                    let prompt = v.as_str().ok_or("prompt must be a string")?;
                    (prompt.chars().count() as u64).div_ceil(4).max(1)
                }
                None => return Err("one of prompt_tokens or prompt is required".to_string()),
            },
        };
        let max_tokens = match value.get("max_tokens") {
            Some(v) => v
                .as_u64()
                .filter(|&n| n >= 1)
                .ok_or("max_tokens must be a positive integer")?,
            None => 64,
        };
        let stream = match value.get("stream") {
            Some(v) => v.as_bool().ok_or("stream must be a boolean")?,
            None => false,
        };
        let tier = match value.get("tier") {
            Some(v) => v
                .as_u64()
                .filter(|&n| n <= u8::MAX as u64)
                .ok_or("tier must be an integer in 0..=255")? as u8,
            None => 0,
        };
        let clamp = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
        Ok(CompletionRequest {
            prompt_tokens: clamp(prompt_tokens),
            max_tokens: clamp(max_tokens),
            stream,
            tier,
        })
    }
}

/// The JSON body of a typed error response:
/// `{"error": {"type": ..., "code": ..., "message": ...}}`.
pub(crate) fn error_body(code: u16, kind: &str, message: &str) -> Vec<u8> {
    serde_json::to_string(&serde_json::json!({
        "error": { "type": kind, "code": code, "message": message }
    }))
    .unwrap_or_default()
    .into_bytes()
}

/// The error body for a request the cluster dropped, typed by its
/// [`DropReason`] (the status code comes from
/// [`DropReason::http_status`]).
pub(crate) fn drop_body(reason: DropReason) -> Vec<u8> {
    error_body(
        reason.http_status(),
        reason.label(),
        &format!("request dropped by overload control: {}", reason.label()),
    )
}

/// The `data:` payload of one streamed token event.
pub(crate) fn token_event_json(id: RequestId, token_index: u32, virtual_secs: f64) -> String {
    serde_json::to_string(&serde_json::json!({
        "id": format!("cmpl-{}", id.0),
        "object": "completion.chunk",
        "token_index": token_index,
        "virtual_time_secs": virtual_secs,
    }))
    .unwrap_or_default()
}

/// The sentinel `data:` payload that terminates a token stream.
pub(crate) const DONE_SENTINEL: &str = "[DONE]";

/// The JSON body of a non-streamed completion response.
pub(crate) fn completion_body(
    id: RequestId,
    prompt_tokens: u32,
    completion_tokens: u32,
    ttft_virtual_secs: f64,
    latency_virtual_secs: f64,
) -> Vec<u8> {
    serde_json::to_string(&serde_json::json!({
        "id": format!("cmpl-{}", id.0),
        "object": "completion",
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        },
        "ttft_virtual_secs": ttft_virtual_secs,
        "latency_virtual_secs": latency_virtual_secs,
    }))
    .unwrap_or_default()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_token_counts_parse() {
        let req = CompletionRequest::from_json(
            br#"{"prompt_tokens": 128, "max_tokens": 16, "stream": true, "tier": 2}"#,
        )
        .unwrap();
        assert_eq!(req.prompt_tokens, 128);
        assert_eq!(req.max_tokens, 16);
        assert!(req.stream);
        assert_eq!(req.tier, 2);
    }

    #[test]
    fn prompt_text_estimates_tokens_and_defaults_apply() {
        let req =
            CompletionRequest::from_json(br#"{"prompt": "tell me a story please now"}"#).unwrap();
        assert_eq!(req.prompt_tokens, 7); // 26 chars -> ceil(26/4)
        assert_eq!(req.max_tokens, 64);
        assert!(!req.stream);
        assert_eq!(req.tier, 0);
    }

    #[test]
    fn malformed_bodies_are_clean_errors() {
        assert!(CompletionRequest::from_json(b"not json").is_err());
        assert!(CompletionRequest::from_json(b"[]").is_err());
        assert!(CompletionRequest::from_json(b"{}").is_err());
        assert!(CompletionRequest::from_json(br#"{"prompt_tokens": 0}"#).is_err());
        assert!(CompletionRequest::from_json(br#"{"prompt_tokens": 8, "tier": 900}"#).is_err());
    }

    #[test]
    fn drop_bodies_carry_the_typed_reason() {
        let body = String::from_utf8(drop_body(DropReason::QueueFull)).unwrap();
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["type"].as_str(), Some("queue-full"));
        assert_eq!(v["error"]["code"].as_u64(), Some(429));
    }
}
