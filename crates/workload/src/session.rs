//! Multi-turn conversational sessions.
//!
//! A session is a chain of requests from one user: the first turn samples
//! its lengths from a [`Dataset`](crate::Dataset), and every follow-up
//! prompt is the *full context of the prior turn* (its prompt plus its
//! answer) with a freshly typed suffix appended. The leading shared tokens
//! are recorded on each request as
//! [`SessionTag::shared_prefix_tokens`](crate::SessionTag) — the part of
//! the prompt a prefix cache could serve without recomputation, which is
//! exactly the KV that WindServe's keep-KV-on-the-prefill-instance trick
//! leaves resident.
//!
//! Generation is a pure function of `(scenario, seed)`: session starts,
//! per-session turn counts, think times and lengths all come from forked
//! [`SimRng`] streams, so traces replay byte-identically at any worker
//! count.

use crate::arrival::ArrivalProcess;
use crate::request::{Request, RequestId, SessionId};
use crate::scenario::DatasetSpec;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use windserve_sim::{SimDuration, SimRng, SimTime};

/// A seeded multi-turn conversation workload (the `Sessions` variant of
/// [`Scenario`](crate::Scenario)).
///
/// # Examples
///
/// ```
/// use windserve_workload::{Scenario, SessionsScenario};
///
/// let scenario = SessionsScenario::builder()
///     .sessions(40)
///     .session_rate(2.0)
///     .turns(2, 5)
///     .mean_think_secs(10.0)
///     .build()
///     .unwrap();
/// let trace = Scenario::sessions(scenario).generate(7).unwrap();
/// assert!(trace.requests().len() >= 80);
/// assert!(trace
///     .requests()
///     .iter()
///     .any(|r| r.session.map(|s| s.shared_prefix_tokens > 0).unwrap_or(false)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionsScenario {
    /// Number of conversations to generate.
    pub sessions: usize,
    /// Poisson rate at which new sessions open, sessions/second.
    pub session_rate: f64,
    /// Minimum turns per session (inclusive, uniform draw).
    pub turns_min: u32,
    /// Maximum turns per session (inclusive, uniform draw).
    pub turns_max: u32,
    /// Mean think time between consecutive turns of one session, seconds
    /// (exponential draw, measured issue-to-issue).
    pub mean_think_secs: f64,
    /// Minimum freshly typed tokens appended by a follow-up turn
    /// (inclusive, uniform draw).
    pub followup_min_tokens: u32,
    /// Maximum freshly typed tokens appended by a follow-up turn
    /// (inclusive, uniform draw).
    pub followup_max_tokens: u32,
    /// First-turn prompt/output length distributions (follow-up outputs
    /// resample this dataset's output column).
    pub dataset: DatasetSpec,
}

impl SessionsScenario {
    /// A builder starting from a chatbot-shaped default: ShareGPT first
    /// turns in a 2048-token window, 2–6 turns, 30 s mean think time,
    /// 16–256 fresh tokens per follow-up.
    pub fn builder() -> SessionsBuilder {
        SessionsBuilder::new()
    }

    /// Checks every distribution parameter and the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`](crate::Error::InvalidScenario)
    /// (or the underlying dataset/arrival error) naming the first invalid
    /// field.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        let invalid = |reason: String| crate::Error::InvalidScenario { reason };
        if self.sessions == 0 {
            return Err(invalid("sessions must be at least 1".into()));
        }
        if !(self.session_rate.is_finite() && self.session_rate > 0.0) {
            return Err(invalid(format!(
                "session_rate must be positive and finite, got {}",
                self.session_rate
            )));
        }
        if self.turns_min == 0 {
            return Err(invalid("turns_min must be at least 1".into()));
        }
        if self.turns_max < self.turns_min {
            return Err(invalid(format!(
                "turns_max {} is below turns_min {}",
                self.turns_max, self.turns_min
            )));
        }
        if !(self.mean_think_secs.is_finite() && self.mean_think_secs > 0.0) {
            return Err(invalid(format!(
                "mean_think_secs must be positive and finite, got {}",
                self.mean_think_secs
            )));
        }
        if self.followup_min_tokens == 0 {
            return Err(invalid("followup_min_tokens must be at least 1".into()));
        }
        if self.followup_max_tokens < self.followup_min_tokens {
            return Err(invalid(format!(
                "followup_max_tokens {} is below followup_min_tokens {}",
                self.followup_max_tokens, self.followup_min_tokens
            )));
        }
        self.dataset.resolve()?;
        Ok(())
    }

    /// Generates the session trace: all sessions' turns interleaved by
    /// arrival time (ties break by session id, so the order is total and
    /// deterministic), with request ids assigned in arrival order.
    ///
    /// Sessions whose context reaches the dataset's window are truncated
    /// early — a real chat UI would refuse further input too.
    ///
    /// # Errors
    ///
    /// Returns the first [`SessionsScenario::validate`] failure.
    pub(crate) fn generate(&self, seed: u64) -> crate::Result<Trace> {
        self.validate()?;
        let dataset = self.dataset.resolve()?;
        let root = SimRng::seed_from_u64(seed);
        let mut gap_rng = root.fork(1);
        let gaps = ArrivalProcess::poisson(self.session_rate).gaps(self.sessions, &mut gap_rng);
        let mut drafts: Vec<Request> = Vec::new();
        let mut start = SimTime::ZERO;
        for (s, gap) in gaps.into_iter().enumerate() {
            start += gap;
            // Each session draws from its own stream, so adding a session
            // (or lengthening one) perturbs no other session's draws.
            let mut rng = root.fork(1000 + s as u64);
            let sid = SessionId(s as u64);
            let turns = sample_uniform_u32(&mut rng, self.turns_min, self.turns_max);
            let first = dataset.sample_request(RequestId(0), start, &mut rng);
            let mut prompt = first.prompt_tokens;
            let mut output = first.output_tokens;
            let mut t = start;
            for turn in 0..turns {
                if turn > 0 {
                    let think = rng.next_exp(1.0 / self.mean_think_secs);
                    t += SimDuration::from_secs_f64(think);
                    let shared = prompt + output;
                    let suffix = sample_uniform_u32(
                        &mut rng,
                        self.followup_min_tokens,
                        self.followup_max_tokens,
                    );
                    prompt = (shared.saturating_add(suffix)).min(dataset.max_context - 1);
                    output = dataset
                        .output
                        .sample(&mut rng)
                        .min(dataset.max_context - prompt)
                        .max(1);
                    drafts.push(
                        Request::new(RequestId(0), t, prompt, output)
                            .with_session(sid, turn, shared),
                    );
                } else {
                    drafts.push(first.with_session(sid, 0, 0));
                }
                if prompt + output >= dataset.max_context {
                    break;
                }
            }
        }
        drafts.sort_by(|a, b| {
            a.arrival
                .cmp(&b.arrival)
                .then_with(|| {
                    a.session
                        .map(|s| s.session)
                        .cmp(&b.session.map(|s| s.session))
                })
                .then_with(|| a.session.map(|s| s.turn).cmp(&b.session.map(|s| s.turn)))
        });
        let requests = drafts
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.id = RequestId(i as u64);
                r
            })
            .collect();
        Ok(Trace::from_requests(requests))
    }
}

/// Uniform integer in `[lo, hi]` (both inclusive).
fn sample_uniform_u32(rng: &mut SimRng, lo: u32, hi: u32) -> u32 {
    let span = f64::from(hi - lo) + 1.0;
    let draw = (rng.next_f64() * span) as u32;
    lo + draw.min(hi - lo)
}

/// Builder for [`SessionsScenario`].
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the SessionsScenario"]
pub struct SessionsBuilder {
    scenario: SessionsScenario,
}

impl Default for SessionsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionsBuilder {
    /// Starts from the chatbot-shaped defaults.
    pub(crate) fn new() -> Self {
        SessionsBuilder {
            scenario: SessionsScenario {
                sessions: 200,
                session_rate: 1.0,
                turns_min: 2,
                turns_max: 6,
                mean_think_secs: 30.0,
                followup_min_tokens: 16,
                followup_max_tokens: 256,
                dataset: DatasetSpec::named("sharegpt", 2048),
            },
        }
    }

    /// Number of sessions to generate.
    pub fn sessions(mut self, n: usize) -> Self {
        self.scenario.sessions = n;
        self
    }

    /// Session-open rate, sessions/second.
    pub fn session_rate(mut self, rate: f64) -> Self {
        self.scenario.session_rate = rate;
        self
    }

    /// Inclusive turn-count range per session.
    pub fn turns(mut self, min: u32, max: u32) -> Self {
        self.scenario.turns_min = min;
        self.scenario.turns_max = max;
        self
    }

    /// Mean think time between turns, seconds.
    pub fn mean_think_secs(mut self, secs: f64) -> Self {
        self.scenario.mean_think_secs = secs;
        self
    }

    /// Inclusive range of freshly typed tokens per follow-up.
    pub fn followup_tokens(mut self, min: u32, max: u32) -> Self {
        self.scenario.followup_min_tokens = min;
        self.scenario.followup_max_tokens = max;
        self
    }

    /// First-turn dataset (accepts a [`Dataset`](crate::Dataset) or a
    /// [`DatasetSpec`]).
    pub fn dataset(mut self, dataset: impl Into<DatasetSpec>) -> Self {
        self.scenario.dataset = dataset.into();
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    ///
    /// See `SessionsScenario::validate`.
    pub fn build(self) -> crate::Result<SessionsScenario> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    fn small() -> SessionsScenario {
        SessionsScenario::builder()
            .sessions(60)
            .session_rate(2.0)
            .turns(2, 5)
            .mean_think_secs(15.0)
            .followup_tokens(16, 128)
            .build()
            .unwrap()
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let s = small();
        assert_eq!(s.generate(7).unwrap(), s.generate(7).unwrap());
        assert_ne!(s.generate(7).unwrap(), s.generate(8).unwrap());
    }

    #[test]
    fn followups_share_the_prior_turns_context() {
        let trace = small().generate(11).unwrap();
        let mut by_session: std::collections::BTreeMap<u64, Vec<&Request>> = Default::default();
        for r in trace.requests() {
            let tag = r.session.expect("session traces tag every request");
            by_session.entry(tag.session.0).or_default().push(r);
        }
        assert_eq!(by_session.len(), 60);
        let mut followups = 0;
        for turns in by_session.values() {
            for w in turns.windows(2) {
                let (prev, next) = (w[0], w[1]);
                let tag = next.session.unwrap();
                assert_eq!(tag.turn, prev.session.unwrap().turn + 1);
                assert!(next.arrival > prev.arrival, "turns issue in order");
                // The shared prefix is exactly the prior turn's context,
                // except where the context window clamped the prompt.
                let prior_ctx = prev.prompt_tokens + prev.output_tokens;
                assert!(tag.shared_prefix_tokens <= prior_ctx);
                assert!(tag.shared_prefix_tokens < next.prompt_tokens);
                if next.prompt_tokens + next.output_tokens < 2048 {
                    assert_eq!(
                        tag.shared_prefix_tokens,
                        prior_ctx.min(next.prompt_tokens - 1)
                    );
                }
                followups += 1;
            }
        }
        assert!(followups > 60, "most sessions have follow-ups");
    }

    #[test]
    fn first_turns_have_no_shared_prefix() {
        let trace = small().generate(3).unwrap();
        for r in trace.requests() {
            let tag = r.session.unwrap();
            if tag.turn == 0 {
                assert_eq!(tag.shared_prefix_tokens, 0);
            }
        }
    }

    #[test]
    fn requests_respect_the_context_window() {
        let scenario = SessionsScenario::builder()
            .sessions(40)
            .turns(6, 10)
            .followup_tokens(256, 512)
            .dataset(Dataset::sharegpt(1024))
            .build()
            .unwrap();
        let trace = scenario.generate(5).unwrap();
        for r in trace.requests() {
            assert!(r.prompt_tokens + r.output_tokens <= 1024, "overflow: {r:?}");
        }
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        let check = |f: fn(SessionsBuilder) -> SessionsBuilder, needle: &str| {
            let err = f(SessionsScenario::builder()).build().unwrap_err();
            assert!(matches!(err, crate::Error::InvalidScenario { .. }), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        };
        check(|b| b.sessions(0), "sessions");
        check(|b| b.session_rate(0.0), "session_rate");
        check(|b| b.turns(0, 3), "turns_min");
        check(|b| b.turns(5, 3), "turns_max");
        check(|b| b.mean_think_secs(f64::NAN), "mean_think_secs");
        check(|b| b.followup_tokens(0, 5), "followup_min_tokens");
        check(|b| b.followup_tokens(9, 5), "followup_max_tokens");
        let err = SessionsScenario::builder()
            .dataset(DatasetSpec::named("imagenet", 2048))
            .build()
            .unwrap_err();
        assert!(matches!(err, crate::Error::UnknownDataset { .. }), "{err}");
    }

    #[test]
    fn trace_is_time_ordered_with_sequential_ids() {
        let trace = small().generate(21).unwrap();
        for (i, r) in trace.requests().iter().enumerate() {
            assert_eq!(r.id, RequestId(i as u64));
        }
        for w in trace.requests().windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
    }
}
