//! The `SimDriver`: the adapter that turns the deterministic simulator
//! into a live engine.
//!
//! One thread owns a [`ClusterSession`] and maps wall-clock time onto
//! virtual time as `virtual_now = real_elapsed * time_scale` — with a
//! scale above 1 the simulated cluster runs *faster* than real time, so
//! a localhost client sees millisecond TTFTs for what the paper measures
//! in seconds. Live HTTP requests become sim arrivals stamped at the
//! mapped instant; admission verdicts come back synchronously (the
//! driver pumps the session past the arrival before replying, so a
//! rejection surfaces as a real `429`/`503` before any stream bytes are
//! written); per-token completions route back to the submitting
//! connection through a `Sink`.

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use windserve::{Cluster, ClusterSession, LiveEvent, RunReport, ServeConfig, SessionSnapshot};
use windserve_metrics::DropReason;
use windserve_sim::{SimDuration, SimTime};
use windserve_trace::TraceEvent;
use windserve_workload::{Request, RequestId, SessionId};

use crate::api;
use crate::http::{encode_chunk, LAST_CHUNK};
use crate::pump::{Frame, PumpHandle};
use crate::sse::SseEvent;

/// Where a request's live updates go.
#[derive(Debug, Clone)]
pub(crate) enum Sink {
    /// Deliver typed updates over a channel (non-streamed responses,
    /// tests).
    Channel(Sender<StreamUpdate>),
    /// Frame updates as SSE chunks and push them to the stream pump,
    /// whose stream for the request is keyed by its id.
    Pump(PumpHandle),
}

impl Sink {
    /// Delivers one update for request `id`: typed over a channel, or as
    /// the SSE event `sse` builds, framed as one HTTP chunk for the pump.
    /// A terminal update also ends the chunked body and closes the stream.
    fn deliver(&self, id: RequestId, update: StreamUpdate, sse: impl FnOnce() -> SseEvent) {
        match self {
            Sink::Channel(tx) => {
                let _ = tx.send(update);
            }
            Sink::Pump(pump) => {
                let mut bytes = encode_chunk(&sse().encode());
                let last = !matches!(update, StreamUpdate::Token { .. });
                if last {
                    bytes.extend_from_slice(LAST_CHUNK);
                }
                pump.push(id.0, Frame::Data(bytes));
                if last {
                    pump.push(id.0, Frame::Close);
                }
            }
        }
    }
}

/// A live update for one submitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamUpdate {
    /// A token was produced (`index` 0 is the first token).
    Token {
        /// Zero-based token index.
        index: u32,
        /// Virtual time of the token.
        virtual_secs: f64,
    },
    /// The request completed.
    Done {
        /// Tokens delivered.
        tokens: u32,
        /// Virtual seconds from submission to first token.
        ttft_virtual_secs: f64,
        /// Virtual seconds from submission to completion.
        latency_virtual_secs: f64,
    },
    /// The request was dropped after admission (shed or deadline).
    Aborted {
        /// The typed reason.
        reason: DropReason,
    },
}

/// Why a submission failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// Overload control dropped the request at admission; answer with
    /// [`DropReason::http_status`].
    Dropped(DropReason),
    /// The driver is gone (shutting down).
    Unavailable,
}

/// Final accounting from a driver that has shut down.
#[derive(Debug, Default)]
pub struct DriverReport {
    /// Requests submitted over the gateway.
    pub submitted: u64,
    /// Requests that completed and streamed every token.
    pub completed: u64,
    /// Requests rejected at admission (`429`/`503` responses).
    pub rejected: u64,
    /// Requests dropped after admission (mid-stream aborts).
    pub aborted: u64,
    /// Streams killed because their per-request deadline expired.
    pub deadline_exceeded: u64,
    /// Streams reclaimed because the client disconnected mid-stream.
    pub disconnected: u64,
    /// The simulator's own run report, if the session finished cleanly.
    pub run_report: Option<RunReport>,
    /// A session error, if the event loop failed.
    pub error: Option<String>,
}

enum Msg {
    Submit {
        prompt_tokens: u32,
        output_tokens: u32,
        tier: u8,
        timeout_secs: Option<f64>,
        /// Client-chosen conversation key (the `x-session-id` header);
        /// follow-ups under the same key are tagged as session turns so
        /// prefix caching and affinity routing can act on them.
        session: Option<String>,
        verdict: Sender<Result<RequestId, DropReason>>,
        sink: Sink,
    },
    Snapshot {
        reply: Sender<SessionSnapshot>,
    },
    /// Record a gateway-layer event into the session trace.
    Trace(TraceEvent),
    /// A request's pump stream died mid-flight (client disconnect);
    /// reclaim it.
    StreamDead(RequestId),
    /// Injected driver stall (network chaos): sleep on the driver thread.
    Stall(Duration),
    Shutdown {
        reply: Sender<DriverReport>,
    },
}

/// Cloneable submission/status handle to the driver thread.
#[derive(Clone)]
pub struct DriverHandle {
    tx: Sender<Msg>,
}

impl std::fmt::Debug for DriverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverHandle").finish()
    }
}

impl DriverHandle {
    /// Submits a live request and blocks until the admission verdict.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Dropped`] when overload control rejected the
    /// request, [`SubmitError::Unavailable`] when the driver is gone.
    pub(crate) fn submit(
        &self,
        prompt_tokens: u32,
        output_tokens: u32,
        tier: u8,
        timeout_secs: Option<f64>,
        session: Option<String>,
        sink: Sink,
    ) -> Result<RequestId, SubmitError> {
        let (verdict_tx, verdict_rx) = mpsc::channel();
        self.tx
            .send(Msg::Submit {
                prompt_tokens,
                output_tokens,
                tier,
                timeout_secs,
                session,
                verdict: verdict_tx,
                sink,
            })
            .map_err(|_| SubmitError::Unavailable)?;
        match verdict_rx.recv() {
            Ok(Ok(id)) => Ok(id),
            Ok(Err(reason)) => Err(SubmitError::Dropped(reason)),
            Err(_) => Err(SubmitError::Unavailable),
        }
    }

    /// Records a gateway-layer event (health transitions, injected
    /// faults) into the session trace. Best-effort: lost if the driver
    /// is gone.
    pub(crate) fn emit_trace(&self, ev: TraceEvent) {
        let _ = self.tx.send(Msg::Trace(ev));
    }

    /// Reports that request `id`'s pump stream died mid-flight so the
    /// driver reclaims its routing state instead of feeding a vanished
    /// client forever.
    pub(crate) fn stream_dead(&self, id: RequestId) {
        let _ = self.tx.send(Msg::StreamDead(id));
    }

    /// Injects a driver stall (network chaos): the driver thread sleeps
    /// for `dur` (capped) before processing further work.
    pub(crate) fn stall(&self, dur: Duration) {
        let _ = self.tx.send(Msg::Stall(dur));
    }

    /// A point-in-time snapshot of the live session, or `None` if the
    /// driver is gone.
    pub(crate) fn snapshot(&self) -> Option<SessionSnapshot> {
        let (tx, rx) = mpsc::channel();
        self.tx.send(Msg::Snapshot { reply: tx }).ok()?;
        rx.recv().ok()
    }
}

/// The driver thread plus its shutdown path.
#[derive(Debug)]
pub struct SimDriver {
    tx: Sender<Msg>,
    thread: Option<JoinHandle<()>>,
}

impl SimDriver {
    /// Builds the cluster and spawns the driver thread. `time_scale` is
    /// the virtual-seconds-per-real-second factor (clamped to a small
    /// positive minimum).
    ///
    /// # Errors
    ///
    /// Propagates cluster construction failures (invalid config).
    pub(crate) fn spawn(cfg: ServeConfig, time_scale: f64) -> windserve::Result<SimDriver> {
        let cluster = Cluster::new(cfg)?;
        let mut session = cluster.into_session();
        session.enable_live_events();
        let scale = if time_scale.is_finite() && time_scale > 0.0 {
            time_scale
        } else {
            1.0
        };
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("gw-driver".to_string())
            .spawn(move || driver_loop(session, &rx, scale))
            .map_err(|e| windserve::Error::Gateway {
                reason: format!("cannot spawn driver thread: {e}"),
            })?;
        Ok(SimDriver {
            tx,
            thread: Some(thread),
        })
    }

    /// A cloneable handle for submissions and snapshots.
    pub(crate) fn handle(&self) -> DriverHandle {
        DriverHandle {
            tx: self.tx.clone(),
        }
    }

    /// Drains in-flight work, finishes the session, and returns the
    /// final accounting.
    pub(crate) fn shutdown(mut self) -> DriverReport {
        let (tx, rx) = mpsc::channel();
        let report = if self.tx.send(Msg::Shutdown { reply: tx }).is_ok() {
            rx.recv().ok()
        } else {
            None
        };
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        report.unwrap_or_else(|| DriverReport {
            error: Some("driver thread unavailable".to_string()),
            ..DriverReport::default()
        })
    }
}

/// Per-request live routing state.
struct StreamState {
    sink: Sink,
    submitted_at: SimTime,
    first_token_at: Option<SimTime>,
    tokens: u32,
    /// Virtual instant past which the stream is killed with
    /// `deadline-exceeded` (mapped from the wall-clock budget).
    deadline: Option<SimTime>,
}

/// How an admitted request ends.
enum Terminal {
    /// The simulator finished it at this virtual instant.
    Done(SimTime),
    /// The simulator dropped it after admission.
    Dropped(DropReason),
    /// Its gateway deadline passed.
    Deadline,
    /// Its client went away mid-stream.
    Disconnected,
}

/// Longest injected driver stall honored per message — a chaos plan can
/// slow the driver, never wedge it.
const MAX_DRIVER_STALL: Duration = Duration::from_millis(500);

/// Per-conversation state keyed by the client's `x-session-id` header.
struct GatewaySession {
    id: SessionId,
    /// Turns submitted so far (the next turn's index).
    turns: u32,
    /// Tokens accumulated in the conversation after the last turn
    /// (prompt + output) — the upper bound on the next turn's shared
    /// prefix.
    context_tokens: u64,
}

struct Driver {
    session: ClusterSession,
    streams: HashMap<RequestId, StreamState>,
    /// Conversation state per `x-session-id` key.
    sessions: HashMap<String, GatewaySession>,
    next_session: u64,
    next_id: u64,
    /// The counters, filled in as requests end. Its `error` is the first
    /// session failure; once set the driver stops pumping.
    report: DriverReport,
    /// Virtual seconds per real second (for mapping request deadlines).
    scale: f64,
}

/// The wall-to-virtual clock mapping, in pure integer arithmetic.
///
/// Real elapsed nanoseconds (`u128`, exact) are scaled by the time-scale
/// held in 32.32 fixed point, so precision does not degrade as uptime
/// grows — the previous `f64`-seconds path lost sub-microsecond
/// resolution once `elapsed * scale` crossed 2^53. A monotonic clamp
/// guards the result: virtual time can never tick backwards even across
/// a rounding boundary, because the simulator treats time as strictly
/// non-decreasing.
struct VirtualClock {
    epoch: Instant,
    /// `time_scale` in 32.32 fixed point (virtual nanos per real nano).
    scale_fp: u128,
    /// High-water mark enforcing monotonicity.
    last_us: u64,
}

impl VirtualClock {
    fn new(scale: f64) -> Self {
        // `GatewayConfig` validates the scale is finite and positive; the
        // `max(1)` keeps a pathologically tiny scale from freezing time.
        let scale_fp = ((scale * (1u64 << 32) as f64).round() as u128).max(1);
        VirtualClock {
            epoch: Instant::now(),
            scale_fp,
            last_us: 0,
        }
    }

    fn now(&mut self) -> SimTime {
        let us = scaled_virtual_micros(self.epoch.elapsed().as_nanos(), self.scale_fp);
        self.last_us = self.last_us.max(us);
        SimTime::from_micros(self.last_us)
    }
}

/// Maps exact real nanoseconds through the 32.32 fixed-point scale to
/// virtual microseconds. Monotone in `nanos` by construction (integer
/// multiply, shift, divide), saturating at the representable maximum.
fn scaled_virtual_micros(nanos: u128, scale_fp: u128) -> u64 {
    let us = (nanos.saturating_mul(scale_fp) >> 32) / 1_000;
    u64::try_from(us).unwrap_or(u64::MAX)
}

fn driver_loop(session: ClusterSession, rx: &Receiver<Msg>, scale: f64) {
    let mut clock = VirtualClock::new(scale);
    let mut driver = Driver {
        session,
        streams: HashMap::new(),
        sessions: HashMap::new(),
        next_session: 0,
        next_id: 0,
        report: DriverReport::default(),
        scale,
    };
    let shutdown_reply = loop {
        let vnow = clock.now();
        driver.advance(vnow);
        // Sleep until the next scheduled event lands (in real time) or a
        // message arrives, bounded so time keeps advancing smoothly.
        let timeout = driver
            .session
            .next_event_at()
            .map(|t| t.saturating_since(vnow).as_secs_f64() / scale)
            .map(|secs| Duration::from_secs_f64(secs.clamp(0.0, 0.005)))
            .unwrap_or(Duration::from_millis(5));
        match rx.recv_timeout(timeout) {
            Ok(Msg::Shutdown { reply }) => break Some(reply),
            Ok(msg) => driver.handle(msg, clock.now()),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break None,
        }
    };
    // Drain in-flight work so every admitted request reaches a terminal
    // state (tokens stream out at full simulation speed, untied from the
    // wall clock now that the gateway is closing).
    if driver.report.error.is_none() {
        if let Err(e) = driver.session.pump_to_drain() {
            driver.report.error = Some(e.to_string());
        }
        driver.route_live_events();
    }
    let Driver {
        session,
        mut report,
        ..
    } = driver;
    if report.error.is_none() {
        match session.finish() {
            Ok((run, _log)) => report.run_report = Some(run),
            Err(e) => report.error = Some(e.to_string()),
        }
    }
    if let Some(reply) = shutdown_reply {
        let _ = reply.send(report);
    }
}

impl Driver {
    /// Advances the conversation keyed by `key` one turn and returns the
    /// `(session, turn, shared_prefix_tokens)` tag for the request. The
    /// shared prefix is the conversation's accumulated context, capped by
    /// `Request::with_session` at `prompt - 1` so at least one prompt
    /// token is always freshly prefillable.
    fn session_turn(
        &mut self,
        key: String,
        prompt_tokens: u32,
        output_tokens: u32,
    ) -> (SessionId, u32, u32) {
        use std::collections::hash_map::Entry;
        let entry = match self.sessions.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let id = SessionId(self.next_session);
                self.next_session += 1;
                v.insert(GatewaySession {
                    id,
                    turns: 0,
                    context_tokens: 0,
                })
            }
        };
        let shared = u32::try_from(entry.context_tokens).unwrap_or(u32::MAX);
        let tag = (entry.id, entry.turns, shared);
        entry.turns += 1;
        // Each turn's prompt is assumed to embed the full history, so the
        // conversation context after this turn is its prompt + output.
        entry.context_tokens = u64::from(prompt_tokens) + u64::from(output_tokens);
        tag
    }

    /// Pumps the session to the mapped virtual instant, routes every
    /// live event produced, then kills streams past their deadline.
    fn advance(&mut self, vnow: SimTime) {
        if self.report.error.is_some() {
            return;
        }
        if let Err(e) = self.session.pump_until(vnow) {
            self.report.error = Some(e.to_string());
        }
        self.route_live_events();
        self.enforce_deadlines(vnow);
    }

    /// Closes every live stream whose virtual deadline has passed.
    fn enforce_deadlines(&mut self, vnow: SimTime) {
        let expired: Vec<RequestId> = self
            .streams
            .iter()
            .filter(|(_, s)| s.deadline.is_some_and(|d| vnow >= d))
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            self.close(id, Terminal::Deadline);
        }
    }

    /// Ends request `id`'s stream with `terminal`. The only code that drops
    /// a routing entry, counts a terminal, traces `GatewayStreamClosed`
    /// and writes the terminal to the sink. A request already closed is
    /// left alone, so the sim events that still arrive for it after a
    /// deadline or a disconnect are ignored.
    fn close(&mut self, id: RequestId, terminal: Terminal) {
        let Some(state) = self.streams.remove(&id) else {
            return;
        };
        let counter = match terminal {
            Terminal::Done(_) => &mut self.report.completed,
            Terminal::Dropped(_) => &mut self.report.aborted,
            Terminal::Deadline => &mut self.report.deadline_exceeded,
            Terminal::Disconnected => &mut self.report.disconnected,
        };
        *counter += 1;
        self.session.emit_trace(TraceEvent::GatewayStreamClosed {
            id,
            delivered_tokens: state.tokens,
        });
        let drop_event = |name: &str, reason: DropReason| {
            SseEvent::named(name, String::from_utf8_lossy(&api::drop_body(reason)))
        };
        let since_submit = |t: SimTime| t.saturating_since(state.submitted_at).as_secs_f64();
        let (update, event) = match terminal {
            Terminal::Done(at) => (
                StreamUpdate::Done {
                    tokens: state.tokens,
                    ttft_virtual_secs: since_submit(state.first_token_at.unwrap_or(at)),
                    latency_virtual_secs: since_submit(at),
                },
                SseEvent::data(api::DONE_SENTINEL),
            ),
            Terminal::Dropped(reason) => (
                StreamUpdate::Aborted { reason },
                drop_event("error", reason),
            ),
            Terminal::Deadline => {
                let reason = DropReason::DeadlineExceeded;
                (
                    StreamUpdate::Aborted { reason },
                    drop_event(reason.label(), reason),
                )
            }
            // The sim keeps producing tokens for the request; with the
            // routing entry gone they are dropped on the floor, which is
            // exactly what a vanished client deserves.
            Terminal::Disconnected => return,
        };
        state.sink.deliver(id, update, || event);
    }

    fn handle(&mut self, msg: Msg, vnow: SimTime) {
        match msg {
            Msg::Submit {
                prompt_tokens,
                output_tokens,
                tier,
                timeout_secs,
                session,
                verdict,
                sink,
            } => {
                if self.report.error.is_some() {
                    // A failed session admits nothing; surface as shed.
                    let _ = verdict.send(Err(DropReason::Shed));
                    return;
                }
                let id = RequestId(self.next_id);
                self.next_id += 1;
                self.report.submitted += 1;
                let mut req = Request::new(id, vnow, prompt_tokens, output_tokens).with_tier(tier);
                if let Some(key) = session {
                    let tag = self.session_turn(key, prompt_tokens, output_tokens);
                    req = req.with_session(tag.0, tag.1, tag.2);
                }
                self.session.inject(req);
                self.session.emit_trace(TraceEvent::GatewaySubmitted {
                    id,
                    prompt_tokens,
                    output_tokens,
                    streamed: matches!(sink, Sink::Pump { .. }),
                });
                // Pump past the arrival instant: an admission rejection
                // (queue cap, token budget, shed-on-admit) shows up as a
                // Dropped event for this id before any token can.
                if let Err(e) = self.session.pump_until(vnow) {
                    self.report.error = Some(e.to_string());
                    let _ = verdict.send(Err(DropReason::Shed));
                    return;
                }
                let mut admission = Ok(id);
                for ev in self.session.drain_live_events() {
                    match ev {
                        LiveEvent::Dropped {
                            id: dropped,
                            reason,
                            ..
                        } if dropped == id => {
                            admission = Err(reason);
                        }
                        other => self.route_one(other),
                    }
                }
                match admission {
                    Ok(id) => {
                        // The wall-clock budget maps to virtual time with
                        // the same scale the clock uses, so "2s real"
                        // means the same thing to the deadline as it
                        // does to token pacing.
                        let deadline = timeout_secs
                            .filter(|secs| secs.is_finite() && *secs > 0.0)
                            .map(|secs| vnow + SimDuration::from_secs_f64(secs * self.scale));
                        self.streams.insert(
                            id,
                            StreamState {
                                sink,
                                submitted_at: vnow,
                                first_token_at: None,
                                tokens: 0,
                                deadline,
                            },
                        );
                        let _ = verdict.send(Ok(id));
                    }
                    Err(reason) => {
                        self.report.rejected += 1;
                        let _ = verdict.send(Err(reason));
                    }
                }
            }
            Msg::Snapshot { reply } => {
                let _ = reply.send(self.session.snapshot());
            }
            Msg::Trace(ev) => {
                self.session.emit_trace(ev);
            }
            Msg::StreamDead(id) => self.close(id, Terminal::Disconnected),
            Msg::Stall(dur) => {
                std::thread::sleep(dur.min(MAX_DRIVER_STALL));
            }
            // Shutdown is intercepted by the loop.
            Msg::Shutdown { .. } => {}
        }
    }

    fn route_live_events(&mut self) {
        for ev in self.session.drain_live_events() {
            self.route_one(ev);
        }
    }

    /// Delivers one live event to its request's sink.
    fn route_one(&mut self, ev: LiveEvent) {
        let id = ev.request_id();
        match ev {
            LiveEvent::FirstToken { at, .. } | LiveEvent::Token { at, .. } => {
                let Some(state) = self.streams.get_mut(&id) else {
                    // Rejected at submission (already answered), closed,
                    // or unknown.
                    return;
                };
                let index = state.tokens;
                state.tokens += 1;
                state.first_token_at.get_or_insert(at);
                let virtual_secs = at.as_secs_f64();
                state.sink.deliver(
                    id,
                    StreamUpdate::Token {
                        index,
                        virtual_secs,
                    },
                    || SseEvent::data(api::token_event_json(id, index, virtual_secs)),
                );
            }
            LiveEvent::Finished { at, .. } => self.close(id, Terminal::Done(at)),
            LiveEvent::Dropped { reason, .. } => self.close(id, Terminal::Dropped(reason)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windserve::SystemKind;

    fn test_config() -> ServeConfig {
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.trace = windserve_trace::TraceMode::Ring(4096);
        cfg
    }

    /// Regression: the wall-to-virtual mapping must stay exact and
    /// monotone far past the 2^53-nanosecond uptime where the old
    /// `f64`-seconds path started collapsing distinct instants, and a
    /// live clock must never report time running backwards.
    #[test]
    fn virtual_clock_is_monotonic_and_precise_at_large_uptimes() {
        // Integer mapping sanity: 1 real second at 100x = 100 virtual
        // seconds = 1e8 virtual microseconds.
        let scale_fp = (100u128) << 32;
        assert_eq!(scaled_virtual_micros(1_000_000_000, scale_fp), 100_000_000);

        // Strict monotonicity across microsecond-scale increments in a
        // window around 2^53 ns (~104 days of uptime), where f64 loses
        // nanosecond resolution entirely.
        let base: u128 = 1 << 53;
        let mut prev = scaled_virtual_micros(base, scale_fp);
        for k in 1..=1_000u128 {
            let cur = scaled_virtual_micros(base + k * 1_000, scale_fp);
            assert!(cur > prev, "clock stalled at +{k}us past 2^53ns");
            prev = cur;
        }

        // Saturation instead of overflow at absurd uptimes.
        assert_eq!(scaled_virtual_micros(u128::MAX, scale_fp), u64::MAX);

        // A live clock never ticks backwards, whatever the scale.
        for scale in [1e-6, 1.0, 100.0, 1e6] {
            let mut clock = VirtualClock::new(scale);
            let mut prev = SimTime::ZERO;
            for _ in 0..10_000 {
                let now = clock.now();
                assert!(now >= prev, "virtual time went backwards");
                prev = now;
            }
        }
    }

    #[test]
    fn a_live_request_streams_tokens_then_done() {
        let driver = SimDriver::spawn(test_config(), 1000.0).unwrap();
        let handle = driver.handle();
        let (tx, rx) = mpsc::channel();
        let id = handle
            .submit(64, 4, 0, None, None, Sink::Channel(tx))
            .unwrap();
        assert_eq!(id, RequestId(0));
        let mut tokens = 0u32;
        let done = loop {
            match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
                StreamUpdate::Token { index, .. } => {
                    assert_eq!(index, tokens, "token order");
                    tokens += 1;
                }
                StreamUpdate::Done { tokens: n, .. } => break n,
                StreamUpdate::Aborted { reason } => panic!("aborted: {reason:?}"),
            }
        };
        assert_eq!(done, 4);
        assert_eq!(tokens, 4);
        let report = driver.shutdown();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.completed, 1);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.run_report.is_some());
    }

    #[test]
    fn snapshot_reflects_live_state() {
        let driver = SimDriver::spawn(test_config(), 1000.0).unwrap();
        let handle = driver.handle();
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.completed_requests, 0);
        assert!(!snap.instances.is_empty());
        let (tx, rx) = mpsc::channel();
        handle
            .submit(64, 2, 0, None, None, Sink::Channel(tx))
            .unwrap();
        // Wait for completion, then the snapshot must count it.
        loop {
            if matches!(
                rx.recv_timeout(Duration::from_secs(30)).unwrap(),
                StreamUpdate::Done { .. }
            ) {
                break;
            }
        }
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.completed_requests, 1);
        driver.shutdown();
    }

    #[test]
    fn admission_rejections_surface_synchronously() {
        let mut cfg = test_config();
        cfg.overload = Some(windserve::OverloadConfig {
            max_queued_requests: Some(1),
            shedding: false,
            ..Default::default()
        });
        // Freeze virtual time (tiny scale): nothing completes while we
        // overfill the admission cap.
        let driver = SimDriver::spawn(cfg, 1e-6).unwrap();
        let handle = driver.handle();
        let (tx, _rx) = mpsc::channel();
        assert!(handle
            .submit(64, 4, 0, None, None, Sink::Channel(tx.clone()))
            .is_ok());
        let err = handle
            .submit(64, 4, 0, None, None, Sink::Channel(tx))
            .expect_err("cap of 1 must reject the second live request");
        match err {
            SubmitError::Dropped(reason) => assert_eq!(reason.http_status(), 429),
            SubmitError::Unavailable => panic!("driver died"),
        }
        let report = driver.shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn session_turns_share_a_prefix_and_hit_the_cache() {
        let mut cfg = test_config();
        cfg.prefix_cache = Some(windserve::PrefixCacheConfig::default());
        let driver = SimDriver::spawn(cfg, 1000.0).unwrap();
        let handle = driver.handle();
        // Three turns of one conversation: each prompt embeds the history,
        // so follow-ups carry a growing shared prefix.
        for turn in 0..3u32 {
            let (tx, rx) = mpsc::channel();
            let prompt = 256 * (turn + 1);
            handle
                .submit(prompt, 8, 0, None, Some("conv-1".into()), Sink::Channel(tx))
                .unwrap();
            loop {
                match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
                    StreamUpdate::Done { .. } => break,
                    StreamUpdate::Aborted { reason } => panic!("aborted: {reason:?}"),
                    StreamUpdate::Token { .. } => {}
                }
            }
        }
        let snap = handle.snapshot().unwrap();
        assert!(
            snap.prefix_hits >= 1,
            "follow-up turns must hit the prefix cache ({} hits / {} misses)",
            snap.prefix_hits,
            snap.prefix_misses
        );
        assert!(snap.prefix_hit_rate > 0.0);
        let report = driver.shutdown();
        let run = report.run_report.expect("clean run");
        assert!(run.prefix_hits >= 1);
        assert!(run.prefix_cached_tokens > 0);
    }

    #[test]
    fn deadlines_kill_streams_with_a_typed_abort() {
        // Freeze virtual time (tiny scale): the request can never finish
        // on its own, so only the deadline can end it.
        let driver = SimDriver::spawn(test_config(), 1e-6).unwrap();
        let handle = driver.handle();
        let (tx, rx) = mpsc::channel();
        handle
            .submit(64, 64, 0, Some(0.05), None, Sink::Channel(tx))
            .unwrap();
        let update = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(
            update,
            StreamUpdate::Aborted {
                reason: DropReason::DeadlineExceeded
            }
        );
        let report = driver.shutdown();
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.completed, 0);
        assert!(report.error.is_none(), "{:?}", report.error);
    }
}
