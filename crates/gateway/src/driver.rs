//! The `SimDriver`: the adapter that turns the deterministic simulator
//! into a live engine.
//!
//! One thread owns a [`ClusterSession`] and maps wall-clock time onto
//! virtual time as `virtual_now = real_elapsed * time_scale` — with a
//! scale above 1 the simulated cluster runs *faster* than real time, so
//! a localhost client sees millisecond TTFTs for what the paper measures
//! in seconds. Live HTTP requests become sim arrivals stamped at the
//! mapped instant, and each arrives with its accepted socket: from then
//! on this thread is the only writer of that socket. It decides admission
//! at once (the driver pumps the session past the arrival, so a rejection
//! is a real `429`/`503` before any stream bytes are written), then
//! writes the SSE head, token chunks and terminal event of a stream, or
//! the whole JSON response of a unary request at its terminal, through
//! the request's `Outbox`.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use windserve::{Cluster, ClusterSession, LiveEvent, RunReport, ServeConfig, SessionSnapshot};
use windserve_metrics::DropReason;
use windserve_sim::{SimDuration, SimTime};
use windserve_trace::TraceEvent;
use windserve_workload::{Request, RequestId, SessionId};

use crate::api::{self, CompletionRequest};
use crate::health::Health;
use crate::http::{self, encode_chunk, sse_response_head, LAST_CHUNK};
use crate::outbox::Outbox;
use crate::sse::SseEvent;

/// A parsed completion request handed to the driver with its socket.
#[derive(Debug)]
pub(crate) struct Submission {
    /// What the client asked for; `req.stream` picks SSE or one JSON body.
    pub(crate) req: CompletionRequest,
    /// Wall-clock budget in seconds, if any.
    pub(crate) timeout_secs: Option<f64>,
    /// Client-chosen conversation key (the `x-session-id` header);
    /// follow-ups under the same key are tagged as session turns so
    /// prefix caching and affinity routing can act on them.
    pub(crate) session: Option<String>,
    /// Injected write stall (network chaos): the response's bytes are held
    /// this long.
    pub(crate) write_stall: Option<Duration>,
    /// The accepted connection; only the driver writes to it from here on.
    pub(crate) sock: TcpStream,
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
    Submit(Submission),
    Snapshot {
        reply: Sender<SessionSnapshot>,
    },
    /// Record a gateway-layer event into the session trace.
    Trace(TraceEvent),
    /// Injected driver stall (network chaos): sleep on the driver thread.
    Stall(Duration),
    Shutdown {
        reply: Sender<DriverReport>,
    },
}

/// Cloneable submission/status handle to the driver thread.
#[derive(Clone)]
pub(crate) struct DriverHandle {
    tx: Sender<Msg>,
}

impl std::fmt::Debug for DriverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverHandle").finish()
    }
}

impl DriverHandle {
    /// Hands a request and its socket to the driver, which answers it.
    ///
    /// # Errors
    ///
    /// The driver is gone; the socket comes back so the caller can answer
    /// `503 unavailable` itself.
    pub(crate) fn submit(&self, sub: Submission) -> Result<(), TcpStream> {
        match self.tx.send(Msg::Submit(sub)) {
            Err(mpsc::SendError(Msg::Submit(sub))) => Err(sub.sock),
            _ => Ok(()),
        }
    }

    /// Records a gateway-layer event (health transitions, injected
    /// faults) into the session trace. Best-effort: lost if the driver
    /// is gone.
    pub(crate) fn emit_trace(&self, ev: TraceEvent) {
        let _ = self.tx.send(Msg::Trace(ev));
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
pub(crate) struct SimDriver {
    tx: Sender<Msg>,
    thread: Option<JoinHandle<()>>,
}

impl SimDriver {
    /// Builds the cluster and spawns the driver thread. `time_scale` is
    /// the virtual-seconds-per-real-second factor (clamped to a small
    /// positive minimum); every admission outcome is recorded in `health`.
    ///
    /// # Errors
    ///
    /// Propagates cluster construction failures (invalid config).
    pub(crate) fn spawn(
        cfg: ServeConfig,
        time_scale: f64,
        health: Arc<Health>,
    ) -> windserve::Result<SimDriver> {
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
            .spawn(move || driver_loop(session, health, &rx, scale))
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
    /// Stream SSE events (`true`) or answer with one JSON body at the
    /// terminal.
    sse: bool,
    /// Echoed in a unary response's `usage`.
    prompt_tokens: u32,
    submitted_at: SimTime,
    first_token_at: Option<SimTime>,
    tokens: u32,
    /// Virtual instant past which the stream is killed with
    /// `deadline-exceeded` (mapped from the wall-clock budget).
    deadline: Option<SimTime>,
}

/// How an admitted request ends.
#[derive(Clone, Copy)]
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
    /// Records every admission outcome for the health machine and breaker.
    health: Arc<Health>,
    /// Requests admitted and not yet at a terminal.
    streams: HashMap<RequestId, StreamState>,
    /// The socket of every request whose response is not fully written:
    /// open streams, and closed or rejected ones still flushing.
    outboxes: HashMap<RequestId, Outbox>,
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

    /// Real time left, from this instant, until the clock reads `at`,
    /// capped at [`MAX_WAIT`].
    fn until(&self, at: SimTime) -> Duration {
        let wake = real_nanos_for_virtual_micros(at.as_micros(), self.scale_fp);
        let left = wake.saturating_sub(self.epoch.elapsed().as_nanos());
        Duration::from_nanos(u64::try_from(left).unwrap_or(u64::MAX)).min(MAX_WAIT)
    }
}

/// The longest the driver sleeps between wakes, so time keeps advancing
/// smoothly even with no event scheduled.
const MAX_WAIT: Duration = Duration::from_millis(5);

/// How soon the driver retries a socket that would not take all its bytes.
const FLUSH_RETRY: Duration = Duration::from_millis(1);

/// Maps exact real nanoseconds through the 32.32 fixed-point scale to
/// virtual microseconds. Monotone in `nanos` by construction (integer
/// multiply, shift, divide), saturating at the representable maximum.
fn scaled_virtual_micros(nanos: u128, scale_fp: u128) -> u64 {
    let us = (nanos.saturating_mul(scale_fp) >> 32) / 1_000;
    u64::try_from(us).unwrap_or(u64::MAX)
}

/// The exact ceil inverse of [`scaled_virtual_micros`]: the first real
/// nanosecond at which it reads at least `t_us`.
fn real_nanos_for_virtual_micros(t_us: u64, scale_fp: u128) -> u128 {
    ((u128::from(t_us) * 1_000) << 32).div_ceil(scale_fp)
}

fn driver_loop(session: ClusterSession, health: Arc<Health>, rx: &Receiver<Msg>, scale: f64) {
    let mut clock = VirtualClock::new(scale);
    let mut driver = Driver {
        session,
        health,
        streams: HashMap::new(),
        outboxes: HashMap::new(),
        sessions: HashMap::new(),
        next_session: 0,
        next_id: 0,
        report: DriverReport::default(),
        scale,
    };
    let shutdown_reply = loop {
        driver.advance(clock.now());
        let backlogged = driver.flush();
        // Sleep until the wall instant the next scheduled event lands on,
        // measured after `advance` ran, or until a message arrives; retry
        // sockets that would not take all their bytes soon.
        let mut timeout = driver
            .session
            .next_event_at()
            .map_or(MAX_WAIT, |t| clock.until(t));
        if backlogged {
            timeout = timeout.min(FLUSH_RETRY);
        }
        match rx.recv_timeout(timeout) {
            Ok(Msg::Shutdown { reply }) => break Some(reply),
            Ok(msg) => driver.handle(msg, clock.now()),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break None,
        }
    };
    // Drain in-flight work so every admitted request reaches a terminal
    // state (tokens stream out at full simulation speed, untied from the
    // wall clock now that the gateway is closing), then write what the
    // sockets take at once; bytes still queued after that are dropped.
    if driver.report.error.is_none() {
        if let Err(e) = driver.session.pump_to_drain() {
            driver.report.error = Some(e.to_string());
        }
        driver.route_live_events();
    }
    driver.flush();
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

/// The whole fixed-length response for a request dropped with `reason`.
fn drop_response(reason: DropReason) -> Vec<u8> {
    http::response_with_headers(
        reason.http_status(),
        "application/json",
        &[("Retry-After", &api::RETRY_AFTER_SECS.to_string())],
        &api::drop_body(reason),
    )
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

    /// Writes what every socket will take. A socket that fails ends its
    /// request as [`Terminal::Disconnected`]; a finished response drops
    /// its socket. Returns whether bytes are still waiting.
    fn flush(&mut self) -> bool {
        let now = Instant::now();
        let mut failed = Vec::new();
        let mut backlogged = false;
        self.outboxes.retain(|&id, outbox| match outbox.flush(now) {
            Ok(done) => {
                backlogged |= outbox.is_pending();
                !done
            }
            Err(_) => {
                failed.push(id);
                false
            }
        });
        for id in failed {
            self.close(id, Terminal::Disconnected);
        }
        backlogged
    }

    /// Queues `bytes` for request `id`'s socket; `last` ends its response.
    /// A client too far behind to take them is disconnected.
    fn send(&mut self, id: RequestId, bytes: &[u8], last: bool) {
        let Some(outbox) = self.outboxes.get_mut(&id) else {
            return;
        };
        if !outbox.push(bytes, last) {
            self.outboxes.remove(&id);
            self.close(id, Terminal::Disconnected);
        }
    }

    /// Ends request `id` with `terminal`. The only code that drops a
    /// routing entry, counts a terminal, traces `GatewayStreamClosed` and
    /// queues the terminal bytes. A deadline or a disconnect also aborts
    /// the request in the simulator, which frees its KV. A request already
    /// closed is left alone, so the sim events that still arrive for it
    /// are ignored.
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
        if matches!(terminal, Terminal::Deadline | Terminal::Disconnected) {
            self.session.abort(id);
        }
        self.session.emit_trace(TraceEvent::GatewayStreamClosed {
            id,
            delivered_tokens: state.tokens,
        });
        let drop_event = |name: &str, reason: DropReason| {
            sse_last_chunk(&SseEvent::named(
                name,
                String::from_utf8_lossy(&api::drop_body(reason)),
            ))
        };
        let since_submit = |t: SimTime| t.saturating_since(state.submitted_at).as_secs_f64();
        let deadline = DropReason::DeadlineExceeded;
        let bytes = match (terminal, state.sse) {
            (Terminal::Done(_), true) => sse_last_chunk(&SseEvent::data(api::DONE_SENTINEL)),
            (Terminal::Done(at), false) => http::simple_response(
                200,
                "application/json",
                &api::completion_body(
                    id,
                    state.prompt_tokens,
                    state.tokens,
                    since_submit(state.first_token_at.unwrap_or(at)),
                    since_submit(at),
                ),
            ),
            (Terminal::Dropped(reason), true) => drop_event("error", reason),
            (Terminal::Deadline, true) => drop_event(deadline.label(), deadline),
            (Terminal::Dropped(reason), false) => drop_response(reason),
            (Terminal::Deadline, false) => drop_response(deadline),
            (Terminal::Disconnected, _) => {
                self.outboxes.remove(&id);
                return;
            }
        };
        self.send(id, &bytes, true);
    }

    fn handle(&mut self, msg: Msg, vnow: SimTime) {
        match msg {
            Msg::Submit(sub) => self.submit(sub, vnow),
            Msg::Snapshot { reply } => {
                let _ = reply.send(self.session.snapshot());
            }
            Msg::Trace(ev) => {
                self.session.emit_trace(ev);
            }
            Msg::Stall(dur) => {
                std::thread::sleep(dur.min(MAX_DRIVER_STALL));
            }
            // Shutdown is intercepted by the loop.
            Msg::Shutdown { .. } => {}
        }
    }

    /// Injects a submission at `vnow` and decides its admission at once:
    /// an admitted request gets a routing entry (and an SSE head when it
    /// streams), a rejected one its typed `429`/`503`. Both outcomes feed
    /// the health machine before any byte reaches the client.
    fn submit(&mut self, sub: Submission, vnow: SimTime) {
        let Submission {
            req: creq,
            timeout_secs,
            session,
            write_stall,
            sock,
        } = sub;
        // A socket that cannot take non-blocking writes would stall the
        // driver on its first write: drop it unanswered.
        let Ok(outbox) = Outbox::new(sock, write_stall) else {
            return;
        };
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.outboxes.insert(id, outbox);
        let admission = self.admit(id, creq, session, vnow);
        for signal in self.health.record(admission.is_err()) {
            self.session.emit_trace(signal.into());
        }
        match admission {
            Ok(()) => {
                // The wall-clock budget maps to virtual time with the same
                // scale the clock uses, so "2s real" means the same thing
                // to the deadline as it does to token pacing.
                let deadline = timeout_secs
                    .filter(|secs| secs.is_finite() && *secs > 0.0)
                    .map(|secs| vnow + SimDuration::from_secs_f64(secs * self.scale));
                self.streams.insert(
                    id,
                    StreamState {
                        sse: creq.stream,
                        prompt_tokens: creq.prompt_tokens,
                        submitted_at: vnow,
                        first_token_at: None,
                        tokens: 0,
                        deadline,
                    },
                );
                if creq.stream {
                    self.send(id, &sse_response_head(), false);
                }
            }
            Err(reason) => self.send(id, &drop_response(reason), true),
        }
    }

    /// Injects request `id` and pumps past its arrival instant: an
    /// admission rejection (queue cap, token budget, shed-on-admit) shows
    /// up as a `Dropped` event for this id before any token can. A failed
    /// session admits nothing and answers as shed.
    fn admit(
        &mut self,
        id: RequestId,
        creq: CompletionRequest,
        session: Option<String>,
        vnow: SimTime,
    ) -> Result<(), DropReason> {
        if self.report.error.is_some() {
            return Err(DropReason::Shed);
        }
        self.report.submitted += 1;
        let (prompt_tokens, output_tokens) = (creq.prompt_tokens, creq.max_tokens);
        let mut req = Request::new(id, vnow, prompt_tokens, output_tokens).with_tier(creq.tier);
        if let Some(key) = session {
            let tag = self.session_turn(key, prompt_tokens, output_tokens);
            req = req.with_session(tag.0, tag.1, tag.2);
        }
        self.session.inject(req);
        self.session.emit_trace(TraceEvent::GatewaySubmitted {
            id,
            prompt_tokens,
            output_tokens,
            streamed: creq.stream,
        });
        if let Err(e) = self.session.pump_until(vnow) {
            self.report.error = Some(e.to_string());
            return Err(DropReason::Shed);
        }
        let mut admission = Ok(());
        for ev in self.session.drain_live_events() {
            match ev {
                LiveEvent::Dropped {
                    id: dropped,
                    reason,
                    ..
                } if dropped == id => admission = Err(reason),
                other => self.route_one(other),
            }
        }
        if admission.is_err() {
            self.report.rejected += 1;
        }
        admission
    }

    fn route_live_events(&mut self) {
        for ev in self.session.drain_live_events() {
            self.route_one(ev);
        }
    }

    /// Delivers one live event to its request.
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
                if state.sse {
                    let event = SseEvent::data(api::token_event_json(id, index, at.as_secs_f64()));
                    self.send(id, &encode_chunk(&event.encode()), false);
                }
            }
            LiveEvent::Finished { at, .. } => self.close(id, Terminal::Done(at)),
            LiveEvent::Dropped { reason, .. } => self.close(id, Terminal::Dropped(reason)),
        }
    }
}

/// `event` as the last HTTP chunk of an SSE body, followed by the
/// chunk that ends the body.
fn sse_last_chunk(event: &SseEvent) -> Vec<u8> {
    let mut bytes = encode_chunk(&event.encode());
    bytes.extend_from_slice(LAST_CHUNK);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ResponseParser;
    use crate::sse::SseParser;
    use proptest::prelude::*;
    use std::io::Read;
    use std::net::TcpListener;
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

    proptest! {
        /// The driver's wake instant is exact: the clock reads `t` at the
        /// inverse's nanosecond and not one nanosecond earlier.
        #[test]
        fn wake_instant_is_the_first_nanosecond_reading_t(
            scale_fp in prop_oneof![
                (1u64..1 << 62).prop_map(u128::from),
                (0u64..u64::MAX, 1u64..u64::MAX)
                    .prop_map(|(hi, lo)| (u128::from(hi) << 64) | u128::from(lo)),
            ],
            t in prop_oneof![0u64..1 << 40, 0u64..u64::MAX, Just(u64::MAX)],
        ) {
            let wake = real_nanos_for_virtual_micros(t, scale_fp);
            prop_assert!(scaled_virtual_micros(wake, scale_fp) >= t);
            if let Some(earlier) = wake.checked_sub(1) {
                prop_assert!(scaled_virtual_micros(earlier, scale_fp) < t);
            }
        }
    }

    /// Submits a completion on a fresh loopback connection and returns the
    /// client's end, from which the driver's response is read.
    fn submit(
        handle: &DriverHandle,
        body: &str,
        timeout_secs: Option<f64>,
        session: Option<&str>,
    ) -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let (sock, _) = listener.accept().unwrap();
        let req = CompletionRequest::from_json(body.as_bytes()).unwrap();
        handle
            .submit(Submission {
                req,
                timeout_secs,
                session: session.map(str::to_string),
                write_stall: None,
                sock,
            })
            .expect("the driver is running");
        client
    }

    /// Reads `client` until the response is complete.
    fn response(client: &mut TcpStream) -> ResponseParser {
        let mut parser = ResponseParser::new();
        let mut buf = [0u8; 4096];
        while !parser.is_done() {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "the driver closed the socket mid-response");
            parser.feed(&buf[..n]).unwrap();
        }
        parser
    }

    /// Reads a unary response's status and JSON body.
    fn json_response(client: &mut TcpStream) -> (Option<u16>, serde_json::Value) {
        let mut parser = response(client);
        let body = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
        (parser.status(), body)
    }

    #[test]
    fn a_live_request_streams_tokens_then_done() {
        let driver = SimDriver::spawn(test_config(), 1000.0, Arc::new(Health::new())).unwrap();
        let handle = driver.handle();
        let mut client = submit(
            &handle,
            r#"{"prompt_tokens": 64, "max_tokens": 4, "stream": true}"#,
            None,
            None,
        );
        let mut parser = response(&mut client);
        assert_eq!(parser.status(), Some(200));
        let events = SseParser::new().feed(&parser.take_body());
        assert_eq!(events.len(), 5, "4 tokens + [DONE]: {events:?}");
        for (index, ev) in events[..4].iter().enumerate() {
            let v: serde_json::Value = serde_json::from_str(&ev.data).unwrap();
            assert_eq!(v["id"].as_str(), Some("cmpl-0"));
            assert_eq!(v["token_index"].as_u64(), Some(index as u64), "token order");
        }
        assert_eq!(events[4].data, api::DONE_SENTINEL);
        let report = driver.shutdown();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.completed, 1);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.run_report.is_some());
    }

    #[test]
    fn snapshot_reflects_live_state() {
        let driver = SimDriver::spawn(test_config(), 1000.0, Arc::new(Health::new())).unwrap();
        let handle = driver.handle();
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.completed_requests, 0);
        assert!(!snap.instances.is_empty());
        // Wait for completion, then the snapshot must count it.
        let mut client = submit(
            &handle,
            r#"{"prompt_tokens": 64, "max_tokens": 2}"#,
            None,
            None,
        );
        let (status, body) = json_response(&mut client);
        assert_eq!(status, Some(200));
        assert_eq!(body["usage"]["completion_tokens"].as_u64(), Some(2));
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
        let health = Arc::new(Health::new());
        let driver = SimDriver::spawn(cfg, 1e-6, Arc::clone(&health)).unwrap();
        let handle = driver.handle();
        let body = r#"{"prompt_tokens": 64, "max_tokens": 4}"#;
        let admitted = submit(&handle, body, None, None);
        let mut rejected = submit(&handle, body, None, None);
        let mut parser = response(&mut rejected);
        assert_eq!(
            parser.status(),
            Some(429),
            "cap of 1 must reject the second live request"
        );
        assert_eq!(parser.header("retry-after"), Some("1"));
        assert_eq!(parser.take_body(), api::drop_body(DropReason::QueueFull));
        // The driver recorded both outcomes before answering.
        assert_eq!(health.snapshot().window_samples, 2);
        let report = driver.shutdown();
        drop(admitted);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn session_turns_share_a_prefix_and_hit_the_cache() {
        let mut cfg = test_config();
        cfg.prefix_cache = Some(windserve::PrefixCacheConfig::default());
        let driver = SimDriver::spawn(cfg, 1000.0, Arc::new(Health::new())).unwrap();
        let handle = driver.handle();
        // Three turns of one conversation: each prompt embeds the history,
        // so follow-ups carry a growing shared prefix.
        for turn in 0..3u32 {
            let prompt = 256 * (turn + 1);
            let body = format!(r#"{{"prompt_tokens": {prompt}, "max_tokens": 8}}"#);
            let mut client = submit(&handle, &body, None, Some("conv-1"));
            let (status, body) = json_response(&mut client);
            assert_eq!(status, Some(200), "{body}");
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
        let driver = SimDriver::spawn(test_config(), 1e-6, Arc::new(Health::new())).unwrap();
        let handle = driver.handle();
        let mut client = submit(
            &handle,
            r#"{"prompt_tokens": 64, "max_tokens": 64}"#,
            Some(0.05),
            None,
        );
        let (status, body) = json_response(&mut client);
        assert_eq!(status, Some(503));
        assert_eq!(body["error"]["type"].as_str(), Some("deadline-exceeded"));
        let report = driver.shutdown();
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.completed, 0);
        assert!(report.error.is_none(), "{:?}", report.error);
    }
}
