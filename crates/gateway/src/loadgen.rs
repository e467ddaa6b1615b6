//! An open-loop load generator for the gateway.
//!
//! Arrivals follow a Poisson process at the configured *real-time* rate,
//! independent of how fast responses come back (open loop — a slow
//! server faces a growing backlog, exactly the overload regime the
//! simulator's admission control is built for). One thread holds every
//! in-flight stream: sockets are non-blocking and swept in a loop, so
//! thousands of concurrent SSE streams cost file descriptors, not
//! threads.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::Serialize;
use windserve::Error;
use windserve_metrics::Percentiles;
use windserve_sim::SimRng;
use windserve_workload::ArrivalProcess;

use crate::api;
use crate::http::{HttpRequest, ResponseParser};
use crate::sse::SseParser;

/// What to throw at the server.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target `host:port`.
    pub addr: String,
    /// Offered load, requests per *real* second.
    pub rate: f64,
    /// Injection window, real seconds (in-flight streams drain after).
    pub duration_secs: f64,
    /// Prompt length of every request, tokens.
    pub prompt_tokens: u32,
    /// Output budget of every request, tokens.
    pub output_tokens: u32,
    /// Arrival-process RNG seed.
    pub seed: u64,
    /// Max retry attempts per request for retryable failures (`429`,
    /// `503`, transport errors). `0` disables retries entirely.
    pub retries: u32,
    /// Retry budget: total retries may not exceed this fraction of
    /// first-attempt arrivals (a retry storm amplifier guard).
    pub retry_budget: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:8080".to_string(),
            rate: 20.0,
            duration_secs: 5.0,
            prompt_tokens: 256,
            output_tokens: 32,
            seed: 0,
            retries: 0,
            retry_budget: 0.25,
        }
    }
}

/// Outcomes of every *first* attempt, before any retry masked them —
/// the honest picture of what the server did under load.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FirstAttemptStats {
    /// First attempts that completed.
    pub completed: u64,
    /// First attempts answered `429`.
    pub rejected_429: u64,
    /// First attempts answered `503`.
    pub rejected_503: u64,
    /// First attempts aborted mid-stream by a typed SSE `error` event.
    pub aborted: u64,
    /// First attempts killed by the server's per-request deadline.
    pub deadline_exceeded: u64,
    /// First attempts lost to connect/read/write/parse failures.
    pub transport_errors: u64,
}

/// Client-side retry accounting.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RetryStats {
    /// Retry attempts actually sent.
    pub retries_sent: u64,
    /// Requests that completed on their first attempt.
    pub completed_first_try: u64,
    /// Requests that completed only after one or more retries.
    pub completed_after_retry: u64,
    /// Retryable failures abandoned because the retry budget was spent.
    pub budget_exhausted: u64,
}

/// The load generator's client-side measurement report.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Connections opened (arrivals injected).
    pub submitted: u64,
    /// Streams that delivered every token and the `[DONE]` sentinel.
    pub completed: u64,
    /// Requests answered `429` (admission rejection / shed).
    pub rejected_429: u64,
    /// Requests answered `503` (unavailable / deadline give-up).
    pub rejected_503: u64,
    /// Streams aborted mid-flight by a typed SSE `error` event.
    pub aborted: u64,
    /// Streams killed by the server's per-request deadline (typed SSE
    /// `deadline-exceeded` event).
    pub deadline_exceeded: u64,
    /// Connect/read/write/parse failures.
    pub transport_errors: u64,
    /// Outcomes of first attempts only (what the server did before
    /// retries masked it).
    pub first_attempt: FirstAttemptStats,
    /// Client-side retry accounting.
    pub retry: RetryStats,
    /// Wall-clock time to first token per completed stream, seconds.
    pub ttft: Percentiles,
    /// Wall-clock time between successive tokens, seconds.
    pub tbt: Percentiles,
    /// Completions per wall-clock second over the whole run.
    pub goodput_rps: f64,
    /// Total wall-clock time including the drain tail, seconds.
    pub wall_secs: f64,
    /// Most streams simultaneously in flight.
    pub peak_concurrent: usize,
}

/// One in-flight request/stream.
struct Conn {
    sock: TcpStream,
    /// Request bytes not yet written.
    out: Vec<u8>,
    written: usize,
    parser: ResponseParser,
    sse: SseParser,
    started: Instant,
    last_token: Option<Instant>,
    ttft_secs: Option<f64>,
    tbt_samples: Vec<f64>,
    /// Terminal SSE state already recorded (done or error).
    finished: Option<Outcome>,
    /// Zero-based attempt number (0 = first attempt).
    attempt: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Completed,
    Rejected(u16),
    Aborted,
    DeadlineExceeded,
    TransportError,
}

impl Outcome {
    /// Failures worth retrying: the server shed or the transport broke.
    /// Deadline kills and typed aborts are final (the request itself is
    /// the problem, not the moment it was sent).
    fn retryable(self) -> bool {
        matches!(self, Outcome::Rejected(_) | Outcome::TransportError)
    }
}

/// Most arrival gaps drawn before the load starts: a window this long
/// (a million gaps, 8 MB) already outlasts any sensible run, and the
/// injection loop tops the queue up 64 gaps at a time past it.
const MAX_PREDRAWN_GAPS: usize = 1 << 20;

/// How many arrival gaps to draw before the load starts: twice what
/// `rate` arrivals per second consume over `duration_secs`, plus 64, and
/// at most [`MAX_PREDRAWN_GAPS`], so a huge but representable duration
/// cannot ask for a huge allocation.
fn predraw_len(rate: f64, duration_secs: f64) -> usize {
    ((rate * duration_secs * 2.0) as usize)
        .saturating_add(64)
        .min(MAX_PREDRAWN_GAPS)
}

/// Jittered exponential backoff: `base * 2^attempt`, scaled by a
/// uniform factor in `[0.5, 1.5)`, floored by the server's
/// `Retry-After` hint and capped at 2 seconds.
fn backoff_delay(attempt: u32, retry_after_secs: Option<u64>, rng: &mut SimRng) -> Duration {
    let base = 0.05 * f64::from(2u32.saturating_pow(attempt.min(16)));
    let jittered = base * (0.5 + rng.next_f64());
    let floored = jittered.max(retry_after_secs.unwrap_or(0) as f64);
    Duration::from_secs_f64(floored.min(2.0))
}

/// Runs the load and reports client-side latency and goodput.
///
/// # Errors
///
/// [`Error::Gateway`] for nonsensical parameters; individual connection
/// failures are counted in the report, not raised.
pub fn run(cfg: &LoadgenConfig) -> windserve::Result<LoadReport> {
    if !(cfg.rate.is_finite() && cfg.rate > 0.0) {
        return Err(Error::Gateway {
            reason: format!("loadgen rate must be positive, got {}", cfg.rate),
        });
    }
    if !(cfg.duration_secs.is_finite() && cfg.duration_secs > 0.0) {
        return Err(Error::Gateway {
            reason: format!(
                "loadgen duration must be positive, got {}",
                cfg.duration_secs
            ),
        });
    }
    // Streams alive at the deadline get a generous drain grace before the
    // run is called off.
    let window = Duration::try_from_secs_f64(cfg.duration_secs).ok();
    let grace = Duration::try_from_secs_f64(cfg.duration_secs.max(5.0) * 6.0).ok();
    let deadlines = |epoch: Instant| {
        let deadline = epoch.checked_add(window?)?;
        Some((deadline, deadline.checked_add(grace?)?))
    };
    let too_long = || Error::Gateway {
        reason: format!("loadgen duration is too long, got {}", cfg.duration_secs),
    };
    // Reject a window whose deadlines cannot be represented before drawing
    // its gaps.
    deadlines(Instant::now()).ok_or_else(too_long)?;
    let body = format!(
        r#"{{"prompt_tokens": {}, "max_tokens": {}, "stream": true}}"#,
        cfg.prompt_tokens.max(1),
        cfg.output_tokens.max(1)
    );
    let request = HttpRequest::new("POST", "/v1/completions", body.into_bytes()).encode();
    let process = ArrivalProcess::poisson(cfg.rate);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    // Pre-draw more gaps than the window can consume; top up if a hot
    // server actually drains them all.
    let mut gaps: VecDeque<f64> = process
        .gaps(predraw_len(cfg.rate, cfg.duration_secs), &mut rng)
        .into_iter()
        .map(|g| g.as_secs_f64())
        .collect();

    let epoch = Instant::now();
    let (deadline, drain_deadline) = deadlines(epoch).ok_or_else(too_long)?;
    let mut next_arrival = epoch + Duration::from_secs_f64(gaps.pop_front().unwrap_or(0.0));

    let mut conns: Vec<Conn> = Vec::new();
    // Scheduled retries: (fire instant, attempt number of the retry).
    let mut pending_retries: Vec<(Instant, u32)> = Vec::new();
    let mut submitted = 0u64;
    let mut counts = [0u64; 4]; // completed, 429, 503, aborted
    let mut deadline_exceeded = 0u64;
    let mut transport_errors = 0u64;
    let mut first_attempt = FirstAttemptStats::default();
    let mut retry = RetryStats::default();
    let mut ttfts: Vec<f64> = Vec::new();
    let mut tbts: Vec<f64> = Vec::new();
    let mut peak_concurrent = 0usize;
    let mut buf = [0u8; 16 * 1024];

    let open_conn = |addr: &str, request: &[u8], attempt: u32| -> Option<Conn> {
        let sock = TcpStream::connect(addr).ok()?;
        let _ = sock.set_nodelay(true);
        let _ = sock.set_nonblocking(true);
        Some(Conn {
            sock,
            out: request.to_vec(),
            written: 0,
            parser: ResponseParser::new(),
            sse: SseParser::new(),
            started: Instant::now(),
            last_token: None,
            ttft_secs: None,
            tbt_samples: Vec::new(),
            finished: None,
            attempt,
        })
    };

    loop {
        let now = Instant::now();
        // Open-loop injection: fire every arrival whose time has come,
        // regardless of backlog.
        while now >= next_arrival && now < deadline {
            submitted += 1;
            match open_conn(&cfg.addr, &request, 0) {
                Some(conn) => conns.push(conn),
                None => {
                    first_attempt.transport_errors += 1;
                    // A failed connect is retryable like any transport
                    // error; route it through the same retry decision.
                    if cfg.retries > 0 && retry_budget_allows(&retry, submitted, cfg.retry_budget) {
                        retry.retries_sent += 1;
                        pending_retries.push((now + backoff_delay(0, None, &mut rng), 1));
                    } else {
                        transport_errors += 1;
                        if cfg.retries > 0 {
                            retry.budget_exhausted += 1;
                        }
                    }
                }
            }
            let gap = gaps.pop_front().unwrap_or_else(|| {
                gaps.extend(
                    process
                        .gaps(64, &mut rng)
                        .into_iter()
                        .map(|g| g.as_secs_f64()),
                );
                gaps.pop_front().unwrap_or(0.05)
            });
            next_arrival += Duration::from_secs_f64(gap);
        }
        // Fire due retries (allowed past the injection deadline: the
        // drain tail includes them).
        let mut i = 0;
        while i < pending_retries.len() {
            if now >= pending_retries[i].0 {
                let (_, attempt) = pending_retries.swap_remove(i);
                match open_conn(&cfg.addr, &request, attempt) {
                    Some(conn) => conns.push(conn),
                    None => {
                        if attempt < cfg.retries
                            && retry_budget_allows(&retry, submitted, cfg.retry_budget)
                        {
                            retry.retries_sent += 1;
                            pending_retries
                                .push((now + backoff_delay(attempt, None, &mut rng), attempt + 1));
                        } else {
                            transport_errors += 1;
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
        peak_concurrent = peak_concurrent.max(conns.len());

        let mut progressed = false;
        conns.retain_mut(|conn| match sweep(conn, &mut buf) {
            Sweep::KeepIdle => true,
            Sweep::KeepProgress => {
                progressed = true;
                true
            }
            Sweep::Finish(outcome) => {
                progressed = true;
                if conn.attempt == 0 {
                    match outcome {
                        Outcome::Completed => first_attempt.completed += 1,
                        Outcome::Rejected(429) => first_attempt.rejected_429 += 1,
                        Outcome::Rejected(_) => first_attempt.rejected_503 += 1,
                        Outcome::Aborted => first_attempt.aborted += 1,
                        Outcome::DeadlineExceeded => first_attempt.deadline_exceeded += 1,
                        Outcome::TransportError => first_attempt.transport_errors += 1,
                    }
                }
                // Retry decision: retryable failure, attempts left,
                // budget left.
                if outcome.retryable()
                    && conn.attempt < cfg.retries
                    && retry_budget_allows(&retry, submitted, cfg.retry_budget)
                {
                    retry.retries_sent += 1;
                    let hint = conn
                        .parser
                        .header("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok());
                    pending_retries.push((
                        Instant::now() + backoff_delay(conn.attempt, hint, &mut rng),
                        conn.attempt + 1,
                    ));
                    return false;
                }
                if outcome.retryable() && conn.attempt < cfg.retries && cfg.retries > 0 {
                    retry.budget_exhausted += 1;
                }
                match outcome {
                    Outcome::Completed => {
                        counts[0] += 1;
                        if conn.attempt == 0 {
                            retry.completed_first_try += 1;
                        } else {
                            retry.completed_after_retry += 1;
                        }
                        if let Some(t) = conn.ttft_secs {
                            ttfts.push(t);
                        }
                        tbts.append(&mut conn.tbt_samples);
                    }
                    Outcome::Rejected(429) => counts[1] += 1,
                    Outcome::Rejected(_) => counts[2] += 1,
                    Outcome::Aborted => counts[3] += 1,
                    Outcome::DeadlineExceeded => deadline_exceeded += 1,
                    Outcome::TransportError => transport_errors += 1,
                }
                false
            }
        });

        let now = Instant::now();
        if now >= deadline && conns.is_empty() && pending_retries.is_empty() {
            break;
        }
        if now >= drain_deadline {
            transport_errors += conns.len() as u64 + pending_retries.len() as u64;
            conns.clear();
            pending_retries.clear();
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(300));
        }
    }

    let wall_secs = epoch.elapsed().as_secs_f64();
    Ok(LoadReport {
        submitted,
        completed: counts[0],
        rejected_429: counts[1],
        rejected_503: counts[2],
        aborted: counts[3],
        deadline_exceeded,
        transport_errors,
        first_attempt,
        retry,
        ttft: Percentiles::summarize(&ttfts),
        tbt: Percentiles::summarize(&tbts),
        goodput_rps: if wall_secs > 0.0 {
            counts[0] as f64 / wall_secs
        } else {
            0.0
        },
        wall_secs,
        peak_concurrent,
    })
}

/// True while total retries stay under `budget × first-attempt arrivals`
/// (at least one retry is always allowed once something was submitted).
fn retry_budget_allows(retry: &RetryStats, submitted: u64, budget: f64) -> bool {
    if submitted == 0 {
        return false;
    }
    (retry.retries_sent as f64) < (budget * submitted as f64).max(1.0)
}

enum Sweep {
    KeepIdle,
    KeepProgress,
    Finish(Outcome),
}

/// Advances one connection: flush pending request bytes, read whatever
/// arrived, decode SSE events, decide whether the stream is over.
fn sweep(conn: &mut Conn, buf: &mut [u8]) -> Sweep {
    let mut progressed = false;
    // Write the request (usually completes in one call on localhost).
    while conn.written < conn.out.len() {
        match conn.sock.write(&conn.out[conn.written..]) {
            Ok(0) => return Sweep::Finish(Outcome::TransportError),
            Ok(n) => {
                conn.written += n;
                progressed = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Sweep::Finish(Outcome::TransportError),
        }
    }
    // Read whatever the server has produced.
    loop {
        match conn.sock.read(buf) {
            Ok(0) => {
                // Server closed: terminal state must already be known.
                return Sweep::Finish(conn.finished.unwrap_or(Outcome::TransportError));
            }
            Ok(n) => {
                progressed = true;
                if conn.parser.feed(&buf[..n]).is_err() {
                    return Sweep::Finish(Outcome::TransportError);
                }
                match conn.parser.status() {
                    None => {}
                    Some(200) => {
                        let body = conn.parser.take_body();
                        for ev in conn.sse.feed(&body) {
                            if ev.event.as_deref() == Some("deadline-exceeded") {
                                conn.finished = Some(Outcome::DeadlineExceeded);
                            } else if ev.event.as_deref() == Some("error") {
                                conn.finished = Some(Outcome::Aborted);
                            } else if ev.data == api::DONE_SENTINEL {
                                conn.finished = Some(Outcome::Completed);
                            } else {
                                let now = Instant::now();
                                if let Some(prev) = conn.last_token {
                                    conn.tbt_samples
                                        .push(now.duration_since(prev).as_secs_f64());
                                } else {
                                    conn.ttft_secs =
                                        Some(now.duration_since(conn.started).as_secs_f64());
                                }
                                conn.last_token = Some(now);
                            }
                        }
                    }
                    // Non-200: drain to the end of the body, then record
                    // the rejection (429/503 are the typed overload
                    // answers; anything else is a transport error).
                    Some(status) if conn.parser.is_done() => {
                        let outcome = match status {
                            429 | 503 => Outcome::Rejected(status),
                            _ => Outcome::TransportError,
                        };
                        return Sweep::Finish(outcome);
                    }
                    Some(_) => {}
                }
                if conn.parser.is_done() {
                    if let Some(outcome) = conn.finished {
                        return Sweep::Finish(outcome);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Sweep::Finish(Outcome::TransportError),
        }
    }
    if progressed {
        Sweep::KeepProgress
    } else {
        Sweep::KeepIdle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predraw_is_capped() {
        assert_eq!(predraw_len(40.0, 5.0), 464);
        assert_eq!(predraw_len(0.5, 0.1), 64);
        assert_eq!(predraw_len(1e6, 1e6), MAX_PREDRAWN_GAPS);
        // Representable as a `Duration`, and a multi-terabyte pre-draw
        // before the cap.
        assert_eq!(predraw_len(1e3, 1e12), MAX_PREDRAWN_GAPS);
        assert_eq!(predraw_len(f64::MAX, f64::MAX), MAX_PREDRAWN_GAPS);
    }
}
