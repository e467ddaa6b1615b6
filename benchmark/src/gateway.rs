//! The live-gateway workload: the shipped `windserve serve` binary, spawned
//! as deployed and driven over TCP by the benchmark's own client from one
//! process with two threads, each holding at most one connection.

use crate::client::{Frame, ResponseParser};
use crate::output::{self, Outcome};
use crate::spans::Spans;
use crate::stats::{self, Summary};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use windserve_sim::SimRng;

/// Virtual seconds per wall second (the `serve` default, passed
/// explicitly because token lag is computed from it).
const TIME_SCALE: f64 = 100.0;
const CLIENT_THREADS: usize = 2;
/// Open-loop Poisson rate of the base phase, requests per second.
const BASE_RATE: f64 = 300.0;
const PROMPT_TOKENS: u32 = 128;
const MAX_TOKENS: usize = 8;
/// Server start-ups timed for `setup_s`; the last one serves the load.
const SETUP_SPAWNS: usize = 7;
/// Leading part of the open-loop schedule that warms the server up and is
/// left out of every metric.
const WARMUP_SECS: f64 = 0.5;
/// Share of `--seconds` spent in the open-loop base phase; the rest is
/// the closed-loop capacity phase.
const BASE_SHARE: f64 = 0.6;
/// Length of the windows the open-loop latency percentiles are taken in.
const WINDOW_SECS: f64 = 0.5;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub const NAME: &str = "gateway_stream";

/// A spawned `windserve serve`; killed and reaped on drop unless it was
/// shut down gracefully first.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Drains the server's stderr so the pipe never fills.
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its first `200` on `/healthz`;
    /// returns it with the seconds that took.
    fn spawn(bin: &Path) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0", "--workers", "4", "--json"])
            .args(["--time-scale", &TIME_SCALE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        // The listener announces its ephemeral port on stderr.
        let line = rx
            .recv_timeout(IO_TIMEOUT)
            .map_err(|_| "the server never announced its address".to_string())?;
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected announcement {line:?}"))?;
        while healthz(server.addr) != Some(200) {
            if start.elapsed() > IO_TIMEOUT {
                return Err("/healthz never answered 200".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        output::peak_rss_mb(&self.child.id().to_string())
    }

    /// SIGTERM (graceful drain), then the `--json` shutdown envelope.
    fn terminate(mut self) -> Result<Value, String> {
        sigterm(self.child.id())?;
        let mut text = String::new();
        if let Some(mut stdout) = self.child.stdout.take() {
            stdout
                .read_to_string(&mut text)
                .map_err(|e| format!("read envelope: {e}"))?;
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(format!("serve exited with {status}"));
        }
        serde_json::from_str(text.trim()).map_err(|e| format!("envelope {text:?}: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// Sends SIGTERM to a child process.
#[allow(unsafe_code)]
fn sigterm(pid: u32) -> Result<(), String> {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: `kill` is libc's function of exactly this signature; it takes
    // two integers and touches no memory of this process. The pid is our
    // own unreaped child, so it cannot name a recycled process.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(format!("kill: {}", std::io::Error::last_os_error()))
    }
}

/// One plain GET; the status code, or `None` on any transport error.
fn get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    let mut sock = TcpStream::connect(addr).ok()?;
    sock.set_read_timeout(Some(IO_TIMEOUT)).ok()?;
    write!(
        sock,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut text = String::new();
    sock.read_to_string(&mut text).ok()?;
    let code = text.get(9..12)?.parse().ok()?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string())?;
    Some((code, body))
}

fn healthz(addr: SocketAddr) -> Option<u16> {
    get(addr, "/healthz").map(|(code, _)| code)
}

/// Client-side timestamps of one streamed completion.
#[derive(Debug, Clone)]
struct Record {
    thread: usize,
    /// When the open-loop schedule said to send it.
    due: Instant,
    /// When a client thread began sending it.
    start: Instant,
    written: Instant,
    status: Instant,
    /// Receipt time and `virtual_time_secs` of each token event.
    tokens: Vec<(Instant, f64)>,
    done: Instant,
    eof: Instant,
    error: Option<String>,
}

impl Record {
    fn first_token(&self) -> Instant {
        self.tokens.first().map_or(self.done, |t| t.0)
    }

    fn last_token(&self) -> Instant {
        self.tokens.last().map_or(self.done, |t| t.0)
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Sends one streamed completion and reads it to EOF, checking the
/// stream: exactly `MAX_TOKENS` token events with indices `0..MAX_TOKENS`
/// in order, virtual time never decreasing, then `[DONE]` and the final
/// chunk.
fn stream_one(addr: SocketAddr, due: Instant, thread: usize) -> Record {
    let start = Instant::now();
    let mut rec = Record {
        thread,
        due,
        start,
        written: start,
        status: start,
        tokens: Vec::with_capacity(MAX_TOKENS),
        done: start,
        eof: start,
        error: None,
    };
    if let Err(e) = exchange(addr, &mut rec) {
        rec.error = Some(e);
    }
    rec
}

fn exchange(addr: SocketAddr, rec: &mut Record) -> Result<(), String> {
    let body =
        format!(r#"{{"prompt_tokens":{PROMPT_TOKENS},"max_tokens":{MAX_TOKENS},"stream":true}}"#);
    let request = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    sock.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    sock.write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    rec.written = Instant::now();
    let mut parser = ResponseParser::default();
    let mut buf = [0u8; 4096];
    let (mut saw_done, mut saw_end) = (false, false);
    loop {
        let n = sock.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        let now = Instant::now();
        if n == 0 {
            rec.eof = now;
            break;
        }
        for frame in parser.feed(&buf[..n])? {
            match frame {
                Frame::Status(200) => rec.status = now,
                Frame::Status(code) => return Err(format!("status {code}")),
                Frame::Event {
                    name: Some(name), ..
                } => return Err(format!("stream ended by a {name:?} event")),
                Frame::End => saw_end = true,
                _ if saw_done => return Err("an event after [DONE]".to_string()),
                Frame::Event { data, .. } if data == "[DONE]" => {
                    rec.done = now;
                    saw_done = true;
                }
                Frame::Event { data, .. } => {
                    let token: Value = serde_json::from_str(&data)
                        .map_err(|e| format!("token event {data:?}: {e}"))?;
                    let index = token["token_index"].as_u64();
                    let vt = token["virtual_time_secs"].as_f64();
                    let (Some(index), Some(vt)) = (index, vt) else {
                        return Err(format!("token event without index or time: {data}"));
                    };
                    if index != rec.tokens.len() as u64 {
                        return Err(format!(
                            "token {index} arrived in position {}",
                            rec.tokens.len()
                        ));
                    }
                    if rec.tokens.last().is_some_and(|&(_, prev)| vt < prev) {
                        return Err(format!("virtual time went backwards at token {index}"));
                    }
                    rec.tokens.push((now, vt));
                }
            }
        }
    }
    if rec.tokens.len() != MAX_TOKENS || !saw_done || !saw_end {
        return Err(format!(
            "stream closed after {} tokens (done: {saw_done}, final chunk: {saw_end})",
            rec.tokens.len()
        ));
    }
    Ok(())
}

/// Open loop: requests are due on a fixed schedule (offsets from `origin`)
/// whatever the server does; a request waits when both threads are busy.
fn open_loop(addr: SocketAddr, origin: Instant, schedule: &[f64]) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENT_THREADS)
            .map(|thread| {
                let next = &next;
                s.spawn(move || {
                    let mut records = Vec::new();
                    while let Some(&offset) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let due = origin + Duration::from_secs_f64(offset);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        records.push(stream_one(addr, due, thread));
                    }
                    records
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Closed loop: each thread sends its next request as soon as the
/// previous one ends, until `until`.
fn closed_loop(addr: SocketAddr, until: Instant) -> Vec<Record> {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENT_THREADS)
            .map(|thread| {
                s.spawn(move || {
                    let mut records = Vec::new();
                    while Instant::now() < until {
                        records.push(stream_one(addr, Instant::now(), thread));
                    }
                    records
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Poisson arrival offsets in seconds, from `seed`, up to `secs`.
fn schedule(seed: u64, secs: f64) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.next_exp(BASE_RATE);
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

pub struct GatewayOptions<'a> {
    pub bin: &'a Path,
    pub seed: u64,
    pub seconds: f64,
}

pub fn run(opts: &GatewayOptions, spans: Option<&mut Spans>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(opts, spans, &mut out) {
        out.problems.push(format!("{NAME}: {e}"));
    }
    out
}

fn measure(
    opts: &GatewayOptions,
    spans: Option<&mut Spans>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        let (s, secs) = Server::spawn(opts.bin)?;
        setup.push(secs);
        if i + 1 < SETUP_SPAWNS {
            let envelope = s.terminate()?;
            check_envelope(&envelope, 0, out);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one spawn");
    let addr = server.addr;

    let base_secs = opts.seconds * BASE_SHARE;
    let plan = schedule(opts.seed, WARMUP_SECS + base_secs);
    let origin = Instant::now();
    let warm_end = origin + Duration::from_secs_f64(WARMUP_SECS);
    let mut open = open_loop(addr, origin, &plan);
    open.sort_by_key(|r| r.due);
    let cap_start = Instant::now();
    let closed = closed_loop(
        addr,
        cap_start + Duration::from_secs_f64(opts.seconds - base_secs),
    );
    let cap_end = closed
        .iter()
        .map(|r| r.eof.max(r.done))
        .max()
        .unwrap_or(cap_start);

    let status = get(addr, "/v1/cluster/status")
        .filter(|(code, _)| *code == 200)
        .and_then(|(_, body)| serde_json::from_str::<Value>(&body).ok());
    let rss = server.peak_rss_mb();
    let envelope = server.terminate()?;

    let all: Vec<&Record> = open.iter().chain(&closed).collect();
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|r| r.error.is_some()).count() as u64;
    for (i, r) in all
        .iter()
        .enumerate()
        .filter(|(_, r)| r.error.is_some())
        .take(5)
    {
        out.problems.push(format!(
            "{NAME}: request {i}: {}",
            r.error.as_deref().unwrap_or("")
        ));
    }
    check_envelope(&envelope, out.attempted - out.failed, out);

    let base: Vec<&Record> = open
        .iter()
        .filter(|r| r.due >= warm_end && r.error.is_none())
        .collect();
    let served = closed.iter().filter(|r| r.error.is_none()).count();
    let m = &mut out.metrics;
    m.put("setup_s", stats::median(&setup));
    m.put(
        "req_per_s",
        served as f64 / (cap_end - cap_start).as_secs_f64(),
    );
    m.put("latency_p50_ms", windowed(&base, warm_end, 50.0));
    m.put("latency_p90_ms", windowed(&base, warm_end, 90.0));
    m.put_opt("peak_rss_mb", rss);
    stage_metrics(&base, &envelope, status.as_ref(), out);
    eprintln!(
        "{NAME}: {} open-loop requests at {BASE_RATE} req/s ({} measured), {} closed-loop requests",
        open.len(),
        base.len(),
        closed.len()
    );

    if let Some(spans) = spans {
        let t = Instant::now();
        record_spans(spans, &all);
        let built = t.elapsed().as_secs_f64();
        let measured = (cap_end - origin).as_secs_f64();
        out.metrics
            .put("bench.span_overhead_pct", built / measured * 100.0);
    }
    Ok(())
}

/// A request-latency percentile (due → `[DONE]`) per half-second window of
/// due times, lower quartile over the windows. Other tenants steal the
/// host's two cores in bursts that inflate the tail of many windows; a
/// slower gateway inflates every window. Windows with fewer than ten
/// samples beyond the percentile are skipped.
fn windowed(records: &[&Record], origin: Instant, pct: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for r in records {
        let w = (r.due.saturating_duration_since(origin).as_secs_f64() / WINDOW_SECS) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(ms(r.due, r.done));
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() as f64 * (1.0 - pct / 100.0) >= 10.0 - 1e-9)
        .map(|w| stats::percentile(&stats::sorted(w), pct))
        .collect();
    stats::quartiles(&per_window)[0]
}

/// The shutdown envelope must report a graceful drain with every stream
/// the client completed, and nothing lost.
fn check_envelope(envelope: &Value, completed: u64, out: &mut Outcome) {
    let report = &envelope["report"];
    out.check(report["drained"].as_bool() == Some(true), || {
        format!("{NAME}: server did not report a graceful drain: {envelope}")
    });
    out.check(report["completed"].as_u64() == Some(completed), || {
        format!(
            "{NAME}: server completed {} streams, client completed {completed}",
            report["completed"]
        )
    });
    out.check(report["error"].is_null(), || {
        format!("{NAME}: server error {}", report["error"])
    });
}

fn stage_metrics(base: &[&Record], envelope: &Value, status: Option<&Value>, out: &mut Outcome) {
    let summary =
        |f: &dyn Fn(&Record) -> f64| Summary::of(&base.iter().map(|r| f(r)).collect::<Vec<_>>());
    let connect = summary(&|r| ms(r.start, r.written));
    let admit = summary(&|r| ms(r.written, r.status));
    let first = summary(&|r| ms(r.status, r.first_token()));
    let close = summary(&|r| ms(r.done, r.eof));
    let send_lag = summary(&|r| ms(r.due, r.start));
    let ttft = summary(&|r| ms(r.due, r.first_token()));
    let tpot = summary(&|r| ms(r.first_token(), r.last_token()) / (MAX_TOKENS - 1) as f64);
    // Token receipt minus the token's virtual stamp mapped to wall time;
    // the clocks' common offset is unknown, so the run minimum is removed.
    let origin = base.first().map_or_else(Instant::now, |r| r.due);
    let raw: Vec<f64> = base
        .iter()
        .flat_map(|r| r.tokens.iter())
        .map(|&(at, vt)| (at - origin).as_secs_f64() * 1e3 - vt / TIME_SCALE * 1e3)
        .collect();
    let floor = raw.iter().copied().fold(f64::INFINITY, f64::min);
    let lag = Summary::of(&raw.iter().map(|x| x - floor).collect::<Vec<_>>());
    let report = &envelope["report"];
    let m = &mut out.metrics;
    m.put("gateway.connect_ms.p50", connect.p50);
    m.put("gateway.connect_ms.p90", connect.p90);
    m.put("gateway.admit_ms.p50", admit.p50);
    m.put("gateway.admit_ms.p90", admit.p90);
    m.put("gateway.first_token_ms.p50", first.p50);
    m.put("gateway.first_token_ms.p90", first.p90);
    m.put("gateway.token_lag_ms.p50", lag.p50);
    m.put("gateway.token_lag_ms.p90", lag.p90);
    m.put("gateway.close_ms.p50", close.p50);
    m.put_opt("gateway.rejected", report["rejected"].as_f64());
    m.put_opt(
        "gateway.deadline_exceeded",
        report["deadline_exceeded"].as_f64(),
    );
    m.put_opt("gateway.worker_panics", report["worker_panics"].as_f64());
    m.put("client.samples", base.len() as f64);
    m.put("client.send_lag_ms.p50", send_lag.p50);
    m.put_opt("client.send_lag_ms.tail", send_lag.tail.map(|t| t.1));
    m.put("client.ttft_ms.p50", ttft.p50);
    m.put("client.ttft_ms.p90", ttft.p90);
    m.put_opt("client.ttft_ms.tail", ttft.tail.map(|t| t.1));
    m.put("client.tpot_ms.p50", tpot.p50);
    m.put("client.tpot_ms.p90", tpot.p90);
    if let Some((pct, v)) = ttft.tail {
        eprintln!(
            "{NAME}: client TTFT p{pct} = {v:.3} ms over {} samples",
            ttft.n
        );
    }
    let snap = status.map(|s| &s["report"]["snapshot"]);
    let num = |key: &str| snap.and_then(|s| s[key].as_f64());
    m.put_opt("workload.requests", Some(out.attempted as f64));
    m.put_opt("core.peak_pending", num("peak_pending"));
    m.put_opt(
        "sim.events_per_req",
        num("events_processed")
            .zip(num("completed_requests"))
            .map(|(e, c)| e / c.max(1.0)),
    );
    m.put_opt("kvcache.prefix_hit_rate", num("prefix_hit_rate"));
    m.put_opt(
        "kvcache.prefix_probes",
        num("prefix_hits")
            .zip(num("prefix_misses"))
            .map(|(h, m)| h + m),
    );
}

/// One root span per request (due → EOF) with its stages as children, all
/// tagged with the request's id.
fn record_spans(spans: &mut Spans, records: &[&Record]) {
    for (id, r) in records.iter().enumerate() {
        let tid = r.thread as u64 + 1;
        let args = || vec![("req", id as f64)];
        let root = spans.record("request", (r.due, r.eof.max(r.done)), tid, None, args());
        for (name, span) in [
            ("client-queue", (r.due, r.start)),
            ("connect", (r.start, r.written)),
            ("admit", (r.written, r.status)),
            ("first-token", (r.status, r.first_token())),
            ("stream", (r.first_token(), r.done)),
            ("close", (r.done, r.eof)),
        ] {
            spans.record(name, span, tid, Some(root), args());
        }
    }
}
