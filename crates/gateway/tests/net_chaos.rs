//! Chaos integration suite: a real gateway on an ephemeral port with
//! seeded network faults injected at the socket layer. Every preset
//! must leave the gateway alive and healthy once its fault window
//! closes; fault injection itself must be a deterministic function of
//! the seed; deadlines, disconnect reclamation, circuit breaking, and
//! graceful drain are each exercised over actual TCP.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde_json::Value;
use windserve::{ServeConfig, SystemKind};
use windserve_faults::{NetFaultPlan, NET_PRESETS};
use windserve_gateway::http::{HttpRequest, ResponseParser};
use windserve_gateway::loadgen::{self, LoadgenConfig};
use windserve_gateway::server::{Gateway, GatewayConfig, GatewayReport};
use windserve_gateway::sse::SseParser;

fn chaos_gateway(plan: NetFaultPlan, time_scale: f64) -> Gateway {
    let mut gc = GatewayConfig::local(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    gc.time_scale = time_scale;
    gc.net_faults = Some(plan);
    Gateway::start(gc).expect("gateway must start")
}

fn completion_request(body: &str) -> HttpRequest {
    HttpRequest::new("POST", "/v1/completions", body.as_bytes().to_vec())
}

/// Like a normal round trip, but tolerant of injected connection
/// faults: a reset, a panicked worker, or a torn stream returns `None`
/// instead of panicking the test.
fn try_exchange(addr: std::net::SocketAddr, req: &HttpRequest) -> Option<ResponseParser> {
    let mut sock = TcpStream::connect(addr).ok()?;
    sock.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    sock.write_all(&req.encode()).ok()?;
    let mut parser = ResponseParser::new();
    let mut buf = [0u8; 4096];
    loop {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => parser.feed(&buf[..n]).ok()?,
            Err(_) => return None,
        }
    }
    Some(parser)
}

/// Every preset: fault the first connections, then serve clean traffic.
/// The gateway must never crash, must keep answering `/healthz` 200,
/// and must report `healthy` at shutdown — chaos is survivable and
/// recovery is observable.
#[test]
fn every_preset_survives_its_fault_window_and_recovers() {
    for preset in NET_PRESETS {
        let plan = NetFaultPlan::from_preset(preset, 42)
            .expect("registered preset")
            .with_fault_window(48);
        let gw = chaos_gateway(plan, 1000.0);
        let report = loadgen::run(&LoadgenConfig {
            addr: gw.addr().to_string(),
            rate: 150.0,
            duration_secs: 0.6,
            prompt_tokens: 48,
            output_tokens: 4,
            seed: 7,
            retries: 3,
            retry_budget: 1.0,
        })
        .expect("loadgen runs");
        assert!(report.submitted > 0, "{preset}: open loop must inject");
        assert!(
            report.completed > 0,
            "{preset}: goodput must survive chaos: {report:?}"
        );
        // Past the fault window every connection is clean again.
        let parser = try_exchange(gw.addr(), &HttpRequest::new("GET", "/healthz", Vec::new()))
            .expect("clean connection past the fault window");
        assert_eq!(parser.status(), Some(200), "{preset}");
        let server: GatewayReport = gw.shutdown();
        assert!(
            server.driver.error.is_none(),
            "{preset}: driver must survive: {:?}",
            server.driver.error
        );
        assert_eq!(server.final_health, "healthy", "{preset}");
        assert!(
            !server.net_faults.is_empty(),
            "{preset}: the window must actually inject faults"
        );
    }
}

/// Fault injection is a pure function of (seed, connection id): two
/// gateways with the same plan, driven by the same ordered connection
/// sequence, log byte-identical fault records.
#[test]
fn the_same_seed_injects_an_identical_fault_log() {
    let run = || {
        let gw = chaos_gateway(NetFaultPlan::chaos(9), 1000.0);
        let addr = gw.addr();
        // Sequential connections so ids arrive in the same order.
        for _ in 0..40 {
            let _ = try_exchange(addr, &HttpRequest::new("GET", "/healthz", Vec::new()));
        }
        gw.shutdown().net_faults
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty(), "chaos at p≈0.38 over 40 conns must fire");
    assert_eq!(
        first.len(),
        second.len(),
        "same seed, same count: {first:?} vs {second:?}"
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.conn, b.conn, "same connections faulted");
        assert_eq!(a.kind, b.kind, "same fault kinds");
    }
}

/// A client-supplied `x-request-timeout-ms` budget kills a stream that
/// cannot finish in time with a typed `deadline-exceeded` terminal SSE
/// event, and the driver accounts for it.
#[test]
fn request_deadlines_surface_as_typed_sse_terminals() {
    // Freeze virtual time: tokens can never arrive, only the deadline.
    let mut gc = GatewayConfig::local(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    gc.time_scale = 1e-6;
    let gw = Gateway::start(gc).unwrap();
    let mut req = completion_request(r#"{"prompt_tokens": 64, "max_tokens": 8, "stream": true}"#);
    req.headers
        .push(("x-request-timeout-ms".to_string(), "50".to_string()));
    let mut parser = try_exchange(gw.addr(), &req).expect("no faults injected here");
    assert_eq!(parser.status(), Some(200), "admitted before the deadline");
    assert!(parser.is_done(), "deadline must terminate the stream");
    let mut sse = SseParser::new();
    let events = sse.feed(&parser.take_body());
    assert!(
        events
            .iter()
            .any(|e| e.event.as_deref() == Some("deadline-exceeded")),
        "typed terminal event expected: {events:?}"
    );
    let report = gw.shutdown();
    assert_eq!(report.driver.deadline_exceeded, 1);
    assert_eq!(report.driver.completed, 0);
}

/// A client that walks away mid-stream costs nothing but its own
/// stream: the driver's flush meets the dead socket and reclaims the
/// routing entry, and the next request is served normally.
#[test]
fn mid_stream_disconnects_are_reclaimed_and_service_continues() {
    let mut gc = GatewayConfig::local(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    gc.time_scale = 20.0; // slow enough that 512 tokens outlive the client
    let gw = Gateway::start(gc).unwrap();
    let addr = gw.addr();
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.write_all(
        &completion_request(r#"{"prompt_tokens": 64, "max_tokens": 512, "stream": true}"#).encode(),
    )
    .unwrap();
    // Read the response head so the stream is registered, then vanish.
    let mut head = [0u8; 64];
    sock.read_exact(&mut head).unwrap();
    drop(sock);
    // Give the driver's flush time to hit the dead socket and close the
    // stream.
    std::thread::sleep(Duration::from_millis(800));
    let parser = try_exchange(
        addr,
        &completion_request(r#"{"prompt_tokens": 32, "max_tokens": 2, "stream": true}"#),
    )
    .expect("service continues after a disconnect");
    assert_eq!(parser.status(), Some(200));
    let report = gw.shutdown();
    assert_eq!(
        report.driver.disconnected, 1,
        "the torn stream must be reclaimed: {report:?}"
    );
}

/// Eight consecutive admission failures trip the circuit breaker: the
/// next request fast-fails `503 breaker-open` with a `Retry-After`
/// hint, without touching the driver.
#[test]
fn consecutive_admission_failures_open_the_breaker() {
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.overload = Some(windserve::OverloadConfig {
        max_queued_requests: Some(1),
        ..Default::default()
    });
    let mut gc = GatewayConfig::local(cfg);
    gc.time_scale = 1e-6; // freeze: the parked request stays resident
    let gw = Gateway::start(gc).unwrap();
    let addr = gw.addr();
    // Park one admitted stream to hold the queue at its cap.
    let mut parked = TcpStream::connect(addr).unwrap();
    parked
        .write_all(
            &completion_request(r#"{"prompt_tokens": 64, "max_tokens": 4, "stream": true}"#)
                .encode(),
        )
        .unwrap();
    let mut head = [0u8; 1];
    parked.read_exact(&mut head).unwrap();
    // Burn through the breaker threshold with typed 429s.
    let reject = completion_request(r#"{"prompt_tokens": 64, "max_tokens": 4}"#);
    for i in 0..8 {
        let parser = try_exchange(addr, &reject).expect("rejections answer");
        assert_eq!(parser.status(), Some(429), "failure {i} is a plain 429");
    }
    // The breaker is now open: fast-fail without reaching admission.
    let mut parser = try_exchange(addr, &reject).expect("fast-fail answers");
    assert_eq!(parser.status(), Some(503));
    assert!(parser.header("retry-after").is_some(), "backoff hint");
    let v: Value = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(v["error"]["type"].as_str(), Some("breaker-open"));
    drop(parked);
    let report = gw.shutdown();
    assert_eq!(report.driver.rejected, 8, "the fast-fail never submitted");
}

/// Graceful drain: in-flight streams run to completion while new work
/// is refused with a typed `503 draining` + `Retry-After`, and
/// `/healthz` flips to 503 so load balancers stop routing here.
#[test]
fn drain_finishes_in_flight_streams_and_refuses_new_work() {
    let mut gc = GatewayConfig::local(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    gc.time_scale = 100.0;
    let gw = Gateway::start(gc).unwrap();
    let addr = gw.addr();
    // Open a long stream, confirm it is live, then start draining.
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    sock.write_all(
        &completion_request(r#"{"prompt_tokens": 64, "max_tokens": 64, "stream": true}"#).encode(),
    )
    .unwrap();
    let mut head = [0u8; 1];
    sock.read_exact(&mut head).unwrap();
    gw.drain();
    // New admissions now fast-fail with the typed drain response…
    let mut parser = try_exchange(
        addr,
        &completion_request(r#"{"prompt_tokens": 32, "max_tokens": 2}"#),
    )
    .expect("drain still answers");
    assert_eq!(parser.status(), Some(503));
    assert!(parser.header("retry-after").is_some());
    let v: Value = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(v["error"]["type"].as_str(), Some("draining"));
    // …and the health probe tells balancers to route elsewhere.
    let parser = try_exchange(addr, &HttpRequest::new("GET", "/healthz", Vec::new()))
        .expect("healthz answers during drain");
    assert_eq!(parser.status(), Some(503));
    // The in-flight stream still runs to its natural end.
    let mut parser = ResponseParser::new();
    parser.feed(&head).unwrap();
    let mut buf = [0u8; 4096];
    loop {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => parser.feed(&buf[..n]).expect("clean stream"),
            Err(e) => panic!("in-flight stream torn during drain: {e}"),
        }
    }
    let mut sse = SseParser::new();
    let events = sse.feed(&parser.take_body());
    assert_eq!(
        events.last().map(|e| e.data.as_str()),
        Some("[DONE]"),
        "in-flight stream must complete: {events:?}"
    );
    let report = gw.shutdown();
    assert_eq!(report.final_health, "draining");
    assert_eq!(report.driver.completed, 1);
    assert_eq!(report.driver.aborted, 0);
}
