//! End-to-end tests: a real gateway on an ephemeral port, exercised over
//! actual TCP sockets — streamed completions, control-plane status,
//! typed overload rejections, and clean shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde_json::Value;
use windserve::{ServeConfig, SystemKind};
use windserve_gateway::http::{HttpRequest, ResponseParser};
use windserve_gateway::loadgen::{self, LoadgenConfig};
use windserve_gateway::server::{Gateway, GatewayConfig};
use windserve_gateway::sse::SseParser;
use windserve_gateway::ENVELOPE_SCHEMA_VERSION;

fn start_gateway(cfg: ServeConfig) -> Gateway {
    let mut gw = GatewayConfig::local(cfg);
    gw.time_scale = 1000.0; // finish simulated requests in milliseconds
    Gateway::start(gw).expect("gateway must start on an ephemeral port")
}

/// One blocking round trip: send `req`, read to EOF, return the parsed
/// response.
fn exchange(addr: std::net::SocketAddr, req: &HttpRequest) -> ResponseParser {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    sock.write_all(&req.encode()).expect("write request");
    let mut parser = ResponseParser::new();
    let mut buf = [0u8; 4096];
    loop {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => parser.feed(&buf[..n]).expect("well-formed response"),
            Err(e) => panic!("read: {e}"),
        }
    }
    parser
}

fn completion_request(body: &str) -> HttpRequest {
    HttpRequest::new("POST", "/v1/completions", body.as_bytes().to_vec())
}

#[test]
fn streamed_completion_delivers_ordered_tokens_then_done() {
    let gw = start_gateway(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    let addr = gw.addr();
    let mut parser = exchange(
        addr,
        &completion_request(r#"{"prompt_tokens": 64, "max_tokens": 8, "stream": true}"#),
    );
    assert_eq!(parser.status(), Some(200));
    assert!(parser.is_done(), "chunked stream must terminate");
    let mut sse = SseParser::new();
    let events = sse.feed(&parser.take_body());
    assert_eq!(events.len(), 9, "8 tokens + [DONE]: {events:?}");
    for (i, ev) in events.iter().take(8).enumerate() {
        let v: Value = serde_json::from_str(&ev.data).expect("token event JSON");
        assert_eq!(v["token_index"].as_u64(), Some(i as u64), "ordering");
        assert_eq!(v["object"].as_str(), Some("completion.chunk"));
        assert!(v["virtual_time_secs"].as_f64().unwrap() >= 0.0);
    }
    assert_eq!(events[8].data, "[DONE]");
    let report = gw.shutdown();
    assert_eq!(report.driver.submitted, 1);
    assert_eq!(report.driver.completed, 1);
    assert!(report.driver.error.is_none(), "{:?}", report.driver.error);
}

#[test]
fn unary_completion_reports_usage_and_latency() {
    let gw = start_gateway(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    let mut parser = exchange(
        gw.addr(),
        &completion_request(r#"{"prompt_tokens": 32, "max_tokens": 4}"#),
    );
    assert_eq!(parser.status(), Some(200));
    let v: Value = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(v["object"].as_str(), Some("completion"));
    assert_eq!(v["usage"]["prompt_tokens"].as_u64(), Some(32));
    assert_eq!(v["usage"]["completion_tokens"].as_u64(), Some(4));
    assert!(v["latency_virtual_secs"].as_f64().unwrap() > 0.0);
    assert!(
        v["ttft_virtual_secs"].as_f64().unwrap() <= v["latency_virtual_secs"].as_f64().unwrap()
    );
    gw.shutdown();
}

#[test]
fn cluster_status_reflects_live_completions_in_the_envelope() {
    let gw = start_gateway(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    let addr = gw.addr();
    // Before any traffic: zero completions, full registry.
    let mut parser = exchange(
        addr,
        &HttpRequest::new("GET", "/v1/cluster/status", Vec::new()),
    );
    assert_eq!(parser.status(), Some(200));
    let v: Value = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(v["schema_version"].as_u64(), Some(ENVELOPE_SCHEMA_VERSION));
    assert_eq!(v["command"].as_str(), Some("cluster-status"));
    let report = &v["report"];
    assert_eq!(report["snapshot"]["completed_requests"].as_u64(), Some(0));
    assert!(!report["nodes"].as_array().unwrap().is_empty());
    assert!(!report["endpoints"].as_array().unwrap().is_empty());
    assert_eq!(report["placement"]["version"].as_u64(), Some(1));

    // Run one request; the snapshot must move.
    exchange(
        addr,
        &completion_request(r#"{"prompt_tokens": 32, "max_tokens": 2}"#),
    );
    let mut parser = exchange(
        addr,
        &HttpRequest::new("GET", "/v1/cluster/status", Vec::new()),
    );
    let v: Value = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(
        v["report"]["snapshot"]["completed_requests"].as_u64(),
        Some(1),
        "status must reflect live sim state"
    );
    gw.shutdown();
}

#[test]
fn overload_rejections_are_typed_429s() {
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    cfg.overload = Some(windserve::OverloadConfig {
        max_queued_requests: Some(1),
        ..Default::default()
    });
    let mut gw = GatewayConfig::local(cfg);
    // Freeze virtual time so the first request stays resident while the
    // second arrives over the admission cap.
    gw.time_scale = 1e-6;
    let gw = Gateway::start(gw).unwrap();
    let addr = gw.addr();
    // Park one streamed request (don't read it to completion).
    let mut first = TcpStream::connect(addr).unwrap();
    first
        .write_all(
            &completion_request(r#"{"prompt_tokens": 64, "max_tokens": 4, "stream": true}"#)
                .encode(),
        )
        .unwrap();
    // Wait for its SSE head so we know it was admitted.
    let mut head = [0u8; 1];
    first.read_exact(&mut head).unwrap();

    let mut parser = exchange(
        addr,
        &completion_request(r#"{"prompt_tokens": 64, "max_tokens": 4, "stream": true}"#),
    );
    assert_eq!(
        parser.status(),
        Some(429),
        "admission cap must surface as 429"
    );
    let v: Value = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(v["error"]["type"].as_str(), Some("queue-full"));
    assert_eq!(v["error"]["code"].as_u64(), Some(429));
    drop(first);
    let report = gw.shutdown();
    assert_eq!(report.driver.rejected, 1);
}

#[test]
fn malformed_and_oversized_requests_are_400s_and_unknown_paths_404() {
    let gw = start_gateway(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    let addr = gw.addr();
    let parser = exchange(addr, &completion_request("not json"));
    assert_eq!(parser.status(), Some(400));

    // A request that cannot fit the model context would never schedule.
    let mut parser = exchange(
        addr,
        &completion_request(r#"{"prompt_tokens": 1000000, "max_tokens": 1000000}"#),
    );
    assert_eq!(parser.status(), Some(400));
    let v: Value = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(v["error"]["type"].as_str(), Some("context-overflow"));

    let parser = exchange(addr, &HttpRequest::new("GET", "/nope", Vec::new()));
    assert_eq!(parser.status(), Some(404));
    let parser = exchange(addr, &HttpRequest::new("DELETE", "/healthz", Vec::new()));
    assert_eq!(parser.status(), Some(405));
    gw.shutdown();
}

#[test]
fn healthz_answers_and_shutdown_is_clean_under_concurrent_streams() {
    let gw = start_gateway(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    let addr = gw.addr();
    let parser = exchange(addr, &HttpRequest::new("GET", "/healthz", Vec::new()));
    assert_eq!(parser.status(), Some(200));

    // A burst of concurrent streamed requests, all read to completion.
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut parser = exchange(
                    addr,
                    &completion_request(
                        r#"{"prompt_tokens": 48, "max_tokens": 4, "stream": true}"#,
                    ),
                );
                assert_eq!(parser.status(), Some(200));
                let mut sse = SseParser::new();
                let events = sse.feed(&parser.take_body());
                assert_eq!(events.last().map(|e| e.data.as_str()), Some("[DONE]"));
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client threads finish");
    }
    let report = gw.shutdown();
    assert_eq!(report.driver.completed, 8);
    assert_eq!(report.driver.aborted, 0);
    assert!(
        report.driver.run_report.is_some(),
        "session must finish cleanly"
    );
}

#[test]
fn loadgen_measures_nonzero_goodput_against_a_live_gateway() {
    let gw = start_gateway(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    let report = loadgen::run(&LoadgenConfig {
        addr: gw.addr().to_string(),
        rate: 100.0,
        duration_secs: 1.0,
        prompt_tokens: 48,
        output_tokens: 4,
        seed: 7,
        ..Default::default()
    })
    .expect("loadgen runs");
    assert!(report.submitted > 0, "open loop must inject arrivals");
    assert!(report.completed > 0, "streams must complete: {report:?}");
    assert!(report.goodput_rps > 0.0);
    assert!(report.ttft.count > 0, "TTFT must be sampled");
    assert!(report.tbt.count > 0, "TBT must be sampled");
    assert_eq!(report.transport_errors, 0, "{report:?}");
    let server = gw.shutdown();
    assert_eq!(server.driver.completed, report.completed);
}

/// A hostile client must cost exactly one `400` (or a closed socket) —
/// never a worker thread, never the driver. Every class of malformed
/// input lands, then a well-formed request must still stream normally.
#[test]
fn malformed_requests_get_typed_errors_and_service_continues() {
    let gw = start_gateway(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    let addr = gw.addr();

    // Invalid JSON body on a valid HTTP request.
    let mut parser = exchange(addr, &completion_request("{this is not json"));
    assert_eq!(parser.status(), Some(400));
    let body: Value =
        serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(body["error"]["type"].as_str(), Some("bad-request"));

    // Valid JSON, unschedulable values (prompt + output past the context).
    let parser = exchange(
        addr,
        &completion_request(r#"{"prompt_tokens": 900000, "max_tokens": 900000}"#),
    );
    assert_eq!(parser.status(), Some(400));

    // A deadline header that is not a whole number of milliseconds.
    for bad in ["soon", "-5"] {
        let mut req = completion_request(r#"{"prompt_tokens": 32, "max_tokens": 2}"#);
        req.headers
            .push(("x-request-timeout-ms".to_string(), bad.to_string()));
        let mut parser = exchange(addr, &req);
        assert_eq!(parser.status(), Some(400), "{bad}");
        let body: Value =
            serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
        assert_eq!(body["error"]["type"].as_str(), Some("bad-request"));
        let message = body["error"]["message"].as_str().unwrap();
        assert!(message.contains("x-request-timeout-ms"), "{message}");
    }

    // Raw garbage that is not HTTP at all: the server answers 400 or
    // just closes the socket; either way it must not hang or die.
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(b"\x00\x01\x02 utter garbage\r\n\r\n")
        .expect("write garbage");
    let mut buf = Vec::new();
    let _ = sock.read_to_end(&mut buf);
    drop(sock);

    // The gateway must keep serving: a clean request still completes.
    let mut parser = exchange(
        addr,
        &completion_request(r#"{"prompt_tokens": 32, "max_tokens": 2, "stream": true}"#),
    );
    assert_eq!(parser.status(), Some(200));
    let mut sse = SseParser::new();
    let events = sse.feed(&parser.take_body());
    assert_eq!(events.last().map(|e| e.data.as_str()), Some("[DONE]"));

    let report = gw.shutdown();
    assert_eq!(report.driver.completed, 1);
    assert!(report.driver.error.is_none(), "{:?}", report.driver.error);
}

/// Concurrent streams of different lengths share decode steps, so one leap
/// runs through steps where some finish and others join: each stream
/// still gets every token index once, in order, then `[DONE]`.
#[test]
fn concurrent_streams_of_different_lengths_get_every_token() {
    let mut gw = GatewayConfig::local(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    // Slow enough that the streams overlap in virtual time.
    gw.time_scale = 100.0;
    let gw = Gateway::start(gw).unwrap();
    let addr = gw.addr();
    let threads: Vec<_> = (0..8u64)
        .map(|i| {
            std::thread::spawn(move || {
                let max_tokens = 5 + 7 * i as usize;
                let body = format!(
                    r#"{{"prompt_tokens": {}, "max_tokens": {max_tokens}, "stream": true}}"#,
                    32 + 16 * i
                );
                let mut parser = exchange(addr, &completion_request(&body));
                assert_eq!(parser.status(), Some(200));
                let events = SseParser::new().feed(&parser.take_body());
                assert_eq!(events.len(), max_tokens + 1, "tokens + [DONE]: {events:?}");
                for (k, ev) in events[..max_tokens].iter().enumerate() {
                    let v: Value = serde_json::from_str(&ev.data).expect("token event JSON");
                    assert_eq!(v["token_index"].as_u64(), Some(k as u64), "no gap");
                }
                assert_eq!(events[max_tokens].data, "[DONE]");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("every stream is whole");
    }
    let report = gw.shutdown();
    assert_eq!(report.driver.completed, 8);
    assert!(report.driver.error.is_none(), "{:?}", report.driver.error);
}

/// A unary completion in flight holds no worker: with one worker and
/// frozen virtual time, `/healthz` still answers at once.
#[test]
fn healthz_answers_while_a_unary_completion_is_in_flight() {
    let mut gw = GatewayConfig::local(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    gw.workers = 1;
    gw.time_scale = 1e-6;
    let gw = Gateway::start(gw).unwrap();
    let addr = gw.addr();
    let mut unary = TcpStream::connect(addr).unwrap();
    unary
        .write_all(&completion_request(r#"{"prompt_tokens": 64, "max_tokens": 8}"#).encode())
        .unwrap();
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    probe
        .write_all(&HttpRequest::new("GET", "/healthz", Vec::new()).encode())
        .unwrap();
    let mut raw = Vec::new();
    probe
        .read_to_end(&mut raw)
        .expect("/healthz must answer within 2 s");
    let mut parser = ResponseParser::new();
    parser.feed(&raw).unwrap();
    assert_eq!(parser.status(), Some(200));
    let report = gw.shutdown();
    drop(unary);
    assert_eq!(
        report.driver.completed, 1,
        "drain finishes the unary request"
    );
}

/// Shutdown drains a unary request at simulation speed, as it does a
/// stream: at time scale 1 a 400-token request would take seconds of
/// wall clock, yet shutdown returns at once and the client gets its body.
#[test]
fn shutdown_drains_an_in_flight_unary_request_without_the_wall_clock() {
    let mut gw = GatewayConfig::local(ServeConfig::opt_13b_sharegpt(SystemKind::WindServe));
    gw.time_scale = 1.0;
    let gw = Gateway::start(gw).unwrap();
    let addr = gw.addr();
    let client = std::thread::spawn(move || {
        exchange(
            addr,
            &completion_request(r#"{"prompt_tokens": 64, "max_tokens": 400}"#),
        )
    });
    // Wait until the request is in the simulation.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut parser = exchange(
            addr,
            &HttpRequest::new("GET", "/v1/cluster/status", Vec::new()),
        );
        let v: Value =
            serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
        if v["report"]["snapshot"]["pending_requests"].as_u64() == Some(1) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let start = std::time::Instant::now();
    let report = gw.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    assert_eq!(report.driver.completed, 1);
    let mut parser = client.join().expect("client thread");
    assert_eq!(parser.status(), Some(200));
    let v: Value = serde_json::from_str(std::str::from_utf8(&parser.take_body()).unwrap()).unwrap();
    assert_eq!(v["usage"]["completion_tokens"].as_u64(), Some(400));
}
