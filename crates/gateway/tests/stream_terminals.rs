//! Every way an admitted request can end, pinned byte for byte over real
//! TCP: a completed stream, a drop by the simulator's overload control
//! after admission, a gateway deadline (streamed and unary), and a client that
//! disconnects mid-stream. Each gateway's shutdown report must account
//! for every submission exactly once, and a request the gateway cuts short
//! must leave the simulator too.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use windserve::{OverloadConfig, RunReport, ServeConfig, SystemKind};
use windserve_gateway::driver::DriverReport;
use windserve_gateway::http::HttpRequest;
use windserve_gateway::server::{Gateway, GatewayConfig};
use windserve_metrics::DropReason;

/// The response head that opens every SSE stream.
const SSE_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                        Cache-Control: no-store\r\nTransfer-Encoding: chunked\r\n\
                        Connection: close\r\n\r\n";

/// The typed body of a request given up on past its deadline.
const DEADLINE_BODY: &str = r#"{"error":{"type":"deadline-exceeded","code":503,"message":"request dropped by overload control: deadline-exceeded"}}"#;

fn start(cfg: ServeConfig, time_scale: f64) -> Gateway {
    let mut gc = GatewayConfig::local(cfg);
    gc.time_scale = time_scale;
    Gateway::start(gc).expect("gateway must start on an ephemeral port")
}

fn opt_13b() -> ServeConfig {
    ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
}

fn completion(body: &str, timeout_ms: Option<u64>) -> Vec<u8> {
    let mut req = HttpRequest::new("POST", "/v1/completions", body.as_bytes().to_vec());
    if let Some(ms) = timeout_ms {
        req.headers
            .push(("x-request-timeout-ms".to_string(), ms.to_string()));
    }
    req.encode()
}

/// Sends one request and returns every byte of the response, to EOF.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    sock.write_all(request).expect("write request");
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).expect("read to EOF");
    raw
}

/// The simulator's resident request count, from the status endpoint.
fn pending_requests(addr: SocketAddr) -> u64 {
    let status = HttpRequest::new("GET", "/v1/cluster/status", Vec::new());
    let raw = String::from_utf8(raw_exchange(addr, &status.encode())).expect("UTF-8");
    let body = &raw[raw.find("\r\n\r\n").expect("a response head") + 4..];
    let v: serde_json::Value = serde_json::from_str(body).expect("a JSON body");
    v["report"]["snapshot"]["pending_requests"]
        .as_u64()
        .expect("a resident count")
}

/// The simulator's account of requests `ids`, all cut short by the
/// gateway: none completed, and each left with one `cancelled` drop.
fn assert_cancelled(run: Option<&RunReport>, ids: &[u64]) {
    let run = run.expect("a clean shutdown has a run report");
    assert!(run.records.is_empty(), "completed: {:?}", run.records);
    let dropped: Vec<(u64, DropReason)> = run.dropped.iter().map(|d| (d.id.0, d.reason)).collect();
    let cancelled: Vec<(u64, DropReason)> =
        ids.iter().map(|&id| (id, DropReason::Cancelled)).collect();
    assert_eq!(dropped, cancelled);
    assert_eq!(DropReason::Cancelled.label(), "cancelled");
}

/// One HTTP/1.1 chunk, framed by hand.
fn chunk(data: &str) -> String {
    format!("{:x}\r\n{data}\r\n", data.len())
}

/// The exact wire bytes of an SSE response for request `id`: the head,
/// one token event per virtual instant the stream itself reported (the
/// only part that depends on the wall clock), the `terminal` event and
/// the last chunk. Returns the expected bytes and the token count.
fn expected_stream(id: u64, raw: &[u8], terminal: &str) -> (String, usize) {
    let text = std::str::from_utf8(raw).expect("UTF-8 response");
    let times: Vec<&str> = text
        .split("\"virtual_time_secs\":")
        .skip(1)
        .map(|rest| &rest[..rest.find('}').expect("token event closes")])
        .collect();
    let secs: Vec<f64> = times.iter().map(|t| t.parse().expect("a number")).collect();
    assert!(
        secs.windows(2).all(|w| w[0] <= w[1]),
        "token instants must not go backwards: {secs:?}"
    );
    let mut out = SSE_HEAD.to_string();
    for (index, t) in times.iter().enumerate() {
        out.push_str(&chunk(&format!(
            "data: {{\"id\":\"cmpl-{id}\",\"object\":\"completion.chunk\",\
             \"token_index\":{index},\"virtual_time_secs\":{t}}}\n\n"
        )));
    }
    out.push_str(&chunk(terminal));
    out.push_str("0\r\n\r\n");
    (out, times.len())
}

/// Every submission ends in exactly one of the driver's outcomes.
fn assert_conserved(d: &DriverReport) {
    assert!(d.error.is_none(), "{:?}", d.error);
    assert_eq!(
        d.submitted,
        d.completed + d.rejected + d.aborted + d.deadline_exceeded + d.disconnected,
        "{d:?}"
    );
}

#[test]
fn a_completed_stream_ends_in_done() {
    let gw = start(opt_13b(), 1000.0);
    let raw = raw_exchange(
        gw.addr(),
        &completion(
            r#"{"prompt_tokens": 64, "max_tokens": 8, "stream": true}"#,
            None,
        ),
    );
    let (expected, tokens) = expected_stream(0, &raw, "data: [DONE]\n\n");
    assert_eq!(String::from_utf8_lossy(&raw), expected);
    assert_eq!(tokens, 8);
    let d = gw.shutdown().driver;
    assert_eq!((d.submitted, d.completed), (1, 1));
    assert_conserved(&d);
}

#[test]
fn a_drop_after_admission_ends_in_an_error_event() {
    // DistServe never dispatches prefill to the decode replica, so a
    // prediction past the shed threshold sheds a queued prefill. Frozen
    // virtual time keeps the queue exactly as submitted.
    let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::DistServe);
    cfg.overload = Some(OverloadConfig {
        max_queued_requests: None,
        // A 125 ms threshold: above a 64-token prefill behind another,
        // below a 1,900-token one.
        shed_ttft_factor: 0.5,
        ..Default::default()
    });
    let gw = start(cfg, 1e-6);
    let open = |body: &str| {
        let mut sock = TcpStream::connect(gw.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        sock.write_all(&completion(body, None)).unwrap();
        let mut head = vec![0u8; SSE_HEAD.len()];
        sock.read_exact(&mut head).unwrap();
        assert_eq!(String::from_utf8_lossy(&head), SSE_HEAD);
        sock
    };
    // Request 0 occupies the prefill replica; request 1 queues behind it
    // at the lowest tier; request 2's long prompt pushes the predicted
    // TTFT past the threshold and sheds request 1.
    let running = open(r#"{"prompt_tokens": 64, "max_tokens": 8, "stream": true, "tier": 1}"#);
    let mut victim = open(r#"{"prompt_tokens": 64, "max_tokens": 8, "stream": true}"#);
    let heavy = open(r#"{"prompt_tokens": 1900, "max_tokens": 8, "stream": true, "tier": 1}"#);
    let mut raw = SSE_HEAD.as_bytes().to_vec();
    victim.read_to_end(&mut raw).unwrap();
    let shed = r#"{"error":{"type":"shed","code":429,"message":"request dropped by overload control: shed"}}"#;
    let (expected, tokens) = expected_stream(1, &raw, &format!("event: error\ndata: {shed}\n\n"));
    assert_eq!(String::from_utf8_lossy(&raw), expected);
    assert_eq!(tokens, 0);
    let d = gw.shutdown().driver;
    drop((running, heavy));
    assert_eq!((d.submitted, d.completed, d.aborted), (3, 2, 1));
    assert_conserved(&d);
}

#[test]
fn gateway_deadlines_end_streamed_and_unary_requests() {
    // Freeze virtual time: no token can arrive, only the deadline.
    let gw = start(opt_13b(), 1e-6);
    let raw = raw_exchange(
        gw.addr(),
        &completion(
            r#"{"prompt_tokens": 64, "max_tokens": 8, "stream": true}"#,
            Some(50),
        ),
    );
    let terminal = format!("event: deadline-exceeded\ndata: {DEADLINE_BODY}\n\n");
    let (expected, tokens) = expected_stream(0, &raw, &terminal);
    assert_eq!(String::from_utf8_lossy(&raw), expected);
    assert_eq!(tokens, 0);

    let raw = raw_exchange(
        gw.addr(),
        &completion(r#"{"prompt_tokens": 64, "max_tokens": 8}"#, Some(50)),
    );
    let expected = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{DEADLINE_BODY}",
        DEADLINE_BODY.len()
    );
    assert_eq!(String::from_utf8_lossy(&raw), expected);
    // Frozen time never finishes either request: both left at their
    // deadline.
    assert_eq!(pending_requests(gw.addr()), 0);

    let d = gw.shutdown().driver;
    assert_eq!((d.submitted, d.deadline_exceeded), (2, 2));
    assert_conserved(&d);
    assert_cancelled(d.run_report.as_ref(), &[0, 1]);
}

#[test]
fn a_mid_stream_disconnect_is_reclaimed() {
    // Slow enough that 1,024 tokens outlive the client by far.
    let gw = start(opt_13b(), 10.0);
    let mut sock = TcpStream::connect(gw.addr()).unwrap();
    sock.write_all(&completion(
        r#"{"prompt_tokens": 64, "max_tokens": 1024, "stream": true}"#,
        None,
    ))
    .unwrap();
    let mut head = vec![0u8; SSE_HEAD.len()];
    sock.read_exact(&mut head).unwrap();
    assert_eq!(String::from_utf8_lossy(&head), SSE_HEAD);
    drop(sock);
    // The driver's flush meets the dead socket on a token write soon
    // after and closes the stream, well before the 1,024th token.
    std::thread::sleep(Duration::from_millis(800));
    assert_eq!(pending_requests(gw.addr()), 0);
    let d = gw.shutdown().driver;
    assert_eq!((d.submitted, d.disconnected), (1, 1));
    assert_conserved(&d);
    assert_cancelled(d.run_report.as_ref(), &[0]);
}
