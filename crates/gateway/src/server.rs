//! The gateway server: listener, routing, and the data-plane glue
//! between HTTP connections and the [`SimDriver`].
//!
//! Threading model: one acceptor thread, a bounded [`WorkerPool`] that
//! parses requests and writes response heads, one [`StreamPump`] thread
//! that owns every open SSE socket, and one driver thread that owns the
//! simulation. A worker is occupied only for the life of a request's
//! *head* — a streaming response parks its socket on the pump and frees
//! the worker immediately, which is how a small pool sustains thousands
//! of concurrent streams.
//!
//! Resilience: every admission passes the [`Health`] gate (draining and
//! circuit-breaker fast-fails answer `503` + `Retry-After` without
//! touching the driver), per-request deadlines propagate to the driver,
//! dead SSE sockets are reported back so the driver reclaims their
//! streams, and an optional seeded [`NetFaultPlan`] injects network
//! chaos (connection resets, slow-loris reads, stalled writes, worker
//! panics, driver stalls) at the transport layer.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use serde_json::Value;
use windserve::{Error, ServeConfig};
use windserve_faults::{NetFaultKind, NetFaultPlan, NetFaultRecord};
use windserve_trace::TraceEvent;
use windserve_workload::RequestId;

use crate::api::{self, CompletionRequest};
use crate::driver::{DriverHandle, DriverReport, SimDriver, Sink, StreamUpdate, SubmitError};
use crate::envelope::json_envelope;
use crate::health::{Gate, Health};
use crate::http::{self, HttpRequest};
use crate::pool::WorkerPool;
use crate::pump::{PumpHandle, StreamPump};
use crate::registry::Registry;

/// Cap on injected slow-loris / stalled-write delays so a chaos plan can
/// slow the gateway, never wedge it.
const MAX_INJECTED_DELAY: Duration = Duration::from_secs(2);

/// `Retry-After` seconds suggested on admission rejections and drain.
const RETRY_AFTER_SECS: u64 = 1;

/// How the gateway is stood up.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The simulated deployment to serve.
    pub cfg: ServeConfig,
    /// Bind address (`127.0.0.1` unless exposing deliberately).
    pub addr: String,
    /// Bind port; `0` picks an ephemeral port (read it back via
    /// [`Gateway::addr`]).
    pub port: u16,
    /// Worker threads parsing requests and writing response heads.
    pub workers: usize,
    /// Virtual seconds simulated per real second.
    pub time_scale: f64,
    /// Default per-request wall-clock budget; a request past it is
    /// killed with a typed `deadline-exceeded` terminal. Overridable
    /// per request via the `x-request-timeout-ms` header.
    pub request_timeout_secs: Option<f64>,
    /// Seeded network-chaos plan injected at the transport layer.
    pub net_faults: Option<NetFaultPlan>,
}

impl GatewayConfig {
    /// A localhost gateway over `cfg` with an ephemeral port, four
    /// workers, a 100× time scale, no default deadline, and no chaos.
    pub fn local(cfg: ServeConfig) -> Self {
        GatewayConfig {
            cfg,
            addr: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            time_scale: 100.0,
            request_timeout_secs: None,
            net_faults: None,
        }
    }
}

/// Final accounting from a gateway that has shut down.
#[derive(Debug)]
pub struct GatewayReport {
    /// Health state label at the moment shutdown began.
    pub final_health: &'static str,
    /// Every injected network fault, in connection order.
    pub net_faults: Vec<NetFaultRecord>,
    /// Connection handlers that panicked (injected or otherwise); each
    /// cost only its own connection.
    pub worker_panics: u64,
    /// The driver's final accounting.
    pub driver: DriverReport,
}

/// Everything a worker needs to answer a request.
struct Ctx {
    handle: DriverHandle,
    pump: PumpHandle,
    health: Arc<Health>,
    /// Static control-plane registry, serialized once at startup.
    registry: Value,
    /// The served model's context limit; requests that cannot fit are
    /// rejected with `400` (an unschedulable request would never finish).
    max_context: u32,
    /// Default per-request deadline (seconds), header-overridable.
    request_timeout_secs: Option<f64>,
    /// Seeded chaos plan consulted once per accepted connection.
    net_faults: Option<NetFaultPlan>,
    /// Injected-fault log (deterministic for a fixed seed and a
    /// sequential client).
    fault_log: Arc<Mutex<Vec<NetFaultRecord>>>,
}

/// A running gateway: listener + workers + pump + driver.
pub struct Gateway {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandleWorkerPool>,
    pump: StreamPump,
    driver: SimDriver,
    handle: DriverHandle,
    health: Arc<Health>,
    fault_log: Arc<Mutex<Vec<NetFaultRecord>>>,
}

type JoinHandleWorkerPool = std::thread::JoinHandle<WorkerPool>;

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Gateway {
    /// Builds the cluster, binds the listener, and starts serving.
    ///
    /// # Errors
    ///
    /// [`Error::Gateway`] when the listener cannot bind or service
    /// threads cannot spawn; cluster construction and chaos-plan
    /// validation errors pass through.
    pub fn start(gw: GatewayConfig) -> windserve::Result<Gateway> {
        if let Some(plan) = &gw.net_faults {
            plan.validate().map_err(|e| Error::Gateway {
                reason: format!("net-chaos plan: {e}"),
            })?;
        }
        let registry = serde_json::to_value(&Registry::from_config(&gw.cfg)?);
        let max_context = gw.cfg.model.max_context;
        let driver = SimDriver::spawn(gw.cfg, gw.time_scale)?;
        let handle = driver.handle();
        // Dead SSE sockets loop back to the driver so it reclaims the
        // stream instead of feeding a vanished client forever. Pump
        // streams are keyed by request id.
        let pump = {
            let handle = handle.clone();
            StreamPump::with_notifier(Box::new(move |id| handle.stream_dead(RequestId(id))))
                .map_err(|e| Error::Gateway {
                    reason: format!("spawn pump: {e}"),
                })?
        };
        let listener =
            TcpListener::bind((gw.addr.as_str(), gw.port)).map_err(|e| Error::Gateway {
                reason: format!("bind {}:{}: {e}", gw.addr, gw.port),
            })?;
        let local_addr = listener.local_addr().map_err(|e| Error::Gateway {
            reason: format!("local_addr: {e}"),
        })?;
        let health = Arc::new(Health::new());
        let fault_log = Arc::new(Mutex::new(Vec::new()));
        let ctx = Arc::new(Ctx {
            handle: handle.clone(),
            pump: pump.handle(),
            health: Arc::clone(&health),
            registry,
            max_context,
            request_timeout_secs: gw.request_timeout_secs,
            net_faults: gw.net_faults,
            fault_log: Arc::clone(&fault_log),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let pool =
            WorkerPool::new(gw.workers, gw.workers.saturating_mul(64).max(64)).map_err(|e| {
                Error::Gateway {
                    reason: format!("spawn worker pool: {e}"),
                }
            })?;
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("gw-accept".to_string())
                .spawn(move || accept_loop(&listener, &stop, pool, &ctx))
                .map_err(|e| Error::Gateway {
                    reason: format!("spawn acceptor: {e}"),
                })?
        };
        Ok(Gateway {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            pump,
            driver,
            handle,
            health,
            fault_log,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Begins graceful drain: new completions are rejected with `503` +
    /// `Retry-After` while in-flight streams keep running. Idempotent;
    /// follow with [`Gateway::shutdown`] to finish them and exit.
    pub fn drain(&self) {
        if let Some(signal) = self.health.begin_drain() {
            self.handle.emit_trace(signal.into());
        }
    }

    /// Stops accepting, drains workers and in-flight simulation work,
    /// and returns the final accounting (driver totals plus the injected
    /// fault log and worker panic count).
    pub fn shutdown(mut self) -> GatewayReport {
        let final_health = self.health.state().label();
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let mut worker_panics = 0;
        if let Some(acceptor) = self.acceptor.take() {
            if let Ok(pool) = acceptor.join() {
                worker_panics = pool.panic_count();
                pool.shutdown();
            }
        }
        let driver = self.driver.shutdown();
        self.pump.shutdown();
        let net_faults = self
            .fault_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        GatewayReport {
            final_health,
            net_faults,
            worker_panics,
            driver,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    pool: WorkerPool,
    ctx: &Arc<Ctx>,
) -> WorkerPool {
    let mut conn_id: u64 = 0;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut sock) = conn else { continue };
        let conn = conn_id;
        conn_id += 1;
        let fault = ctx.net_faults.as_ref().and_then(|p| p.fault_for(conn));
        if let Some(kind) = &fault {
            record_fault(ctx, conn, kind);
            if matches!(kind, NetFaultKind::ConnReset) {
                // Close without answering: the client sees the
                // connection die mid-handshake.
                drop(sock);
                continue;
            }
        }
        let Ok(job_sock) = sock.try_clone() else {
            continue;
        };
        let ctx = Arc::clone(ctx);
        let accepted = pool.try_execute(Box::new(move || handle_connection(job_sock, &ctx, fault)));
        if !accepted {
            // The worker backlog is full: overload of the *gateway*
            // itself, answered inline so the client is not left hanging.
            let _ = sock.write_all(&http::response_with_headers(
                503,
                "application/json",
                &[("Retry-After", "1")],
                &api::error_body(503, "overloaded", "gateway worker backlog is full"),
            ));
        }
    }
    pool
}

/// Logs one injected fault and mirrors it into the scheduling trace.
fn record_fault(ctx: &Ctx, conn: u64, kind: &NetFaultKind) {
    ctx.fault_log
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(NetFaultRecord {
            conn,
            kind: kind.label().to_string(),
        });
    ctx.handle.emit_trace(TraceEvent::GatewayNetFault {
        conn,
        kind: kind.label().to_string(),
    });
}

/// Serves one connection: one request, one response, close. An injected
/// fault (already logged) shapes how the connection behaves.
fn handle_connection(sock: TcpStream, ctx: &Ctx, fault: Option<NetFaultKind>) {
    if matches!(fault, Some(NetFaultKind::WorkerPanic)) {
        // The pool's catch_unwind turns this into a dropped connection
        // plus a panic count — the gateway itself must keep serving.
        panic!("injected worker panic");
    }
    if let Some(NetFaultKind::SlowLorisRead { delay_ms }) = &fault {
        // The read side stalls as if the client trickled its bytes.
        std::thread::sleep(Duration::from_millis(*delay_ms).min(MAX_INJECTED_DELAY));
    }
    let Ok(read_half) = sock.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut sock = sock;
    let req = match http::read_request(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(e) => {
            let _ = sock.write_all(&http::simple_response(
                400,
                "application/json",
                &api::error_body(400, "bad-request", &e.0),
            ));
            return;
        }
    };
    match (req.method.as_str(), req.path()) {
        ("GET", "/healthz") => handle_healthz(&mut sock, ctx),
        ("GET", "/v1/cluster/status") => handle_status(&mut sock, ctx),
        ("POST", "/v1/completions") => handle_completion(sock, &req, ctx, fault),
        (_, "/healthz" | "/v1/cluster/status" | "/v1/completions") => {
            let _ = sock.write_all(&http::simple_response(
                405,
                "application/json",
                &api::error_body(405, "method-not-allowed", "wrong method for this path"),
            ));
        }
        _ => {
            let _ = sock.write_all(&http::simple_response(
                404,
                "application/json",
                &api::error_body(404, "not-found", "unknown path"),
            ));
        }
    }
}

/// `GET /healthz`: the health snapshot. `200` while serving (healthy or
/// degraded), `503` once draining.
fn handle_healthz(sock: &mut TcpStream, ctx: &Ctx) {
    let snap = ctx.health.snapshot();
    let status = if snap.status == "draining" { 503 } else { 200 };
    let body = serde_json::to_string(&snap).unwrap_or_default();
    let _ = sock.write_all(&http::simple_response(
        status,
        "application/json",
        body.as_bytes(),
    ));
}

/// `GET /v1/cluster/status`: live snapshot + static registry + health,
/// wrapped in the shared envelope.
fn handle_status(sock: &mut TcpStream, ctx: &Ctx) {
    let Some(snapshot) = ctx.handle.snapshot() else {
        let _ = sock.write_all(&http::simple_response(
            503,
            "application/json",
            &api::error_body(503, "unavailable", "the simulation driver is gone"),
        ));
        return;
    };
    let report = serde_json::json!({
        "snapshot": serde_json::to_value(&snapshot),
        "health": serde_json::to_value(&ctx.health.snapshot()),
        "nodes": ctx.registry["nodes"].clone(),
        "endpoints": ctx.registry["endpoints"].clone(),
        "placement": ctx.registry["placement"].clone(),
    });
    let body = serde_json::to_string(&json_envelope("cluster-status", report)).unwrap_or_default();
    let _ = sock.write_all(&http::simple_response(
        200,
        "application/json",
        body.as_bytes(),
    ));
}

/// The request's wall-clock budget: the `x-request-timeout-ms` header
/// wins over the gateway default.
fn effective_timeout_secs(req: &HttpRequest, ctx: &Ctx) -> Option<f64> {
    req.header("x-request-timeout-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|ms| ms as f64 / 1_000.0)
        .or(ctx.request_timeout_secs)
}

/// `POST /v1/completions`: health gate, admission, then either a parked
/// SSE stream or a blocking unary response.
fn handle_completion(
    mut sock: TcpStream,
    req: &HttpRequest,
    ctx: &Ctx,
    fault: Option<NetFaultKind>,
) {
    let (gate, signal) = ctx.health.gate();
    if let Some(signal) = signal {
        ctx.handle.emit_trace(signal.into());
    }
    match gate {
        Gate::Allow { .. } => {}
        Gate::Draining => {
            let _ = sock.write_all(&http::response_with_headers(
                503,
                "application/json",
                &[("Retry-After", &RETRY_AFTER_SECS.to_string())],
                &api::error_body(503, "draining", "the gateway is draining"),
            ));
            return;
        }
        Gate::BreakerOpen { retry_after } => {
            let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
            let _ = sock.write_all(&http::response_with_headers(
                503,
                "application/json",
                &[("Retry-After", &secs.to_string())],
                &api::error_body(503, "breaker-open", "the admission circuit breaker is open"),
            ));
            return;
        }
    }
    let creq = match CompletionRequest::from_json(&req.body) {
        Ok(creq) => creq,
        Err(reason) => {
            let _ = sock.write_all(&http::simple_response(
                400,
                "application/json",
                &api::error_body(400, "bad-request", &reason),
            ));
            return;
        }
    };
    if creq.prompt_tokens.saturating_add(creq.max_tokens) > ctx.max_context {
        let _ = sock.write_all(&http::simple_response(
            400,
            "application/json",
            &api::error_body(
                400,
                "context-overflow",
                &format!(
                    "prompt_tokens + max_tokens exceeds the model context of {}",
                    ctx.max_context
                ),
            ),
        ));
        return;
    }
    if let Some(NetFaultKind::DriverStall { stall_ms }) = &fault {
        // The driver thread itself lags: every live stream feels it.
        ctx.handle
            .stall(Duration::from_millis(*stall_ms).min(MAX_INJECTED_DELAY));
    }
    let timeout_secs = effective_timeout_secs(req, ctx);
    // A client that tags its turns with `x-session-id` gets them treated
    // as one conversation: the driver assigns a session, counts turns,
    // and marks the shared prefix for prefix caching.
    let session = req
        .header("x-session-id")
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string);
    if creq.stream {
        let result = ctx.handle.submit(
            creq.prompt_tokens,
            creq.max_tokens,
            creq.tier,
            timeout_secs,
            session,
            Sink::Pump(ctx.pump.clone()),
        );
        for signal in ctx.health.record(result.is_err()) {
            ctx.handle.emit_trace(signal.into());
        }
        match result {
            Ok(id) => {
                if sock.write_all(&http::sse_response_head()).is_ok() {
                    ctx.pump.register(id.0, sock);
                    if let Some(NetFaultKind::StalledWrite { stall_ms }) = &fault {
                        // Buffered SSE bytes sit in the pump for the
                        // stall window before flushing resumes.
                        ctx.pump.stall(
                            id.0,
                            Duration::from_millis(*stall_ms).min(MAX_INJECTED_DELAY),
                        );
                    }
                }
                // Token frames queued before registration are buffered by
                // the pump; the worker is free as soon as the head is out.
            }
            Err(e) => write_submit_error(&mut sock, &e),
        }
    } else {
        if let Some(NetFaultKind::StalledWrite { stall_ms }) = &fault {
            // Unary responses stall before any byte is written.
            std::thread::sleep(Duration::from_millis(*stall_ms).min(MAX_INJECTED_DELAY));
        }
        let (tx, rx) = mpsc::channel();
        let result = ctx.handle.submit(
            creq.prompt_tokens,
            creq.max_tokens,
            creq.tier,
            timeout_secs,
            session,
            Sink::Channel(tx),
        );
        for signal in ctx.health.record(result.is_err()) {
            ctx.handle.emit_trace(signal.into());
        }
        match result {
            Ok(id) => loop {
                match rx.recv() {
                    Ok(StreamUpdate::Token { .. }) => {}
                    Ok(StreamUpdate::Done {
                        tokens,
                        ttft_virtual_secs,
                        latency_virtual_secs,
                    }) => {
                        let body = api::completion_body(
                            id,
                            creq.prompt_tokens,
                            tokens,
                            ttft_virtual_secs,
                            latency_virtual_secs,
                        );
                        let _ =
                            sock.write_all(&http::simple_response(200, "application/json", &body));
                        return;
                    }
                    Ok(StreamUpdate::Aborted { reason }) => {
                        let _ = sock.write_all(&http::response_with_headers(
                            reason.http_status(),
                            "application/json",
                            &[("Retry-After", &RETRY_AFTER_SECS.to_string())],
                            &api::drop_body(reason),
                        ));
                        return;
                    }
                    Err(_) => {
                        let _ = sock.write_all(&http::simple_response(
                            503,
                            "application/json",
                            &api::error_body(503, "unavailable", "driver went away"),
                        ));
                        return;
                    }
                }
            },
            Err(e) => write_submit_error(&mut sock, &e),
        }
    }
}

fn write_submit_error(sock: &mut TcpStream, err: &SubmitError) {
    let (status, body) = match err {
        SubmitError::Dropped(reason) => (reason.http_status(), api::drop_body(*reason)),
        SubmitError::Unavailable => (
            503u16,
            api::error_body(503, "unavailable", "the gateway is shutting down"),
        ),
    };
    let _ = sock.write_all(&http::response_with_headers(
        status,
        "application/json",
        &[("Retry-After", &RETRY_AFTER_SECS.to_string())],
        &body,
    ));
}
