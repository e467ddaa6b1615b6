//! The gateway server: listener, routing, and the data-plane glue
//! between HTTP connections and the `SimDriver`.
//!
//! Threading model: one acceptor thread, a bounded `WorkerPool` that
//! parses and gates requests, and one driver thread that owns the
//! simulation. A worker answers what it can alone (health, status,
//! errors, gate rejections) and hands every completion, socket and all,
//! to the driver with `DriverHandle::submit`; from then on only the
//! driver writes to that socket — the admission verdict, the SSE stream
//! or the unary body. No worker waits on a completion, which is how a
//! small pool sustains thousands of concurrent requests.
//!
//! Resilience: every admission passes the `Health` gate (draining and
//! circuit-breaker fast-fails answer `503` + `Retry-After` without
//! touching the driver), per-request deadlines propagate to the driver,
//! a socket that fails a write ends its request as a disconnect, and an
//! optional seeded [`NetFaultPlan`] injects network chaos (connection
//! resets, slow-loris reads, stalled writes, worker panics, driver
//! stalls) at the transport layer.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use serde_json::Value;
use windserve::{Error, ServeConfig};
use windserve_faults::{NetFaultKind, NetFaultPlan, NetFaultRecord};
use windserve_trace::TraceEvent;

use crate::api::{self, CompletionRequest, RETRY_AFTER_SECS};
use crate::driver::{DriverHandle, DriverReport, SimDriver, Submission};
use crate::envelope::json_envelope;
use crate::health::{Gate, Health};
use crate::http::{self, HttpRequest};
use crate::pool::WorkerPool;
use crate::registry::Registry;

/// Cap on injected slow-loris / stalled-write delays so a chaos plan can
/// slow the gateway, never wedge it.
const MAX_INJECTED_DELAY: Duration = Duration::from_secs(2);

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
    /// Worker threads parsing and gating requests.
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

/// A running gateway: listener + workers + driver.
pub struct Gateway {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandleWorkerPool>,
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
        let health = Arc::new(Health::new());
        let driver = SimDriver::spawn(gw.cfg, gw.time_scale, Arc::clone(&health))?;
        let handle = driver.handle();
        let listener =
            TcpListener::bind((gw.addr.as_str(), gw.port)).map_err(|e| Error::Gateway {
                reason: format!("bind {}:{}: {e}", gw.addr, gw.port),
            })?;
        let local_addr = listener.local_addr().map_err(|e| Error::Gateway {
            reason: format!("local_addr: {e}"),
        })?;
        let fault_log = Arc::new(Mutex::new(Vec::new()));
        let ctx = Arc::new(Ctx {
            handle: handle.clone(),
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
///
/// # Errors
///
/// The header is present but not a whole number of milliseconds.
fn effective_timeout_secs(req: &HttpRequest, ctx: &Ctx) -> Result<Option<f64>, String> {
    match req.header("x-request-timeout-ms") {
        Some(v) => v
            .trim()
            .parse::<u64>()
            .map(|ms| Some(ms as f64 / 1_000.0))
            .map_err(|_| {
                format!("x-request-timeout-ms must be a whole number of milliseconds, got {v:?}")
            }),
        None => Ok(ctx.request_timeout_secs),
    }
}

/// `POST /v1/completions`: health gate and validation, then hand the
/// request and its socket to the driver, which writes the response.
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
    let parsed = CompletionRequest::from_json(&req.body)
        .and_then(|creq| Ok((creq, effective_timeout_secs(req, ctx)?)));
    let (creq, timeout_secs) = match parsed {
        Ok(parsed) => parsed,
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
    let capped = |ms: u64| Duration::from_millis(ms).min(MAX_INJECTED_DELAY);
    if let Some(NetFaultKind::DriverStall { stall_ms }) = &fault {
        // The driver thread itself lags: every live stream feels it.
        ctx.handle.stall(capped(*stall_ms));
    }
    // A client that tags its turns with `x-session-id` gets them treated
    // as one conversation: the driver assigns a session, counts turns,
    // and marks the shared prefix for prefix caching.
    let session = req
        .header("x-session-id")
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string);
    let submission = Submission {
        req: creq,
        timeout_secs,
        session,
        // The response's bytes, head included, wait out the stall.
        write_stall: match &fault {
            Some(NetFaultKind::StalledWrite { stall_ms }) => Some(capped(*stall_ms)),
            _ => None,
        },
        sock,
    };
    // The socket comes back only when the driver is gone; nothing else
    // writes to it once the driver holds it.
    if let Err(mut sock) = ctx.handle.submit(submission) {
        let _ = sock.write_all(&http::response_with_headers(
            503,
            "application/json",
            &[("Retry-After", &RETRY_AFTER_SECS.to_string())],
            &api::error_body(503, "unavailable", "the gateway is shutting down"),
        ));
    }
}
