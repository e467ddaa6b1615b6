//! A live serving gateway over the WindServe simulator.
//!
//! This crate turns the deterministic discrete-event simulator into an
//! *engine* you can talk to: a first-party threaded HTTP/1.1 server (no
//! external runtime — hand-rolled request parsing, chunked/SSE framing,
//! a bounded worker pool over `std::net`) exposing an OpenAI-flavored
//! completions API plus a control plane:
//!
//! - `POST /v1/completions` — submit a request; with `"stream": true`
//!   each simulated token arrives as a server-sent event.
//! - `GET /v1/cluster/status` — live session snapshot merged with the
//!   node/endpoint registry and versioned placement plan.
//! - `GET /healthz` — liveness.
//!
//! Behind the listener sits the [`driver::SimDriver`]: one thread owning
//! a [`ClusterSession`](windserve::ClusterSession), mapping wall-clock
//! time onto virtual time (`virtual_now = real_elapsed × time_scale`)
//! and routing per-token live events back to open response streams
//! through the `pump::StreamPump`. Overload control inside the
//! simulator surfaces as real `429`/`503` responses with typed JSON
//! bodies.
//!
//! [`loadgen`] closes the loop: an open-loop Poisson client that holds
//! thousands of concurrent SSE streams against the server and reports
//! TTFT/TBT/goodput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod driver;
pub mod envelope;
pub mod health;
pub mod http;
pub mod loadgen;
pub mod pool;
pub mod pump;
pub mod registry;
pub mod server;
pub mod sse;

pub use api::CompletionRequest;
pub use driver::{DriverHandle, DriverReport, SimDriver, StreamUpdate, SubmitError};
pub use envelope::{json_envelope, ENVELOPE_SCHEMA_VERSION};
pub use health::{Health, HealthSnapshot, HealthState};
pub use loadgen::{LoadReport, LoadgenConfig};
pub use server::{Gateway, GatewayConfig, GatewayReport};
