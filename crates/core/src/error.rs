//! The crate-wide error type.
//!
//! Every fallible public API in `windserve` returns [`Result`]. Substrate
//! errors (GPU/model specs, engine configuration, workload synthesis, KV
//! accounting, metrics records) are wrapped via `From` so `?` composes
//! across crate boundaries; simulation failures (event backstop, deadlock)
//! carry their diagnostic payloads as typed fields.

use windserve_workload::RequestId;

/// Errors produced by the WindServe serving simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A [`ServeConfig`](crate::ServeConfig) field is out of range or the
    /// placement is infeasible.
    Config {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// Invalid GPU specification.
    Gpu(windserve_gpu::Error),
    /// Invalid model specification or an infeasible placement.
    Model(windserve_model::Error),
    /// Invalid engine-instance configuration.
    Engine(windserve_engine::Error),
    /// Invalid workload synthesis parameters.
    Workload(windserve_workload::Error),
    /// KV-cache accounting violation.
    Kv(windserve_kvcache::Error),
    /// Malformed per-request metrics record.
    Metrics(windserve_metrics::Error),
    /// The event loop exceeded its backstop without draining — almost
    /// certainly a scheduling livelock.
    EventBackstop {
        /// Requests still pending when the backstop fired.
        pending: usize,
    },
    /// The event queue drained with requests still incomplete.
    Deadlock {
        /// Number of requests that never completed.
        incomplete: usize,
        /// The first few incomplete request ids, for the report.
        first: Vec<RequestId>,
    },
    /// No interconnect route exists between two instances — the topology
    /// does not connect them (a wiring bug, not a transient fault).
    NoRoute {
        /// Source instance index.
        src: usize,
        /// Destination instance index.
        dst: usize,
    },
    /// The cluster-wide invariant auditor found an inconsistency (block
    /// conservation, dual queue membership, non-monotone phase
    /// timestamps) — a simulator bug, not bad input.
    Invariant {
        /// What the auditor found.
        reason: String,
    },
    /// A fleet-level failure: an infeasible placement plan, a lease the
    /// shared pool cannot honour, or a deployment run gone wrong (the
    /// deployment's name prefixes the reason).
    Fleet {
        /// What went wrong at the fleet layer.
        reason: String,
    },
    /// A serving-gateway failure: a malformed live request, a driver
    /// channel torn down mid-stream, or a listener that could not bind.
    Gateway {
        /// What went wrong at the gateway layer.
        reason: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config { reason } => write!(f, "invalid config: {reason}"),
            Error::Gpu(e) => write!(f, "gpu: {e}"),
            Error::Model(e) => write!(f, "model: {e}"),
            Error::Engine(e) => write!(f, "engine: {e}"),
            Error::Workload(e) => write!(f, "workload: {e}"),
            Error::Kv(e) => write!(f, "kv-cache: {e}"),
            Error::Metrics(e) => write!(f, "metrics: {e}"),
            Error::EventBackstop { pending } => write!(
                f,
                "event backstop exceeded with {pending} events pending (likely livelock)"
            ),
            Error::Deadlock { incomplete, first } => write!(
                f,
                "simulation deadlock: {incomplete} requests incomplete (first: {first:?})"
            ),
            Error::NoRoute { src, dst } => {
                write!(f, "no interconnect route from instance {src} to {dst}")
            }
            Error::Invariant { reason } => write!(f, "invariant violated: {reason}"),
            Error::Fleet { reason } => write!(f, "fleet: {reason}"),
            Error::Gateway { reason } => write!(f, "gateway: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Gpu(e) => Some(e),
            Error::Model(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Workload(e) => Some(e),
            Error::Kv(e) => Some(e),
            Error::Metrics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<windserve_gpu::Error> for Error {
    fn from(e: windserve_gpu::Error) -> Self {
        Error::Gpu(e)
    }
}

impl From<windserve_model::Error> for Error {
    fn from(e: windserve_model::Error) -> Self {
        Error::Model(e)
    }
}

impl From<windserve_engine::Error> for Error {
    fn from(e: windserve_engine::Error) -> Self {
        Error::Engine(e)
    }
}

impl From<windserve_workload::Error> for Error {
    fn from(e: windserve_workload::Error) -> Self {
        Error::Workload(e)
    }
}

impl From<windserve_kvcache::Error> for Error {
    fn from(e: windserve_kvcache::Error) -> Self {
        Error::Kv(e)
    }
}

impl From<windserve_metrics::Error> for Error {
    fn from(e: windserve_metrics::Error) -> Self {
        Error::Metrics(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let gpu = windserve_gpu::Error::InvalidSpec {
            name: "A800".into(),
            reason: "zero memory".into(),
        };
        let err = Error::from(gpu);
        assert_eq!(err.to_string(), "gpu: A800: zero memory");
        assert!(std::error::Error::source(&err).is_some());

        let cfg = Error::Config {
            reason: "bad watermark".into(),
        };
        assert!(cfg.to_string().contains("bad watermark"));
        assert!(std::error::Error::source(&cfg).is_none());
    }

    #[test]
    fn deadlock_names_first_requests() {
        let err = Error::Deadlock {
            incomplete: 3,
            first: vec![RequestId(7)],
        };
        let msg = err.to_string();
        assert!(msg.contains("3 requests"));
        assert!(msg.contains("RequestId(7)"));
    }
}
