//! Typed errors for hardware specification.

use std::fmt;

/// Errors produced when validating hardware models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A GPU spec field is out of its physical range.
    InvalidSpec {
        /// The GPU's display name.
        name: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A topology field is out of range (see
    /// [`Topology::validate`](crate::Topology::validate)).
    Topology {
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSpec { name, reason } => write!(f, "{name}: {reason}"),
            Error::Topology { reason } => write!(f, "topology: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
