//! Typed errors for workload synthesis.

use std::fmt;

/// Errors produced when constructing workload generators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The quantile control points do not describe a distribution.
    InvalidSampler {
        /// What is wrong with the control points.
        reason: String,
    },
    /// A dataset name did not resolve (see
    /// [`Dataset::by_name`](crate::Dataset::by_name)).
    UnknownDataset {
        /// What is wrong with the name or spec.
        reason: String,
    },
    /// A dataset's lengths cannot fit its context window (see
    /// `Dataset::validate`).
    InvalidDataset {
        /// What is wrong with the dataset.
        reason: String,
    },
    /// An arrival process was configured with a non-positive or non-finite
    /// rate or phase length.
    InvalidArrival {
        /// What is wrong with the process parameters.
        reason: String,
    },
    /// A [`Scenario`](crate::Scenario) is internally inconsistent (empty
    /// workload, degenerate session distributions, out-of-order trace).
    InvalidScenario {
        /// What is wrong with the scenario.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSampler { reason } => write!(f, "invalid sampler: {reason}"),
            Error::UnknownDataset { reason } => write!(f, "{reason}"),
            Error::InvalidDataset { reason } => write!(f, "invalid dataset: {reason}"),
            Error::InvalidArrival { reason } => write!(f, "invalid arrival process: {reason}"),
            Error::InvalidScenario { reason } => write!(f, "invalid scenario: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
