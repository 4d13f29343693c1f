//! # hetsched-error — the workspace's shared typed error
//!
//! Every fallible entry point in the workspace — configuration
//! validation, the Algorithm-1 solvers, policy construction, the
//! experiment harness — reports failures through [`HetschedError`]
//! instead of panicking or passing bare `String`s around. The variants
//! mirror the ways a heterogeneous cluster can be degenerate: no
//! computers, an arrival rate that saturates the aggregate capacity, or
//! plain bad parameters.
//!
//! The crate is dependency-free so every layer (including `queueing`,
//! which sits below the simulator) can use it.

#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

/// The workspace-wide error type.
#[derive(Debug, Clone, PartialEq)]
pub enum HetschedError {
    /// The cluster/system has no computers at all.
    NoComputers,
    /// The arrival rate meets or exceeds the aggregate service capacity,
    /// so no finite allocation exists (utilization ρ = λ/(μ·Σs) ≥ 1).
    Saturated,
    /// A numeric argument is out of its admissible range.
    BadParameter(String),
    /// A cluster/experiment configuration failed validation.
    InvalidConfig(String),
    /// A policy specification cannot be built for the given cluster.
    InvalidPolicy(String),
    /// A solver failed to produce a usable allocation.
    Solver(String),
    /// Reading or writing JSON failed (the message names the member
    /// path or the line and column), or a JSONL/CSV export did.
    Serialization(String),
    /// An error wrapped with the context it occurred in.
    Context {
        /// What was being attempted (e.g. the sweep point's name).
        context: String,
        /// The underlying error.
        source: Box<HetschedError>,
    },
}

impl HetschedError {
    /// Wraps the error with a human-readable context label, rendered as
    /// `"{context}: {self}"`.
    #[must_use]
    pub fn context(self, context: impl Into<String>) -> Self {
        HetschedError::Context {
            context: context.into(),
            source: Box::new(self),
        }
    }

    /// The innermost error, with all context layers stripped.
    pub fn root_cause(&self) -> &HetschedError {
        match self {
            HetschedError::Context { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for HetschedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HetschedError::NoComputers => write!(f, "system has no computers"),
            HetschedError::Saturated => write!(
                f,
                "arrival rate saturates the aggregate capacity (utilization ρ = λ/(μ·Σs) ≥ 1)"
            ),
            HetschedError::BadParameter(msg) => write!(f, "{msg}"),
            HetschedError::InvalidConfig(msg) => write!(f, "{msg}"),
            HetschedError::InvalidPolicy(msg) => write!(f, "{msg}"),
            HetschedError::Solver(msg) => write!(f, "solver failed: {msg}"),
            HetschedError::Serialization(msg) => write!(f, "serialization failed: {msg}"),
            HetschedError::Context { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl Error for HetschedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HetschedError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Lets `?` convert a typed error into the `Result<_, String>` signatures
/// still used at the CLI boundary.
impl From<HetschedError> for String {
    fn from(e: HetschedError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        assert_eq!(
            HetschedError::NoComputers.to_string(),
            "system has no computers"
        );
        assert!(HetschedError::Saturated.to_string().contains("saturates"));
        assert_eq!(
            HetschedError::BadParameter("rho must lie in (0,1)".into()).to_string(),
            "rho must lie in (0,1)"
        );
    }

    #[test]
    fn context_nests_and_strips() {
        let e = HetschedError::Saturated
            .context("point 'rho=0.9'")
            .context("sweep");
        assert_eq!(
            e.to_string(),
            "sweep: point 'rho=0.9': arrival rate saturates the aggregate capacity \
             (utilization ρ = λ/(μ·Σs) ≥ 1)"
        );
        assert_eq!(e.root_cause(), &HetschedError::Saturated);
    }

    #[test]
    fn error_source_chain() {
        let e = HetschedError::NoComputers.context("building policy");
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&HetschedError::NoComputers).is_none());
    }

    #[test]
    fn serialization_variant_displays_cause() {
        let e = HetschedError::Serialization("key must be a string".into());
        assert_eq!(e.to_string(), "serialization failed: key must be a string");
        assert_eq!(e.root_cause(), &e.clone());
    }

    #[test]
    fn converts_to_string() {
        let s: String = HetschedError::NoComputers.into();
        assert_eq!(s, "system has no computers");
    }
}
