//! Typed request-level failures.

use std::time::Duration;

/// Why a request was not (or could not be) answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the request before it entered the
    /// queue: the network's circuit fails admission under the engine's
    /// parameters, or the image shape does not match the network.
    Rejected { reason: String },
    /// The bounded request queue is at capacity — backpressure instead
    /// of unbounded growth. Retry after a backoff.
    Overloaded { capacity: usize },
    /// The request's deadline elapsed before (or while) its batch ran.
    /// The engine never returns a stale or partial answer in this case.
    DeadlineExceeded {
        /// The budget the request was submitted with.
        deadline: Duration,
        /// How long the request had actually been in flight.
        waited: Duration,
    },
    /// The engine is shutting down (or the request's batch was dropped
    /// mid-shutdown) and no result will be produced.
    ShuttingDown,
    /// [`crate::ServeConfig::metrics_addr`] was set but the live
    /// `/metrics` endpoint could not bind it.
    MetricsUnavailable { reason: String },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { reason } => write!(f, "request rejected at admission: {reason}"),
            ServeError::Overloaded { capacity } => {
                write!(f, "request queue full (capacity {capacity}); retry later")
            }
            ServeError::DeadlineExceeded { deadline, waited } => write!(
                f,
                "deadline exceeded: budget {:.3}s, waited {:.3}s",
                deadline.as_secs_f64(),
                waited.as_secs_f64()
            ),
            ServeError::ShuttingDown => write!(f, "serving engine is shutting down"),
            ServeError::MetricsUnavailable { reason } => {
                write!(f, "metrics endpoint unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Admission mapping: an HE-layer failure surfaced while preparing a
/// pipeline (e.g. [`ckks::HeError::BatchExceedsSlots`] when enabling
/// packed batching) refuses the engine/request with its typed reason
/// instead of panicking.
impl From<ckks::HeError> for ServeError {
    fn from(e: ckks::HeError) -> Self {
        ServeError::Rejected {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_diagnostic_detail() {
        let e = ServeError::Overloaded { capacity: 64 };
        assert!(e.to_string().contains("capacity 64"));
        let e = ServeError::DeadlineExceeded {
            deadline: Duration::from_millis(250),
            waited: Duration::from_millis(900),
        };
        let s = e.to_string();
        assert!(s.contains("0.250"), "{s}");
        assert!(s.contains("0.900"), "{s}");
        let e = ServeError::Rejected {
            reason: "1 error(s)".into(),
        };
        assert!(e.to_string().contains("admission"));
    }
}
