//! Typed errors for the service's robustness controls.

use std::time::Duration;

/// Why a submission was refused at the queue boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue of the request's lane was at capacity (backpressure).
    QueueFull {
        /// Capacity of the lane queue that refused the request.
        capacity: usize,
    },
    /// The service has begun shutdown and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "lane queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted request did not produce a product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MulError {
    /// The request's deadline elapsed before its lane started it.
    DeadlineExceeded {
        /// How long the request sat in the queue before being rejected.
        waited: Duration,
    },
    /// The service shed the request under load: it sat queued longer than
    /// the configured `shed_after` bound without carrying a deadline.
    Shed {
        /// How long the request sat in the queue before being shed.
        waited: Duration,
    },
    /// The service stopped before the request was processed.
    ServiceStopped,
    /// Every supervised attempt failed — panics, stuck kernels, or
    /// verification mismatches persisted through the retry budget and the
    /// whole kernel degradation ladder.
    WorkerFault {
        /// Total attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for MulError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MulError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after waiting {waited:?}")
            }
            MulError::Shed { waited } => {
                write!(f, "request shed under load after waiting {waited:?}")
            }
            MulError::ServiceStopped => write!(f, "service stopped before request ran"),
            MulError::WorkerFault { attempts } => {
                write!(f, "worker fault persisted through {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for MulError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SubmitError::QueueFull { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
        let e = MulError::DeadlineExceeded {
            waited: Duration::from_millis(5),
        };
        assert!(e.to_string().contains("deadline"));
        assert!(MulError::Shed {
            waited: Duration::ZERO
        }
        .to_string()
        .contains("shed"));
        assert!(MulError::WorkerFault { attempts: 6 }
            .to_string()
            .contains("6 attempts"));
    }
}
