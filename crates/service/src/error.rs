//! The service's error type: protocol, exploration, and I/O failures.

use core::fmt;

use drmap_core::error::DseError;

use crate::json::JsonError;

/// Anything that can go wrong serving a job.
#[derive(Debug)]
pub enum ServiceError {
    /// Malformed request or response (bad JSON, missing fields).
    Protocol(String),
    /// The exploration itself failed (e.g. no feasible tiling).
    Dse(DseError),
    /// Socket or file I/O failed.
    Io(std::io::Error),
    /// A socket read/write exceeded its configured timeout — the
    /// peer stalled, not necessarily died. Distinct from
    /// [`Io`](ServiceError::Io) so a caller can tell a stall from a dead peer
    /// without pattern-matching error strings.
    Timeout(String),
    /// The job's `deadline_ms` elapsed before the result was computed;
    /// the server abandoned the remaining work instead of computing a
    /// result nobody is waiting for.
    DeadlineExceeded {
        /// The deadline the job carried, in milliseconds.
        deadline_ms: u64,
    },
}

impl ServiceError {
    /// A protocol error with the given message.
    pub fn protocol(message: impl Into<String>) -> Self {
        ServiceError::Protocol(message.into())
    }

    /// A socket-timeout error with the given context.
    pub(crate) fn timeout(message: impl Into<String>) -> Self {
        ServiceError::Timeout(message.into())
    }
}

/// Best-effort text of a panic payload (the argument of `panic!`), for
/// surfacing a caught worker/computation panic as an error message.
/// Payloads that are neither `&str` nor `String` — rare in practice —
/// render as a placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Dse(e) => write!(f, "exploration failed: {e}"),
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Timeout(m) => write!(f, "timed out: {m}"),
            ServiceError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline exceeded after {deadline_ms} ms")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Dse(e) => Some(e),
            ServiceError::Io(e) => Some(e),
            ServiceError::Protocol(_)
            | ServiceError::Timeout(_)
            | ServiceError::DeadlineExceeded { .. } => None,
        }
    }
}

impl From<DseError> for ServiceError {
    fn from(e: DseError) -> Self {
        ServiceError::Dse(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<JsonError> for ServiceError {
    fn from(e: JsonError) -> Self {
        ServiceError::Protocol(e.to_string())
    }
}

impl From<drmap_cnn::error::ModelError> for ServiceError {
    fn from(e: drmap_cnn::error::ModelError) -> Self {
        ServiceError::Protocol(e.to_string())
    }
}

impl From<drmap_dram::error::ConfigError> for ServiceError {
    fn from(e: drmap_dram::error::ConfigError) -> Self {
        ServiceError::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_each_variant() {
        assert!(ServiceError::protocol("bad field")
            .to_string()
            .contains("bad field"));
        assert!(ServiceError::from(DseError::new("no tiling"))
            .to_string()
            .contains("no tiling"));
        let io = std::io::Error::other("boom");
        assert!(ServiceError::from(io).to_string().contains("boom"));
    }

    #[test]
    fn an_exploration_error_cannot_pose_as_a_missed_deadline() {
        let posing = DseError::new("layer x: deadline exceeded after 5 ms");
        assert!(matches!(ServiceError::from(posing), ServiceError::Dse(_)));
        assert_eq!(
            ServiceError::DeadlineExceeded { deadline_ms: 5 }.to_string(),
            "deadline exceeded after 5 ms"
        );
    }

    #[test]
    fn panic_messages_are_extracted() {
        let caught = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "static str");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42_u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }
}
