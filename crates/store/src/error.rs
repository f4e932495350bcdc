//! The unified error type for the global measurement store.
//!
//! Every fallible path of the global DB — wire decode, client
//! validation, backend I/O, replay — returns [`StoreError`]. Nothing on
//! the ingest path panics: garbage input is an error value, corrupted
//! persistence is an error value, and I/O failures carry the path they
//! happened on. (`thiserror`-style by hand; the workspace is hermetic
//! and takes no external dependencies.)

use crate::record::WireError;
use csaw_obs::json::JsonError;
use std::fmt;

/// Everything that can go wrong inside the measurement store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The posting UUID is unknown or has been revoked.
    UnknownClient,
    /// The report batch did not survive the wire: its envelope did not
    /// decode (not JSON, or not the expected shape), or it was
    /// corrupted in flight.
    Wire(WireError),
    /// One report inside an otherwise well-formed POST frame failed to
    /// decode — input from outside the program, since every report the
    /// encoder writes decodes. Carries that report's batch index.
    Malformed {
        /// Zero-based index of the undecodable report in the batch.
        index: usize,
        /// Why that report failed to decode.
        reason: WireError,
    },
    /// A backend I/O operation failed.
    Io {
        /// The file the backend was operating on.
        path: String,
        /// The OS error, stringified (keeps the enum `Clone + Eq`).
        msg: String,
    },
    /// Persisted state failed to parse back (truncated or hand-edited
    /// log, incompatible snapshot).
    Corrupt(String),
    /// A construction-time parameter was invalid (zero shards, …).
    InvalidConfig(&'static str),
    /// The backend is transiently unavailable (outage window, injected
    /// fault, overload). Retrying later is expected to succeed; nothing
    /// was stored.
    Unavailable(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownClient => write!(f, "unknown or revoked client UUID"),
            StoreError::Wire(e) => write!(f, "malformed batch: {e}"),
            StoreError::Malformed { index, reason } => {
                write!(f, "malformed report at batch index {index}: {reason}")
            }
            StoreError::Io { path, msg } => write!(f, "backend I/O on {path}: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt persisted state: {msg}"),
            StoreError::InvalidConfig(msg) => write!(f, "invalid store configuration: {msg}"),
            StoreError::Unavailable(msg) => write!(f, "backend transiently unavailable: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Wire(e) => Some(e),
            StoreError::Malformed { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> StoreError {
        StoreError::Wire(e)
    }
}

impl From<JsonError> for StoreError {
    fn from(e: JsonError) -> StoreError {
        StoreError::Wire(WireError::Json(e))
    }
}

impl StoreError {
    /// Helper for wrapping `std::io::Error` while keeping the enum
    /// `Clone + Eq`.
    pub fn io(path: &std::path::Path, e: std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::Io {
            path: "/tmp/x.jsonl".into(),
            msg: "permission denied".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("/tmp/x.jsonl") && s.contains("permission denied"),
            "{s}"
        );
        assert!(StoreError::UnknownClient.to_string().contains("unknown"));
    }

    #[test]
    fn wire_errors_convert_and_chain() {
        let w = WireError::Shape("batch must be an array");
        let e: StoreError = w.clone().into();
        assert_eq!(e, StoreError::Wire(w));
        assert!(std::error::Error::source(&e).is_some());
    }
}
