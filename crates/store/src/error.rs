//! The store's error type: I/O, corruption, and codec failures.

use core::fmt;

use drmap_core::bytes::CodecError;

/// Anything that can go wrong persisting or recovering DSE results.
#[derive(Debug)]
pub enum StoreError {
    /// File I/O failed.
    Io(std::io::Error),
    /// The log violates its format invariants (bad magic, version, or a
    /// checksum mismatch on a record the index points at).
    Corrupt(String),
    /// A stored value failed to decode as a DSE result.
    Codec(CodecError),
    /// A caller-supplied key or value violates the format's size caps.
    InvalidInput(String),
    /// A deliberately injected failure from an attached fault hook
    /// (see [`Store::attach_fault_hook`](crate::store::Store::attach_fault_hook)).
    /// Distinct from [`Io`](StoreError::Io)/[`Corrupt`](StoreError::Corrupt)
    /// so chaos tests can tell injected faults from real damage.
    Injected(String),
}

impl StoreError {
    /// A corruption error with the given message.
    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        StoreError::Corrupt(message.into())
    }

    /// An invalid-input error with the given message.
    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        StoreError::InvalidInput(message.into())
    }

    /// An injected-fault error with the given message.
    pub(crate) fn injected(message: impl Into<String>) -> Self {
        StoreError::Injected(message.into())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Codec(e) => write!(f, "store value codec error: {e}"),
            StoreError::InvalidInput(m) => write!(f, "invalid store input: {m}"),
            StoreError::Injected(m) => write!(f, "injected store fault: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Corrupt(_) | StoreError::InvalidInput(_) | StoreError::Injected(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_each_variant() {
        assert!(StoreError::corrupt("bad crc")
            .to_string()
            .contains("bad crc"));
        assert!(StoreError::invalid("huge key")
            .to_string()
            .contains("huge key"));
        let io = std::io::Error::other("boom");
        assert!(StoreError::from(io).to_string().contains("boom"));
        let codec = CodecError::new("short");
        assert!(StoreError::from(codec).to_string().contains("short"));
    }
}
