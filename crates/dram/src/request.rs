//! Memory requests and request traces.
//!
//! A [`Request`] is one burst-sized read or write at a physical address —
//! the granularity at which the controller schedules commands and the
//! mapping policies lay out tile data.

use core::fmt;

use crate::address::PhysicalAddress;

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read one burst.
    Read,
    /// Write one burst.
    Write,
}

impl RequestKind {
    /// Both request kinds.
    pub const ALL: [RequestKind; 2] = [RequestKind::Read, RequestKind::Write];

    /// Lowercase label ("read" / "write").
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::Read => "read",
            RequestKind::Write => "write",
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One burst-sized memory request.
///
/// # Examples
///
/// ```
/// use drmap_dram::request::{Request, RequestKind};
/// use drmap_dram::address::PhysicalAddress;
///
/// let r = Request::read(PhysicalAddress::default());
/// assert_eq!(r.kind, RequestKind::Read);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Target location (one burst slot).
    pub address: PhysicalAddress,
    /// Read or write.
    pub kind: RequestKind,
}

impl Request {
    /// A read request at `address`.
    pub fn read(address: PhysicalAddress) -> Self {
        Request {
            address,
            kind: RequestKind::Read,
        }
    }

    /// A write request at `address`.
    pub fn write(address: PhysicalAddress) -> Self {
        Request {
            address,
            kind: RequestKind::Write,
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<5} {}", self.kind, self.address)
    }
}

/// How requests arrive at the controller.
///
/// The access-condition profiler uses [`DriveMode::Dependent`] for the
/// isolated hit/miss/conflict latencies of Fig. 1 and
/// [`DriveMode::Streamed`] for the parallelism conditions, matching how a
/// CNN accelerator's DMA engine streams tile data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DriveMode {
    /// Each request is issued only after the previous one completed
    /// (isolated per-access latency).
    Dependent,
    /// Each request arrives the given number of cycles after the previous
    /// completion — fully isolated accesses with all bank timings (tRAS,
    /// tRC) quiesced. Used for the Fig. 1 hit/miss/conflict measurements.
    Spaced(u64),
    /// All requests are available immediately and served back-to-back
    /// (steady-state streaming, overlap allowed).
    #[default]
    Streamed,
}

impl DriveMode {
    /// True for modes where each request waits for the previous completion.
    pub fn is_serialized(self) -> bool {
        matches!(self, DriveMode::Dependent | DriveMode::Spaced(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let a = PhysicalAddress::default();
        assert_eq!(Request::read(a).kind, RequestKind::Read);
        assert_eq!(Request::write(a).kind, RequestKind::Write);
    }

    #[test]
    fn display_contains_kind_and_address() {
        let r = Request::write(PhysicalAddress {
            bank: 2,
            ..PhysicalAddress::default()
        });
        let s = r.to_string();
        assert!(s.contains("write"));
        assert!(s.contains("ba2"));
    }

    #[test]
    fn default_drive_mode_is_streamed() {
        assert_eq!(DriveMode::default(), DriveMode::Streamed);
    }
}
