//! Memory requests and request traces.
//!
//! A [`Request`] is one burst-sized read or write at a physical address —
//! the granularity at which the controller schedules commands and the
//! mapping policies lay out tile data. A [`RowRun`] is a stretch of
//! requests to consecutive columns of one row — the unit the simulator
//! serves.

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
    /// Lowercase label ("read" / "write").
    pub(crate) fn label(self) -> &'static str {
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

/// A row run: `len` requests of one kind to consecutive columns of one
/// `(channel, rank, bank, subarray, row)`, from `head`'s column on.
///
/// Under the open-row policy every request after the head is a
/// row-buffer hit until a refresh closes the row, which is what lets the
/// controller serve a run in closed form (see [`crate::controller`]).
///
/// # Examples
///
/// ```
/// use drmap_dram::request::{Request, RowRun};
/// use drmap_dram::address::PhysicalAddress;
///
/// let run = RowRun { head: Request::read(PhysicalAddress { column: 8, ..PhysicalAddress::default() }), len: 4 };
/// let columns: Vec<usize> = run.requests().map(|r| r.address.column).collect();
/// assert_eq!(columns, [8, 9, 10, 11]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRun {
    /// The run's first request.
    pub head: Request,
    /// Number of requests in the run.
    pub len: usize,
}

impl RowRun {
    /// The run's `i`-th request: the head's address at column `+ i`.
    pub fn request(&self, i: usize) -> Request {
        Request {
            address: PhysicalAddress {
                column: self.head.address.column.wrapping_add(i),
                ..self.head.address
            },
            kind: self.head.kind,
        }
    }

    /// The run's requests, in order.
    pub fn requests(self) -> impl Iterator<Item = Request> {
        (0..self.len).map(move |i| self.request(i))
    }

    /// Split `trace` into maximal row runs, in order: each run extends
    /// while the next request has the same kind and the address of the
    /// run's next column.
    pub(crate) fn coalesce(mut trace: &[Request]) -> impl Iterator<Item = RowRun> + '_ {
        std::iter::from_fn(move || {
            let mut run = RowRun {
                head: *trace.first()?,
                len: 1,
            };
            while trace.get(run.len) == Some(&run.request(run.len)) {
                run.len += 1;
            }
            trace = &trace[run.len..];
            Some(run)
        })
    }
}

/// How requests arrive at the controller.
///
/// The access-condition profiler uses `Spaced(tRC)` for the isolated
/// hit/miss/conflict latencies of Fig. 1 and [`DriveMode::Streamed`] for
/// the parallelism conditions, matching how a CNN accelerator's DMA
/// engine streams tile data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DriveMode {
    /// Each request arrives the given number of cycles after the previous
    /// completion. `Spaced(0)` issues each request as soon as the
    /// previous one completed (isolated per-access latency); `Spaced(tRC)`
    /// also quiesces every bank timing (tRAS, tRC).
    Spaced(u64),
    /// All requests are available immediately and served back-to-back
    /// (steady-state streaming, overlap allowed).
    #[default]
    Streamed,
}

impl DriveMode {
    /// True for modes where each request waits for the previous completion.
    pub(crate) fn is_serialized(self) -> bool {
        matches!(self, DriveMode::Spaced(_))
    }

    /// Arrival of the request after one that arrived at `arrival` and
    /// completed at `completion`.
    pub(crate) fn next_arrival(self, arrival: u64, completion: u64) -> u64 {
        match self {
            DriveMode::Spaced(gap) => completion + gap,
            DriveMode::Streamed => arrival,
        }
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
    fn coalesce_splits_on_kind_row_and_column_gaps() {
        let at = |row, column| PhysicalAddress {
            row,
            column,
            ..PhysicalAddress::default()
        };
        let trace = [
            Request::read(at(0, 5)),
            Request::read(at(0, 6)),
            Request::write(at(0, 7)),  // kind changes
            Request::write(at(1, 8)),  // row changes
            Request::write(at(1, 10)), // column skips
            Request::write(at(1, 11)),
            Request::write(at(1, 11)), // column repeats
        ];
        let runs: Vec<RowRun> = RowRun::coalesce(&trace).collect();
        let lens: Vec<usize> = runs.iter().map(|r| r.len).collect();
        assert_eq!(lens, [2, 1, 1, 2, 1]);
        let expanded: Vec<Request> = runs.into_iter().flat_map(RowRun::requests).collect();
        assert_eq!(expanded, trace);
        assert_eq!(RowRun::coalesce(&[]).count(), 0);
    }

    #[test]
    fn default_drive_mode_is_streamed() {
        assert_eq!(DriveMode::default(), DriveMode::Streamed);
    }
}
