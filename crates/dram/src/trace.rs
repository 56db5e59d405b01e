//! Request-trace construction and command-trace export.
//!
//! The paper's tool flow (Fig. 8) passes DRAM request traces into
//! Ramulator and exports command traces for the energy model. This module
//! provides the same artefacts: builders for structured access patterns
//! and a text exporter for scheduled commands.

use crate::address::PhysicalAddress;
use crate::command::ScheduledCommand;
use crate::request::Request;

/// Builder for structured request traces used by the profiler and tests.
///
/// # Examples
///
/// ```
/// use drmap_dram::trace::TraceBuilder;
///
/// let trace = TraceBuilder::new().sequential_columns(0, 0, 0, 16).build();
/// assert_eq!(trace.len(), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    requests: Vec<Request>,
}

impl TraceBuilder {
    /// An empty read-trace builder.
    pub fn new() -> Self {
        TraceBuilder {
            requests: Vec::new(),
        }
    }

    fn push(&mut self, address: PhysicalAddress) {
        self.requests.push(Request::read(address));
    }

    /// `n` accesses to consecutive columns of one row (row-buffer hits
    /// after the first access).
    pub fn sequential_columns(
        mut self,
        bank: usize,
        subarray: usize,
        row: usize,
        n: usize,
    ) -> Self {
        for c in 0..n {
            self.push(PhysicalAddress {
                bank,
                subarray,
                row,
                column: c,
                ..PhysicalAddress::default()
            });
        }
        self
    }

    /// `n` accesses to distinct rows of one subarray (row-buffer conflicts
    /// after the first access).
    pub(crate) fn row_conflicts(mut self, bank: usize, subarray: usize, n: usize) -> Self {
        for r in 0..n {
            self.push(PhysicalAddress {
                bank,
                subarray,
                row: r,
                ..PhysicalAddress::default()
            });
        }
        self
    }

    /// `rounds` sweeps over `subarrays` subarrays of one bank, each access
    /// touching that subarray's fixed row (the subarray-level-parallelism
    /// pattern of Fig. 1).
    pub(crate) fn subarray_sweep(mut self, bank: usize, subarrays: usize, rounds: usize) -> Self {
        for round in 0..rounds {
            for sa in 0..subarrays {
                self.push(PhysicalAddress {
                    bank,
                    subarray: sa,
                    row: sa + 1,
                    column: round,
                    ..PhysicalAddress::default()
                });
            }
        }
        self
    }

    /// `rounds` sweeps over `banks` banks, each access touching that bank's
    /// fixed row (the bank-level-parallelism pattern of Fig. 1).
    pub(crate) fn bank_sweep(mut self, banks: usize, rounds: usize) -> Self {
        for round in 0..rounds {
            for b in 0..banks {
                self.push(PhysicalAddress {
                    bank: b,
                    row: b + 1,
                    column: round,
                    ..PhysicalAddress::default()
                });
            }
        }
        self
    }

    /// Finish and return the trace.
    pub fn build(self) -> Vec<Request> {
        self.requests
    }
}

/// Render a command trace in a Ramulator-like text format:
/// one `cycle mnemonic address` line per command.
///
/// # Examples
///
/// ```
/// use drmap_dram::trace::format_command_trace;
/// use drmap_dram::command::{CommandKind, ScheduledCommand};
/// use drmap_dram::address::PhysicalAddress;
///
/// let cmds = [ScheduledCommand { cycle: 3, kind: CommandKind::Activate, address: PhysicalAddress::default() }];
/// let text = format_command_trace(&cmds);
/// assert!(text.contains("ACT"));
/// ```
pub fn format_command_trace(commands: &[ScheduledCommand]) -> String {
    let mut out = String::with_capacity(commands.len() * 48);
    for c in commands {
        out.push_str(&c.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandKind;
    use crate::request::RequestKind;

    #[test]
    fn sequential_columns_walk_columns() {
        let t = TraceBuilder::new().sequential_columns(2, 1, 5, 4).build();
        assert_eq!(t.len(), 4);
        for (i, r) in t.iter().enumerate() {
            assert_eq!(r.address.column, i);
            assert_eq!(r.address.bank, 2);
            assert_eq!(r.address.subarray, 1);
            assert_eq!(r.address.row, 5);
            assert_eq!(r.kind, RequestKind::Read);
        }
    }

    #[test]
    fn subarray_sweep_visits_each_subarray_per_round() {
        let t = TraceBuilder::new().subarray_sweep(0, 8, 2).build();
        assert_eq!(t.len(), 16);
        assert_eq!(t[0].address.subarray, 0);
        assert_eq!(t[7].address.subarray, 7);
        assert_eq!(t[8].address.subarray, 0);
        // Rows differ per subarray so DDR3 sees them as conflicting rows.
        assert_ne!(t[0].address.row, t[1].address.row);
        // Columns advance per round so repeats are not duplicate requests.
        assert_ne!(t[0].address.column, t[8].address.column);
    }

    #[test]
    fn bank_sweep_visits_each_bank_per_round() {
        let t = TraceBuilder::new().bank_sweep(8, 3).build();
        assert_eq!(t.len(), 24);
        assert_eq!(t[0].address.bank, 0);
        assert_eq!(t[15].address.bank, 7);
    }

    #[test]
    fn command_trace_format_one_line_per_command() {
        let cmds = vec![
            ScheduledCommand {
                cycle: 0,
                kind: CommandKind::Activate,
                address: PhysicalAddress::default(),
            },
            ScheduledCommand {
                cycle: 11,
                kind: CommandKind::Read,
                address: PhysicalAddress::default(),
            },
        ];
        let text = format_command_trace(&cmds);
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("RD"));
    }
}
