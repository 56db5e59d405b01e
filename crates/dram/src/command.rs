//! DRAM command set.
//!
//! The command vocabulary covers commodity DDR3 (ACT/PRE/RD/WR/REF) plus the
//! subarray-select command (`SASEL`) that SALP-MASA adds to switch the
//! designated subarray whose local row buffer drives the global bitlines.

use core::fmt;

use crate::address::PhysicalAddress;

/// A DRAM command kind.
///
/// # Examples
///
/// ```
/// use drmap_dram::command::CommandKind;
///
/// assert!(CommandKind::Activate.is_row_command());
/// assert!(CommandKind::Read.is_column_command());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Open a row: copy it into the (local) row buffer.
    Activate,
    /// Close the open row of one subarray/bank.
    Precharge,
    /// Read one burst from the open row.
    Read,
    /// Write one burst into the open row.
    Write,
    /// Refresh (all banks).
    Refresh,
    /// SALP-MASA: connect a different activated subarray's local row buffer
    /// to the global bitlines.
    SubarraySelect,
}

impl CommandKind {
    /// All command kinds.
    pub const ALL: [CommandKind; 6] = [
        CommandKind::Activate,
        CommandKind::Precharge,
        CommandKind::Read,
        CommandKind::Write,
        CommandKind::Refresh,
        CommandKind::SubarraySelect,
    ];

    /// Position in [`CommandKind::ALL`], which is the order of
    /// [`ActivityCounters::commands`](crate::controller::ActivityCounters::commands).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// True for commands that operate on rows (ACT/PRE).
    pub fn is_row_command(self) -> bool {
        matches!(self, CommandKind::Activate | CommandKind::Precharge)
    }

    /// True for commands that transfer data (RD/WR).
    pub fn is_column_command(self) -> bool {
        matches!(self, CommandKind::Read | CommandKind::Write)
    }

    /// Mnemonic used in exported command traces.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CommandKind::Activate => "ACT",
            CommandKind::Precharge => "PRE",
            CommandKind::Read => "RD",
            CommandKind::Write => "WR",
            CommandKind::Refresh => "REF",
            CommandKind::SubarraySelect => "SASEL",
        }
    }
}

impl fmt::Display for CommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A scheduled command: what, where, and when it was issued.
///
/// Produced by the controller for command-trace export (the "Command Trace"
/// artefact of the paper's Fig. 8 tool flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledCommand {
    /// Cycle at which the command was placed on the command bus.
    pub cycle: u64,
    /// The command kind.
    pub kind: CommandKind,
    /// Target address (row/column meaningful only where applicable).
    pub address: PhysicalAddress,
}

impl fmt::Display for ScheduledCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>10}  {:<5}  {}", self.cycle, self.kind, self.address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_vs_column_commands() {
        assert!(CommandKind::Activate.is_row_command());
        assert!(CommandKind::Precharge.is_row_command());
        assert!(!CommandKind::Read.is_row_command());
        assert!(CommandKind::Read.is_column_command());
        assert!(CommandKind::Write.is_column_command());
        assert!(!CommandKind::Refresh.is_column_command());
        assert!(!CommandKind::SubarraySelect.is_column_command());
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, kind) in CommandKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for kind in CommandKind::ALL {
            assert!(seen.insert(kind.mnemonic()));
        }
    }

    #[test]
    fn scheduled_command_display() {
        let c = ScheduledCommand {
            cycle: 42,
            kind: CommandKind::Activate,
            address: PhysicalAddress::default(),
        };
        let s = c.to_string();
        assert!(s.contains("42"));
        assert!(s.contains("ACT"));
    }
}
