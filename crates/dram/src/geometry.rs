//! DRAM device geometry: the physical organization of a DRAM system from
//! channel down to column, mirroring Fig. 4 of the DRMap paper.
//!
//! A [`Geometry`] describes how many of each organizational level exist and
//! how wide the data path is. All capacity arithmetic (bits per row, bytes
//! per burst, total device capacity) lives here so that the rest of the
//! crate never recomputes it ad hoc.

use core::fmt;

use crate::error::ConfigError;

/// The six organizational levels of a DRAM system, ordered from the top of
/// the hierarchy (channel) to the bottom (column).
///
/// `Subarray` sits between `Bank` and `Row`: commodity DDR3 exposes no
/// subarray-level commands, but the physical bank is still built from
/// subarrays (Fig. 4(b) of the paper), and the SALP architectures make the
/// level architecturally visible.
///
/// # Examples
///
/// ```
/// use drmap_dram::geometry::Level;
///
/// assert!(Level::Channel < Level::Column);
/// assert_eq!(Level::ALL.len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Independent command/data bus.
    Channel,
    /// A set of chips operating in lock-step on one channel.
    Rank,
    /// One DRAM die; chips in a rank share addresses and split the data bus.
    Chip,
    /// Independently schedulable array with (logically) one row buffer.
    Bank,
    /// Physical sub-structure of a bank with a local row buffer.
    Subarray,
    /// A row of cells; activation copies one row into the row buffer.
    Row,
    /// Column within an open row; the unit a RD/WR burst addresses.
    Column,
}

impl Level {
    /// All levels, outermost first.
    pub const ALL: [Level; 6] = [
        Level::Channel,
        Level::Rank,
        Level::Bank,
        Level::Subarray,
        Level::Row,
        Level::Column,
    ];

    /// Short lowercase name used in trace output and figure labels.
    ///
    /// # Examples
    ///
    /// ```
    /// use drmap_dram::geometry::Level;
    /// assert_eq!(Level::Subarray.name(), "subarray");
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            Level::Channel => "channel",
            Level::Rank => "rank",
            Level::Chip => "chip",
            Level::Bank => "bank",
            Level::Subarray => "subarray",
            Level::Row => "row",
            Level::Column => "column",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Physical organization of a DRAM system.
///
/// The default constructors provide the configurations of Table II of the
/// paper (DDR3-1600 2 Gb x8 and the SALP equivalent with 8 subarrays per
/// bank). The fields are public, so any other geometry is one of them
/// with fields overridden, checked by [`Geometry::validate`].
///
/// # Examples
///
/// ```
/// use drmap_dram::geometry::Geometry;
///
/// let g = Geometry::ddr3_2gb_x8();
/// assert_eq!(g.banks, 8);
/// assert_eq!(g.capacity_bytes(), 2 * 1024 * 1024 * 1024 / 8); // 2 Gb chip
///
/// let g = Geometry { channels: 2, subarrays: 16, ..Geometry::ddr3_2gb_x8() };
/// g.validate()?;
/// assert_eq!(g.capacity_bytes(), 2 * 2 * 1024 * 1024 * 1024 / 8); // two channels
/// # Ok::<(), drmap_dram::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Chips per rank (lock-step; each contributes `device_width` bits).
    pub chips: usize,
    /// Banks per chip.
    pub banks: usize,
    /// Subarrays per bank (1 collapses the subarray level).
    pub subarrays: usize,
    /// Rows per bank (split evenly across subarrays).
    pub rows: usize,
    /// Columns per row *per chip*, each `device_width` bits wide.
    pub columns: usize,
    /// Data pins per chip (x4/x8/x16).
    pub device_width: usize,
    /// Burst length (DDR3: 8).
    pub burst_length: usize,
}

impl Geometry {
    /// DDR3-1600 2 Gb x8 with the subarray level collapsed (commodity view),
    /// per Table II: 1 channel, 1 rank, 1 chip, 8 banks.
    ///
    /// A 2 Gb x8 die has 8 banks × 32768 rows × 1024 columns × 8 bits.
    pub fn ddr3_2gb_x8() -> Self {
        Geometry {
            channels: 1,
            ranks: 1,
            chips: 1,
            banks: 8,
            subarrays: 1,
            rows: 32_768,
            columns: 1024,
            device_width: 8,
            burst_length: 8,
        }
    }

    /// SALP 2 Gb x8 with 8 subarrays per bank, per Table II.
    pub fn salp_2gb_x8() -> Self {
        Geometry {
            subarrays: 8,
            ..Self::ddr3_2gb_x8()
        }
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any level count is zero, if `rows` is not
    /// divisible by `subarrays`, or if `columns` is not divisible by
    /// `burst_length`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fields = [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("chips", self.chips),
            ("banks", self.banks),
            ("subarrays", self.subarrays),
            ("rows", self.rows),
            ("columns", self.columns),
            ("device_width", self.device_width),
            ("burst_length", self.burst_length),
        ];
        for (name, v) in fields {
            if v == 0 {
                return Err(ConfigError::zero_field(name));
            }
        }
        if !self.rows.is_multiple_of(self.subarrays) {
            return Err(ConfigError::new(format!(
                "rows ({}) must be divisible by subarrays ({})",
                self.rows, self.subarrays
            )));
        }
        if !self.columns.is_multiple_of(self.burst_length) {
            return Err(ConfigError::new(format!(
                "columns ({}) must be divisible by burst_length ({})",
                self.columns, self.burst_length
            )));
        }
        Ok(())
    }

    /// Rows in each subarray (`rows / subarrays`).
    pub(crate) fn rows_per_subarray(&self) -> usize {
        self.rows / self.subarrays
    }

    /// Bytes transferred by one burst across all chips of a rank
    /// (`chips * device_width * burst_length / 8`).
    pub fn burst_bytes(&self) -> usize {
        self.chips * self.device_width * self.burst_length / 8
    }

    /// Number of burst-sized slots in one row of one bank (per rank).
    pub(crate) fn bursts_per_row(&self) -> usize {
        self.columns / self.burst_length
    }

    /// Total capacity in bytes across all channels/ranks/chips.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks as u64
            * self.chips as u64
            * self.banks as u64
            * self.rows as u64
            * self.columns as u64
            * self.device_width as u64
            / 8
    }

    /// Number of burst-sized mapping slots in the whole system.
    pub fn total_burst_slots(&self) -> u64 {
        self.capacity_bytes() / self.burst_bytes() as u64
    }

    /// Size (element count) of the given level.
    ///
    /// `Row` returns rows **per subarray**, matching the nesting used by the
    /// mapping loops (subarray encloses row).
    pub fn level_size(&self, level: Level) -> usize {
        match level {
            Level::Channel => self.channels,
            Level::Rank => self.ranks,
            Level::Chip => self.chips,
            Level::Bank => self.banks,
            Level::Subarray => self.subarrays,
            Level::Row => self.rows_per_subarray(),
            Level::Column => self.bursts_per_row(),
        }
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}ch x {}rank x {}chip x {}bank x {}sa x {}row x {}col (x{}, BL{})",
            self.channels,
            self.ranks,
            self.chips,
            self.banks,
            self.subarrays,
            self.rows,
            self.columns,
            self.device_width,
            self.burst_length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_capacity_is_2gbit() {
        let g = Geometry::ddr3_2gb_x8();
        assert_eq!(g.capacity_bytes(), 256 * 1024 * 1024);
    }

    #[test]
    fn salp_matches_table_ii() {
        let g = Geometry::salp_2gb_x8();
        assert_eq!(g.channels, 1);
        assert_eq!(g.ranks, 1);
        assert_eq!(g.chips, 1);
        assert_eq!(g.banks, 8);
        assert_eq!(g.subarrays, 8);
        assert_eq!(g.capacity_bytes(), 256 * 1024 * 1024);
    }

    #[test]
    fn row_and_burst_arithmetic() {
        let g = Geometry::ddr3_2gb_x8();
        assert_eq!(g.burst_bytes(), 8);
        assert_eq!(g.bursts_per_row(), 128);
    }

    #[test]
    fn rows_per_subarray_divides_evenly() {
        let g = Geometry::salp_2gb_x8();
        assert_eq!(g.rows_per_subarray(), 4096);
        assert_eq!(g.rows_per_subarray() * g.subarrays, g.rows);
    }

    #[test]
    fn builder_overrides_and_validates() {
        let g = Geometry {
            channels: 2,
            subarrays: 16,
            ..Geometry::ddr3_2gb_x8()
        };
        g.validate().unwrap();
        assert_eq!(g.channels, 2);
        assert_eq!(g.subarrays, 16);
        assert_eq!(g.rows_per_subarray(), 2048);
    }

    #[test]
    fn builder_rejects_zero_banks() {
        let g = Geometry {
            banks: 0,
            ..Geometry::ddr3_2gb_x8()
        };
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("banks"));
    }

    #[test]
    fn builder_rejects_indivisible_rows() {
        let g = Geometry {
            subarrays: 7,
            ..Geometry::ddr3_2gb_x8()
        };
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("divisible"));
    }

    #[test]
    fn level_sizes_match_fields() {
        let g = Geometry::salp_2gb_x8();
        assert_eq!(g.level_size(Level::Channel), 1);
        assert_eq!(g.level_size(Level::Bank), 8);
        assert_eq!(g.level_size(Level::Subarray), 8);
        assert_eq!(g.level_size(Level::Row), 4096);
        assert_eq!(g.level_size(Level::Column), 128);
    }

    #[test]
    fn total_burst_slots_consistent() {
        let g = Geometry::ddr3_2gb_x8();
        let by_levels = (g.channels
            * g.ranks
            * g.banks
            * g.subarrays
            * g.rows_per_subarray()
            * g.bursts_per_row()) as u64;
        assert_eq!(g.total_burst_slots(), by_levels);
    }

    #[test]
    fn display_mentions_all_levels() {
        let s = Geometry::salp_2gb_x8().to_string();
        assert!(s.contains("8bank"));
        assert!(s.contains("8sa"));
        assert!(s.contains("BL8"));
    }

    #[test]
    fn level_ordering_outermost_first() {
        assert!(Level::Channel < Level::Rank);
        assert!(Level::Bank < Level::Subarray);
        assert!(Level::Row < Level::Column);
    }
}
