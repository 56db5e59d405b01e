//! Row-buffer state machines for banks and subarrays.
//!
//! Commodity DDR3 logically has one row buffer per bank; physically each
//! subarray has a local row buffer (Fig. 4(b) of the paper), and the SALP
//! architectures expose them. [`BankState`] models the superset: per-subarray
//! open rows plus a *designated* subarray whose buffer drives the global
//! bitlines (relevant for SALP-MASA).

use crate::timing::DramArch;

/// How a single access interacts with the row-buffer state — the five
/// conditions of Fig. 1 plus the MASA designated-subarray switch.
///
/// # Examples
///
/// ```
/// use drmap_dram::state::RowBufferOutcome;
///
/// assert!(RowBufferOutcome::Hit.is_hit());
/// assert!(!RowBufferOutcome::Conflict.is_hit());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowBufferOutcome {
    /// Requested row already open and selected: RD/WR only.
    Hit,
    /// Requested row open in a non-designated subarray (MASA): SASEL + RD/WR.
    HitOtherSubarray,
    /// No open row in the way: ACT + RD/WR.
    Miss,
    /// A different row of the *same subarray* (or same bank on DDR3) is
    /// open: PRE + ACT + RD/WR.
    Conflict,
    /// A different subarray of the same bank holds an open row and the
    /// architecture can overlap its precharge: the SALP fast path.
    ConflictOtherSubarray,
}

impl RowBufferOutcome {
    /// All outcomes.
    pub const ALL: [RowBufferOutcome; 5] = [
        RowBufferOutcome::Hit,
        RowBufferOutcome::HitOtherSubarray,
        RowBufferOutcome::Miss,
        RowBufferOutcome::Conflict,
        RowBufferOutcome::ConflictOtherSubarray,
    ];

    /// Position in [`RowBufferOutcome::ALL`], which is the order of every
    /// per-outcome counter array.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// True for outcomes that need no activation.
    pub fn is_hit(self) -> bool {
        matches!(
            self,
            RowBufferOutcome::Hit | RowBufferOutcome::HitOtherSubarray
        )
    }

    /// True for outcomes that require an activation.
    pub fn needs_activate(self) -> bool {
        !self.is_hit()
    }

    /// Short label for statistics output.
    pub fn label(self) -> &'static str {
        match self {
            RowBufferOutcome::Hit => "hit",
            RowBufferOutcome::HitOtherSubarray => "hit-other-sa",
            RowBufferOutcome::Miss => "miss",
            RowBufferOutcome::Conflict => "conflict",
            RowBufferOutcome::ConflictOtherSubarray => "conflict-other-sa",
        }
    }
}

/// State of one subarray's local row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubarrayState {
    /// No row latched.
    #[default]
    Closed,
    /// The given row (index within the subarray) is latched.
    Open(usize),
}

impl SubarrayState {
    /// The open row, if any.
    pub fn open_row(self) -> Option<usize> {
        match self {
            SubarrayState::Closed => None,
            SubarrayState::Open(r) => Some(r),
        }
    }
}

/// Row-buffer state of one bank: per-subarray local buffers plus the
/// designated subarray connected to the global bitlines.
///
/// The same type models all four architectures; the architecture only
/// changes *how many* subarrays may be open at once and how an access is
/// classified (see [`BankState::classify`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankState {
    subarrays: Vec<SubarrayState>,
    designated: usize,
}

impl BankState {
    /// A bank with `subarrays` closed subarrays.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays == 0`.
    pub fn new(subarrays: usize) -> Self {
        assert!(subarrays > 0, "a bank needs at least one subarray");
        BankState {
            subarrays: vec![SubarrayState::Closed; subarrays],
            designated: 0,
        }
    }

    /// Number of subarrays.
    pub fn subarray_count(&self) -> usize {
        self.subarrays.len()
    }

    /// State of subarray `sa`.
    ///
    /// # Panics
    ///
    /// Panics if `sa` is out of range.
    pub fn subarray(&self, sa: usize) -> SubarrayState {
        self.subarrays[sa]
    }

    /// The subarray currently connected to the global bitlines.
    pub fn designated(&self) -> usize {
        self.designated
    }

    /// Number of subarrays with an open row.
    pub fn open_count(&self) -> usize {
        self.subarrays
            .iter()
            .filter(|s| s.open_row().is_some())
            .count()
    }

    /// The single open `(subarray, row)` if exactly one is open.
    pub fn single_open(&self) -> Option<(usize, usize)> {
        let mut found = None;
        for (sa, s) in self.subarrays.iter().enumerate() {
            if let Some(row) = s.open_row() {
                if found.is_some() {
                    return None;
                }
                found = Some((sa, row));
            }
        }
        found
    }

    /// Classify an access to `(sa, row)` under `arch` against the current
    /// state. Does not mutate state.
    ///
    /// On DDR3 the subarray level is invisible: any open row anywhere in the
    /// bank conflicts unless it is exactly the requested `(sa, row)`.
    pub fn classify(&self, arch: DramArch, sa: usize, row: usize) -> RowBufferOutcome {
        let target = self.subarrays[sa];
        match arch {
            DramArch::Ddr3 => match self.single_open() {
                None => RowBufferOutcome::Miss,
                Some((osa, orow)) if osa == sa && orow == row => RowBufferOutcome::Hit,
                Some(_) => RowBufferOutcome::Conflict,
            },
            DramArch::Salp1 | DramArch::Salp2 => match target.open_row() {
                Some(orow) if orow == row => RowBufferOutcome::Hit,
                Some(_) => RowBufferOutcome::Conflict,
                None => {
                    if self
                        .subarrays
                        .iter()
                        .enumerate()
                        .any(|(i, s)| i != sa && s.open_row().is_some())
                    {
                        RowBufferOutcome::ConflictOtherSubarray
                    } else {
                        RowBufferOutcome::Miss
                    }
                }
            },
            DramArch::SalpMasa => match target.open_row() {
                Some(orow) if orow == row => {
                    if self.designated == sa {
                        RowBufferOutcome::Hit
                    } else {
                        RowBufferOutcome::HitOtherSubarray
                    }
                }
                Some(_) => RowBufferOutcome::Conflict,
                None => RowBufferOutcome::Miss,
            },
        }
    }

    /// Record an activation of `(sa, row)` and make `sa` the designated
    /// subarray.
    ///
    /// Never closes other subarrays: the controller issues precharges
    /// explicitly (on non-MASA architectures it does so before — or, for
    /// SALP-2's overlapped activation, immediately after — the activation).
    pub fn activate(&mut self, sa: usize, row: usize) {
        self.subarrays[sa] = SubarrayState::Open(row);
        self.designated = sa;
    }

    /// Record a precharge of subarray `sa`.
    pub fn precharge(&mut self, sa: usize) {
        self.subarrays[sa] = SubarrayState::Closed;
    }

    /// Record a precharge of every subarray.
    pub fn precharge_all(&mut self) {
        for s in &mut self.subarrays {
            *s = SubarrayState::Closed;
        }
    }

    /// Record a designated-subarray switch (MASA SASEL).
    ///
    /// # Panics
    ///
    /// Panics if `sa` is out of range.
    pub fn select(&mut self, sa: usize) {
        assert!(sa < self.subarrays.len(), "subarray out of range");
        self.designated = sa;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bank_is_closed() {
        let b = BankState::new(8);
        assert_eq!(b.open_count(), 0);
        assert_eq!(b.single_open(), None);
    }

    #[test]
    #[should_panic(expected = "at least one subarray")]
    fn zero_subarrays_panics() {
        let _ = BankState::new(0);
    }

    #[test]
    fn ddr3_hit_miss_conflict() {
        let mut b = BankState::new(8);
        assert_eq!(b.classify(DramArch::Ddr3, 0, 5), RowBufferOutcome::Miss);
        b.activate(0, 5);
        assert_eq!(b.classify(DramArch::Ddr3, 0, 5), RowBufferOutcome::Hit);
        assert_eq!(b.classify(DramArch::Ddr3, 0, 6), RowBufferOutcome::Conflict);
        // DDR3 sees a different subarray's row as a plain conflict.
        assert_eq!(b.classify(DramArch::Ddr3, 3, 5), RowBufferOutcome::Conflict);
    }

    #[test]
    fn salp1_cross_subarray_is_fast_conflict() {
        let mut b = BankState::new(8);
        b.activate(0, 5);
        assert_eq!(
            b.classify(DramArch::Salp1, 3, 7),
            RowBufferOutcome::ConflictOtherSubarray
        );
        assert_eq!(
            b.classify(DramArch::Salp1, 0, 7),
            RowBufferOutcome::Conflict
        );
        assert_eq!(b.classify(DramArch::Salp1, 0, 5), RowBufferOutcome::Hit);
    }

    #[test]
    fn activation_never_closes_others() {
        let mut b = BankState::new(8);
        b.activate(0, 5);
        b.activate(3, 7);
        assert_eq!(b.open_count(), 2);
        assert_eq!(b.designated(), 3);
        assert_eq!(b.single_open(), None);
        // The controller closes explicitly.
        b.precharge(0);
        assert_eq!(b.single_open(), Some((3, 7)));
    }

    #[test]
    fn masa_hit_other_subarray_needs_select() {
        let mut b = BankState::new(8);
        b.activate(0, 5);
        b.activate(3, 7);
        // Designated is now 3; row 5 is still open in subarray 0.
        assert_eq!(
            b.classify(DramArch::SalpMasa, 0, 5),
            RowBufferOutcome::HitOtherSubarray
        );
        b.select(0);
        assert_eq!(b.classify(DramArch::SalpMasa, 0, 5), RowBufferOutcome::Hit);
    }

    #[test]
    fn masa_same_subarray_conflict() {
        let mut b = BankState::new(8);
        b.activate(0, 5);
        assert_eq!(
            b.classify(DramArch::SalpMasa, 0, 9),
            RowBufferOutcome::Conflict
        );
        // A closed subarray is a plain miss even with other rows open.
        assert_eq!(b.classify(DramArch::SalpMasa, 2, 1), RowBufferOutcome::Miss);
    }

    #[test]
    fn precharge_clears() {
        let mut b = BankState::new(4);
        b.activate(0, 5);
        b.activate(1, 6);
        b.precharge(0);
        assert_eq!(b.open_count(), 1);
        b.precharge_all();
        assert_eq!(b.open_count(), 0);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, outcome) in RowBufferOutcome::ALL.into_iter().enumerate() {
            assert_eq!(outcome.index(), i);
        }
    }

    #[test]
    fn outcome_predicates() {
        assert!(RowBufferOutcome::HitOtherSubarray.is_hit());
        assert!(RowBufferOutcome::Miss.needs_activate());
        assert!(RowBufferOutcome::ConflictOtherSubarray.needs_activate());
        for o in RowBufferOutcome::ALL {
            assert_eq!(o.is_hit(), !o.needs_activate());
        }
    }
}
