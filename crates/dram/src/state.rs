//! Row-buffer outcomes and how an access is classified.
//!
//! Commodity DDR3 logically has one row buffer per bank; physically each
//! subarray has a local row buffer (Fig. 4(b) of the paper), and the SALP
//! architectures expose them. The controller models the superset:
//! per-subarray open rows plus a *designated* subarray whose buffer drives
//! the global bitlines (relevant for SALP-MASA), and `classify` reads an
//! access's outcome off them.

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
    pub(crate) const fn index(self) -> usize {
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
}

/// Classify an access to `row` of a subarray that latches `open` (`None`
/// when precharged), under `arch`. `designated` says whether that
/// subarray drives the bank's global bitlines; `bank_open` counts the
/// bank's subarrays that latch a row. O(1): the controller keeps each
/// subarray's open row in its own record and the designated subarray and
/// open count in the bank's.
///
/// The open count stands in for a scan of the bank. On SALP-1/2 a closed
/// target with `bank_open > 0` means another subarray is open. DDR3,
/// SALP-1 and SALP-2 keep at most one subarray open between accesses, and
/// it is the designated one (an ACT designates its subarray; SALP-2's
/// overlapped ACT precharges the old one right after). So on DDR3 the
/// bank's one logical row buffer holds `(sa, row)` exactly when the
/// target latches `row`, and a single-open bank's victim is its
/// designated subarray.
pub(crate) fn classify(
    arch: DramArch,
    open: Option<usize>,
    row: usize,
    designated: bool,
    bank_open: usize,
) -> RowBufferOutcome {
    match open {
        Some(open) if open == row => match arch {
            DramArch::SalpMasa if !designated => RowBufferOutcome::HitOtherSubarray,
            _ => RowBufferOutcome::Hit,
        },
        Some(_) => RowBufferOutcome::Conflict,
        None if bank_open == 0 => RowBufferOutcome::Miss,
        None => match arch {
            DramArch::Ddr3 => RowBufferOutcome::Conflict,
            DramArch::Salp1 | DramArch::Salp2 => RowBufferOutcome::ConflictOtherSubarray,
            DramArch::SalpMasa => RowBufferOutcome::Miss,
        },
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// State of one subarray's local row buffer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    enum SubarrayState {
        /// No row latched.
        #[default]
        Closed,
        /// The given row (index within the subarray) is latched.
        Open(usize),
    }

    impl SubarrayState {
        /// The open row, if any.
        fn open_row(self) -> Option<usize> {
            match self {
                SubarrayState::Closed => None,
                SubarrayState::Open(r) => Some(r),
            }
        }
    }

    /// The reference row-buffer state of one bank: per-subarray local
    /// buffers plus the designated subarray, classified by scanning the
    /// bank. [`classify`] must agree with it on every state the
    /// controller reaches.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct BankState {
        subarrays: Vec<SubarrayState>,
        designated: usize,
    }

    impl BankState {
        /// A bank with `subarrays` closed subarrays.
        ///
        /// # Panics
        ///
        /// Panics if `subarrays == 0`.
        pub(crate) fn new(subarrays: usize) -> Self {
            assert!(subarrays > 0, "a bank needs at least one subarray");
            BankState {
                subarrays: vec![SubarrayState::Closed; subarrays],
                designated: 0,
            }
        }

        /// The row subarray `sa` latches, if any.
        pub(crate) fn open_row(&self, sa: usize) -> Option<usize> {
            self.subarrays[sa].open_row()
        }

        /// The subarray currently connected to the global bitlines.
        pub(crate) fn designated(&self) -> usize {
            self.designated
        }

        /// Number of subarrays with an open row.
        pub(crate) fn open_count(&self) -> usize {
            self.subarrays
                .iter()
                .filter(|s| s.open_row().is_some())
                .count()
        }

        /// The single open `(subarray, row)` if exactly one is open.
        pub(crate) fn single_open(&self) -> Option<(usize, usize)> {
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

        /// Classify an access to `(sa, row)` under `arch` by scanning the
        /// bank. On DDR3 the subarray level is invisible: any open row
        /// anywhere in the bank conflicts unless it is exactly the
        /// requested `(sa, row)`.
        pub(crate) fn classify(&self, arch: DramArch, sa: usize, row: usize) -> RowBufferOutcome {
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

        /// [`classify`] on this bank's state: the O(1) rule the
        /// controller applies, fed from the reference's own fields.
        fn classify_fast(&self, arch: DramArch, sa: usize, row: usize) -> RowBufferOutcome {
            let designated = self.designated == sa;
            classify(arch, self.open_row(sa), row, designated, self.open_count())
        }

        /// Record an activation of `(sa, row)` and make `sa` the
        /// designated subarray. Never closes other subarrays.
        pub(crate) fn activate(&mut self, sa: usize, row: usize) {
            self.subarrays[sa] = SubarrayState::Open(row);
            self.designated = sa;
        }

        /// Record a precharge of subarray `sa`.
        pub(crate) fn precharge(&mut self, sa: usize) {
            self.subarrays[sa] = SubarrayState::Closed;
        }

        /// Record a designated-subarray switch (MASA SASEL).
        ///
        /// # Panics
        ///
        /// Panics if `sa` is out of range.
        pub(crate) fn select(&mut self, sa: usize) {
            assert!(sa < self.subarrays.len(), "subarray out of range");
            self.designated = sa;
        }
    }

    /// `b`'s outcome for `(sa, row)` under `arch`, after checking that
    /// the O(1) [`classify`] agrees with the scan.
    fn both(b: &BankState, arch: DramArch, sa: usize, row: usize) -> RowBufferOutcome {
        let want = b.classify(arch, sa, row);
        assert_eq!(
            b.classify_fast(arch, sa, row),
            want,
            "{arch} sa{sa} ro{row} {b:?}"
        );
        want
    }

    /// One step of a row-buffer command sequence.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// An access that needs `(sa, row)` activated.
        Activate(usize, usize),
        Precharge(usize),
        Select(usize),
    }

    fn op_strategy(subarrays: usize) -> impl Strategy<Value = Op> {
        (0u8..3, 0..subarrays, 0usize..4).prop_map(|(op, sa, row)| match op {
            0 => Op::Activate(sa, row),
            1 => Op::Precharge(sa),
            _ => Op::Select(sa),
        })
    }

    /// Apply `op` to `b` the way the controller would under `arch`: an
    /// activation first closes the target's other row, and on DDR3 and
    /// SALP-1/2 the bank's open subarray (SALP-2 right after the ACT);
    /// precharges go to open subarrays; SASEL is MASA's and goes to an
    /// open subarray.
    fn apply(b: &mut BankState, arch: DramArch, op: Op) {
        match op {
            Op::Activate(sa, row) => {
                if b.open_row(sa).is_some() {
                    b.precharge(sa);
                }
                let victim = match arch {
                    DramArch::SalpMasa => None,
                    _ => b.single_open().map(|(victim, _)| victim),
                };
                let (before, after) = match arch {
                    DramArch::Salp2 => (None, victim),
                    _ => (victim, None),
                };
                if let Some(victim) = before {
                    b.precharge(victim);
                }
                b.activate(sa, row);
                if let Some(victim) = after {
                    b.precharge(victim);
                }
            }
            Op::Precharge(sa) if b.open_row(sa).is_some() => b.precharge(sa),
            Op::Select(sa) if arch == DramArch::SalpMasa && b.open_row(sa).is_some() => {
                b.select(sa)
            }
            Op::Precharge(_) | Op::Select(_) => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every step of a random activate/precharge/select
        /// sequence, on every architecture and 1, 8 or 16 subarrays, the
        /// O(1) classification agrees with the scan for every subarray and
        /// a spread of rows; and on DDR3 and SALP-1/2 a bank with one open
        /// subarray has it designated, the victim the controller closes.
        #[test]
        fn the_o1_classify_and_victim_agree_with_the_scan(
            arch in prop_oneof![
                Just(DramArch::Ddr3),
                Just(DramArch::Salp1),
                Just(DramArch::Salp2),
                Just(DramArch::SalpMasa),
            ],
            subarrays in prop_oneof![Just(1usize), Just(8), Just(16)],
            ops in prop::collection::vec(op_strategy(16), 1..64),
        ) {
            let mut b = BankState::new(subarrays);
            for op in ops {
                let op = match op {
                    Op::Activate(sa, row) => Op::Activate(sa % subarrays, row),
                    Op::Precharge(sa) => Op::Precharge(sa % subarrays),
                    Op::Select(sa) => Op::Select(sa % subarrays),
                };
                apply(&mut b, arch, op);
                for sa in 0..subarrays {
                    for row in 0..5 {
                        prop_assert_eq!(b.classify_fast(arch, sa, row), b.classify(arch, sa, row));
                    }
                }
                if arch != DramArch::SalpMasa {
                    prop_assert!(b.open_count() <= 1, "{:?}", b);
                    if let Some((open, _)) = b.single_open() {
                        prop_assert_eq!(b.designated(), open);
                    }
                }
            }
        }
    }

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
        assert_eq!(both(&b, DramArch::Ddr3, 0, 5), RowBufferOutcome::Miss);
        b.activate(0, 5);
        assert_eq!(both(&b, DramArch::Ddr3, 0, 5), RowBufferOutcome::Hit);
        assert_eq!(both(&b, DramArch::Ddr3, 0, 6), RowBufferOutcome::Conflict);
        // DDR3 sees a different subarray's row as a plain conflict.
        assert_eq!(both(&b, DramArch::Ddr3, 3, 5), RowBufferOutcome::Conflict);
    }

    #[test]
    fn salp1_cross_subarray_is_fast_conflict() {
        let mut b = BankState::new(8);
        b.activate(0, 5);
        assert_eq!(
            both(&b, DramArch::Salp1, 3, 7),
            RowBufferOutcome::ConflictOtherSubarray
        );
        assert_eq!(both(&b, DramArch::Salp1, 0, 7), RowBufferOutcome::Conflict);
        assert_eq!(both(&b, DramArch::Salp1, 0, 5), RowBufferOutcome::Hit);
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
            both(&b, DramArch::SalpMasa, 0, 5),
            RowBufferOutcome::HitOtherSubarray
        );
        b.select(0);
        assert_eq!(both(&b, DramArch::SalpMasa, 0, 5), RowBufferOutcome::Hit);
    }

    #[test]
    fn masa_same_subarray_conflict() {
        let mut b = BankState::new(8);
        b.activate(0, 5);
        assert_eq!(
            both(&b, DramArch::SalpMasa, 0, 9),
            RowBufferOutcome::Conflict
        );
        // A closed subarray is a plain miss even with other rows open.
        assert_eq!(both(&b, DramArch::SalpMasa, 2, 1), RowBufferOutcome::Miss);
    }

    #[test]
    fn precharge_clears() {
        let mut b = BankState::new(4);
        b.activate(0, 5);
        b.activate(1, 6);
        b.precharge(0);
        assert_eq!(b.open_count(), 1);
        b.precharge(1);
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
