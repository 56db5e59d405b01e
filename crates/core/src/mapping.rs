//! DRAM data-mapping policies: the order in which a tile's burst-sized
//! words are laid out across DRAM columns, banks, subarrays and rows.
//!
//! Table I of the paper defines six candidate policies as the loop-order
//! permutations of `{column, subarray, bank, row}` with `row` outermost
//! (the narrowing rule of Section III-B, Step 2: subsequent accesses to
//! different rows are the most expensive, so `row` never varies fast).
//! **Mapping-3 is DRMap**: columns innermost (row-buffer hits first), then
//! banks (bank-level parallelism), then subarrays, then rows.

use core::fmt::{self, Write as _};

use drmap_dram::address::AddressCodec;
use drmap_dram::geometry::{Geometry, Level};
use drmap_dram::request::{Request, RequestKind, RowRun};

use crate::error::DseError;

/// One DRAM data-mapping policy: a permutation of the four in-chip levels,
/// innermost (fastest-varying) first. Rank and channel are always the two
/// outermost levels, per Fig. 6's pseudo-code.
///
/// # Examples
///
/// ```
/// use drmap_core::mapping::MappingPolicy;
/// use drmap_dram::geometry::Level;
///
/// let drmap = MappingPolicy::drmap();
/// assert_eq!(drmap.index(), 3);
/// assert_eq!(drmap.order()[0], Level::Column);
/// assert_eq!(drmap.order()[1], Level::Bank);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MappingPolicy {
    /// Table I index (1..=6), or 0 for custom permutations.
    index: usize,
    /// In-chip level order, innermost first.
    order: [Level; 4],
}

impl MappingPolicy {
    /// The six policies of Table I, in order (Mapping-1 .. Mapping-6).
    pub fn table_i() -> [MappingPolicy; 6] {
        use Level::{Bank, Column, Row, Subarray};
        [
            MappingPolicy {
                index: 1,
                order: [Column, Subarray, Bank, Row],
            },
            MappingPolicy {
                index: 2,
                order: [Subarray, Column, Bank, Row],
            },
            MappingPolicy {
                index: 3,
                order: [Column, Bank, Subarray, Row],
            },
            MappingPolicy {
                index: 4,
                order: [Bank, Column, Subarray, Row],
            },
            MappingPolicy {
                index: 5,
                order: [Subarray, Bank, Column, Row],
            },
            MappingPolicy {
                index: 6,
                order: [Bank, Subarray, Column, Row],
            },
        ]
    }

    /// Mapping-`n` of Table I.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n && n <= 6`.
    pub fn table_i_policy(n: usize) -> MappingPolicy {
        assert!((1..=6).contains(&n), "Table I defines mappings 1..=6");
        Self::table_i()[n - 1]
    }

    /// DRMap — the paper's proposal, Mapping-3 of Table I.
    pub fn drmap() -> MappingPolicy {
        Self::table_i_policy(3)
    }

    /// The commodity controller's *default data mapping* (Section II-B of
    /// the paper): consecutive data fills the columns of a row, then the
    /// banks of a rank, then rows — with subarrays invisible (folded into
    /// the row address as its high bits, i.e. outermost).
    ///
    /// The paper's Table I excludes this order (row is not outermost);
    /// it exists here as the baseline the paper argues is suboptimal.
    pub fn commodity_default() -> MappingPolicy {
        use Level::{Bank, Column, Row, Subarray};
        MappingPolicy {
            index: 0,
            order: [Column, Bank, Row, Subarray],
        }
    }

    /// A custom permutation of the four in-chip levels, innermost first.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if `order` is not a permutation of
    /// `{Column, Bank, Subarray, Row}`.
    pub(crate) fn custom(order: [Level; 4]) -> Result<MappingPolicy, DseError> {
        for required in [Level::Column, Level::Bank, Level::Subarray, Level::Row] {
            if !order.contains(&required) {
                return Err(DseError::new(format!(
                    "mapping order must contain {required}"
                )));
            }
        }
        Ok(MappingPolicy { index: 0, order })
    }

    /// Every permutation of the four in-chip levels (24 policies) — the
    /// un-narrowed design space, used by the ablation benches to verify
    /// that the paper's row-outermost narrowing loses nothing.
    pub fn all_permutations() -> Vec<MappingPolicy> {
        use Level::{Bank, Column, Row, Subarray};
        let levels = [Column, Bank, Subarray, Row];
        let mut out = Vec::with_capacity(24);
        for a in 0..4 {
            for b in 0..4 {
                if b == a {
                    continue;
                }
                for c in 0..4 {
                    if c == a || c == b {
                        continue;
                    }
                    let d = 6 - a - b - c;
                    let order = [levels[a], levels[b], levels[c], levels[d]];
                    let index = Self::table_i()
                        .iter()
                        .position(|p| p.order == order)
                        .map_or(0, |i| i + 1);
                    out.push(MappingPolicy { index, order });
                }
            }
        }
        out
    }

    /// Table I index (1..=6), or 0 for custom policies.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The in-chip level order, innermost first.
    pub fn order(&self) -> &[Level; 4] {
        &self.order
    }

    /// True if this is the paper's DRMap policy.
    pub fn is_drmap(&self) -> bool {
        self.order == *Self::drmap().order()
    }

    /// Full six-level order (in-chip levels then rank, then channel).
    pub(crate) fn full_order(&self) -> [Level; 6] {
        [
            self.order[0],
            self.order[1],
            self.order[2],
            self.order[3],
            Level::Rank,
            Level::Channel,
        ]
    }

    /// Address codec realizing this policy on `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if the geometry is invalid.
    pub fn codec(&self, geometry: Geometry) -> Result<AddressCodec, DseError> {
        AddressCodec::new(geometry, self.full_order().to_vec())
            .map_err(|e| DseError::new(e.to_string()))
    }

    /// Generate the request stream of a tile of `units` bursts (all reads
    /// or all writes), mapped from flat index `start` onward: the tile's
    /// row runs ([`AddressCodec::runs`]), expanded.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if the stream exceeds the device capacity.
    pub fn request_stream(
        &self,
        geometry: Geometry,
        start: u64,
        units: u64,
        kind: RequestKind,
    ) -> Result<Vec<Request>, DseError> {
        let codec = self.codec(geometry)?;
        let runs = tile_runs(&codec, start, units, kind)?;
        Ok(runs.flat_map(RowRun::requests).collect())
    }

    /// Human-readable name: `Mapping-3 (DRMap)` or `custom`.
    pub fn name(&self) -> String {
        let mut name = String::new();
        match self.index {
            0 => name.push_str("custom"),
            _ => self.write_unique_name(&mut name),
        }
        name
    }

    /// Append a name no other policy shares: [`MappingPolicy::name`] for
    /// Table I's six, `custom[column>bank>row>subarray]` — the order,
    /// innermost first — for the rest. What cache keys are built from.
    pub(crate) fn write_unique_name(&self, out: &mut String) {
        match self.index {
            0 => {
                let [a, b, c, d] = self.order;
                write!(out, "custom[{a}>{b}>{c}>{d}]")
            }
            3 => write!(out, "Mapping-3 (DRMap)"),
            n => write!(out, "Mapping-{n}"),
        }
        .expect("writing to a String cannot fail");
    }
}

/// The row runs of a tile of `units` bursts of `kind`, mapped by `codec` (a
/// [`MappingPolicy::codec`]) from flat index `start` onward: what
/// [`DramSimulator::run_runs`](drmap_dram::sim::DramSimulator::run_runs)
/// replays, one run per row the tile touches when `Column` is innermost
/// ([`AddressCodec::runs`]).
///
/// # Errors
///
/// Returns [`DseError`] if the tile exceeds the device capacity.
pub(crate) fn tile_runs(
    codec: &AddressCodec,
    start: u64,
    units: u64,
    kind: RequestKind,
) -> Result<impl Iterator<Item = RowRun> + '_, DseError> {
    let runs = codec.runs(start, units).map_err(|_| {
        DseError::new(format!(
            "tile of {units} bursts at offset {start} exceeds device capacity {}",
            codec.slots()
        ))
    })?;
    Ok(runs.map(move |(address, len)| RowRun {
        head: Request { address, kind },
        len,
    }))
}

impl fmt::Display for MappingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} > {} > {} > {}]",
            self.name(),
            self.order[0],
            self.order[1],
            self.order[2],
            self.order[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_dram::address::PhysicalAddress;

    /// The physical addresses of a tile's read stream, in request order.
    fn addresses(
        policy: MappingPolicy,
        geometry: Geometry,
        start: u64,
        units: u64,
    ) -> Result<Vec<PhysicalAddress>, DseError> {
        let reqs = policy.request_stream(geometry, start, units, RequestKind::Read)?;
        Ok(reqs.into_iter().map(|r| r.address).collect())
    }

    #[test]
    fn table_i_matches_paper() {
        use Level::{Bank, Column, Row, Subarray};
        let t = MappingPolicy::table_i();
        assert_eq!(t[0].order, [Column, Subarray, Bank, Row]);
        assert_eq!(t[1].order, [Subarray, Column, Bank, Row]);
        assert_eq!(t[2].order, [Column, Bank, Subarray, Row]);
        assert_eq!(t[3].order, [Bank, Column, Subarray, Row]);
        assert_eq!(t[4].order, [Subarray, Bank, Column, Row]);
        assert_eq!(t[5].order, [Bank, Subarray, Column, Row]);
        // Row is always outermost: the paper's narrowing rule.
        assert!(t.iter().all(|p| p.order[3] == Row));
    }

    #[test]
    fn drmap_is_mapping_3() {
        assert!(MappingPolicy::drmap().is_drmap());
        assert_eq!(MappingPolicy::drmap().index(), 3);
        assert!(!MappingPolicy::table_i_policy(1).is_drmap());
    }

    #[test]
    #[should_panic(expected = "Table I")]
    fn table_i_policy_range_checked() {
        let _ = MappingPolicy::table_i_policy(7);
    }

    #[test]
    fn commodity_default_folds_subarrays_into_rows() {
        use Level::{Bank, Column, Row, Subarray};
        let d = MappingPolicy::commodity_default();
        assert_eq!(d.order(), &[Column, Bank, Row, Subarray]);
        assert_eq!(d.index(), 0);
        assert!(!d.is_drmap());
        // It is one of the permutations Table I excludes.
        assert!(MappingPolicy::table_i()
            .iter()
            .all(|p| p.order() != d.order()));
    }

    #[test]
    fn custom_requires_permutation() {
        use Level::{Bank, Column, Row};
        let err = MappingPolicy::custom([Column, Column, Bank, Row]).unwrap_err();
        assert!(err.to_string().contains("subarray"));
    }

    #[test]
    fn all_permutations_are_24_unique_and_tag_table_i() {
        let all = MappingPolicy::all_permutations();
        assert_eq!(all.len(), 24);
        let unique: std::collections::HashSet<_> = all.iter().map(|p| p.order).collect();
        assert_eq!(unique.len(), 24);
        assert_eq!(all.iter().filter(|p| p.index() != 0).count(), 6);
    }

    #[test]
    fn drmap_stream_walks_columns_then_banks() {
        let g = Geometry::salp_2gb_x8();
        let stream = addresses(MappingPolicy::drmap(), g, 0, 130).unwrap();
        assert_eq!(stream[0].column, 0);
        assert_eq!(stream[127].column, 127);
        assert_eq!(stream[127].bank, 0);
        assert_eq!(stream[128].bank, 1);
        assert_eq!(stream[128].column, 0);
        assert_eq!(stream[128].subarray, 0);
    }

    #[test]
    fn mapping_2_walks_subarrays_first() {
        let g = Geometry::salp_2gb_x8();
        let stream = addresses(MappingPolicy::table_i_policy(2), g, 0, 10).unwrap();
        assert_eq!(stream[0].subarray, 0);
        assert_eq!(stream[1].subarray, 1);
        assert_eq!(stream[7].subarray, 7);
        assert_eq!(stream[8].subarray, 0);
        assert_eq!(stream[8].column, 1);
    }

    #[test]
    fn stream_rejects_overflow() {
        let g = Geometry::salp_2gb_x8();
        let codec = MappingPolicy::drmap().codec(g).unwrap();
        let err = addresses(MappingPolicy::drmap(), g, codec.slots() - 1, 2).unwrap_err();
        assert!(err.to_string().contains("capacity"));
    }

    #[test]
    fn capacity_check_does_not_overflow() {
        let g = Geometry::salp_2gb_x8();
        let policy = MappingPolicy::drmap();
        let codec = policy.codec(g).unwrap();
        for (start, units) in [(u64::MAX, 2), (2, u64::MAX), (codec.slots(), 1)] {
            let err = addresses(policy, g, start, units).unwrap_err();
            assert!(err.to_string().contains("capacity"), "{err}");
            let err = tile_runs(&codec, start, units, RequestKind::Read)
                .err()
                .expect("a tile past the device is refused");
            assert!(err.to_string().contains("capacity"), "{err}");
        }
        assert_eq!(addresses(policy, g, codec.slots(), 0).unwrap(), []);
    }

    #[test]
    fn tile_runs_cover_whole_rows_under_drmap_and_single_bursts_otherwise() {
        let g = Geometry::salp_2gb_x8();
        let drmap = MappingPolicy::drmap().codec(g).unwrap();
        let lens: Vec<usize> = tile_runs(&drmap, 100, 300, RequestKind::Write)
            .unwrap()
            .map(|r| r.len)
            .collect();
        assert_eq!(lens, [28, 128, 128, 16]);
        let m2 = MappingPolicy::table_i_policy(2).codec(g).unwrap();
        assert!(tile_runs(&m2, 0, 20, RequestKind::Read)
            .unwrap()
            .all(|r| r.len == 1));
    }

    #[test]
    fn request_stream_sets_kind() {
        let g = Geometry::salp_2gb_x8();
        let reqs = MappingPolicy::drmap()
            .request_stream(g, 0, 4, RequestKind::Write)
            .unwrap();
        assert!(reqs.iter().all(|r| r.kind == RequestKind::Write));
    }

    #[test]
    fn names_and_display() {
        assert_eq!(MappingPolicy::table_i_policy(3).name(), "Mapping-3 (DRMap)");
        assert_eq!(MappingPolicy::table_i_policy(5).name(), "Mapping-5");
        let s = MappingPolicy::drmap().to_string();
        assert!(s.contains("column > bank > subarray > row"));
    }

    #[test]
    fn full_order_appends_rank_channel() {
        let p = MappingPolicy::drmap();
        let full = p.full_order();
        assert_eq!(full[4], Level::Rank);
        assert_eq!(full[5], Level::Channel);
    }
}
