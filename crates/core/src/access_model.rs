//! The analytical access model of Eq. 2/3: classify every burst access of
//! a tile by its *transition class* and weight it with the profiled
//! per-class cost.
//!
//! For a mapping policy with innermost-to-outermost radices
//! `c₁, c₂, …` the number of consecutive-index transitions whose
//! outermost-changing digit sits at position `k` is closed-form:
//!
//! ```text
//! D_k = floor((N-1) / Π_{i<k} c_i) − floor((N-1) / Π_{i<=k} c_i)
//! ```
//!
//! so no per-burst loop is needed — one tile evaluation is O(#levels).
//! The tile's first access needs a fresh activation and is costed as a
//! `dif_rows` access (the conservative choice the paper also makes by
//! charging every tile's accesses independently).

use drmap_dram::geometry::Geometry;
use drmap_dram::profiler::{AccessCost, AccessCostTable, TransitionClass};
use drmap_dram::request::RequestKind;

use crate::mapping::MappingPolicy;

/// Number of accesses of each transition class for one tile
/// (Eq. 2/3's `Naccess_dif_x` terms).
///
/// # Examples
///
/// ```
/// use drmap_core::access_model::transition_counts;
/// use drmap_core::mapping::MappingPolicy;
/// use drmap_dram::geometry::Geometry;
/// use drmap_dram::profiler::TransitionClass;
///
/// let g = Geometry::salp_2gb_x8();
/// let counts = transition_counts(&MappingPolicy::drmap(), &g, 256);
/// // 256 bursts = 2 rows' worth: 254 column hits, 1 bank switch, 1 first access.
/// assert_eq!(counts.count(TransitionClass::DifColumn), 254);
/// assert_eq!(counts.count(TransitionClass::DifBank), 1);
/// assert_eq!(counts.count(TransitionClass::DifRow), 1);
/// assert_eq!(counts.total(), 256);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionCounts {
    counts: [u64; 4],
}

impl TransitionCounts {
    /// Count for one class.
    #[inline]
    pub fn count(&self, class: TransitionClass) -> u64 {
        self.counts[Self::idx(class)]
    }

    /// Total accesses (should equal the tile's burst count).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Add `n` accesses of `class`.
    #[inline]
    pub(crate) fn add(&mut self, class: TransitionClass, n: u64) {
        self.counts[Self::idx(class)] += n;
    }

    #[inline]
    fn idx(class: TransitionClass) -> usize {
        TransitionClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class in ALL")
    }
}

/// Closed-form transition counts for a tile of `units` bursts laid out by
/// `policy` on `geometry` (tile starts at a fresh row: the first access is
/// a `dif_rows` access).
pub fn transition_counts(
    policy: &MappingPolicy,
    geometry: &Geometry,
    units: u64,
) -> TransitionCounts {
    CountingPlan::new(policy, geometry).counts(units)
}

/// [`transition_counts`] for one `(policy, geometry)`, with the per-level
/// work done once: each level of the order as its transition class and
/// the product of its and every inner level's radix (saturating), kept as
/// a shift when that product is a power of two.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CountingPlan {
    /// `(prefix product, shift if it is a power of two, class index)`,
    /// innermost level first.
    levels: [(u64, Option<u32>, usize); 6],
}

impl CountingPlan {
    pub(crate) fn new(policy: &MappingPolicy, geometry: &Geometry) -> Self {
        let mut prefix: u64 = 1;
        let levels = policy.full_order().map(|level| {
            prefix = prefix.saturating_mul(geometry.level_size(level) as u64);
            let shift = prefix.is_power_of_two().then(|| prefix.trailing_zeros());
            (
                prefix,
                shift,
                TransitionCounts::idx(TransitionClass::from_level(level)),
            )
        });
        CountingPlan { levels }
    }

    /// The closed form of the module docs for a tile of `units` bursts.
    #[inline]
    pub(crate) fn counts(&self, units: u64) -> TransitionCounts {
        let mut out = TransitionCounts::default();
        if units == 0 {
            return out;
        }
        // First access of the tile: fresh activation.
        out.add(TransitionClass::DifRow, 1);
        let n = units - 1;
        let mut below = n;
        for &(prefix, shift, class) in &self.levels {
            let at_or_above = shift.map_or_else(|| n / prefix, |shift| n >> shift);
            out.counts[class] += below - at_or_above;
            if at_or_above == 0 {
                break;
            }
            below = at_or_above;
        }
        out
    }
}

/// Cost of one tile fetch: Eq. 2 (cycles) and Eq. 3 (energy) evaluated
/// against a profiled [`AccessCostTable`].
///
/// # Examples
///
/// ```
/// use drmap_core::access_model::{tile_cost, transition_counts};
/// use drmap_core::mapping::MappingPolicy;
/// use drmap_dram::geometry::Geometry;
/// use drmap_dram::profiler::{AccessCost, AccessCostTable};
/// use drmap_dram::request::RequestKind;
/// use drmap_dram::timing::DramArch;
///
/// let g = Geometry::salp_2gb_x8();
/// let flat = AccessCost { cycles: 2.0, energy: 1e-9 };
/// let table = AccessCostTable::from_costs(DramArch::Ddr3, [flat; 4], [flat; 4], 1.25);
/// let cost = tile_cost(&MappingPolicy::drmap(), &g, 100, &table, RequestKind::Read);
/// assert!((cost.cycles - 200.0).abs() < 1e-9);
/// ```
pub fn tile_cost(
    policy: &MappingPolicy,
    geometry: &Geometry,
    units: u64,
    table: &AccessCostTable,
    kind: RequestKind,
) -> AccessCost {
    counts_cost(&transition_counts(policy, geometry, units), table, kind)
}

/// Weight already-computed [`TransitionCounts`] with a cost table —
/// the second half of [`tile_cost`], split out so callers that memoize
/// counts by `(mapping, burst count)` reproduce `tile_cost`'s exact
/// arithmetic (same class order, same accumulation) and therefore
/// bit-identical estimates.
#[inline]
pub(crate) fn counts_cost(
    counts: &TransitionCounts,
    table: &AccessCostTable,
    kind: RequestKind,
) -> AccessCost {
    let mut cycles = 0.0;
    let mut energy = 0.0;
    for class in TransitionClass::ALL {
        let n = counts.count(class) as f64;
        let c = table.cost(class, kind);
        cycles += n * c.cycles;
        energy += n * c.energy;
    }
    AccessCost { cycles, energy }
}

/// Bursts needed to move `bytes` on `geometry` (ceiling division).
pub fn bytes_to_bursts(bytes: u64, geometry: &Geometry) -> u64 {
    bytes.div_ceil(geometry.burst_bytes() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_dram::timing::DramArch;

    fn g() -> Geometry {
        Geometry::salp_2gb_x8()
    }

    #[test]
    fn zero_units_zero_counts() {
        let c = transition_counts(&MappingPolicy::drmap(), &g(), 0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn single_unit_is_one_activation() {
        let c = transition_counts(&MappingPolicy::drmap(), &g(), 1);
        assert_eq!(c.count(TransitionClass::DifRow), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn counts_sum_to_units() {
        for policy in MappingPolicy::table_i() {
            for units in [1u64, 2, 127, 128, 129, 1024, 8192, 8193, 65536] {
                let c = transition_counts(&policy, &g(), units);
                assert_eq!(c.total(), units, "{policy} at {units}");
            }
        }
    }

    #[test]
    fn drmap_counts_match_structure() {
        // 8192 bursts fill one row across all 8 banks and 8 subarrays.
        let c = transition_counts(&MappingPolicy::drmap(), &g(), 8192);
        // 127 column transitions per (bank, subarray) pass: 64 passes.
        assert_eq!(c.count(TransitionClass::DifColumn), 127 * 64);
        // 7 bank switches per subarray sweep: 8 sweeps.
        assert_eq!(c.count(TransitionClass::DifBank), 7 * 8);
        // 7 subarray switches.
        assert_eq!(c.count(TransitionClass::DifSubarray), 7);
        // 1 first access, 0 row wraps.
        assert_eq!(c.count(TransitionClass::DifRow), 1);
    }

    #[test]
    fn mapping2_pays_subarray_transitions() {
        // Mapping-2: subarray innermost — nearly every transition crosses
        // subarrays.
        let c = transition_counts(&MappingPolicy::table_i_policy(2), &g(), 64);
        assert_eq!(c.count(TransitionClass::DifSubarray), 56);
        assert_eq!(c.count(TransitionClass::DifColumn), 7);
        assert_eq!(c.count(TransitionClass::DifRow), 1);
    }

    #[test]
    fn mapping6_pays_bank_transitions() {
        // Mapping-6: bank innermost.
        let c = transition_counts(&MappingPolicy::table_i_policy(6), &g(), 64);
        assert_eq!(c.count(TransitionClass::DifBank), 56);
        assert_eq!(c.count(TransitionClass::DifSubarray), 7);
    }

    #[test]
    fn row_wraps_counted_after_chip_is_full() {
        // One subarray row across all banks/subarrays = 8192 units; the
        // 8193rd unit wraps to a new row.
        let c = transition_counts(&MappingPolicy::drmap(), &g(), 8193);
        assert_eq!(c.count(TransitionClass::DifRow), 2);
    }

    #[test]
    fn analytical_counts_match_enumerated_divergences() {
        // Cross-validate the closed form against explicit enumeration via
        // the address codec.
        let geometry = g();
        for policy in MappingPolicy::table_i() {
            let units = 2500u64;
            let codec = policy.codec(geometry).unwrap();
            let mut enumerated = TransitionCounts::default();
            enumerated.add(TransitionClass::DifRow, 1);
            for i in 0..units - 1 {
                let level = codec.divergence_level(i).unwrap();
                enumerated.add(TransitionClass::from_level(level), 1);
            }
            let analytical = transition_counts(&policy, &geometry, units);
            assert_eq!(analytical, enumerated, "{policy}");
        }
    }

    #[test]
    fn tile_cost_weights_counts() {
        let geometry = g();
        let mut read = [AccessCost::default(); 4];
        read[0] = AccessCost {
            cycles: 1.0,
            energy: 1e-9,
        }; // dif_column
        read[3] = AccessCost {
            cycles: 10.0,
            energy: 5e-9,
        }; // dif_rows
        let table =
            AccessCostTable::from_costs(DramArch::Ddr3, read, [AccessCost::default(); 4], 1.25);
        // 10 units in one row: 1 dif_row + 9 dif_column.
        let cost = tile_cost(
            &MappingPolicy::drmap(),
            &geometry,
            10,
            &table,
            RequestKind::Read,
        );
        assert!((cost.cycles - (10.0 + 9.0)).abs() < 1e-12);
        assert!((cost.energy - (5e-9 + 9e-9)).abs() < 1e-21);
    }

    #[test]
    fn counts_cost_matches_tile_cost_bit_exactly() {
        let geometry = g();
        let mut read = [AccessCost::default(); 4];
        let mut write = [AccessCost::default(); 4];
        for (i, (r, w)) in read.iter_mut().zip(write.iter_mut()).enumerate() {
            *r = AccessCost {
                cycles: 1.5 * (i + 1) as f64,
                energy: 1e-9 * (i + 1) as f64,
            };
            *w = AccessCost {
                cycles: 1.75 * (i + 1) as f64,
                energy: 1.25e-9 * (i + 1) as f64,
            };
        }
        let table = AccessCostTable::from_costs(DramArch::Ddr3, read, write, 1.25);
        for policy in MappingPolicy::table_i() {
            for units in [1u64, 7, 128, 8193] {
                let counts = transition_counts(&policy, &g(), units);
                for kind in [RequestKind::Read, RequestKind::Write] {
                    let direct = tile_cost(&policy, &geometry, units, &table, kind);
                    let split = counts_cost(&counts, &table, kind);
                    assert_eq!(direct.cycles.to_bits(), split.cycles.to_bits());
                    assert_eq!(direct.energy.to_bits(), split.energy.to_bits());
                }
            }
        }
    }

    #[test]
    fn bytes_to_bursts_ceils() {
        let geometry = g();
        assert_eq!(geometry.burst_bytes(), 8);
        assert_eq!(bytes_to_bursts(0, &geometry), 0);
        assert_eq!(bytes_to_bursts(1, &geometry), 1);
        assert_eq!(bytes_to_bursts(8, &geometry), 1);
        assert_eq!(bytes_to_bursts(9, &geometry), 2);
    }
}
