//! Energy-delay-product assembly: from per-tile costs (Eq. 2/3) to
//! per-layer and per-network EDP (the objective of Eq. 1).

use core::fmt;

use drmap_cnn::accelerator::AcceleratorConfig;
use drmap_cnn::layer::{DataKind, Layer};
use drmap_dram::geometry::Geometry;
use drmap_dram::profiler::{AccessCost, AccessCostTable};
use drmap_dram::request::RequestKind;

use crate::access_model::{bytes_to_bursts, tile_cost};
use crate::mapping::MappingPolicy;
use crate::schedule::{ReuseScheme, TileTraffic, TrafficModel};
use crate::tiling::Tiling;

/// Estimated DRAM cost of processing one layer (or network) — latency,
/// energy and their product.
///
/// # Examples
///
/// ```
/// use drmap_core::edp::EdpEstimate;
///
/// let e = EdpEstimate { cycles: 800e6, energy: 0.5, t_ck_ns: 1.25 };
/// assert!((e.seconds() - 1.0).abs() < 1e-9);
/// assert!((e.edp() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdpEstimate {
    /// DRAM access latency in memory-clock cycles.
    pub cycles: f64,
    /// DRAM access energy in joules.
    pub energy: f64,
    /// Clock period for cycle→time conversion.
    pub t_ck_ns: f64,
}

impl EdpEstimate {
    /// A zero estimate with the given clock.
    pub fn zero(t_ck_ns: f64) -> Self {
        EdpEstimate {
            cycles: 0.0,
            energy: 0.0,
            t_ck_ns,
        }
    }

    /// Latency in seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles * self.t_ck_ns * 1e-9
    }

    /// Energy-delay product in J·s.
    pub fn edp(&self) -> f64 {
        self.energy * self.seconds()
    }

    /// Accumulate another estimate (layers of a network).
    pub fn accumulate(&mut self, other: &EdpEstimate) {
        debug_assert_eq!(self.t_ck_ns, other.t_ck_ns, "mixed clock domains");
        self.cycles += other.cycles;
        self.energy += other.energy;
    }
}

impl fmt::Display for EdpEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3e} J x {:.3e} s = {:.3e} J*s",
            self.energy,
            self.seconds(),
            self.edp()
        )
    }
}

/// Evaluates the analytical EDP model for `(layer, tiling, scheme,
/// mapping)` combinations against one profiled architecture.
#[derive(Debug, Clone)]
pub struct EdpModel {
    geometry: Geometry,
    table: AccessCostTable,
    traffic: TrafficModel,
}

impl EdpModel {
    /// Create a model from a profiled cost table.
    pub fn new(geometry: Geometry, table: AccessCostTable, acc: AcceleratorConfig) -> Self {
        EdpModel {
            geometry,
            table,
            traffic: TrafficModel::new(acc),
        }
    }

    /// The cost table in use.
    pub fn table(&self) -> &AccessCostTable {
        &self.table
    }

    /// The traffic model in use.
    pub fn traffic_model(&self) -> &TrafficModel {
        &self.traffic
    }

    /// The DRAM geometry in use.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// EDP estimate for one layer under a concrete or adaptive scheme.
    ///
    /// Eq. 2/3 evaluated per tile kind, multiplied by the schedule's tile
    /// fetch counts, then `EDP = E · t` (Eq. 1's objective).
    pub fn layer_estimate(
        &self,
        layer: &Layer,
        tiling: &Tiling,
        scheme: ReuseScheme,
        mapping: &MappingPolicy,
    ) -> EdpEstimate {
        self.layer_breakdown(layer, tiling, scheme, mapping).total
    }

    /// Full per-data-kind breakdown of a layer estimate: where the DRAM
    /// cycles and energy actually go (ifms vs wghs vs ofms partial-sum
    /// traffic), plus the concrete scheme adaptive-reuse resolved to.
    pub fn layer_breakdown(
        &self,
        layer: &Layer,
        tiling: &Tiling,
        scheme: ReuseScheme,
        mapping: &MappingPolicy,
    ) -> LayerBreakdown {
        let acc = self.traffic.accelerator();
        let concrete = self.traffic.resolve_adaptive(layer, tiling, scheme);
        let traffic = self.traffic.traffic(layer, tiling, concrete);

        let per_tile = |kind: DataKind, dir: RequestKind| {
            let units = bytes_to_bursts(tiling.tile_bytes(layer, acc, kind), &self.geometry);
            tile_cost(mapping, &self.geometry, units, &self.table, dir)
        };
        let components = TileCosts {
            ifms_read: per_tile(DataKind::Ifms, RequestKind::Read),
            wghs_read: per_tile(DataKind::Wghs, RequestKind::Read),
            ofms_read: per_tile(DataKind::Ofms, RequestKind::Read),
            ofms_write: per_tile(DataKind::Ofms, RequestKind::Write),
        }
        .components(&traffic);
        let [ifms, wghs, ofms_reads, ofms_writes] = components;
        LayerBreakdown {
            ifms,
            wghs,
            ofms_reads,
            ofms_writes,
            resolved_scheme: concrete,
            total: total(&components, self.table.t_ck_ns),
        }
    }
}

/// What moving one tile of each traffic class costs under one mapping
/// (or, for the sweep's bound, the cheapest any swept mapping charges).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileCosts {
    pub(crate) ifms_read: AccessCost,
    pub(crate) wghs_read: AccessCost,
    pub(crate) ofms_read: AccessCost,
    pub(crate) ofms_write: AccessCost,
}

impl TileCosts {
    /// Per-tile costs weighted by the schedule's tile counts: ifms,
    /// wghs, ofms reads, ofms writes.
    pub(crate) fn components(&self, traffic: &TileTraffic) -> [CostComponent; 4] {
        let weigh = |per_tile: AccessCost, tiles: u64| CostComponent {
            cycles: per_tile.cycles * tiles as f64,
            energy: per_tile.energy * tiles as f64,
            tiles,
        };
        [
            weigh(self.ifms_read, traffic.ifms_loads),
            weigh(self.wghs_read, traffic.wghs_loads),
            weigh(self.ofms_read, traffic.ofms_loads),
            weigh(self.ofms_write, traffic.ofms_stores),
        ]
    }

    /// The estimate of one design point. [`EdpModel::layer_breakdown`]
    /// and every point and bound of the DSE sweep are assembled by
    /// these same two steps, term for term, so they agree bit for bit.
    pub(crate) fn estimate(&self, traffic: &TileTraffic, t_ck_ns: f64) -> EdpEstimate {
        total(&self.components(traffic), t_ck_ns)
    }
}

/// Sum the four traffic classes, in [`TileCosts::components`] order.
fn total(components: &[CostComponent; 4], t_ck_ns: f64) -> EdpEstimate {
    let [ifms, wghs, ofms_reads, ofms_writes] = components;
    EdpEstimate {
        cycles: ifms.cycles + wghs.cycles + ofms_reads.cycles + ofms_writes.cycles,
        energy: ifms.energy + wghs.energy + ofms_reads.energy + ofms_writes.energy,
        t_ck_ns,
    }
}

/// Cost attributed to one traffic class of a layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostComponent {
    /// Cycles spent on this class.
    pub cycles: f64,
    /// Energy spent on this class in joules.
    pub energy: f64,
    /// Tile movements of this class.
    pub tiles: u64,
}

/// Per-data-kind breakdown of one layer estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerBreakdown {
    /// ifms tile loads.
    pub ifms: CostComponent,
    /// wghs tile loads.
    pub wghs: CostComponent,
    /// ofms partial-sum re-reads.
    pub ofms_reads: CostComponent,
    /// ofms stores.
    pub ofms_writes: CostComponent,
    /// Concrete scheme that adaptive-reuse resolved to (identity for
    /// concrete schemes).
    pub resolved_scheme: ReuseScheme,
    /// Sum over components.
    pub total: EdpEstimate,
}

impl LayerBreakdown {
    /// The dominant traffic class by energy.
    pub fn dominant(&self) -> DataKind {
        let mut best = (DataKind::Ifms, self.ifms.energy);
        if self.wghs.energy > best.1 {
            best = (DataKind::Wghs, self.wghs.energy);
        }
        if self.ofms_reads.energy + self.ofms_writes.energy > best.1 {
            best = (
                DataKind::Ofms,
                self.ofms_reads.energy + self.ofms_writes.energy,
            );
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_dram::timing::DramArch;

    fn flat_table(cycles: f64, energy: f64) -> AccessCostTable {
        let c = AccessCost { cycles, energy };
        AccessCostTable::from_costs(DramArch::Ddr3, [c; 4], [c; 4], 1.25)
    }

    fn model() -> EdpModel {
        EdpModel::new(
            Geometry::salp_2gb_x8(),
            flat_table(2.0, 1e-9),
            AcceleratorConfig::table_ii(),
        )
    }

    #[test]
    fn estimate_zero_and_accumulate() {
        let mut z = EdpEstimate::zero(1.25);
        assert_eq!(z.edp(), 0.0);
        z.accumulate(&EdpEstimate {
            cycles: 100.0,
            energy: 2e-9,
            t_ck_ns: 1.25,
        });
        assert_eq!(z.cycles, 100.0);
        assert_eq!(z.energy, 2e-9);
    }

    #[test]
    fn flat_table_estimate_equals_traffic_units() {
        // With identical per-class costs, the EDP model degenerates to
        // (total units) * cost — an exact cross-check of the bookkeeping.
        let m = model();
        let layer = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
        let tiling = Tiling::new(13, 13, 16, 16);
        let est = m.layer_estimate(
            &layer,
            &tiling,
            ReuseScheme::OfmsReuse,
            &MappingPolicy::drmap(),
        );
        let acc = AcceleratorConfig::table_ii();
        let g = Geometry::salp_2gb_x8();
        let tr = TrafficModel::new(acc).traffic(&layer, &tiling, ReuseScheme::OfmsReuse);
        let units_ifms = bytes_to_bursts(tiling.tile_bytes(&layer, &acc, DataKind::Ifms), &g);
        let units_wghs = bytes_to_bursts(tiling.tile_bytes(&layer, &acc, DataKind::Wghs), &g);
        let units_ofms = bytes_to_bursts(tiling.tile_bytes(&layer, &acc, DataKind::Ofms), &g);
        let total_units = units_ifms * tr.ifms_loads
            + units_wghs * tr.wghs_loads
            + units_ofms * (tr.ofms_loads + tr.ofms_stores);
        assert!((est.cycles - 2.0 * total_units as f64).abs() < 1e-6);
        assert!((est.energy - 1e-9 * total_units as f64).abs() < 1e-15);
    }

    #[test]
    fn estimate_is_monotone_in_cost_table() {
        let layer = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
        let tiling = Tiling::new(13, 13, 16, 16);
        let cheap = EdpModel::new(
            Geometry::salp_2gb_x8(),
            flat_table(1.0, 1e-9),
            AcceleratorConfig::table_ii(),
        );
        let dear = EdpModel::new(
            Geometry::salp_2gb_x8(),
            flat_table(10.0, 5e-9),
            AcceleratorConfig::table_ii(),
        );
        let a = cheap.layer_estimate(
            &layer,
            &tiling,
            ReuseScheme::OfmsReuse,
            &MappingPolicy::drmap(),
        );
        let b = dear.layer_estimate(
            &layer,
            &tiling,
            ReuseScheme::OfmsReuse,
            &MappingPolicy::drmap(),
        );
        assert!(b.edp() > a.edp());
    }

    #[test]
    fn adaptive_estimate_not_worse_than_concrete() {
        let m = model();
        let layer = Layer::conv("c", 27, 27, 256, 96, 5, 5, 1);
        let tiling = Tiling::new(9, 27, 16, 24);
        let adaptive = m.layer_estimate(
            &layer,
            &tiling,
            ReuseScheme::AdaptiveReuse,
            &MappingPolicy::drmap(),
        );
        // Adaptive resolves to the min-traffic scheme; with a flat cost
        // table EDP is monotone in traffic, so adaptive must be minimal.
        for s in ReuseScheme::CONCRETE {
            let concrete = m.layer_estimate(&layer, &tiling, s, &MappingPolicy::drmap());
            assert!(adaptive.edp() <= concrete.edp() * 1.0001, "{s}");
        }
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let m = model();
        let layer = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
        let tiling = Tiling::new(13, 13, 16, 16);
        let b = m.layer_breakdown(
            &layer,
            &tiling,
            ReuseScheme::WghsReuse,
            &MappingPolicy::drmap(),
        );
        let sum_cycles = b.ifms.cycles + b.wghs.cycles + b.ofms_reads.cycles + b.ofms_writes.cycles;
        assert!((b.total.cycles - sum_cycles).abs() < 1e-9);
        assert_eq!(b.resolved_scheme, ReuseScheme::WghsReuse);
        // wghs-reuse on a conv layer still re-reads partial sums.
        assert!(b.ofms_reads.tiles > 0);
    }

    #[test]
    fn fc_layer_breakdown_dominated_by_weights() {
        let m = model();
        let fc6 = Layer::fully_connected("FC6", 9216, 4096);
        let tiling = Tiling::new(1, 1, 64, 1024);
        let b = m.layer_breakdown(
            &fc6,
            &tiling,
            ReuseScheme::AdaptiveReuse,
            &MappingPolicy::drmap(),
        );
        assert_eq!(b.dominant(), DataKind::Wghs);
        assert!(b.wghs.energy > 10.0 * b.ifms.energy);
    }

    #[test]
    fn adaptive_breakdown_reports_resolved_scheme() {
        let m = model();
        let layer = Layer::conv("c", 27, 27, 256, 96, 5, 5, 1);
        let tiling = Tiling::new(9, 27, 16, 24);
        let b = m.layer_breakdown(
            &layer,
            &tiling,
            ReuseScheme::AdaptiveReuse,
            &MappingPolicy::drmap(),
        );
        assert_ne!(b.resolved_scheme, ReuseScheme::AdaptiveReuse);
    }

    #[test]
    fn display_shows_product() {
        let e = EdpEstimate {
            cycles: 800.0,
            energy: 1e-6,
            t_ck_ns: 1.25,
        };
        assert!(e.to_string().contains("J*s"));
    }
}
