//! Human-readable exploration reports.
//!
//! Examples and the benchmark harness all need the same "layer → winner"
//! tables; this module renders them once, consistently, from
//! [`NetworkDseResult`]s.

use core::fmt;

use crate::dse::{LayerDseResult, NetworkDseResult};

/// One row of a network report.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub layer: String,
    /// Winning mapping name.
    pub mapping: String,
    /// Winning scheme label.
    pub scheme: String,
    /// Winning tiling, rendered.
    pub tiling: String,
    /// Energy in joules.
    pub energy: f64,
    /// Latency in seconds.
    pub seconds: f64,
    /// EDP in J·s.
    pub edp: f64,
    /// Configurations evaluated.
    pub evaluations: usize,
}

impl LayerReport {
    /// Build a row from one layer result.
    pub fn from_result(r: &LayerDseResult) -> Self {
        LayerReport {
            layer: r.layer_name.clone(),
            mapping: r.best.mapping.name(),
            scheme: r.best.scheme.label().to_owned(),
            tiling: r.best.tiling.to_string(),
            energy: r.best.estimate.energy,
            seconds: r.best.estimate.seconds(),
            edp: r.best.estimate.edp(),
            evaluations: r.evaluations,
        }
    }
}

/// A rendered whole-network report.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Per-layer rows.
    pub layers: Vec<LayerReport>,
    /// Total energy in joules.
    pub total_energy: f64,
    /// Total latency in seconds.
    pub total_seconds: f64,
    /// Total EDP in J·s.
    pub total_edp: f64,
}

impl NetworkReport {
    /// Build a report from a network DSE result.
    pub fn from_result(r: &NetworkDseResult) -> Self {
        NetworkReport {
            layers: r.layers.iter().map(LayerReport::from_result).collect(),
            total_energy: r.total.energy,
            total_seconds: r.total.seconds(),
            total_edp: r.total_edp(),
        }
    }

    /// Number of layers whose winner is DRMap (by mapping name).
    pub fn drmap_wins(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.mapping.contains("DRMap"))
            .count()
    }

    /// Render as a TSV table (header + rows + total).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str("layer\tmapping\tscheme\ttiling\tenergy_J\tlatency_s\tEDP_Js\tevals\n");
        for l in &self.layers {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{:.4e}\t{:.4e}\t{:.4e}\t{}\n",
                l.layer, l.mapping, l.scheme, l.tiling, l.energy, l.seconds, l.edp, l.evaluations
            ));
        }
        out.push_str(&format!(
            "Total\t\t\t\t{:.4e}\t{:.4e}\t{:.4e}\t\n",
            self.total_energy, self.total_seconds, self.total_edp
        ));
        out
    }
}

impl fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.layers {
            writeln!(
                f,
                "{:<8} {:<28} {:<14} {:<30} EDP={:.4e} J*s",
                l.layer, l.mapping, l.scheme, l.tiling, l.edp
            )?;
        }
        write!(
            f,
            "{:<8} energy={:.4e} J latency={:.4e} s EDP={:.4e} J*s",
            "Total", self.total_energy, self.total_seconds, self.total_edp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{DseConfig, DseEngine};
    use crate::edp::EdpModel;
    use drmap_cnn::accelerator::AcceleratorConfig;
    use drmap_cnn::network::Network;
    use drmap_dram::geometry::Geometry;
    use drmap_dram::profiler::{AccessCost, AccessCostTable};
    use drmap_dram::timing::DramArch;

    fn result() -> crate::dse::NetworkDseResult {
        let mk = |cycles: f64, energy: f64| AccessCost {
            cycles,
            energy: energy * 1e-9,
        };
        let table = AccessCostTable::from_costs(
            DramArch::Ddr3,
            [mk(4.0, 1.2), mk(6.0, 2.0), mk(40.0, 5.5), mk(42.0, 5.8)],
            [mk(4.0, 1.1), mk(6.5, 2.1), mk(44.0, 5.6), mk(46.0, 5.9)],
            1.25,
        );
        let engine = DseEngine::new(
            EdpModel::new(
                Geometry::salp_2gb_x8(),
                table,
                AcceleratorConfig::table_ii(),
            ),
            DseConfig::default(),
        );
        engine.explore_network(&Network::tiny()).unwrap()
    }

    #[test]
    fn report_has_row_per_layer_plus_totals() {
        let report = NetworkReport::from_result(&result());
        assert_eq!(report.layers.len(), 3);
        let layer_edp_sum: f64 = report.layers.iter().map(|l| l.edp).sum();
        // Total EDP is (sum E)(sum t), not the sum of per-layer EDPs —
        // it must be at least as large.
        assert!(report.total_edp >= layer_edp_sum);
        assert!(report.total_energy > 0.0);
    }

    #[test]
    fn tsv_rendering_has_header_rows_total() {
        let report = NetworkReport::from_result(&result());
        let tsv = report.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 1 + 3 + 1);
        assert!(lines[0].starts_with("layer\t"));
        assert!(lines[4].starts_with("Total\t"));
    }

    #[test]
    fn display_contains_every_layer() {
        let report = NetworkReport::from_result(&result());
        let text = report.to_string();
        for l in &report.layers {
            assert!(text.contains(&l.layer));
        }
        assert!(text.contains("Total"));
    }

    #[test]
    fn drmap_wins_counts_mapping3() {
        let report = NetworkReport::from_result(&result());
        assert!(report.drmap_wins() >= 1);
        assert!(report.drmap_wins() <= report.layers.len());
    }
}
