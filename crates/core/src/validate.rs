//! Simulator-backed validation of DSE results.
//!
//! The DSE ranks configurations with the *analytical* model (Eq. 2/3).
//! This module replays a configuration's actual tile address streams
//! through the cycle-level DRAM simulator and reports how far the
//! analytical estimate is from the simulated ground truth — the check a
//! user should run before trusting an exploration result.
//!
//! A tile is replayed as its row runs, so a DRMap tile costs the
//! simulator one closed-form run per row it touches, not one step per
//! burst. A traffic class's replayed tiles lie back to back, so the class
//! is one walk (`mapping::class_runs`): one decode per class, one
//! odometer step per run, and a run cut where a tile ends.

use core::fmt;

use drmap_cnn::layer::{DataKind, Layer};
use drmap_dram::controller::ControllerConfig;
use drmap_dram::device::Device;
use drmap_dram::request::{DriveMode, RequestKind};
use drmap_dram::sim::DramSimulator;
use drmap_dram::timing::DramArch;

use crate::access_model::bytes_to_bursts;
use crate::dse::DseCandidate;
use crate::edp::{EdpEstimate, EdpModel};
use crate::error::DseError;
use crate::mapping::class_runs;

/// Requests, row runs and address decodes replayed on this thread, pinned
/// by a test so that a fall-back to per-request replay, a walk that
/// splits runs, or one that decodes per tile fails whatever the machine's
/// timing noise.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tally {
    requests: u64,
    runs: u64,
    pub(crate) decodes: u64,
}

/// Apply `count` to this thread's tally.
#[cfg(test)]
pub(crate) fn tally(count: impl FnOnce(&mut Tally)) {
    REPLAYED.with(|t| {
        let mut tally = t.get();
        count(&mut tally);
        t.set(tally);
    });
}

#[cfg(test)]
thread_local! {
    static REPLAYED: core::cell::Cell<Tally> = core::cell::Cell::default();
    /// One line per traffic class replayed on this thread: the case, the
    /// mapping's level order, the bursts per tile, the request kind, the
    /// first tile's region and the tiles replayed.
    static REPLAYED_CLASSES: core::cell::RefCell<String> = const { core::cell::RefCell::new(String::new()) };
}

/// Outcome of validating one configuration against the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// The analytical estimate under validation.
    pub analytical: EdpEstimate,
    /// The simulated estimate (same units).
    pub simulated: EdpEstimate,
    /// Simulated row-buffer hit rate of the combined tile streams.
    pub hit_rate: f64,
    /// Tiles replayed per data kind (ifms, wghs, ofms loads, ofms stores).
    pub tiles_replayed: [u64; 4],
}

impl ValidationReport {
    /// Ratio analytical/simulated for cycles (1.0 = perfect).
    pub fn cycle_ratio(&self) -> f64 {
        if self.simulated.cycles == 0.0 {
            f64::NAN
        } else {
            self.analytical.cycles / self.simulated.cycles
        }
    }

    /// Ratio analytical/simulated for energy (1.0 = perfect).
    pub fn energy_ratio(&self) -> f64 {
        if self.simulated.energy == 0.0 {
            f64::NAN
        } else {
            self.analytical.energy / self.simulated.energy
        }
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analytical {:.3e} J*s vs simulated {:.3e} J*s (cycles x{:.2}, energy x{:.2}, hit rate {:.2})",
            self.analytical.edp(),
            self.simulated.edp(),
            self.cycle_ratio(),
            self.energy_ratio(),
            self.hit_rate
        )
    }
}

/// Replays DSE candidates through the cycle-level simulator.
#[derive(Debug, Clone)]
pub struct Validator {
    device: Device,
    arch: DramArch,
}

/// Cap on tile replays per traffic class, so that validating a huge layer
/// stays fast; the analytical estimate is scaled to the same count.
const MAX_TILES_PER_KIND: u64 = 8;

impl Validator {
    /// Create a validator for `arch` on [`Device::table_ii`].
    ///
    /// # Errors
    ///
    /// Never: the `Result` survives only because the frozen `benchmark/`
    /// harness handles it.
    pub fn table_ii(arch: DramArch) -> Result<Self, DseError> {
        Ok(Self::new(Device::table_ii(), arch))
    }

    /// Create a validator for `arch` on a custom device.
    pub(crate) fn new(device: Device, arch: DramArch) -> Self {
        Validator { device, arch }
    }

    /// Replay `candidate`'s tile streams for `layer` and compare against
    /// the analytical model that produced it.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if a tile exceeds the device capacity.
    pub fn validate(
        &self,
        model: &EdpModel,
        layer: &Layer,
        candidate: &DseCandidate,
    ) -> Result<ValidationReport, DseError> {
        let acc = model.traffic_model().accelerator();
        let concrete =
            model
                .traffic_model()
                .resolve_adaptive(layer, &candidate.tiling, candidate.scheme);
        let traffic = model
            .traffic_model()
            .traffic(layer, &candidate.tiling, concrete);

        let units = |kind: DataKind| {
            bytes_to_bursts(
                candidate.tiling.tile_bytes(layer, acc, kind),
                self.device.geometry(),
            )
        };

        // (units per tile, request kind, total tiles) per traffic class.
        let classes: [(u64, RequestKind, u64); 4] = [
            (units(DataKind::Ifms), RequestKind::Read, traffic.ifms_loads),
            (units(DataKind::Wghs), RequestKind::Read, traffic.wghs_loads),
            (units(DataKind::Ofms), RequestKind::Read, traffic.ofms_loads),
            (
                units(DataKind::Ofms),
                RequestKind::Write,
                traffic.ofms_stores,
            ),
        ];

        let mut sim = DramSimulator::on(&self.device, ControllerConfig::new(self.arch))?;
        let codec = candidate.mapping.codec(*self.device.geometry())?;

        let mut sim_cycles = 0.0;
        let mut sim_energy = 0.0;
        let mut hits = 0.0;
        let mut requests = 0.0;
        let mut replayed = [0u64; 4];
        let mut region = 0u64;
        for (ci, &(tile_units, kind, tiles)) in classes.iter().enumerate() {
            let replay = tiles.min(MAX_TILES_PER_KIND);
            replayed[ci] = replay;
            if replay == 0 || tile_units == 0 {
                continue;
            }
            #[cfg(test)]
            REPLAYED_CLASSES.with(|classes| {
                let order = candidate
                    .mapping
                    .full_order()
                    .map(|level| level.to_string());
                classes.borrow_mut().push_str(&format!(
                    "{}\t{}\t{}\t{tile_units}\t{kind}\t{region}\t{replay}\n",
                    self.arch,
                    layer.name,
                    order.join(">"),
                ));
            });
            let mut measured_cycles = 0.0;
            let mut measured_energy = 0.0;
            // Place consecutive tiles in distinct regions, as the
            // analytical model assumes fresh rows per tile: tile `t` of the
            // class starts at `(region + t) · tile_units`.
            let start = region.saturating_mul(tile_units);
            let mut class = class_runs(&codec, start, tile_units, replay, kind)?;
            for _ in 0..replay {
                let runs = class.next_tile();
                #[cfg(test)]
                let runs = runs.inspect(|_| tally(|t| t.runs += 1));
                let stats = sim.run_runs(runs, DriveMode::Streamed);
                #[cfg(test)]
                tally(|t| t.requests += stats.requests);
                measured_cycles += stats.makespan_cycles as f64;
                measured_energy += stats.energy.total();
                hits += stats.hit_rate() * stats.requests as f64;
                requests += stats.requests as f64;
            }
            region += replay;
            // Scale the replayed sample up to the full tile count.
            let scale = tiles as f64 / replay as f64;
            sim_cycles += measured_cycles * scale;
            sim_energy += measured_energy * scale;
        }

        Ok(ValidationReport {
            analytical: candidate.estimate,
            simulated: EdpEstimate {
                cycles: sim_cycles,
                energy: sim_energy,
                t_ck_ns: self.device.timing().t_ck_ns,
            },
            hit_rate: if requests == 0.0 {
                0.0
            } else {
                hits / requests
            },
            tiles_replayed: replayed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{DseConfig, DseEngine};
    use crate::mapping::MappingPolicy;
    use crate::schedule::ReuseScheme;
    use crate::tiling::Tiling;
    use drmap_cnn::accelerator::AcceleratorConfig;
    use drmap_dram::profiler::Profiler;
    use std::path::Path;

    /// True if both of `r`'s ratios lie within `[1/tolerance, tolerance]`.
    fn agrees_within(r: &ValidationReport, tolerance: f64) -> bool {
        let band = 1.0 / tolerance..=tolerance;
        band.contains(&r.cycle_ratio()) && band.contains(&r.energy_ratio())
    }

    fn setup(arch: DramArch) -> (EdpModel, Validator) {
        let profiler = Profiler::table_ii().unwrap();
        let model = EdpModel::new(
            *profiler.device().geometry(),
            profiler.cost_table(arch),
            AcceleratorConfig::table_ii(),
        );
        (model, Validator::table_ii(arch).unwrap())
    }

    fn candidate(model: &EdpModel, layer: &Layer, mapping: MappingPolicy) -> DseCandidate {
        let tiling = Tiling::new(13, 13, 16, 16);
        let scheme = ReuseScheme::OfmsReuse;
        DseCandidate {
            mapping,
            tiling,
            scheme,
            estimate: model.layer_estimate(layer, &tiling, scheme, &mapping),
        }
    }

    #[test]
    fn validation_report_math() {
        let r = ValidationReport {
            analytical: EdpEstimate {
                cycles: 200.0,
                energy: 2e-9,
                t_ck_ns: 1.25,
            },
            simulated: EdpEstimate {
                cycles: 100.0,
                energy: 1e-9,
                t_ck_ns: 1.25,
            },
            hit_rate: 0.9,
            tiles_replayed: [1, 1, 0, 1],
        };
        assert_eq!(r.cycle_ratio(), 2.0);
        assert_eq!(r.energy_ratio(), 2.0);
        assert!(agrees_within(&r, 2.0));
        assert!(!agrees_within(&r, 1.5));
        assert!(r.to_string().contains("hit rate"));
    }

    #[test]
    fn drmap_candidate_validates_within_2x_on_ddr3() {
        let (model, validator) = setup(DramArch::Ddr3);
        let layer = Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1);
        let cand = candidate(&model, &layer, MappingPolicy::drmap());
        let report = validator.validate(&model, &layer, &cand).unwrap();
        assert!(
            agrees_within(&report, 2.0),
            "analytical and simulated disagree: {report}"
        );
        assert!(report.hit_rate > 0.8, "DRMap stream should be hit-heavy");
    }

    #[test]
    fn simulator_confirms_mapping2_worse_than_drmap_on_ddr3() {
        let (model, validator) = setup(DramArch::Ddr3);
        let layer = Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1);
        let good = candidate(&model, &layer, MappingPolicy::drmap());
        let bad = candidate(&model, &layer, MappingPolicy::table_i_policy(2));
        let good_r = validator.validate(&model, &layer, &good).unwrap();
        let bad_r = validator.validate(&model, &layer, &bad).unwrap();
        assert!(bad_r.simulated.edp() > 2.0 * good_r.simulated.edp());
    }

    #[test]
    fn validates_dse_winner_end_to_end() {
        let (model, validator) = setup(DramArch::Salp2);
        let engine = DseEngine::new(model.clone(), DseConfig::default()).unwrap();
        let layer = Layer::conv("CONV5", 13, 13, 256, 384, 3, 3, 1);
        let result = engine.explore_layer(&layer).unwrap();
        let report = validator.validate(&model, &layer, &result.best).unwrap();
        assert!(
            agrees_within(&report, 2.5),
            "winner failed validation: {report}"
        );
    }

    /// The replay's work on the `sim-validate` benchmark's cases: every
    /// AlexNet layer's DSE winner on every architecture — and how well
    /// the analytical model agrees with the simulator on each.
    #[test]
    fn alexnet_winners_replay_as_row_runs() {
        let network = drmap_cnn::network::Network::alexnet();
        REPLAYED.with(|tally| tally.set(Tally::default()));
        REPLAYED_CLASSES.with(|classes| classes.take());
        for arch in DramArch::ALL {
            let (model, validator) = setup(arch);
            let engine = DseEngine::new(model.clone(), DseConfig::default()).unwrap();
            // The measured agreement, as analytical ÷ simulated bands.
            // SALP-MASA's energy gap is the open-subarray question (Kim et
            // al., ISCA 2012; ROADMAP direction 4, "The MASA residual"): a
            // fix to the model must move its band here on purpose.
            let energy_band = match arch {
                DramArch::SalpMasa => 0.44..=0.48,
                _ => 0.98..=1.02,
            };
            for layer in network.layers() {
                let best = engine.explore_layer(layer).unwrap().best;
                let report = validator.validate(&model, layer, &best).unwrap();
                assert!(
                    energy_band.contains(&report.energy_ratio()),
                    "{arch:?} {}: energy outside {energy_band:?}: {report}",
                    layer.name
                );
                assert!(
                    (0.96..=1.04).contains(&report.cycle_ratio()),
                    "{arch:?} {}: cycles outside 1 ± 0.04: {report}",
                    layer.name
                );
            }
        }
        let tally = REPLAYED.with(|tally| tally.get());
        assert_eq!(
            tally,
            Tally {
                requests: 2_009_284,
                runs: 16_048,
                decodes: 96,
            }
        );
        // The same replay, class by class, is what drmap-dram's kernel
        // tally test replays with refresh off and on.
        let classes = REPLAYED_CLASSES.with(|classes| classes.take());
        let fixture = include_str!("../../../tests/data/alexnet_replay.tsv");
        let fixture: String = fixture
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        if classes != fixture {
            let fresh =
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/alexnet_replay.tsv");
            std::fs::create_dir_all(fresh.parent().unwrap()).unwrap();
            std::fs::write(&fresh, &classes).unwrap();
            panic!(
                "tests/data/alexnet_replay.tsv is stale: the replay's classes are in {}",
                fresh.display()
            );
        }
    }

    #[test]
    fn replay_cap_is_respected() {
        let (model, validator) = setup(DramArch::Ddr3);
        let layer = Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1);
        let cand = candidate(&model, &layer, MappingPolicy::drmap());
        let report = validator.validate(&model, &layer, &cand).unwrap();
        let replayed = report.tiles_replayed;
        assert!(
            replayed.iter().all(|&t| t <= MAX_TILES_PER_KIND),
            "{replayed:?}"
        );
        assert!(replayed.contains(&MAX_TILES_PER_KIND), "{replayed:?}");
    }
}
