//! Simulator-backed validation of DSE results.
//!
//! The DSE ranks configurations with the *analytical* model (Eq. 2/3).
//! This module replays a configuration's actual tile address streams
//! through the cycle-level DRAM simulator and reports how far the
//! analytical estimate is from the simulated ground truth — the check a
//! user should run before trusting an exploration result.
//!
//! A tile is replayed as its row runs (`mapping::tile_runs`), so
//! a DRMap tile costs the simulator one closed-form run per row it
//! touches, not one step per burst.

use core::fmt;

use drmap_cnn::layer::{DataKind, Layer};
use drmap_dram::controller::ControllerConfig;
use drmap_dram::energy::EnergyParams;
use drmap_dram::geometry::Geometry;
use drmap_dram::request::{DriveMode, RequestKind, RowRun};
use drmap_dram::sim::DramSimulator;
use drmap_dram::timing::{DramArch, TimingParams};

use crate::access_model::bytes_to_bursts;
use crate::dse::DseCandidate;
use crate::edp::{EdpEstimate, EdpModel};
use crate::error::DseError;
use crate::mapping::tile_runs;

/// Requests and row runs replayed on this thread, pinned by a test so that
/// a fall-back to per-request replay, or a walk that splits runs, fails
/// whatever the machine's timing noise.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    requests: u64,
    runs: u64,
}

#[cfg(test)]
thread_local! {
    static REPLAYED: core::cell::Cell<Tally> = core::cell::Cell::default();
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
    geometry: Geometry,
    timing: TimingParams,
    energy: EnergyParams,
    arch: DramArch,
}

/// Cap on tile replays per traffic class, so that validating a huge layer
/// stays fast; the analytical estimate is scaled to the same count.
const MAX_TILES_PER_KIND: u64 = 8;

impl Validator {
    /// Create a validator for `arch` on the Table II device.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] on invalid configuration.
    pub fn table_ii(arch: DramArch) -> Result<Self, DseError> {
        Self::new(
            Geometry::salp_2gb_x8(),
            TimingParams::ddr3_1600k(),
            EnergyParams::micron_2gb_x8(),
            arch,
        )
    }

    /// Create a validator for a custom device.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] on invalid configuration.
    pub(crate) fn new(
        geometry: Geometry,
        timing: TimingParams,
        energy: EnergyParams,
        arch: DramArch,
    ) -> Result<Self, DseError> {
        geometry.validate()?;
        timing.validate()?;
        energy.validate()?;
        Ok(Validator {
            geometry,
            timing,
            energy,
            arch,
        })
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
                &self.geometry,
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

        let mut sim = DramSimulator::new(
            self.geometry,
            self.timing,
            ControllerConfig::new(self.arch),
            self.energy,
        )
        .map_err(DseError::from)?;
        let codec = candidate.mapping.codec(self.geometry)?;
        let mut runs: Vec<RowRun> = Vec::new();

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
            let mut measured_cycles = 0.0;
            let mut measured_energy = 0.0;
            for t in 0..replay {
                // Place consecutive tiles in distinct regions, as the
                // analytical model assumes fresh rows per tile.
                let start = (region + t) * tile_units;
                runs.clear();
                runs.extend(tile_runs(&codec, start, tile_units, kind)?);
                let stats = sim.run_runs(&runs, DriveMode::Streamed);
                #[cfg(test)]
                REPLAYED.with(|tally| {
                    let Tally { requests, runs: n } = tally.get();
                    tally.set(Tally {
                        requests: requests + stats.requests,
                        runs: n + runs.len() as u64,
                    });
                });
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
                t_ck_ns: self.timing.t_ck_ns,
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

    /// True if both of `r`'s ratios lie within `[1/tolerance, tolerance]`.
    fn agrees_within(r: &ValidationReport, tolerance: f64) -> bool {
        let band = 1.0 / tolerance..=tolerance;
        band.contains(&r.cycle_ratio()) && band.contains(&r.energy_ratio())
    }

    fn setup(arch: DramArch) -> (EdpModel, Validator) {
        let geometry = Geometry::salp_2gb_x8();
        let profiler = Profiler::table_ii().unwrap();
        let model = EdpModel::new(
            geometry,
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
        let engine = DseEngine::new(model.clone(), DseConfig::default());
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
        for arch in DramArch::ALL {
            let (model, validator) = setup(arch);
            let engine = DseEngine::new(model.clone(), DseConfig::default());
            // The measured agreement of ROADMAP direction 1(a), as
            // analytical ÷ simulated bands. SALP-MASA's energy gap is the
            // open-subarray question (Kim et al., ISCA 2012): a fix to
            // the model must move its band here on purpose.
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
                runs: 16_048
            }
        );
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
