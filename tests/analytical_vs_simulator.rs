//! Cross-validation of the analytical access model (Eq. 2/3) against the
//! cycle-level DRAM simulator: the analytical model drives the DSE, so it
//! must agree with the simulator on *which mappings are better* and
//! roughly *by how much*.

use std::sync::OnceLock;

use drmap::prelude::*;

fn profiler() -> &'static Profiler {
    static P: OnceLock<Profiler> = OnceLock::new();
    P.get_or_init(|| Profiler::table_ii().expect("profiler config valid"))
}

/// Simulate a tile's request stream and return (cycles, energy).
fn simulate_tile(arch: DramArch, policy: &MappingPolicy, units: u64) -> (f64, f64) {
    let geometry = Geometry::salp_2gb_x8();
    let requests = policy
        .request_stream(geometry, 0, units, RequestKind::Read)
        .expect("stream fits device");
    let mut sim = DramSimulator::new(
        geometry,
        TimingParams::ddr3_1600k(),
        ControllerConfig::new(arch),
        EnergyParams::micron_2gb_x8(),
    )
    .expect("simulator config valid");
    let stats = sim.run(&requests, DriveMode::Streamed);
    (stats.makespan_cycles as f64, stats.energy.total())
}

/// Analytical cost of the same tile.
fn analytical_tile(arch: DramArch, policy: &MappingPolicy, units: u64) -> (f64, f64) {
    let geometry = Geometry::salp_2gb_x8();
    let table = profiler().cost_table(arch);
    let cost = tile_cost(policy, &geometry, units, &table, RequestKind::Read);
    (cost.cycles, cost.energy)
}

/// Whenever the analytical model claims a *clear* (≥25%) cycle advantage
/// of one mapping over another, the cycle-level simulator must agree on
/// the direction.
#[test]
fn clear_analytical_wins_are_confirmed_by_simulator() {
    let units = 2048u64;
    for arch in DramArch::ALL {
        let mappings = MappingPolicy::table_i();
        let analytical: Vec<f64> = mappings
            .iter()
            .map(|m| analytical_tile(arch, m, units).0)
            .collect();
        let simulated: Vec<f64> = mappings
            .iter()
            .map(|m| simulate_tile(arch, m, units).0)
            .collect();
        for i in 0..mappings.len() {
            for j in 0..mappings.len() {
                if analytical[i] < 0.75 * analytical[j] {
                    assert!(
                        simulated[i] < simulated[j] * 1.05,
                        "{arch}: model says {} ({:.0} cyc) beats {} ({:.0} cyc) clearly, \
                         but simulator has {:.0} vs {:.0}",
                        mappings[i],
                        analytical[i],
                        mappings[j],
                        analytical[j],
                        simulated[i],
                        simulated[j],
                    );
                }
            }
        }
    }
}

/// Same direction-agreement check for energy.
#[test]
fn clear_analytical_energy_wins_are_confirmed_by_simulator() {
    let units = 2048u64;
    for arch in DramArch::ALL {
        let mappings = MappingPolicy::table_i();
        let analytical: Vec<f64> = mappings
            .iter()
            .map(|m| analytical_tile(arch, m, units).1)
            .collect();
        let simulated: Vec<f64> = mappings
            .iter()
            .map(|m| simulate_tile(arch, m, units).1)
            .collect();
        for i in 0..mappings.len() {
            for j in 0..mappings.len() {
                if analytical[i] < 0.70 * analytical[j] {
                    assert!(
                        simulated[i] < simulated[j] * 1.05,
                        "{arch}: energy direction disagreement between model and simulator \
                         for {} vs {}",
                        mappings[i],
                        mappings[j],
                    );
                }
            }
        }
    }
}

/// The analytical cycle estimate should land within a factor of two of
/// the simulated makespan for the best and worst mappings (it is a
/// per-class approximation, not a cycle-accurate count).
#[test]
fn analytical_magnitude_within_2x_of_simulator() {
    let units = 4096u64;
    for arch in DramArch::ALL {
        for policy in [MappingPolicy::drmap(), MappingPolicy::table_i_policy(5)] {
            let (a_cycles, _) = analytical_tile(arch, &policy, units);
            let (s_cycles, _) = simulate_tile(arch, &policy, units);
            let ratio = a_cycles / s_cycles;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{arch} {policy}: analytical {a_cycles:.0} vs simulated {s_cycles:.0} \
                 (ratio {ratio:.2})"
            );
        }
    }
}

/// DRMap's tile stream must achieve the highest row-buffer hit rate of
/// all Table I mappings on every architecture (its design goal).
#[test]
fn drmap_stream_maximizes_hit_rate() {
    let units = 2048u64;
    let geometry = Geometry::salp_2gb_x8();
    for arch in DramArch::ALL {
        let mut rates = Vec::new();
        for policy in MappingPolicy::table_i() {
            let requests = policy
                .request_stream(geometry, 0, units, RequestKind::Read)
                .unwrap();
            let mut sim = DramSimulator::new(
                geometry,
                TimingParams::ddr3_1600k(),
                ControllerConfig::new(arch),
                EnergyParams::micron_2gb_x8(),
            )
            .unwrap();
            let stats = sim.run(&requests, DriveMode::Streamed);
            rates.push((policy.index(), stats.hit_rate()));
        }
        let drmap_rate = rates.iter().find(|(i, _)| *i == 3).unwrap().1;
        for (idx, rate) in &rates {
            assert!(
                drmap_rate >= *rate - 1e-9,
                "{arch}: Mapping-{idx} hit rate {rate:.3} exceeds DRMap {drmap_rate:.3}"
            );
        }
    }
}

/// Every DSE winner the repo ships — each layer of each zoo network on
/// each architecture, 440 cases — replayed through the command-level
/// simulator. On DDR3, SALP-1 and SALP-2 the analytical model that ranks
/// the sweep must agree with the replay to 3 % in energy and 6 % in
/// cycles.
#[test]
fn every_zoo_winner_agrees_with_the_simulator() {
    let mut cases = 0;
    for arch in DramArch::ALL {
        let model = EdpModel::new(
            Geometry::salp_2gb_x8(),
            profiler().cost_table(arch),
            AcceleratorConfig::table_ii(),
        );
        let engine = DseEngine::new(model, DseConfig::default());
        let validator = Validator::table_ii(arch).expect("the Table II device is valid");
        for (name, build) in Network::zoo() {
            for layer in build().layers() {
                let best = engine.explore_layer(layer).expect("layer explores").best;
                let report = validator
                    .validate(engine.model(), layer, &best)
                    .expect("the winner replays");
                let (energy, cycles) = (report.energy_ratio(), report.cycle_ratio());
                let case = format!(
                    "{arch} {name} {}: energy ratio {energy:.3}, cycle ratio {cycles:.3}",
                    layer.name
                );
                if arch == DramArch::SalpMasa {
                    // ROADMAP direction 1: the analytical model prices
                    // SALP-MASA's open subarrays below what the simulator
                    // charges. This pins today's band, so a fix has to
                    // move it on purpose.
                    assert!((0.42..=1.02).contains(&energy), "{case}");
                } else {
                    assert!((energy - 1.0).abs() <= 0.03, "{case}");
                    assert!((cycles - 1.0).abs() <= 0.06, "{case}");
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 440);
}
