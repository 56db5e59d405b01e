//! The paper's Key Observations 1–4, asserted as integration tests on a
//! representative AlexNet subset (CONV2, CONV3, FC6 — one early conv, one
//! mid conv, one fully-connected layer).

use std::sync::OnceLock;

use drmap::prelude::*;

struct Fixture {
    engines: Vec<(DramArch, DseEngine)>,
    layers: Vec<Layer>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let geometry = Geometry::salp_2gb_x8();
        let acc = AcceleratorConfig::table_ii();
        let profiler = Profiler::table_ii().expect("profiler valid");
        let engines = DramArch::ALL
            .iter()
            .map(|&arch| {
                let table = profiler.cost_table(arch);
                let model = EdpModel::new(geometry, table, acc);
                let engine = DseEngine::new(model, DseConfig::default()).expect("profiled");
                (arch, engine)
            })
            .collect();
        let alexnet = Network::alexnet();
        let layers = vec![
            alexnet.layers()[1].clone(),
            alexnet.layers()[2].clone(),
            alexnet.layers()[5].clone(),
        ];
        Fixture { engines, layers }
    })
}

fn cell(engine: &DseEngine, layer: &Layer, scheme: ReuseScheme, mapping: &MappingPolicy) -> f64 {
    engine
        .best_over_tilings(layer, scheme, mapping)
        .expect("feasible tiling exists")
        .estimate
        .edp()
}

/// Key Observation 1: DRMap (Mapping-3) achieves the lowest EDP across
/// layers, architectures and scheduling schemes.
#[test]
fn ko1_drmap_is_lowest_everywhere() {
    let f = fixture();
    for (arch, engine) in &f.engines {
        for layer in &f.layers {
            for scheme in ReuseScheme::ALL {
                let drmap_edp = cell(engine, layer, scheme, &MappingPolicy::drmap());
                for mapping in MappingPolicy::table_i() {
                    let edp = cell(engine, layer, scheme, &mapping);
                    assert!(
                        drmap_edp <= edp * 1.0001,
                        "{arch} {} {scheme}: {} EDP {edp:.3e} beats DRMap {drmap_edp:.3e}",
                        layer.name,
                        mapping
                    );
                }
            }
        }
    }
}

/// Key Observation 2: Mapping-2 and Mapping-5 (subarray-innermost) are
/// the worst policies on every architecture.
#[test]
fn ko2_subarray_innermost_mappings_are_worst() {
    let f = fixture();
    for (arch, engine) in &f.engines {
        for layer in &f.layers {
            let scheme = ReuseScheme::AdaptiveReuse;
            let edps: Vec<(usize, f64)> = MappingPolicy::table_i()
                .iter()
                .map(|m| (m.index(), cell(engine, layer, scheme, m)))
                .collect();
            let worst = edps
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!(
                worst.0 == 2 || worst.0 == 5,
                "{arch} {}: worst mapping is Mapping-{} (expected 2 or 5)",
                layer.name,
                worst.0
            );
        }
    }
}

/// Key Observation 3: Mapping-1 and Mapping-3 obtain comparable EDPs
/// (both are column-innermost; they differ only in the bank/subarray
/// priority).
#[test]
fn ko3_mapping1_comparable_to_drmap() {
    let f = fixture();
    for (arch, engine) in &f.engines {
        for layer in &f.layers {
            let m1 = cell(
                engine,
                layer,
                ReuseScheme::AdaptiveReuse,
                &MappingPolicy::table_i_policy(1),
            );
            let m3 = cell(
                engine,
                layer,
                ReuseScheme::AdaptiveReuse,
                &MappingPolicy::drmap(),
            );
            let ratio = m1 / m3;
            assert!(
                (0.8..=2.5).contains(&ratio),
                "{arch} {}: Mapping-1/DRMap EDP ratio {ratio:.2} not comparable",
                layer.name
            );
            // ... and Mapping-1 is never better (bank parallelism is
            // cheaper than subarray parallelism, Fig. 1).
            assert!(m3 <= m1 * 1.0001);
        }
    }
}

/// Key Observation 4: employing SALP architectures improves EDP relative
/// to DDR3 for every mapping policy (with an effective policy the gain is
/// small but non-negative; with subarray-heavy policies it is large).
#[test]
fn ko4_salp_improves_over_ddr3() {
    let f = fixture();
    let (_, ddr3) = &f.engines[0];
    for (arch, engine) in &f.engines[1..] {
        for layer in &f.layers {
            for mapping in MappingPolicy::table_i() {
                let base = cell(ddr3, layer, ReuseScheme::AdaptiveReuse, &mapping);
                let salp = cell(engine, layer, ReuseScheme::AdaptiveReuse, &mapping);
                assert!(
                    salp <= base * 1.001,
                    "{arch} {} {}: SALP EDP {salp:.3e} worse than DDR3 {base:.3e}",
                    layer.name,
                    mapping
                );
            }
        }
    }
}

/// Subarray-heavy mappings benefit most from SALP (the paper's Mapping-2
/// numbers: 29% SALP-1 up to 81% MASA).
#[test]
fn ko4_mapping2_gains_most_from_masa() {
    let f = fixture();
    let (_, ddr3) = &f.engines[0];
    let (_, masa) = &f.engines[3];
    for layer in &f.layers {
        let gain = |mapping: &MappingPolicy| {
            let base = cell(ddr3, layer, ReuseScheme::AdaptiveReuse, mapping);
            let salp = cell(masa, layer, ReuseScheme::AdaptiveReuse, mapping);
            1.0 - salp / base
        };
        let gain_m2 = gain(&MappingPolicy::table_i_policy(2));
        let gain_m3 = gain(&MappingPolicy::drmap());
        assert!(
            gain_m2 > gain_m3,
            "{}: Mapping-2 MASA gain {gain_m2:.2} should exceed DRMap gain {gain_m3:.2}",
            layer.name
        );
        assert!(
            gain_m2 > 0.5,
            "{}: Mapping-2 MASA gain {gain_m2:.2} should be large",
            layer.name
        );
    }
}

/// The paper's headline: DRMap improves EDP by a large factor over the
/// worst mapping on DDR3 (paper: up to 96%).
#[test]
fn headline_ddr3_improvement_over_90pct() {
    let f = fixture();
    let (_, ddr3) = &f.engines[0];
    let mut max_improvement: f64 = 0.0;
    for layer in &f.layers {
        for scheme in ReuseScheme::ALL {
            let drmap_edp = cell(ddr3, layer, scheme, &MappingPolicy::drmap());
            for mapping in MappingPolicy::table_i() {
                let edp = cell(ddr3, layer, scheme, &mapping);
                max_improvement = max_improvement.max(1.0 - drmap_edp / edp);
            }
        }
    }
    assert!(
        max_improvement > 0.90,
        "max DDR3 improvement {max_improvement:.3} below the paper's ballpark"
    );
}

/// The observation underneath KO1, one level down and sharper than
/// "DRMap wins every layer": on each profiled architecture, at every
/// tile size the model zoo's tilings produce, moving one tile costs no
/// more under Mapping-3 than under any other Table I mapping — in
/// cycles and in energy, reading and writing. So the cheapest any
/// mapping could be *is* DRMap, which is what makes the DSE's
/// bound-and-skip tight (its floor row is DRMap's row).
#[test]
fn drmap_tile_cost_is_the_component_wise_minimum_at_every_zoo_burst_count() {
    let geometry = Geometry::salp_2gb_x8();
    let acc = AcceleratorConfig::table_ii();
    let mut burst_counts = std::collections::BTreeSet::new();
    for (_, build) in Network::zoo() {
        for layer in build().layers() {
            for tiling in enumerate_tilings(layer, &acc).expect("feasible tiling exists") {
                for kind in DataKind::ALL {
                    let bytes = tiling.tile_bytes(layer, &acc, kind);
                    burst_counts.insert(bytes_to_bursts(bytes, &geometry));
                }
            }
        }
    }
    assert!(burst_counts.len() > 500, "the zoo should be diverse");

    for (arch, engine) in &fixture().engines {
        let table = engine.model().table();
        for &units in &burst_counts {
            for kind in [RequestKind::Read, RequestKind::Write] {
                let drmap = tile_cost(&MappingPolicy::drmap(), &geometry, units, table, kind);
                for mapping in MappingPolicy::table_i() {
                    let other = tile_cost(&mapping, &geometry, units, table, kind);
                    assert!(
                        drmap.cycles <= other.cycles && drmap.energy <= other.energy,
                        "{arch} {kind:?} of {units} bursts: {mapping} costs {other:?}, DRMap {drmap:?}"
                    );
                }
            }
        }
    }
}

/// KO1 past the zoo, on `tests/data/big_layers.spec` (VGG-16 up to
/// 2048-pixel inputs, transformer-block GEMMs up to d = 8192 ×
/// sequence 4096): DRMap is the EDP winner of every layer's full sweep
/// on every profiled architecture. The catalogue also carries the
/// premise a layer is never split on: `candidate_steps` halves each
/// axis, so enumerations grow with the logarithm of a dimension, and
/// none here passes 6,000 tilings (well under a millisecond to sweep).
/// A tiling enumerator that breaks that shows up here first.
#[test]
fn drmap_wins_every_big_layer_and_none_enumerates_past_6000_tilings() {
    let catalogue = drmap::cnn::spec::parse_network(include_str!("data/big_layers.spec"))
        .expect("catalogue parses");
    assert_eq!(catalogue.layers().len(), 96);
    let acc = AcceleratorConfig::table_ii();
    for layer in catalogue.layers() {
        let tilings = count_tilings(layer, &acc).expect("feasible tiling exists");
        assert!(tilings <= 6000, "{}: {tilings} tilings", layer.name);
        for (arch, engine) in &fixture().engines {
            let best = engine.explore_layer(layer).expect("sweep succeeds").best;
            assert!(
                best.mapping.is_drmap(),
                "{arch} {}: {} wins",
                layer.name,
                best.mapping
            );
        }
    }
}

/// The sweep on big layers against brute force, through public calls
/// only: every layer of the catalogue, every candidate tiling tested
/// whole by `Tiling::fits`, every design point scored by
/// `DseEngine::evaluate` in sweep order, first of equals wins. Winner
/// and count must match `explore_layer` bit for bit on all four
/// architectures, and `(evaluations, pruned)` must match
/// `data/big_counts.tsv` (architecture, network, layer, evaluations,
/// pruned per line, taken before the `ti`-loop bound existed). Most
/// `(th, tw)` prefixes of these layers overflow a buffer, which the
/// zoo's identity gate never exercises.
#[test]
#[ignore = "96 big layers x 4 architectures scored point by point; run in release"]
fn big_layer_sweeps_match_brute_force_bit_for_bit() {
    let catalogue = drmap::cnn::spec::parse_network(include_str!("data/big_layers.spec"))
        .expect("catalogue parses");
    let acc = AcceleratorConfig::table_ii();
    let mut counts = include_str!("data/big_counts.tsv").lines();
    for (arch, engine) in &fixture().engines {
        for layer in catalogue.layers() {
            let (swept, pruned) = engine.explore_layer_counted(layer).expect("sweep succeeds");
            let line = format!(
                "{arch}\t{}\t{}\t{}\t{pruned}",
                catalogue.name(),
                layer.name,
                swept.evaluations
            );
            assert_eq!(Some(line.as_str()), counts.next());
            let mut best: Option<(f64, DseCandidate)> = None;
            let mut evaluations = 0;
            for &th in &candidate_steps(layer.h) {
                for &tw in &candidate_steps(layer.w) {
                    for &tj in &candidate_steps(layer.j) {
                        for &ti in &candidate_steps(layer.i) {
                            let tiling = Tiling::new(th, tw, tj, ti);
                            if !tiling.fits(layer, &acc) {
                                continue;
                            }
                            for scheme in ReuseScheme::ALL {
                                for mapping in MappingPolicy::table_i() {
                                    let estimate =
                                        engine.evaluate(layer, &tiling, scheme, &mapping);
                                    evaluations += 1;
                                    if best.as_ref().is_none_or(|(edp, _)| estimate.edp() < *edp) {
                                        let candidate = DseCandidate {
                                            mapping,
                                            tiling,
                                            scheme,
                                            estimate,
                                        };
                                        best = Some((estimate.edp(), candidate));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let (_, best) = best.expect("feasible tiling exists");
            let bits =
                |c: &DseCandidate| (c.estimate.cycles.to_bits(), c.estimate.energy.to_bits());
            assert_eq!(swept.evaluations, evaluations, "{arch} {}", layer.name);
            assert_eq!(swept.best, best, "{arch} {}", layer.name);
            assert_eq!(bits(&swept.best), bits(&best), "{arch} {}", layer.name);
        }
    }
    assert_eq!(counts.next(), None);
}
