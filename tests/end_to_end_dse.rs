//! End-to-end Algorithm 1 runs: full networks through profiling, model
//! building and parallel exploration.

use std::sync::OnceLock;

use drmap::prelude::*;

fn engine(arch: DramArch) -> DseEngine {
    static P: OnceLock<Profiler> = OnceLock::new();
    let profiler = P.get_or_init(|| Profiler::table_ii().expect("profiler valid"));
    let table = profiler.cost_table(arch);
    DseEngine::new(
        EdpModel::new(
            Geometry::salp_2gb_x8(),
            table,
            AcceleratorConfig::table_ii(),
        ),
        DseConfig::default(),
    )
    .expect("a profiled table")
}

#[test]
fn alexnet_full_dse_completes_and_prefers_drmap() {
    let e = engine(DramArch::Salp2);
    let result = e.explore_network(&Network::alexnet()).unwrap();
    assert_eq!(result.layers.len(), 8);
    assert!(result.total_edp() > 0.0);
    for layer in &result.layers {
        // The winner is always a column-innermost mapping, and DRMap
        // specifically ties or wins (KO-1/KO-3).
        let idx = layer.best.mapping.index();
        assert!(
            idx == 3 || idx == 1,
            "{}: winner Mapping-{idx} is not column-innermost",
            layer.layer_name
        );
        assert!(
            layer.evaluations > 100,
            "{} barely explored",
            layer.layer_name
        );
    }
    let drmap_wins = result
        .layers
        .iter()
        .filter(|l| l.best.mapping.is_drmap())
        .count();
    assert!(
        drmap_wins >= 6,
        "DRMap won only {drmap_wins}/8 AlexNet layers"
    );
}

#[test]
fn tiny_network_dse_on_all_archs() {
    let network = Network::tiny();
    let mut last_total = f64::INFINITY;
    for arch in DramArch::ALL {
        let result = engine(arch).explore_network(&network).unwrap();
        assert_eq!(result.layers.len(), 3);
        // Better architectures never increase the optimal EDP.
        assert!(
            result.total_edp() <= last_total * 1.001 || arch == DramArch::Ddr3,
            "{arch}: total EDP regressed"
        );
        last_total = result.total_edp();
    }
}

#[test]
fn adaptive_total_never_worse_than_concrete_totals() {
    let e = engine(DramArch::Ddr3);
    let network = Network::tiny();
    let totals: Vec<f64> = ReuseScheme::ALL
        .iter()
        .map(|&scheme| {
            let mut total = 0.0;
            for layer in network.layers() {
                total += e
                    .best_over_tilings(layer, scheme, &MappingPolicy::drmap())
                    .unwrap()
                    .estimate
                    .edp();
            }
            total
        })
        .collect();
    let adaptive = totals[3];
    for (i, &t) in totals[..3].iter().enumerate() {
        assert!(
            adaptive <= t * 1.0001,
            "adaptive {adaptive:.3e} worse than scheme {i} ({t:.3e})"
        );
    }
}

#[test]
fn vgg16_subset_explores_cleanly() {
    // VGG-16's extremes: the largest conv layer and the largest FC layer.
    let vgg = Network::vgg16();
    let e = engine(DramArch::SalpMasa);
    for layer in [&vgg.layers()[1], &vgg.layers()[13]] {
        let r = e.explore_layer(layer).unwrap();
        assert!(r.best.estimate.edp() > 0.0);
        assert!(r.best.tiling.fits(layer, &AcceleratorConfig::table_ii()));
    }
}

#[test]
fn best_candidate_is_reproducible() {
    let e = engine(DramArch::Ddr3);
    let network = Network::alexnet();
    let layer = &network.layers()[2];
    let a = e.explore_layer(layer).unwrap();
    let b = e.explore_layer(layer).unwrap();
    assert_eq!(a.best.mapping, b.best.mapping);
    assert_eq!(a.best.tiling, b.best.tiling);
    assert_eq!(a.best.scheme, b.best.scheme);
    assert_eq!(a.evaluations, b.evaluations);
}

#[test]
fn reported_estimate_matches_direct_evaluation() {
    let e = engine(DramArch::Salp1);
    let network = Network::alexnet();
    let layer = &network.layers()[4];
    let r = e.explore_layer(layer).unwrap();
    let direct = e.evaluate(layer, &r.best.tiling, r.best.scheme, &r.best.mapping);
    assert!((direct.edp() - r.best.estimate.edp()).abs() <= direct.edp() * 1e-12);
}
