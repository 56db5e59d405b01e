//! Property tests for intra-layer tiling-range sharding: splitting a
//! layer's tiling enumeration into arbitrary contiguous ranges,
//! exploring each range separately, and merging the partials must be
//! **bit-identical** to the sequential sweep — best candidate,
//! evaluation count, and Pareto front alike. This is the contract the
//! router's `--scatter` (and any future distribution of the sweep)
//! rests on.

use drmap::prelude::*;
use proptest::prelude::*;

/// A profiled-looking cost table with the qualitative ordering the
/// hardware produces (columns cheapest, rows dearest), scaled by a
/// small per-case factor so different cases exercise different fronts.
fn ordered_table(scale: f64) -> AccessCostTable {
    let mk = |cycles: f64, energy: f64| AccessCost {
        cycles: cycles * scale,
        energy: energy * 1e-9,
    };
    AccessCostTable::from_costs(
        DramArch::Ddr3,
        [mk(4.2, 1.2), mk(6.0, 2.0), mk(40.0, 5.5), mk(42.0, 5.8)],
        [mk(4.2, 1.1), mk(6.5, 2.1), mk(44.0, 5.6), mk(46.0, 5.9)],
        1.25,
    )
}

fn engine(scale: f64, objective: Objective, keep_points: bool) -> DseEngine {
    DseEngine::new(
        EdpModel::new(
            Geometry::salp_2gb_x8(),
            ordered_table(scale),
            AcceleratorConfig::table_ii(),
        ),
        DseConfig {
            objective,
            keep_points,
            ..DseConfig::default()
        },
    )
}

/// Strategy: a small but shape-diverse convolution layer.
fn layer_strategy() -> impl Strategy<Value = Layer> {
    (
        2usize..16, // h
        2usize..16, // w
        1usize..96, // j
        1usize..96, // i
        1usize..4,  // p (and q)
        1usize..3,  // stride
    )
        .prop_map(|(h, w, j, i, p, stride)| Layer::conv("prop", h, w, j, i, p, p, stride))
}

fn assert_bit_identical(a: &LayerDseResult, b: &LayerDseResult, context: &str) {
    assert_eq!(a.best.mapping, b.best.mapping, "{context}");
    assert_eq!(a.best.scheme, b.best.scheme, "{context}");
    assert_eq!(a.best.tiling, b.best.tiling, "{context}");
    assert_eq!(
        a.best.estimate.cycles.to_bits(),
        b.best.estimate.cycles.to_bits(),
        "{context}"
    );
    assert_eq!(
        a.best.estimate.energy.to_bits(),
        b.best.estimate.energy.to_bits(),
        "{context}"
    );
    assert_eq!(a.evaluations, b.evaluations, "{context}");
    assert_eq!(a.pareto.len(), b.pareto.len(), "{context}");
    for (p, q) in a.pareto.iter().zip(&b.pareto) {
        assert_eq!(p.label, q.label, "{context}");
        assert_eq!(
            p.estimate.cycles.to_bits(),
            q.estimate.cycles.to_bits(),
            "{context}"
        );
        assert_eq!(
            p.estimate.energy.to_bits(),
            q.estimate.energy.to_bits(),
            "{context}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary contiguous splits of the tiling range merge into
    /// exactly the sequential result, for every objective, with the
    /// Pareto cloud retained.
    #[test]
    fn merged_ranges_are_bit_identical_to_sequential(
        layer in layer_strategy(),
        objective_index in 0usize..4,
        scale in 0.5f64..2.0,
        cut_fracs in prop::collection::vec(0.0f64..1.0, 0..5),
    ) {
        let objective = Objective::ALL[objective_index];
        let e = engine(scale, objective, true);
        let sequential = e.explore_layer(&layer).unwrap();
        let n = e.tiling_count(&layer).unwrap();

        // Fractions -> sorted, deduplicated interior cut points.
        let mut bounds: Vec<usize> = cut_fracs
            .iter()
            .map(|f| ((n as f64) * f) as usize)
            .collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();

        let mut merged: Option<LayerPartial> = None;
        for pair in bounds.windows(2) {
            let partial = e.explore_layer_range(&layer, pair[0]..pair[1]).unwrap();
            merged = Some(match merged {
                None => partial,
                Some(mut earlier) => {
                    earlier.merge(partial);
                    earlier
                }
            });
        }
        let merged = merged
            .expect("bounds always contain at least 0..n")
            .into_result(layer.name.clone());
        assert_bit_identical(&merged, &sequential, &format!("{layer:?} bounds {bounds:?}"));
    }

    /// The incremental Pareto builder retains exactly the set and order
    /// the batch extractor computes, on arbitrary point clouds with
    /// deliberate coordinate collisions.
    #[test]
    fn incremental_pareto_front_matches_batch(
        coords in prop::collection::vec((0u32..24, 0u32..24), 0..120),
    ) {
        let points: Vec<DesignPoint> = coords
            .iter()
            .enumerate()
            .map(|(i, &(c, e))| {
                DesignPoint::new(
                    format!("p{i}"),
                    EdpEstimate {
                        cycles: f64::from(c),
                        energy: f64::from(e),
                        t_ck_ns: 1.25,
                    },
                )
            })
            .collect();
        let batch = pareto_front(&points);

        let mut builder = ParetoFront::new();
        for (i, &(c, e)) in coords.iter().enumerate() {
            builder.insert(
                EdpEstimate {
                    cycles: f64::from(c),
                    energy: f64::from(e),
                    t_ck_ns: 1.25,
                },
                i,
            );
        }
        let incremental = builder.into_design_points(|&i| format!("p{i}"));
        prop_assert_eq!(incremental.len(), batch.len());
        for (a, b) in incremental.iter().zip(&batch) {
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(
                a.estimate.cycles.to_bits(),
                b.estimate.cycles.to_bits()
            );
            prop_assert_eq!(
                a.estimate.energy.to_bits(),
                b.estimate.energy.to_bits()
            );
        }
    }
}
