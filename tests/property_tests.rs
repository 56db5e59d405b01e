//! Property-based tests across the workspace: address codecs, transition
//! counting, traffic modelling and Pareto extraction must hold their
//! invariants for arbitrary (valid) inputs, not just the presets.

use drmap::prelude::*;
use proptest::prelude::*;

/// Strategy: a valid, modest-sized geometry.
fn geometry_strategy() -> impl Strategy<Value = Geometry> {
    (
        1usize..=2,  // channels
        1usize..=2,  // ranks
        2usize..=8,  // banks
        1usize..=4,  // subarrays exponent -> 1,2,4,8,16
        6usize..=10, // rows exponent
        5usize..=8,  // columns exponent
    )
        .prop_map(|(ch, ra, ba, sa_exp, row_exp, col_exp)| {
            let geometry = Geometry {
                channels: ch,
                ranks: ra,
                banks: ba,
                subarrays: 1 << sa_exp,
                rows: 1 << row_exp.max(sa_exp),
                columns: 1 << col_exp,
                ..Geometry::ddr3_2gb_x8()
            };
            geometry.validate().expect("constructed geometry is valid");
            geometry
        })
}

/// Strategy: an arbitrary mapping policy (any of the 24 permutations).
fn policy_strategy() -> impl Strategy<Value = MappingPolicy> {
    (0usize..24).prop_map(|i| MappingPolicy::all_permutations()[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode(decode(i)) == i for every in-range flat index.
    #[test]
    fn codec_roundtrip(g in geometry_strategy(), p in policy_strategy(), frac in 0.0f64..1.0) {
        let codec = p.codec(g).unwrap();
        let index = ((codec.slots() - 1) as f64 * frac) as u64;
        let addr = codec.decode(index).unwrap();
        prop_assert_eq!(codec.encode(&addr).unwrap(), index);
        prop_assert!(addr.validate(&g).is_ok());
    }

    /// Transition counts always sum to the tile's unit count, on any
    /// geometry and policy.
    #[test]
    fn transition_counts_sum(
        g in geometry_strategy(),
        p in policy_strategy(),
        units in 1u64..20_000,
    ) {
        let units = units.min(g.total_burst_slots());
        let counts = transition_counts(&p, &g, units);
        prop_assert_eq!(counts.total(), units);
    }

    /// The closed form agrees with explicit divergence enumeration.
    #[test]
    fn closed_form_matches_enumeration(
        g in geometry_strategy(),
        p in policy_strategy(),
        units in 2u64..600,
    ) {
        let units = units.min(g.total_burst_slots());
        let codec = p.codec(g).unwrap();
        let analytical = transition_counts(&p, &g, units);
        let mut by_class = std::collections::HashMap::new();
        for i in 0..units - 1 {
            let level = codec.divergence_level(i).unwrap();
            *by_class
                .entry(drmap::dram::profiler::TransitionClass::from_level(level))
                .or_insert(0u64) += 1;
        }
        for class in drmap::dram::profiler::TransitionClass::ALL {
            let expected = by_class.get(&class).copied().unwrap_or(0)
                + u64::from(class == drmap::dram::profiler::TransitionClass::DifRow);
            prop_assert_eq!(analytical.count(class), expected, "class {}", class);
        }
    }

    /// A tiling that fits keeps every tile within its buffer, and the
    /// clamped tiling always fits dimension bounds.
    #[test]
    fn tiling_fit_invariants(
        th in 1usize..64, tw in 1usize..64, tj in 1usize..512, ti in 1usize..512,
    ) {
        let layer = Layer::conv("c", 27, 27, 256, 96, 5, 5, 1);
        let acc = AcceleratorConfig::table_ii();
        let t = Tiling::new(th, tw, tj, ti).clamped(&layer);
        prop_assert!(t.th <= layer.h && t.tw <= layer.w && t.tj <= layer.j && t.ti <= layer.i);
        if t.fits(&layer, &acc) {
            for kind in DataKind::ALL {
                prop_assert!(t.tile_bytes(&layer, &acc, kind) <= acc.buffer_bytes(kind) as u64);
            }
        }
    }

    /// Traffic-model invariants: the reused data kind is fetched exactly
    /// once per distinct tile; refetch factors are at least 1; adaptive
    /// picks a scheme no worse than any concrete one.
    #[test]
    fn traffic_invariants(th in 1usize..28, tj in 1usize..128, ti in 1usize..96) {
        let layer = Layer::conv("c", 27, 27, 256, 96, 5, 5, 1);
        let acc = AcceleratorConfig::table_ii();
        let model = TrafficModel::new(acc);
        let t = Tiling::new(th, 27, tj, ti).clamped(&layer);
        for scheme in ReuseScheme::CONCRETE {
            for kind in DataKind::ALL {
                prop_assert!(model.refetch_factor(&layer, &t, scheme, kind) >= 1);
            }
        }
        prop_assert_eq!(
            model.refetch_factor(&layer, &t, ReuseScheme::IfmsReuse, DataKind::Ifms), 1
        );
        let adaptive = model.resolve_adaptive(&layer, &t, ReuseScheme::AdaptiveReuse);
        let adaptive_bytes = model.traffic_bytes(&layer, &t, adaptive);
        for scheme in ReuseScheme::CONCRETE {
            prop_assert!(adaptive_bytes <= model.traffic_bytes(&layer, &t, scheme));
        }
    }

    /// Pareto front invariants: no front point dominates another front
    /// point; every non-front point is dominated by some front point.
    #[test]
    fn pareto_invariants(points in prop::collection::vec((1.0f64..1e3, 1.0f64..1e3), 1..40)) {
        let pts: Vec<DesignPoint> = points
            .iter()
            .enumerate()
            .map(|(i, &(cycles, energy))| {
                DesignPoint::new(
                    format!("p{i}"),
                    EdpEstimate { cycles, energy, t_ck_ns: 1.25 },
                )
            })
            .collect();
        let front = pareto_front(&pts);
        prop_assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                prop_assert!(!a.dominates(b), "{} dominates {} inside the front", a.label, b.label);
            }
        }
        for p in &pts {
            let on_front = front.iter().any(|f| {
                f.estimate.cycles == p.estimate.cycles && f.estimate.energy == p.estimate.energy
            });
            if !on_front {
                prop_assert!(front.iter().any(|f| f.dominates(p)));
            }
        }
    }

    /// EDP estimates are monotone in tile traffic: doubling the batch
    /// doubles activation-and-data traffic, so EDP must strictly grow.
    #[test]
    fn edp_monotone_in_batch(batch in 1usize..4) {
        let layer = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
        let tiling = Tiling::new(13, 13, 16, 16);
        let flat = AccessCost { cycles: 4.0, energy: 1e-9 };
        let table = AccessCostTable::from_costs(DramArch::Ddr3, [flat; 4], [flat; 4], 1.25);
        let mk = |b: usize| {
            let acc = AcceleratorConfig { batch: b, ..AcceleratorConfig::table_ii() };
            EdpModel::new(Geometry::salp_2gb_x8(), table.clone(), acc)
                .layer_estimate(&layer, &tiling, ReuseScheme::OfmsReuse, &MappingPolicy::drmap())
        };
        let e1 = mk(batch);
        let e2 = mk(batch + 1);
        prop_assert!(e2.edp() > e1.edp());
    }
}
