//! Property test for the incremental Pareto builder the sweep inserts
//! into: it must retain exactly what the batch extractor computes.

use drmap::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
