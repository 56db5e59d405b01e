//! Pareto-front extraction over (energy, latency) design points — the
//! "pareto-optimal design choices" of the paper's abstract.

use crate::edp::EdpEstimate;

/// A design point with its (energy, latency) coordinates and an opaque
/// label describing the configuration that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Human-readable configuration description.
    pub label: String,
    /// The estimate (energy, cycles) of this configuration.
    pub estimate: EdpEstimate,
}

impl DesignPoint {
    /// Create a design point.
    pub fn new(label: impl Into<String>, estimate: EdpEstimate) -> Self {
        DesignPoint {
            label: label.into(),
            estimate,
        }
    }

    /// True if `self` dominates `other`: no worse in both energy and
    /// latency, strictly better in at least one.
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let (e1, t1) = (self.estimate.energy, self.estimate.cycles);
        let (e2, t2) = (other.estimate.energy, other.estimate.cycles);
        (e1 <= e2 && t1 <= t2) && (e1 < e2 || t1 < t2)
    }
}

/// Extract the Pareto-optimal subset (minimizing energy and latency),
/// sorted by ascending latency. A point with a NaN coordinate is
/// comparable to none and never kept.
///
/// # Examples
///
/// ```
/// use drmap_core::pareto::{pareto_front, DesignPoint};
/// use drmap_core::edp::EdpEstimate;
///
/// let mk = |label: &str, cycles: f64, energy: f64| {
///     DesignPoint::new(label, EdpEstimate { cycles, energy, t_ck_ns: 1.25 })
/// };
/// let points = vec![
///     mk("fast-hungry", 10.0, 9.0),
///     mk("slow-frugal", 90.0, 1.0),
///     mk("dominated", 95.0, 9.5),
/// ];
/// let front = pareto_front(&points);
/// assert_eq!(front.len(), 2);
/// assert_eq!(front[0].label, "fast-hungry");
/// ```
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut sorted: Vec<&DesignPoint> = points.iter().filter(|p| !is_nan(&p.estimate)).collect();
    sorted.sort_by(|a, b| {
        a.estimate
            .cycles
            .partial_cmp(&b.estimate.cycles)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(
                a.estimate
                    .energy
                    .partial_cmp(&b.estimate.energy)
                    .unwrap_or(core::cmp::Ordering::Equal),
            )
    });
    let mut front: Vec<DesignPoint> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for p in sorted {
        if front.is_empty() || p.estimate.energy < best_energy {
            best_energy = p.estimate.energy;
            front.push(p.clone());
        }
    }
    front
}

fn is_nan(estimate: &EdpEstimate) -> bool {
    estimate.cycles.is_nan() || estimate.energy.is_nan()
}

/// An incremental Pareto-front builder over (energy, cycles).
///
/// Where [`pareto_front`] collects every evaluated point and filters at
/// the end, `ParetoFront` discards dominated points **on insert**, so a
/// sweep of millions of evaluations only ever holds the current front.
/// Points carry a lightweight `Copy`-able tag instead of a label string;
/// labels are materialized once, for survivors only, by
/// [`ParetoFront::into_design_points`] — no per-evaluation allocation.
///
/// The builder is exact: inserting every point of a sweep in order and
/// materializing produces the same `Vec<DesignPoint>` (same set, same
/// order, same label strings) as `pareto_front` over the collected
/// cloud. Ties on both coordinates keep the earliest-inserted point,
/// matching the stable sort of the batch path.
///
/// # Examples
///
/// ```
/// use drmap_core::pareto::ParetoFront;
/// use drmap_core::edp::EdpEstimate;
///
/// let mk = |cycles: f64, energy: f64| EdpEstimate { cycles, energy, t_ck_ns: 1.25 };
/// let mut front = ParetoFront::new();
/// assert!(front.insert(mk(10.0, 9.0), "fast-hungry"));
/// assert!(front.insert(mk(90.0, 1.0), "slow-frugal"));
/// assert!(!front.insert(mk(95.0, 9.5), "dominated"));
/// let points = front.into_design_points(|tag| (*tag).to_owned());
/// assert_eq!(points.len(), 2);
/// assert_eq!(points[0].label, "fast-hungry");
/// ```
#[derive(Debug, Clone)]
pub struct ParetoFront<T> {
    /// The current non-dominated set, in insertion order.
    points: Vec<(EdpEstimate, T)>,
}

impl<T> Default for ParetoFront<T> {
    fn default() -> Self {
        ParetoFront::new()
    }
}

impl<T> ParetoFront<T> {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront { points: Vec::new() }
    }

    /// Offer a point to the front. Returns `false` (discarding the
    /// point) if an existing point is no worse in both energy and
    /// cycles — including an exact tie, so the earliest-inserted of
    /// equal points survives — or a coordinate is NaN. Otherwise the
    /// point joins the front and every existing point it weakly dominates
    /// is removed.
    pub fn insert(&mut self, estimate: EdpEstimate, tag: T) -> bool {
        if is_nan(&estimate) || self.covers(&estimate) {
            return false;
        }
        self.points
            .retain(|(e, _)| !(estimate.energy <= e.energy && estimate.cycles <= e.cycles));
        self.points.push((estimate, tag));
        true
    }

    /// True if a retained point is no worse than `estimate` in both
    /// energy and cycles: [`ParetoFront::insert`] would discard it, and
    /// — the relation being transitive — any point no better than it
    /// in either coordinate.
    pub(crate) fn covers(&self, estimate: &EdpEstimate) -> bool {
        self.points
            .iter()
            .any(|(e, _)| e.energy <= estimate.energy && e.cycles <= estimate.cycles)
    }

    /// Materialize the front as labelled [`DesignPoint`]s, sorted by
    /// ascending latency exactly as [`pareto_front`] sorts its output.
    /// `label` runs once per survivor.
    pub fn into_design_points(self, label: impl Fn(&T) -> String) -> Vec<DesignPoint> {
        let mut points: Vec<DesignPoint> = self
            .points
            .into_iter()
            .map(|(estimate, tag)| DesignPoint::new(label(&tag), estimate))
            .collect();
        points.sort_by(|a, b| {
            a.estimate
                .cycles
                .partial_cmp(&b.estimate.cycles)
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(
                    a.estimate
                        .energy
                        .partial_cmp(&b.estimate.energy)
                        .unwrap_or(core::cmp::Ordering::Equal),
                )
        });
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(label: &str, cycles: f64, energy: f64) -> DesignPoint {
        DesignPoint::new(
            label,
            EdpEstimate {
                cycles,
                energy,
                t_ck_ns: 1.25,
            },
        )
    }

    #[test]
    fn dominance_relation() {
        let a = mk("a", 1.0, 1.0);
        let b = mk("b", 2.0, 2.0);
        let c = mk("c", 1.0, 2.0);
        assert!(a.dominates(&b));
        assert!(a.dominates(&c));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "no self-domination");
    }

    #[test]
    fn front_excludes_dominated() {
        let points = vec![
            mk("p1", 10.0, 9.0),
            mk("p2", 20.0, 5.0),
            mk("p3", 30.0, 2.0),
            mk("dominated", 25.0, 6.0),
        ];
        let front = pareto_front(&points);
        let labels: Vec<&str> = front.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["p1", "p2", "p3"]);
    }

    #[test]
    fn front_of_empty_is_empty() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn front_of_single_point() {
        let front = pareto_front(&[mk("only", 1.0, 1.0)]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn equal_points_keep_one() {
        let front = pareto_front(&[mk("a", 1.0, 1.0), mk("b", 1.0, 1.0)]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn front_sorted_by_latency() {
        let points = vec![mk("slow", 30.0, 1.0), mk("fast", 5.0, 9.0)];
        let front = pareto_front(&points);
        assert_eq!(front[0].label, "fast");
        assert_eq!(front[1].label, "slow");
    }

    /// Deterministic pseudo-random point cloud with deliberate
    /// coordinate collisions, so ties exercise the stable-order rule.
    fn cloud(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        (0..n)
            .map(|_| (((next() % 32) as f64), ((next() % 32) as f64)))
            .collect()
    }

    #[test]
    fn incremental_front_matches_batch_exactly() {
        for seed in [3u64, 17, 2026, 0xdead_beef] {
            for n in [0usize, 1, 2, 7, 60, 400] {
                let coords = cloud(n, seed);
                let points: Vec<DesignPoint> = coords
                    .iter()
                    .enumerate()
                    .map(|(i, &(c, e))| mk(&format!("p{i}"), c, e))
                    .collect();
                let batch = pareto_front(&points);

                let mut builder = ParetoFront::new();
                for (i, &(c, e)) in coords.iter().enumerate() {
                    builder.insert(
                        EdpEstimate {
                            cycles: c,
                            energy: e,
                            t_ck_ns: 1.25,
                        },
                        i,
                    );
                }
                let incremental = builder.into_design_points(|&i| format!("p{i}"));
                assert_eq!(incremental.len(), batch.len(), "seed {seed} n {n}");
                for (a, b) in incremental.iter().zip(&batch) {
                    assert_eq!(a.label, b.label, "seed {seed} n {n}");
                    assert_eq!(a.estimate.cycles.to_bits(), b.estimate.cycles.to_bits());
                    assert_eq!(a.estimate.energy.to_bits(), b.estimate.energy.to_bits());
                }
            }
        }
    }

    /// NaN and infinite coordinates: both paths drop a NaN point and keep
    /// an infinite one that nothing covers.
    #[test]
    fn incremental_front_matches_batch_off_the_finite_numbers() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0];
        for seed in [5u64, 41, 2026] {
            let mut coords = cloud(60, seed);
            for (k, (c, e)) in coords.iter_mut().enumerate().step_by(3) {
                *[c, e][k % 2] = specials[k % 4];
            }
            let points: Vec<DesignPoint> = coords
                .iter()
                .enumerate()
                .map(|(i, &(c, e))| mk(&format!("p{i}"), c, e))
                .collect();
            let mut builder = ParetoFront::new();
            for (i, point) in points.iter().enumerate() {
                builder.insert(point.estimate, i);
            }
            let incremental = builder.into_design_points(|&i| format!("p{i}"));
            assert_eq!(incremental, pareto_front(&points), "seed {seed}");
            assert!(incremental.iter().all(|p| !is_nan(&p.estimate)));
        }
        let all_infinite = [mk("a", 1.0, f64::INFINITY), mk("b", 2.0, f64::INFINITY)];
        assert_eq!(pareto_front(&all_infinite), all_infinite[..1]);
        assert!(pareto_front(&[mk("nan", f64::NAN, 1.0)]).is_empty());
    }

    #[test]
    fn empty_builder_reports_empty() {
        let front: ParetoFront<u32> = ParetoFront::default();
        assert!(front.into_design_points(|_| unreachable!()).is_empty());
    }

    #[test]
    fn every_non_front_point_is_dominated() {
        let points: Vec<DesignPoint> = (0..50)
            .map(|i| {
                let x = i as f64;
                mk(&format!("p{i}"), x, 100.0 - 2.0 * x + (x * 7.0) % 13.0)
            })
            .collect();
        let front = pareto_front(&points);
        for p in &points {
            let on_front = front.iter().any(|f| f.label == p.label);
            if !on_front {
                assert!(
                    front.iter().any(|f| f.dominates(p)),
                    "{} escaped the front undominated",
                    p.label
                );
            }
        }
    }
}
