//! The sweep against its reference: [`naive_explore`] scores every
//! design point through the public single-point evaluator, in sweep
//! order, with no hoisting, memo or skipping — and finds the tilings by
//! brute force, not through the axis walk the sweep is built on.
//! Whatever the pipeline hoists or skips, it must return the same result
//! bit for bit.

use drmap_cnn::accelerator::AcceleratorConfig;
use drmap_cnn::layer::DataKind;
use drmap_cnn::network::Network;
use drmap_cnn::spec::parse_network;
use drmap_dram::profiler::Profiler;
use drmap_dram::timing::DramArch;
use proptest::prelude::*;

use super::*;
use crate::access_model::{bytes_to_bursts, tile_cost};
use crate::pareto::pareto_front;
use crate::tiling::{candidate_steps, count_tilings, enumerate_tilings};

/// Every buffer-feasible tiling the slow way: the four candidate axes
/// nested `th`, `tw`, `tj`, `ti`, each combination tested whole by
/// [`Tiling::fits`]. Shares nothing with [`walk_tilings`] but
/// [`candidate_steps`].
pub(super) fn brute_force_tilings(layer: &Layer, acc: &AcceleratorConfig) -> Vec<Tiling> {
    let mut out = Vec::new();
    for &th in &candidate_steps(layer.h) {
        for &tw in &candidate_steps(layer.w) {
            for &tj in &candidate_steps(layer.j) {
                for &ti in &candidate_steps(layer.i) {
                    let tiling = Tiling::new(th, tw, tj, ti);
                    if tiling.fits(layer, acc) {
                        out.push(tiling);
                    }
                }
            }
        }
    }
    out
}

/// The reference sweep: brute-force tilings, per-evaluation
/// [`DseEngine::evaluate`] calls (schedule resolution and transition
/// counting from scratch each time), a label per point, batch Pareto
/// extraction at the end.
pub(super) fn naive_explore(e: &DseEngine, layer: &Layer) -> LayerDseResult {
    let acc = *e.model().traffic_model().accelerator();
    let tilings = brute_force_tilings(layer, &acc);
    let objective = e.config().objective;
    let mut best: Option<DseCandidate> = None;
    let mut evaluations = 0usize;
    let mut points = Vec::new();
    for tiling in &tilings {
        for &scheme in &e.config().schemes {
            for mapping in &e.config().mappings {
                let estimate = e.evaluate(layer, tiling, scheme, mapping);
                evaluations += 1;
                if e.config().keep_points {
                    points.push(DesignPoint::new(
                        format!("{} | {} | {}", mapping.name(), scheme, tiling),
                        estimate,
                    ));
                }
                let better = best
                    .as_ref()
                    .is_none_or(|b| objective.score(&estimate) < objective.score(&b.estimate));
                if better {
                    best = Some(DseCandidate {
                        mapping: *mapping,
                        tiling: *tiling,
                        scheme,
                        estimate,
                    });
                }
            }
        }
    }
    LayerDseResult {
        layer_name: layer.name.clone(),
        best: best.unwrap(),
        evaluations,
        pareto: pareto_front(&points),
    }
}

/// What the sweep must count: `(evaluations, pruned)` of a sweep over
/// [`brute_force_tilings`] that skips a `(tiling, scheme)` group only as
/// a duplicate or by its own bound — no tiling- or loop-level bound —
/// with every cost from [`tile_cost`] and every point from
/// [`DseEngine::evaluate`]. The bounds above the group bound are implied
/// by it, so they may change what is computed but never these counts.
fn group_bound_reference(e: &DseEngine, layer: &Layer) -> (usize, usize) {
    let (model, config) = (e.model(), e.config());
    let traffic_model = model.traffic_model();
    let acc = *traffic_model.accelerator();
    let t_ck_ns = model.table().t_ck_ns;
    let mut found = Accumulator {
        objective: config.objective,
        evaluations: 0,
        scored: 0,
        best: None,
        best_score: 0.0,
        front: ParetoFront::new(),
    };
    // A tile's `(read, write)` floor over the swept mappings.
    let floor_of = |tiling: &Tiling, kind| {
        let units = bytes_to_bursts(tiling.tile_bytes(layer, &acc, kind), model.geometry());
        let mut floor = [INFINITE; 2];
        for mapping in &config.mappings {
            for (floor, dir) in floor
                .iter_mut()
                .zip([RequestKind::Read, RequestKind::Write])
            {
                let c = tile_cost(mapping, model.geometry(), units, model.table(), dir);
                floor.cycles = floor.cycles.min(c.cycles);
                floor.energy = floor.energy.min(c.energy);
            }
        }
        (floor[0], floor[1])
    };
    for tiling in brute_force_tilings(layer, &acc) {
        let [ifms, wghs, ofms] = DataKind::ALL.map(|kind| floor_of(&tiling, kind));
        let floor = TileCosts {
            ifms_read: ifms.0,
            wghs_read: wghs.0,
            ofms_read: ofms.0,
            ofms_write: ofms.1,
        };
        let mut covered = [false; 3];
        for &scheme in &config.schemes {
            let concrete = traffic_model.resolve_adaptive(layer, &tiling, scheme);
            let traffic = traffic_model.traffic(layer, &tiling, concrete);
            let index = concrete
                .concrete_index()
                .expect("resolved schemes are concrete");
            let duplicate = std::mem::replace(&mut covered[index], true);
            found.evaluations += config.mappings.len();
            if duplicate || found.shuts_out(&floor.estimate(&traffic, t_ck_ns), config.keep_points)
            {
                continue;
            }
            for &mapping in &config.mappings {
                let estimate = e.evaluate(layer, &tiling, scheme, &mapping);
                let tag = CandidateTag {
                    mapping,
                    scheme,
                    tiling,
                };
                found.offer(estimate, tag, config.keep_points);
            }
        }
    }
    (found.evaluations, found.pruned())
}

pub(super) fn assert_results_bit_identical(a: &LayerDseResult, b: &LayerDseResult) {
    assert_eq!(a.best.mapping, b.best.mapping);
    assert_eq!(a.best.scheme, b.best.scheme);
    assert_eq!(a.best.tiling, b.best.tiling);
    assert_eq!(
        a.best.estimate.cycles.to_bits(),
        b.best.estimate.cycles.to_bits()
    );
    assert_eq!(
        a.best.estimate.energy.to_bits(),
        b.best.estimate.energy.to_bits()
    );
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.pareto.len(), b.pareto.len());
    for (p, q) in a.pareto.iter().zip(&b.pareto) {
        assert_eq!(p.label, q.label);
        assert_eq!(p.estimate.cycles.to_bits(), q.estimate.cycles.to_bits());
        assert_eq!(p.estimate.energy.to_bits(), q.estimate.energy.to_bits());
    }
}

// ---------------------------------------------------------------------
// Random sweeps
// ---------------------------------------------------------------------

/// Conv (strided or not), grouped conv, or FC — small enough that the
/// naive sweep stays cheap, varied enough that tile sizes cross row and
/// bank boundaries.
fn layer_strategy() -> impl Strategy<Value = Layer> {
    prop_oneof![
        (
            1usize..20,
            1usize..20,
            1usize..160,
            1usize..160,
            1usize..6,
            1usize..4
        )
            .prop_map(|(h, w, j, i, p, stride)| Layer::conv("conv", h, w, j, i, p, p, stride)),
        (2usize..14, 1usize..40, 1usize..40, 1usize..4, 1usize..4).prop_map(
            |(hw, j, i, p, log_groups)| {
                let groups = 1 << log_groups;
                Layer::conv_grouped("grouped", hw, hw, j * groups, i * groups, p, p, 1, groups)
            }
        ),
        (1usize..5000, 1usize..1200).prop_map(|(i, j)| Layer::fully_connected("fc", i, j)),
    ]
}

/// Table II's accelerator with the batch and each buffer redrawn; the
/// smallest buffers still hold one 5×5 patch, so a tiling always fits.
fn accelerator_strategy() -> impl Strategy<Value = AcceleratorConfig> {
    (1usize..5, 6usize..17, 6usize..17, 6usize..17).prop_map(|(batch, ib, wb, ob)| {
        AcceleratorConfig {
            batch,
            ifms_buffer: 1 << ib,
            wghs_buffer: 1 << wb,
            ofms_buffer: 1 << ob,
            ..AcceleratorConfig::table_ii()
        }
    })
}

fn cost(cycles: f64, nj: f64) -> AccessCost {
    AccessCost {
        cycles,
        energy: nj * 1e-9,
    }
}

/// A table's `(read, write)` class costs.
type Costs = ([AccessCost; 4], [AccessCost; 4]);

/// `(read, write)` class costs drawn from `[0, 50)` cycles and `[0, 10)`
/// nJ, with no ordering between the classes or the directions.
fn random_costs() -> impl Strategy<Value = Costs> {
    prop::collection::vec((0.0f64..50.0, 0.0f64..10.0), 8..9).prop_map(|c| {
        let c: Vec<AccessCost> = c.into_iter().map(|(cy, nj)| cost(cy, nj)).collect();
        ([c[0], c[1], c[2], c[3]], [c[4], c[5], c[6], c[7]])
    })
}

/// Cost tables an engine accepts that the profiler would never produce,
/// next to one it would.
fn table_strategy() -> impl Strategy<Value = AccessCostTable> {
    let table = |read, write| AccessCostTable::from_costs(DramArch::Ddr3, read, write, 1.25);
    prop_oneof![
        // Hardware-like: columns cheapest, rows dearest.
        Just(table(
            [
                cost(4.2, 1.2),
                cost(6.0, 2.0),
                cost(40.0, 5.5),
                cost(42.0, 5.8)
            ],
            [
                cost(4.2, 1.1),
                cost(6.5, 2.1),
                cost(44.0, 5.6),
                cost(46.0, 5.9)
            ],
        )),
        // Flat: every mapping of a group ties, and so do many tilings —
        // first-of-equals decides everything.
        Just(table([cost(2.0, 1.0); 4], [cost(2.0, 1.0); 4])),
        // Free: every point scores zero.
        Just(table([cost(0.0, 0.0); 4], [cost(0.0, 0.0); 4])),
        // No ordering between the classes, reads and writes unrelated:
        // no single mapping's row is the floor.
        random_costs().prop_map(move |(read, write)| table(read, write)),
        // The same with free classes mixed in.
        (random_costs(), 0usize..256).prop_map(move |((mut read, mut write), zeroed)| {
            for bit in 0..4 {
                if zeroed >> bit & 1 == 1 {
                    read[bit] = cost(0.0, 0.0);
                }
                if zeroed >> (bit + 4) & 1 == 1 {
                    write[bit] = cost(0.0, 0.0);
                }
            }
            table(read, write)
        }),
        // One class cost of −0.0, which the engine accepts (`x == 0.0`).
        (random_costs(), 0usize..16).prop_map(move |(costs, at)| {
            let (read, write) = with_class_value(costs, at, -0.0);
            table(read, write)
        }),
    ]
}

/// `costs` with component `at % 2` (cycles, energy) of class `at / 2 % 4`
/// of direction `at / 8` (read, write) set to `x`.
fn with_class_value((mut read, mut write): Costs, at: usize, x: f64) -> Costs {
    let costs = if at < 8 { &mut read } else { &mut write };
    let cost = &mut costs[at / 2 % 4];
    *[&mut cost.cycles, &mut cost.energy][at % 2] = x;
    (read, write)
}

/// Every negative number but −0.0, from the least subnormal to `f64::MAX`.
fn negative() -> impl Strategy<Value = f64> {
    (1u64..=f64::MAX.to_bits()).prop_map(|bits| -f64::from_bits(bits))
}

/// A clock the engine refuses: NaN, ±∞ or a negative one.
fn refused_clock() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        negative(),
    ]
}

/// A class cost the engine refuses: a clock it refuses, a positive
/// subnormal or a finite value above 2⁵¹².
fn refused_cost() -> impl Strategy<Value = f64> {
    prop_oneof![
        refused_clock(),
        (1u64..f64::MIN_POSITIVE.to_bits()).prop_map(f64::from_bits),
        (TRUSTED_MAX.to_bits() + 1..=f64::MAX.to_bits()).prop_map(f64::from_bits),
    ]
}

/// Permuted, reduced and repeated scheme lists, adaptive-reuse first,
/// last, alone or absent.
fn schemes_strategy() -> impl Strategy<Value = Vec<ReuseScheme>> {
    use ReuseScheme::{AdaptiveReuse, IfmsReuse, OfmsReuse, WghsReuse};
    prop_oneof![
        Just(ReuseScheme::ALL.to_vec()),
        Just(vec![AdaptiveReuse, IfmsReuse, WghsReuse, OfmsReuse]),
        Just(vec![AdaptiveReuse]),
        Just(vec![OfmsReuse, AdaptiveReuse, OfmsReuse, AdaptiveReuse]),
        prop::collection::vec(0usize..4, 1..6)
            .prop_map(|picks| picks.into_iter().map(|i| ReuseScheme::ALL[i]).collect()),
    ]
}

/// Table I in any order, thinned (so DRMap is often absent) or with an
/// arbitrary permutation policy mixed in.
fn mappings_strategy() -> impl Strategy<Value = Vec<MappingPolicy>> {
    prop_oneof![
        Just(MappingPolicy::table_i().to_vec()),
        prop::collection::vec(0usize..6, 1..7).prop_map(|picks| picks
            .into_iter()
            .map(|i| MappingPolicy::table_i()[i])
            .collect()),
        prop::collection::vec(0usize..24, 1..5).prop_map(|picks| {
            picks
                .into_iter()
                .map(|i| MappingPolicy::all_permutations()[i])
                .collect()
        }),
    ]
}

fn engine_strategy() -> impl Strategy<Value = DseEngine> {
    (
        (table_strategy(), accelerator_strategy()),
        schemes_strategy(),
        mappings_strategy(),
        0usize..4,
        prop::bool::ANY,
    )
        .prop_map(
            |((table, acc), schemes, mappings, objective, keep_points)| {
                DseEngine::new(
                    EdpModel::new(Geometry::salp_2gb_x8(), table, acc),
                    DseConfig {
                        schemes,
                        mappings,
                        keep_points,
                        objective: Objective::ALL[objective],
                    },
                )
                .unwrap()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Winner, count, front points and labels match the reference, and
    /// the skipped count is what the group bounds alone skip.
    #[test]
    fn sweep_matches_naive_reference_bit_for_bit(
        e in engine_strategy(),
        layer in layer_strategy(),
    ) {
        let (swept, pruned) = e.explore_layer_counted(&layer).unwrap();
        prop_assert_eq!((swept.evaluations, pruned), group_bound_reference(&e, &layer));
        assert_results_bit_identical(&swept, &naive_explore(&e, &layer));
    }

    /// The bounds are bounds: a tile's closed-form lower bound never
    /// exceeds its row's floor; the floor row's estimate of a group — and
    /// the tiling-level estimate at the least traffic of any scheme —
    /// never exceeds a member's; and a `ti` loop's bound per scheme never
    /// exceeds that scheme's group bound at any of its tilings — in either
    /// coordinate and under any objective. The walk hands each loop its
    /// tiling count.
    #[test]
    fn floor_estimate_never_exceeds_a_member(
        e in engine_strategy(),
        layer in layer_strategy(),
    ) {
        let acc = *e.model().traffic_model().accelerator();
        let config = e.config();
        let mut check = BoundCheck {
            e: &e,
            layer: &layer,
            sweep: Sweep::new(&e, &config.schemes, &config.mappings, e.rows(None), config.keep_points),
            visited: 0,
        };
        walk_tilings(&layer, &acc, &mut check, &mut WalkBuffers::new()).unwrap();
    }

    /// The axis walk visits exactly the brute-force sequence: the same
    /// tilings in the same order, and counts them.
    #[test]
    fn axis_walk_visits_the_brute_force_sequence(
        layer in layer_strategy(),
        acc in accelerator_strategy(),
    ) {
        assert_walk_matches_brute_force(&layer, &acc);
    }

    /// The engine refuses a table with any one refused value, at any class
    /// cost of either direction or at the clock, and names where it is;
    /// the same table without it is accepted.
    #[test]
    fn the_gate_refuses_every_value_the_bound_cannot_serve(
        costs in random_costs(),
        at in 0usize..17,
        bad_cost in refused_cost(),
        bad_clock in refused_clock(),
    ) {
        prop_assert!(gate(costs, 1.25).is_ok());
        let (refused, named) = if at == 16 {
            (gate(costs, bad_clock), "clock".to_owned())
        } else {
            let kind = [RequestKind::Read, RequestKind::Write][at / 8];
            let class = TransitionClass::ALL[at / 2 % 4];
            let unit = ["cycles", "energy"][at % 2];
            let costs = with_class_value(costs, at, bad_cost);
            (gate(costs, 1.25), format!("{kind} {class} {unit}"))
        };
        let message = refused.unwrap_err().to_string();
        prop_assert!(message.contains(&named), "{message} names no {named}");
    }
}

/// The feasible tilings of a `ti` loop by a scan: the steps at which both
/// its ifms and its wghs tile fit.
fn loop_tilings<T>(ifms: &[Option<T>], wghs: &[Option<T>]) -> usize {
    ifms.iter()
        .zip(wghs)
        .filter(|(i, w)| i.is_some() && w.is_some())
        .count()
}

/// Weighs each per-tile cost once, exactly (`x · 1.0 == x`).
const EACH_ONCE: TileTraffic = TileTraffic {
    ifms_loads: 1,
    wghs_loads: 1,
    ofms_loads: 1,
    ofms_stores: 1,
};

/// The `(th, tw, tj)` loop's bound per concrete scheme by a scan, in
/// [`ReuseScheme::CONCRETE`] order: the scheme's row of
/// [`traffic_of_trips`] weighted by the tiles' lower bounds, each column
/// at its least over the loop's feasible tilings, summed in
/// `TileCosts::estimate`'s order.
fn scheme_bounds(
    bound: &TileBound,
    [spatial, n_j]: [u64; 2],
    is: &[(usize, u64)],
    ifms: &[Option<Tile>],
    wghs: &[Option<Tile>],
    ofms: &Tile,
    t_ck_ns: f64,
) -> [EdpEstimate; 3] {
    let mut least = [[INFINITE; 4]; 3];
    for ((&(_, n_i), ifms), wghs) in is.iter().zip(ifms).zip(wghs) {
        let (Some(ifms), Some(wghs)) = (ifms, wghs) else {
            continue;
        };
        let (ofms_read, ofms_write) = bound.at(ofms.units);
        let lb = TileCosts {
            ifms_read: bound.read_at(ifms.units),
            wghs_read: bound.read_at(wghs.units),
            ofms_read,
            ofms_write,
        };
        for (least, traffic) in least.iter_mut().zip(&traffic_of_trips(spatial, n_j, n_i)) {
            for (least, column) in least.iter_mut().zip(lb.components(traffic)) {
                least.cycles = least.cycles.min(column.cycles);
                least.energy = least.energy.min(column.energy);
            }
        }
    }
    least.map(|[ifms_read, wghs_read, ofms_read, ofms_write]| {
        TileCosts {
            ifms_read,
            wghs_read,
            ofms_read,
            ofms_write,
        }
        .estimate(&EACH_ONCE, t_ck_ns)
    })
}

/// Holds every row finite and non-negative and every fitting tile's lower
/// bound against its row's floor, every seventh
/// tiling's bounds, computed from the sweep's own hoists (the walk's trip
/// counts and tiles, [`RowMemo`], [`Rows::floor_costs`]), against each
/// member of each of the tiling's groups, and every `ti` loop's bounds per
/// scheme ([`Sweep::loop_bounds`], read in O(1) at the loop's first
/// tiling) against that scheme's group bound at each of its tilings, and,
/// up to rounding, against [`scheme_bounds`]' scan; and every loop's
/// tiling count against [`loop_tilings`]. Each of these breaks it:
/// suffix minima taken as prefix minima, a loop started at its first ifms
/// fit alone, ofms columns taken at the largest `n_i`.
struct BoundCheck<'a> {
    e: &'a DseEngine,
    layer: &'a Layer,
    sweep: Sweep<'a>,
    visited: usize,
}

impl BoundCheck<'_> {
    /// The exact floor of each of `tiles`, building its row if need be.
    fn floor(&mut self, tiles: [Tile; 3]) -> TileCosts {
        let rows = tiles.map(|tile| self.sweep.row(tile.units));
        self.sweep.rows.floor_costs(rows)
    }
}

impl TilingVisitor for BoundCheck<'_> {
    type Tile = Tile;

    /// Every fitting tile's row finite and non-negative, and its lower
    /// bound against the row's floor, read and write — so against every
    /// swept mapping's cost.
    fn tile(&mut self, bytes: u64) -> Tile {
        let tile = self.sweep.tile(bytes);
        let row = self.sweep.row(tile.units);
        for (read, write) in &row.costs {
            for x in [read.cycles, read.energy, write.cycles, write.energy] {
                assert!(x.is_finite() && x >= 0.0, "an engine's row holds {x}");
            }
        }
        let lb = self.sweep.bound.at(tile.units);
        for (lb, floor) in [(lb.0, row.floor.0), (lb.1, row.floor.1)] {
            assert!(lb.cycles <= floor.cycles && lb.energy <= floor.energy);
        }
        tile
    }

    fn ti_row(
        &mut self,
        kind: DataKind,
        is: &[(usize, u64)],
        tiles: &mut [Option<Tile>],
        trips: u64,
    ) {
        self.sweep.ti_row(kind, is, tiles, trips);
    }

    /// Every loop's tiling count against a scan, and its bound per scheme
    /// against that scheme's group bound at each of its tilings and
    /// against the scan's bound.
    fn ti_loop(
        &mut self,
        outer: [(usize, u64); 3],
        is: &[(usize, u64)],
        ifms: &[Option<Tile>],
        wghs: &[Option<Tile>],
        ofms: Tile,
        tilings: usize,
    ) -> bool {
        assert_eq!(tilings, loop_tilings(ifms, wghs));
        let [(_, n_h), (_, n_w), (_, n_j)] = outer;
        let spatial = self.sweep.batch * n_h * n_w;
        let t_ck_ns = self.sweep.t_ck_ns;
        let per_scheme = self
            .sweep
            .loop_bounds(outer, is, [ifms, wghs], &ofms, tilings);
        let scanned = scheme_bounds(
            &self.sweep.bound,
            [spatial, n_j],
            is,
            ifms,
            wghs,
            &ofms,
            t_ck_ns,
        );
        for (bound, scanned) in per_scheme.iter().zip(&scanned) {
            // Scaling a least column by `n_j` or `S` rounds once more than
            // weighing each tile by the product: a few ulps apart at most.
            for (x, y) in [
                (bound.cycles, scanned.cycles),
                (bound.energy, scanned.energy),
            ] {
                assert!((x - y).abs() <= y * 16.0 * f64::EPSILON, "{x} vs {y}");
            }
        }
        for ((&(_, n_i), ifms), wghs) in is.iter().zip(ifms).zip(wghs) {
            let (Some(ifms), Some(wghs)) = (*ifms, *wghs) else {
                continue;
            };
            let floor = self.floor([ifms, wghs, ofms]);
            for (bound, traffic) in per_scheme.iter().zip(&traffic_of_trips(spatial, n_j, n_i)) {
                assert_no_worse(bound, &floor.estimate(traffic, t_ck_ns));
            }
        }
        true
    }

    fn tiling(&mut self, tiling: Tiling, [n_h, n_w, n_j, n_i]: [u64; 4], tiles: [Tile; 3]) {
        self.visited += 1;
        if self.visited % 7 != 1 {
            return;
        }
        let floor = self.floor(tiles);
        let t_ck_ns = self.e.model().table().t_ck_ns;
        let spatial = self.e.model().traffic_model().accelerator().batch as u64 * n_h * n_w;
        let tiling_bound = floor.estimate(&least_traffic(spatial, n_j, n_i), t_ck_ns);
        let traffic = traffic_of_trips(spatial, n_j, n_i);
        for (scheme, traffic) in ReuseScheme::CONCRETE.into_iter().zip(&traffic) {
            let group_bound = floor.estimate(traffic, t_ck_ns);
            for mapping in &self.e.config().mappings {
                let member = self.e.evaluate(self.layer, &tiling, scheme, mapping);
                for bound in [tiling_bound, group_bound] {
                    assert_no_worse(&bound, &member);
                }
            }
        }
    }
}

/// `bound` is `<=` `estimate` in both coordinates and under every
/// objective.
fn assert_no_worse(bound: &EdpEstimate, estimate: &EdpEstimate) {
    assert!(bound.cycles <= estimate.cycles && bound.energy <= estimate.energy);
    for objective in Objective::ALL {
        assert!(objective.score(bound) <= objective.score(estimate));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The block bound is a bound: it never exceeds a member of its `(th,
    /// tw)` block — any of the block's tilings under any concrete scheme
    /// and swept mapping — in either coordinate and under any objective.
    /// And a skipped block is counted exactly: with one drawn block skipped, the walk visits every other
    /// block's tilings in brute-force order and counts the skipped
    /// block's brute-force tilings on top.
    #[test]
    fn block_bound_never_exceeds_a_member(
        table in table_strategy(),
        acc in accelerator_strategy(),
        mappings in mappings_strategy(),
        layer in layer_strategy(),
        skip in 0usize..64,
    ) {
        let config = DseConfig {
            mappings,
            ..DseConfig::default()
        };
        let e = DseEngine::new(EdpModel::new(Geometry::salp_2gb_x8(), table, acc), config).unwrap();
        let tilings = brute_force_tilings(&layer, &acc);
        let mut blocks = Vec::new();
        for &th in &candidate_steps(layer.h) {
            for &tw in &candidate_steps(layer.w) {
                let members = tilings.iter().filter(|t| (t.th, t.tw) == (th, tw));
                blocks.push(((th, tw), members.copied().collect::<Vec<_>>()));
            }
        }
        let skip = skip % blocks.len();
        let skipped = blocks[skip].1.len();
        let walked: Vec<Tiling> = blocks
            .iter()
            .enumerate()
            .filter(|&(at, _)| at != skip)
            .flat_map(|(_, (_, members))| members.iter().copied())
            .collect();
        let config = e.config();
        let mut check = BlockCheck {
            e: &e,
            layer: &layer,
            sweep: Sweep::new(&e, &config.schemes, &config.mappings, e.rows(None), false),
            blocks: blocks.into_iter(),
            skip,
            entered: 0,
            visited: Vec::new(),
        };
        let count = walk_tilings(&layer, &acc, &mut check, &mut WalkBuffers::new()).unwrap();
        prop_assert_eq!(count, tilings.len());
        prop_assert_eq!(count - check.visited.len(), skipped);
        prop_assert_eq!(check.visited, walked);
    }
}

/// Holds each `(th, tw)` block's bound ([`Sweep::block_bound`]) against
/// every member of the block, and skips one block.
struct BlockCheck<'a> {
    e: &'a DseEngine,
    layer: &'a Layer,
    sweep: Sweep<'a>,
    /// Each `(th, tw)` with its brute-force tilings, in walk order.
    blocks: std::vec::IntoIter<((usize, usize), Vec<Tiling>)>,
    /// The index of the block to skip.
    skip: usize,
    /// Blocks entered so far.
    entered: usize,
    visited: Vec<Tiling>,
}

impl TilingVisitor for BlockCheck<'_> {
    type Tile = Tile;

    fn tile(&mut self, bytes: u64) -> Tile {
        self.sweep.tile(bytes)
    }

    fn ti_row(
        &mut self,
        kind: DataKind,
        is: &[(usize, u64)],
        tiles: &mut [Option<Tile>],
        trips: u64,
    ) {
        self.sweep.ti_row(kind, is, tiles, trips);
    }

    /// The block's arguments against its steps, and its bound against
    /// every member.
    fn block(&mut self, spatial: u64, ifms_bytes: u64, ofms_bytes: u64) -> bool {
        let ((th, tw), members) = self.blocks.next().expect("the walk enters each block once");
        let (layer, acc) = (self.layer, self.e.model().traffic_model().accelerator());
        let whole = Tiling::new(th, tw, layer.j, layer.i);
        let (n_h, n_w, _, _) = whole.steps(layer);
        assert_eq!(spatial, (acc.batch * n_h * n_w) as u64);
        assert_eq!(ifms_bytes, whole.tile_bytes(layer, acc, DataKind::Ifms));
        assert_eq!(ofms_bytes, whole.tile_bytes(layer, acc, DataKind::Ofms));
        let bound = self.sweep.block_bound(spatial, ifms_bytes, ofms_bytes);
        for tiling in &members {
            for scheme in ReuseScheme::CONCRETE {
                for mapping in &self.e.config().mappings {
                    let member = self.e.evaluate(layer, tiling, scheme, mapping);
                    assert_no_worse(&bound, &member);
                }
            }
        }
        self.entered += 1;
        self.entered - 1 != self.skip
    }

    fn tiling(&mut self, tiling: Tiling, _trips: [u64; 4], _tiles: [Tile; 3]) {
        self.visited.push(tiling);
    }
}

fn assert_walk_matches_brute_force(layer: &Layer, acc: &AcceleratorConfig) {
    let expected = brute_force_tilings(layer, acc);
    assert!(!expected.is_empty(), "{}", layer.name);
    assert_eq!(
        enumerate_tilings(layer, acc).unwrap(),
        expected,
        "{}",
        layer.name
    );
    assert_eq!(
        count_tilings(layer, acc).unwrap(),
        expected.len(),
        "{}",
        layer.name
    );
}

/// The 96 layers of `tests/data/big_layers.spec`.
fn big_layers() -> Network {
    parse_network(include_str!("../../../../tests/data/big_layers.spec")).unwrap()
}

#[test]
fn axis_walk_visits_the_brute_force_sequence_on_the_zoo_and_the_big_layers() {
    // Most prefixes of a big layer overflow a buffer; the zoo's mostly fit.
    let zoo = Network::zoo().into_iter().map(|(_, build)| build());
    for network in zoo.chain([big_layers()]) {
        for layer in network.layers() {
            assert_walk_matches_brute_force(layer, &AcceleratorConfig::table_ii());
        }
    }
}

// ---------------------------------------------------------------------
// The gates of the bound
// ---------------------------------------------------------------------

fn conv3() -> Layer {
    Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1)
}

/// An engine on `table` with Table II's geometry and accelerator, or its
/// refusal.
fn try_engine_on(table: AccessCostTable, config: DseConfig) -> Result<DseEngine, DseError> {
    let acc = AcceleratorConfig::table_ii();
    DseEngine::new(EdpModel::new(Geometry::salp_2gb_x8(), table, acc), config)
}

fn engine_on(table: AccessCostTable, config: DseConfig) -> DseEngine {
    try_engine_on(table, config).unwrap()
}

/// Class costs in the order the hardware's come in: columns cheapest,
/// rows dearest.
fn good() -> [AccessCost; 4] {
    [
        cost(4.0, 1.0),
        cost(6.0, 2.0),
        cost(40.0, 5.0),
        cost(42.0, 6.0),
    ]
}

/// A default-sweep engine on the table of `(read, write)` class costs and
/// clock `t_ck_ns`, or the engine's refusal.
fn gate((read, write): Costs, t_ck_ns: f64) -> Result<DseEngine, DseError> {
    let table = AccessCostTable::from_costs(DramArch::Ddr3, read, write, t_ck_ns);
    try_engine_on(table, DseConfig::default())
}

/// A table of uniformly drawn class costs, `[0, 50)` cycles and
/// `[0, 10)` nJ, from a fixed seed.
fn seeded_table(seed: u64) -> AccessCostTable {
    let mut state = seed;
    let mut draw = |scale: f64| {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64 * scale
    };
    let mut costs = || [(); 4].map(|()| cost(draw(50.0), draw(10.0)));
    let read = costs();
    AccessCostTable::from_costs(DramArch::Ddr3, read, costs(), 1.25)
}

#[test]
fn the_tile_bound_never_exceeds_any_mappings_tile_cost() {
    let geometry = Geometry::salp_2gb_x8();
    let profiler = Profiler::table_ii().unwrap();
    let tables = DramArch::ALL
        .map(|arch| profiler.cost_table(arch))
        .into_iter()
        .chain([seeded_table(29), seeded_table(4_242)]);
    let units = (1..=1100).chain([8191, 8192, 8193, 65536]);
    for table in tables {
        let bound = TileBound::new(&geometry, &table).unwrap();
        for units in units.clone() {
            let (read, write) = bound.at(units);
            for mapping in MappingPolicy::all_permutations() {
                for (lb, kind) in [(read, RequestKind::Read), (write, RequestKind::Write)] {
                    let exact = tile_cost(&mapping, &geometry, units, &table, kind);
                    assert!(
                        lb.cycles <= exact.cycles && lb.energy <= exact.energy,
                        "{mapping} at {units} bursts, {kind:?}: {lb:?} > {exact:?}"
                    );
                }
            }
        }
    }
}

/// The burst count by shift and carry is `div_ceil`'s, at the edges of a
/// burst and at the top of `u64` (where `(bytes + burst − 1) >> shift`
/// would overflow), and so is the division kept for a burst that is not a
/// power of two (three chips: 24 bytes).
#[test]
fn a_tiles_burst_count_is_its_bytes_over_the_burst_rounded_up() {
    let table_ii = Geometry::salp_2gb_x8();
    let three_chips = Geometry {
        chips: 3,
        ..table_ii
    };
    for (geometry, shift) in [(table_ii, Some(3)), (three_chips, None)] {
        let bound = TileBound::new(&geometry, &salp2_table()).unwrap();
        assert_eq!(bound.burst_shift, shift);
        let burst = geometry.burst_bytes() as u64;
        for bytes in [1, burst - 1, burst, burst + 1, 1 << 53, u64::MAX] {
            let units = bound.tile(bytes).units;
            assert_eq!(
                units,
                bytes.div_ceil(burst),
                "{bytes} bytes in {burst}-byte bursts"
            );
        }
    }
}

#[test]
fn tables_outside_the_trust_rule_are_refused() {
    let good = good();
    assert!(gate((good, good), 1.25).is_ok());
    assert!(gate(([cost(0.0, 0.0); 4], good), 0.0).is_ok());
    let edge = AccessCost {
        cycles: TRUSTED_MAX,
        energy: f64::MIN_POSITIVE,
    };
    assert!(gate((good, [edge; 4]), 1.25).is_ok());
    let bad = [
        cost(1e-310, 1.0), // a subnormal cycle count
        cost(-1.0, 1.0),
        cost(-1e6, 1.0),
        cost(-1e9, 1.0),
        cost(1e300, 1.0),
        cost(f64::INFINITY, 1.0),
        cost(42.0, f64::NAN),
    ];
    for bad in bad {
        for (class, name) in TransitionClass::ALL.into_iter().enumerate() {
            let mut costs = good;
            costs[class] = bad;
            for (table, kind) in [((costs, good), "read"), ((good, costs), "write")] {
                let refused = gate(table, 1.25).unwrap_err().to_string();
                assert!(refused.contains(&format!("{kind} {name}")), "{refused}");
            }
        }
    }
    for t_ck_ns in [-1.25, f64::NAN, f64::INFINITY] {
        let refused = gate((good, good), t_ck_ns).unwrap_err().to_string();
        assert!(refused.contains("clock"), "{refused}");
    }
    // −0.0 is `0`: the engine accepts it, and the sweep still skips.
    let mut signed_zero = good;
    signed_zero[0] = cost(-0.0, -0.0);
    let e = gate((signed_zero, good), 1.25).unwrap();
    let (swept, pruned) = e.explore_layer_counted(&conv3()).unwrap();
    assert!(pruned > 0);
    assert_results_bit_identical(&swept, &naive_explore(&e, &conv3()));
}

/// Every cost table the repository builds outside this suite passes the
/// engine's gate: the four profiled Table II tables; every profiler the
/// figures build (DDR4-2400 and LPDDR3-1600 timing, 2 to 32 subarrays, two
/// channels) on every architecture; `dse::tests`' ordered table; and the
/// flat table of `tests/property_tests.rs`.
#[test]
fn every_table_the_repository_builds_passes_the_gate() {
    use drmap_dram::device::Device;
    use drmap_dram::energy::EnergyParams;
    use drmap_dram::timing::TimingParams;
    let salp = Geometry::salp_2gb_x8();
    let mut devices = vec![
        (salp, TimingParams::ddr3_1600k()),
        (salp, TimingParams::ddr4_2400r()),
        (salp, TimingParams::lpddr3_1600()),
    ];
    for (channels, subarrays) in [(2, 16), (1, 2), (1, 4), (1, 8), (1, 16), (1, 32)] {
        let geometry = Geometry {
            channels,
            subarrays,
            ..Geometry::ddr3_2gb_x8()
        };
        devices.push((geometry, TimingParams::ddr3_1600k()));
    }
    let flat = cost(4.0, 1.0);
    let mut tables = vec![
        super::tests::ordered_table(),
        AccessCostTable::from_costs(DramArch::Ddr3, [flat; 4], [flat; 4], 1.25),
    ];
    for (geometry, timing) in devices {
        let device = Device::new(geometry, timing, EnergyParams::micron_2gb_x8()).unwrap();
        let profiler = Profiler::new(device).unwrap();
        tables.extend(DramArch::ALL.map(|arch| profiler.cost_table(arch)));
    }
    for table in tables {
        let accepted = try_engine_on(table.clone(), DseConfig::default());
        assert!(accepted.is_ok(), "{table:?}");
    }
}

#[test]
fn duplicate_groups_and_bounded_groups_are_counted_but_not_scored() {
    let table = AccessCostTable::from_costs(DramArch::Ddr3, good(), good(), 1.25);
    let layer = conv3();
    let sweep = |schemes: Vec<ReuseScheme>, keep_points| {
        let e = engine_on(
            table.clone(),
            DseConfig {
                schemes,
                keep_points,
                ..DseConfig::default()
            },
        );
        e.explore_layer_counted(&layer).unwrap()
    };
    let n = count_tilings(&layer, &AcceleratorConfig::table_ii()).unwrap();
    // The default sweep skips at least every adaptive group (it follows
    // the scheme it resolves to) and covers the whole product.
    for keep_points in [false, true] {
        let (swept, pruned) = sweep(ReuseScheme::ALL.to_vec(), keep_points);
        assert_eq!(swept.evaluations, n * 4 * 6);
        assert!(pruned >= n * 6);
        assert!(pruned < swept.evaluations);
    }
    // Adaptive-reuse alone duplicates nothing: its first group is
    // scored, and it wins under its own label.
    let (alone, pruned) = sweep(vec![ReuseScheme::AdaptiveReuse], false);
    assert_eq!(alone.evaluations, n * 6);
    assert!(pruned <= (n - 1) * 6);
    assert_eq!(alone.best.scheme, ReuseScheme::AdaptiveReuse);
}

// ---------------------------------------------------------------------
// The model zoo on the profiled tables
// ---------------------------------------------------------------------

/// Pipelined vs naive on every layer of `networks`, on all four
/// profiled architectures, with and without the Pareto front.
fn assert_zoo_identity(networks: &[Network]) {
    let profiler = Profiler::table_ii().unwrap();
    for arch in DramArch::ALL {
        let table = profiler.cost_table(arch);
        for keep_points in [false, true] {
            let e = engine_on(
                table.clone(),
                DseConfig {
                    keep_points,
                    ..DseConfig::default()
                },
            );
            for layer in networks.iter().flat_map(Network::layers) {
                assert_results_bit_identical(
                    &e.explore_layer(layer).unwrap(),
                    &naive_explore(&e, layer),
                );
            }
        }
    }
}

/// Skipping whole tilings changes what is computed, never what is
/// counted: `(evaluations, pruned)` of every zoo layer on every
/// architecture equals the table taken before the tiling-level bound
/// existed (`arch`, network, layer, evaluations, pruned per line).
#[test]
fn zoo_evaluation_and_pruned_counts_match_the_committed_table() {
    let profiler = Profiler::table_ii().unwrap();
    let mut table = include_str!("../../../../tests/data/zoo_counts.tsv").lines();
    let mut salp2 = (0, 0);
    for arch in DramArch::ALL {
        let e = engine_on(profiler.cost_table(arch), DseConfig::default());
        for (name, build) in Network::zoo() {
            for layer in build().layers() {
                let (swept, pruned) = e.explore_layer_counted(layer).unwrap();
                let line = format!(
                    "{arch}\t{name}\t{}\t{}\t{pruned}",
                    layer.name, swept.evaluations
                );
                assert_eq!(Some(line.as_str()), table.next());
                if arch == DramArch::Salp2 {
                    salp2 = (salp2.0 + swept.evaluations, salp2.1 + pruned);
                }
            }
        }
    }
    assert_eq!(table.next(), None);
    assert_eq!(salp2, (4_787_064, 4_784_796));
}

/// The work the default sweep does on SALP-2 over `networks`, on one
/// fresh engine: rows it built, tiles priced, rows each sweep read
/// (summed), tilings visited, `ti` loops walked, blocks walked, loop
/// bounds read.
fn salp2_work(networks: &[Network]) -> Tally {
    let e = engine_on(salp2_table(), DseConfig::default());
    let config = e.config();
    let mut total = Tally::default();
    for layer in networks.iter().flat_map(Network::layers) {
        let sweep = e.sweep(
            layer,
            &config.schemes,
            &config.mappings,
            e.rows(None),
            false,
        );
        let tally = sweep.unwrap().tally();
        total.tiles += tally.tiles;
        total.touched += tally.touched;
        total.tilings += tally.tilings;
        total.loops += tally.loops;
        total.blocks += tally.blocks;
        total.bounded += tally.bounded;
    }
    total.rows = e.memo.built();
    total
}

/// The zoo sweep's work on SALP-2 at its measured totals, so a weaker
/// bound, or a walk that prices a tile twice, fails here whatever the
/// machine's timing noise. The 32,211 tiles are 25,345 the walk made and
/// the whole ifms and ofms of each of the 3,433 blocks.
#[test]
fn the_zoo_sweep_on_salp2_does_the_measured_work() {
    let zoo: Vec<Network> = Network::zoo()
        .into_iter()
        .map(|(_, build)| build())
        .collect();
    let measured = Tally {
        rows: 326,
        tiles: 32_211,
        touched: 2_502,
        tilings: 3_537,
        loops: 516,
        blocks: 1_092,
        bounded: 8_944,
    };
    assert_eq!(salp2_work(&zoo), measured);
}

/// The same for the 96 big layers, most of whose `ti` loops are short
/// suffixes of the axis: a weaker loop bound shows here first.
#[test]
fn the_big_layers_sweep_on_salp2_does_the_measured_work() {
    let measured = Tally {
        rows: 274,
        tiles: 70_414,
        touched: 2_547,
        tilings: 3_595,
        loops: 610,
        blocks: 3_319,
        bounded: 27_189,
    };
    assert_eq!(salp2_work(&[big_layers()]), measured);
}

fn salp2_table() -> AccessCostTable {
    Profiler::table_ii().unwrap().cost_table(DramArch::Salp2)
}

/// Four threads sweep `networks` at once through one fresh shared
/// engine, racing on the first build of every row, and each gets what a
/// fresh engine sweeping alone gets, bit for bit and count for count; and
/// every row was built once.
fn assert_racing_sweeps_match_a_lone_engine(
    arch: DramArch,
    keep_points: bool,
    networks: &[Network],
) {
    let table = Profiler::table_ii().unwrap().cost_table(arch);
    let config = DseConfig {
        keep_points,
        ..DseConfig::default()
    };
    let layers: Vec<&Layer> = networks.iter().flat_map(Network::layers).collect();
    let lone = engine_on(table.clone(), config.clone());
    let expected: Vec<_> = layers
        .iter()
        .map(|layer| lone.explore_layer_counted(layer).unwrap())
        .collect();
    let shared = engine_on(table, config).into_shared();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    layers
                        .iter()
                        .map(|layer| shared.explore_layer_counted(layer).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for thread in threads {
            for ((swept, pruned), (alone, alone_pruned)) in
                thread.join().unwrap().iter().zip(&expected)
            {
                assert_results_bit_identical(swept, alone);
                assert_eq!(pruned, alone_pruned, "{}", alone.layer_name);
            }
        }
    });
    assert_eq!(shared.memo.built(), lone.memo.built(), "{arch:?}");
}

#[test]
fn racing_sweeps_on_one_fresh_engine_match_a_lone_engine() {
    let zoo: Vec<Network> = Network::zoo()
        .into_iter()
        .map(|(_, build)| build())
        .collect();
    assert_racing_sweeps_match_a_lone_engine(DramArch::Salp2, false, &zoo);
}

/// The same on every architecture, with and without the Pareto front.
#[test]
#[ignore = "zoo x 4 architectures x keep_points, four threads each; run in release"]
fn racing_sweeps_match_a_lone_engine_on_every_architecture() {
    let zoo: Vec<Network> = Network::zoo()
        .into_iter()
        .map(|(_, build)| build())
        .collect();
    for arch in DramArch::ALL {
        for keep_points in [false, true] {
            assert_racing_sweeps_match_a_lone_engine(arch, keep_points, &zoo);
        }
    }
}

/// One thread's sweeps share its walk buffers, each walk refilling them:
/// the zoo layer with the largest `(tj, ti)` grid, then `tiny`'s smallest
/// grid, then a layer no tiling fits, then the large one again, then the
/// unfit one straight after it (whose one-step ifms row, if a walk read
/// past it, would find the large layer's tiles): each sweeps on that
/// thread exactly as on a fresh one, result and pruned count alike.
#[test]
fn a_threads_sweeps_reuse_its_walk_buffers_exactly() {
    let e = engine_on(salp2_table(), DseConfig::default());
    let grid = |layer: &Layer| candidate_steps(layer.j).len() * candidate_steps(layer.i).len();
    let zoo: Vec<Network> = Network::zoo()
        .into_iter()
        .map(|(_, build)| build())
        .collect();
    let large = zoo.iter().flat_map(Network::layers).max_by_key(|l| grid(l));
    let tiny = Network::tiny();
    let small = tiny.layers().iter().min_by_key(|l| grid(l));
    let (large, small) = (large.unwrap().clone(), small.unwrap().clone());
    let unfit = Layer::conv("HUGE", 1, 1, 1, 1, 4096, 4096, 1);
    assert!(grid(&large) > grid(&small));
    let order = [&large, &small, &unfit, &large, &unfit];
    let on_fresh_threads: Vec<_> = order
        .iter()
        .map(|layer| std::thread::scope(|s| s.spawn(|| e.explore_layer_counted(layer)).join()))
        .map(Result::unwrap)
        .collect();
    let on_one_thread = std::thread::scope(|s| {
        let sweeps = s.spawn(|| order.map(|layer| e.explore_layer_counted(layer)));
        sweeps.join().unwrap()
    });
    assert!(on_fresh_threads[2].is_err() && on_fresh_threads[4].is_err());
    for (reused, fresh) in on_one_thread.iter().zip(&on_fresh_threads) {
        match (reused, fresh) {
            (Ok((reused, pruned)), Ok((fresh, fresh_pruned))) => {
                assert_results_bit_identical(reused, fresh);
                assert_eq!(pruned, fresh_pruned, "{}", fresh.layer_name);
            }
            (Err(reused), Err(fresh)) => assert_eq!(reused.to_string(), fresh.to_string()),
            _ => panic!("one sweep of a layer failed and the other did not"),
        }
    }
}

/// A clone shares its engine's rows: what one sweep built, the other's
/// sweep reads.
#[test]
fn clones_share_their_engines_rows() {
    let e = engine_on(salp2_table(), DseConfig::default());
    let clone = e.clone();
    assert_eq!(e.memo.built(), 0, "construction builds no row");
    let first = clone.explore_layer(&conv3()).unwrap();
    let built = e.memo.built();
    assert!(built > 0);
    assert_results_bit_identical(&e.explore_layer(&conv3()).unwrap(), &first);
    assert_eq!(e.memo.built(), built, "the second sweep built nothing");
    assert!(format!("{e:?}").contains(&format!("rows_built: {built}")));
}

/// A 1 GiB buffer's burst counts run to 2²⁷, yet its engine constructs
/// in well under a millisecond, allocating no chunk of rows until a sweep
/// needs one, and then only the chunks its rows are in.
#[test]
fn an_engine_on_a_huge_buffer_constructs_fast_and_sweeps_exactly() {
    let acc = AcceleratorConfig {
        ifms_buffer: 1 << 30,
        wghs_buffer: 1 << 30,
        ofms_buffer: 1 << 30,
        ..AcceleratorConfig::table_ii()
    };
    let model = EdpModel::new(Geometry::salp_2gb_x8(), salp2_table(), acc);
    let build = || {
        let at = std::time::Instant::now();
        let e = DseEngine::new(model.clone(), DseConfig::default()).unwrap();
        (at.elapsed(), e)
    };
    let fastest = (0..5).map(|_| build().0).min().unwrap();
    assert!(fastest < std::time::Duration::from_millis(1), "{fastest:?}");
    let e = build().1;
    let allocated = |e: &DseEngine| e.memo.chunks.iter().filter(|c| c.get().is_some()).count();
    assert_eq!((e.memo.built(), allocated(&e)), (0, 0));
    assert_eq!(e.memo.chunks.len(), 1 << 13, "2¹³ chunks of 2¹⁴ rows");
    for layer in Network::tiny().layers() {
        assert_results_bit_identical(&e.explore_layer(layer).unwrap(), &naive_explore(&e, layer));
    }
    assert!(allocated(&e) <= e.memo.built());
}

/// `best_over_tilings` reads an in-set mapping's column of the engine's
/// rows, and prices a mapping outside the set for the call only; either
/// way the result is a one-mapping engine's, bit for bit.
#[test]
fn best_over_tilings_matches_a_one_mapping_engine() {
    let e = engine_on(salp2_table(), DseConfig::default());
    let layer = conv3();
    for mapping in MappingPolicy::all_permutations() {
        let alone = engine_on(
            salp2_table(),
            DseConfig {
                mappings: vec![mapping],
                ..DseConfig::default()
            },
        );
        let built = e.memo.built();
        for scheme in ReuseScheme::ALL {
            let got = e.best_over_tilings(&layer, scheme, &mapping).unwrap();
            let want = alone.best_over_tilings(&layer, scheme, &mapping).unwrap();
            assert_eq!(got, want, "{mapping} {scheme}");
            assert_eq!(got.estimate.edp().to_bits(), want.estimate.edp().to_bits());
        }
        let in_set = e.config().mappings.contains(&mapping);
        assert_eq!(in_set, mapping.index() != 0);
        if !in_set {
            assert_eq!(e.memo.built(), built, "{mapping} built into the engine");
        }
    }
    assert!(e.memo.built() > 0);
}

#[test]
fn alexnet_and_tiny_match_naive_on_every_architecture() {
    assert_zoo_identity(&[Network::alexnet(), Network::tiny()]);
}

/// The whole zoo: minutes in a debug build, so CI's `test` job (`tier-1
/// verify`) runs it in release (`cargo test --release -p drmap-core --
/// --ignored`).
#[test]
#[ignore = "full zoo x 4 architectures x keep_points against the naive sweep; run in release"]
fn full_zoo_matches_naive_on_every_architecture() {
    let zoo: Vec<Network> = Network::zoo()
        .into_iter()
        .map(|(_, build)| build())
        .collect();
    assert_zoo_identity(&zoo);
}
