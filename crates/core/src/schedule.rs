//! DRAM access scheduling schemes: which data type is maximally reused in
//! the on-chip buffers, and how many times each tile is fetched.
//!
//! The paper (Section III-B, Step 1b) considers four schemes: ifms-reuse,
//! wghs-reuse, ofms-reuse, and adaptive-reuse (which picks the minimum-
//! traffic scheme per layer, as in SmartShuttle). Each scheme corresponds
//! to an ordering of Fig. 3's outer loops; the re-fetch factors follow
//! from classic loop-nest reuse analysis:
//!
//! * a data type is *re*-fetched once per iteration of every loop it does
//!   **not** depend on that encloses its innermost dependent loop;
//! * `ofms` accumulate partial sums: every pass but the first re-loads the
//!   tile, and every pass stores it.

use core::fmt;

use drmap_cnn::accelerator::AcceleratorConfig;
use drmap_cnn::layer::{DataKind, Layer};

use crate::tiling::Tiling;

/// The outer loops of Fig. 3 (batch, output rows, output cols, output
/// channels, input channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OuterLoop {
    /// Batch loop `b`.
    B,
    /// Output-row loop `h`.
    H,
    /// Output-column loop `w`.
    W,
    /// Output-channel loop `j`.
    J,
    /// Input-channel loop `i`.
    I,
}

impl OuterLoop {
    /// Does `kind` depend on this loop (does its tile index change)?
    pub(crate) fn feeds(self, kind: DataKind) -> bool {
        match kind {
            DataKind::Ifms => matches!(
                self,
                OuterLoop::B | OuterLoop::H | OuterLoop::W | OuterLoop::I
            ),
            DataKind::Wghs => matches!(self, OuterLoop::J | OuterLoop::I),
            DataKind::Ofms => matches!(
                self,
                OuterLoop::B | OuterLoop::H | OuterLoop::W | OuterLoop::J
            ),
        }
    }
}

/// The four scheduling schemes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseScheme {
    /// Keep an ifms tile resident while all dependent work completes.
    IfmsReuse,
    /// Keep a wghs tile resident while all dependent work completes.
    WghsReuse,
    /// Keep an ofms tile resident until fully accumulated (Fig. 3's order).
    OfmsReuse,
    /// Pick the minimum-traffic scheme per layer.
    AdaptiveReuse,
}

impl ReuseScheme {
    /// All schemes in the order the paper plots them (Fig. 9 a–d).
    pub const ALL: [ReuseScheme; 4] = [
        ReuseScheme::IfmsReuse,
        ReuseScheme::WghsReuse,
        ReuseScheme::OfmsReuse,
        ReuseScheme::AdaptiveReuse,
    ];

    /// The three concrete (non-adaptive) schemes.
    pub const CONCRETE: [ReuseScheme; 3] = [
        ReuseScheme::IfmsReuse,
        ReuseScheme::WghsReuse,
        ReuseScheme::OfmsReuse,
    ];

    /// Outer-loop order (outermost first) realizing this scheme.
    ///
    /// # Panics
    ///
    /// Panics for [`ReuseScheme::AdaptiveReuse`], which has no fixed order;
    /// resolve it per layer first (see [`TrafficModel::resolve_adaptive`]).
    pub(crate) fn loop_order(self) -> [OuterLoop; 5] {
        match self {
            ReuseScheme::IfmsReuse => [
                OuterLoop::B,
                OuterLoop::H,
                OuterLoop::W,
                OuterLoop::I,
                OuterLoop::J,
            ],
            ReuseScheme::WghsReuse => [
                OuterLoop::J,
                OuterLoop::I,
                OuterLoop::B,
                OuterLoop::H,
                OuterLoop::W,
            ],
            ReuseScheme::OfmsReuse => [
                OuterLoop::B,
                OuterLoop::H,
                OuterLoop::W,
                OuterLoop::J,
                OuterLoop::I,
            ],
            ReuseScheme::AdaptiveReuse => {
                panic!("adaptive-reuse must be resolved to a concrete scheme per layer")
            }
        }
    }

    /// Position of a concrete scheme in [`ReuseScheme::CONCRETE`] — the
    /// index into [`TrafficModel::concrete_traffic`]'s output — or `None`
    /// for [`ReuseScheme::AdaptiveReuse`].
    pub(crate) fn concrete_index(self) -> Option<usize> {
        ReuseScheme::CONCRETE.iter().position(|&s| s == self)
    }

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            ReuseScheme::IfmsReuse => "ifms-reuse",
            ReuseScheme::WghsReuse => "wghs-reuse",
            ReuseScheme::OfmsReuse => "ofms-reuse",
            ReuseScheme::AdaptiveReuse => "adaptive-reuse",
        }
    }
}

impl fmt::Display for ReuseScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Tile-fetch counts for one `(layer, tiling, scheme)` combination.
///
/// `ofms` distinguishes loads (partial-sum re-reads) from stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTraffic {
    /// ifms tile loads.
    pub ifms_loads: u64,
    /// wghs tile loads.
    pub wghs_loads: u64,
    /// ofms tile loads (partial-sum re-reads).
    pub ofms_loads: u64,
    /// ofms tile stores.
    pub ofms_stores: u64,
}

impl TileTraffic {
    /// Total bytes moved when one tile of each kind is `tile_bytes` long
    /// ([`DataKind::ALL`] order: ifms, wghs, ofms).
    pub(crate) fn bytes(&self, tile_bytes: [u64; 3]) -> u64 {
        self.ifms_loads * tile_bytes[0]
            + self.wghs_loads * tile_bytes[1]
            + (self.ofms_loads + self.ofms_stores) * tile_bytes[2]
    }
}

/// Computes DRAM tile traffic for layers under a scheduling scheme.
///
/// # Examples
///
/// ```
/// use drmap_core::schedule::{ReuseScheme, TrafficModel};
/// use drmap_core::tiling::Tiling;
/// use drmap_cnn::prelude::*;
///
/// let acc = AcceleratorConfig::table_ii();
/// let model = TrafficModel::new(acc);
/// let layer = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
/// let tiling = Tiling::new(13, 13, 16, 16);
/// let t = model.traffic(&layer, &tiling, ReuseScheme::OfmsReuse);
/// assert_eq!(t.ofms_loads, 0); // output-stationary: no partial re-reads
/// ```
#[derive(Debug, Clone)]
pub struct TrafficModel {
    acc: AcceleratorConfig,
}

impl TrafficModel {
    /// Create a traffic model for the given accelerator.
    pub fn new(acc: AcceleratorConfig) -> Self {
        TrafficModel { acc }
    }

    /// The accelerator configuration.
    pub fn accelerator(&self) -> &AcceleratorConfig {
        &self.acc
    }

    fn trip_count(&self, layer: &Layer, tiling: &Tiling, l: OuterLoop) -> u64 {
        let (n_h, n_w, n_j, n_i) = tiling.steps(layer);
        match l {
            OuterLoop::B => self.acc.batch as u64,
            OuterLoop::H => n_h as u64,
            OuterLoop::W => n_w as u64,
            OuterLoop::J => n_j as u64,
            OuterLoop::I => n_i as u64,
        }
    }

    /// Number of distinct tiles of `kind` (product of dependent trips).
    #[cfg(test)]
    pub(crate) fn distinct_tiles(&self, layer: &Layer, tiling: &Tiling, kind: DataKind) -> u64 {
        [
            OuterLoop::B,
            OuterLoop::H,
            OuterLoop::W,
            OuterLoop::J,
            OuterLoop::I,
        ]
        .iter()
        .filter(|&&l| l.feeds(kind))
        .map(|&l| self.trip_count(layer, tiling, l))
        .product()
    }

    /// Re-fetch factor of `kind` under a concrete scheme: the product of
    /// trip counts of non-dependent loops enclosing the innermost
    /// dependent loop.
    pub fn refetch_factor(
        &self,
        layer: &Layer,
        tiling: &Tiling,
        scheme: ReuseScheme,
        kind: DataKind,
    ) -> u64 {
        let order = scheme.loop_order();
        let innermost_dep = order
            .iter()
            .rposition(|&l| l.feeds(kind))
            .expect("every data kind depends on at least one loop");
        order[..innermost_dep]
            .iter()
            .filter(|&&l| !l.feeds(kind))
            .map(|&l| self.trip_count(layer, tiling, l))
            .product()
    }

    /// Tile traffic of the three concrete schemes, in
    /// [`ReuseScheme::CONCRETE`] order, from one [`Tiling::steps`] call.
    ///
    /// These are the module docs' reuse rules worked out per loop order
    /// (`TrafficModel::distinct_tiles` × [`TrafficModel::refetch_factor`]
    /// derive the same numbers loop by loop and are the test oracle).
    /// With `S = batch · n_h · n_w` spatial steps:
    ///
    /// | scheme | ifms loads | wghs loads | ofms passes |
    /// |---|---|---|---|
    /// | ifms-reuse `B H W I J` | `S·n_i` | `n_j·n_i · S` | `n_i` |
    /// | wghs-reuse `J I B H W` | `S·n_i · n_j` | `n_j·n_i` | `n_i` |
    /// | ofms-reuse `B H W J I` | `S·n_i · n_j` | `n_j·n_i · S` | `1` |
    ///
    /// Every pass stores the `S·n_j` ofms tiles and every pass but the
    /// first re-loads them.
    pub(crate) fn concrete_traffic(&self, layer: &Layer, tiling: &Tiling) -> [TileTraffic; 3] {
        let (n_h, n_w, n_j, n_i) = tiling.steps(layer);
        let spatial = self.acc.batch as u64 * n_h as u64 * n_w as u64;
        traffic_of_trips(spatial, n_j as u64, n_i as u64)
    }

    /// Bytes of one tile of each kind, in [`DataKind::ALL`] order — the
    /// weights [`TileTraffic::bytes`] takes.
    pub(crate) fn tile_bytes(&self, layer: &Layer, tiling: &Tiling) -> [u64; 3] {
        DataKind::ALL.map(|kind| tiling.tile_bytes(layer, &self.acc, kind))
    }

    /// Tile traffic for one concrete scheme.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` is [`ReuseScheme::AdaptiveReuse`]; resolve it
    /// first with [`TrafficModel::resolve_adaptive`].
    pub fn traffic(&self, layer: &Layer, tiling: &Tiling, scheme: ReuseScheme) -> TileTraffic {
        let index = scheme
            .concrete_index()
            .expect("adaptive-reuse must be resolved to a concrete scheme per layer");
        self.concrete_traffic(layer, tiling)[index]
    }

    /// Total bytes moved for one concrete scheme.
    pub fn traffic_bytes(&self, layer: &Layer, tiling: &Tiling, scheme: ReuseScheme) -> u64 {
        self.traffic(layer, tiling, scheme)
            .bytes(self.tile_bytes(layer, tiling))
    }

    /// Resolve adaptive-reuse for one layer: the concrete scheme with the
    /// minimum DRAM traffic (the paper: "minimum number of DRAM accesses"),
    /// the first of [`ReuseScheme::CONCRETE`] on a tie. Concrete schemes
    /// resolve to themselves.
    pub fn resolve_adaptive(
        &self,
        layer: &Layer,
        tiling: &Tiling,
        scheme: ReuseScheme,
    ) -> ReuseScheme {
        match scheme {
            ReuseScheme::AdaptiveReuse => {
                let traffic = self.concrete_traffic(layer, tiling);
                ReuseScheme::CONCRETE[min_traffic_index(&traffic, self.tile_bytes(layer, tiling))]
            }
            concrete => concrete,
        }
    }
}

/// [`TrafficModel::concrete_traffic`]'s table at `spatial = batch · n_h ·
/// n_w` spatial steps and `n_j`, `n_i` channel steps.
pub(crate) fn traffic_of_trips(spatial: u64, n_j: u64, n_i: u64) -> [TileTraffic; 3] {
    let ifms_tiles = spatial * n_i;
    let wghs_tiles = n_j * n_i;
    let ofms_tiles = spatial * n_j;
    [
        TileTraffic {
            ifms_loads: ifms_tiles,
            wghs_loads: wghs_tiles * spatial,
            ofms_loads: ofms_tiles * (n_i - 1),
            ofms_stores: ofms_tiles * n_i,
        },
        TileTraffic {
            ifms_loads: ifms_tiles * n_j,
            wghs_loads: wghs_tiles,
            ofms_loads: ofms_tiles * (n_i - 1),
            ofms_stores: ofms_tiles * n_i,
        },
        TileTraffic {
            ifms_loads: ifms_tiles * n_j,
            wghs_loads: wghs_tiles * spatial,
            ofms_loads: 0,
            ofms_stores: ofms_tiles,
        },
    ]
}

/// The component-wise least of [`traffic_of_trips`]' three rows — each
/// column's smallest entry in [`TrafficModel::concrete_traffic`]'s table:
/// no scheme moves fewer tiles of any class, though no scheme need reach
/// all four at once.
pub(crate) fn least_traffic(spatial: u64, n_j: u64, n_i: u64) -> TileTraffic {
    TileTraffic {
        ifms_loads: spatial * n_i,
        wghs_loads: n_j * n_i,
        ofms_loads: 0,
        ofms_stores: spatial * n_j,
    }
}

/// What adaptive-reuse resolves to, as an index into
/// [`ReuseScheme::CONCRETE`]: the scheme of `traffic` (one
/// [`TrafficModel::concrete_traffic`] result) moving the fewest bytes at
/// the given per-kind tile sizes; the first of equals.
pub(crate) fn min_traffic_index(traffic: &[TileTraffic; 3], tile_bytes: [u64; 3]) -> usize {
    let mut min = 0;
    for (index, t) in traffic.iter().enumerate().skip(1) {
        if t.bytes(tile_bytes) < traffic[min].bytes(tile_bytes) {
            min = index;
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TrafficModel {
        TrafficModel::new(AcceleratorConfig::table_ii())
    }

    fn conv3() -> Layer {
        Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1)
    }

    #[test]
    fn loop_dependencies_match_fig3() {
        assert!(OuterLoop::H.feeds(DataKind::Ifms));
        assert!(!OuterLoop::J.feeds(DataKind::Ifms));
        assert!(OuterLoop::J.feeds(DataKind::Wghs));
        assert!(!OuterLoop::H.feeds(DataKind::Wghs));
        assert!(OuterLoop::J.feeds(DataKind::Ofms));
        assert!(!OuterLoop::I.feeds(DataKind::Ofms));
        assert!(!OuterLoop::B.feeds(DataKind::Wghs));
        assert!(OuterLoop::B.feeds(DataKind::Ofms));
    }

    #[test]
    fn reused_type_is_fetched_once() {
        let m = model();
        let l = conv3();
        let t = Tiling::new(13, 13, 16, 16);
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::IfmsReuse, DataKind::Ifms),
            1
        );
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::WghsReuse, DataKind::Wghs),
            1
        );
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::OfmsReuse, DataKind::Ofms),
            1
        );
    }

    #[test]
    fn refetch_factors_match_hand_analysis() {
        let m = model();
        let l = conv3();
        let t = Tiling::new(13, 13, 16, 16);
        let (n_h, n_w, n_j, n_i) = t.steps(&l);
        assert_eq!((n_h, n_w), (1, 1));
        // ofms-reuse: ifms re-fetched per output-channel step, wghs per
        // spatial step.
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::OfmsReuse, DataKind::Ifms),
            n_j as u64
        );
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::OfmsReuse, DataKind::Wghs),
            (n_h * n_w) as u64
        );
        // wghs-reuse: ifms re-fetched per output-channel step; ofms passes
        // per input-channel step.
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::WghsReuse, DataKind::Ifms),
            n_j as u64
        );
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::WghsReuse, DataKind::Ofms),
            n_i as u64
        );
        // ifms-reuse: wghs re-fetched per spatial step; ofms per input step.
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::IfmsReuse, DataKind::Wghs),
            (n_h * n_w) as u64
        );
        assert_eq!(
            m.refetch_factor(&l, &t, ReuseScheme::IfmsReuse, DataKind::Ofms),
            n_i as u64
        );
    }

    #[test]
    fn ofms_reuse_has_no_partial_rereads() {
        let m = model();
        let l = conv3();
        let t = Tiling::new(13, 13, 16, 16);
        let traffic = m.traffic(&l, &t, ReuseScheme::OfmsReuse);
        assert_eq!(traffic.ofms_loads, 0);
        assert_eq!(
            traffic.ofms_stores,
            m.distinct_tiles(&l, &t, DataKind::Ofms)
        );
    }

    #[test]
    fn partial_sum_passes_add_loads_and_stores() {
        let m = model();
        let l = conv3();
        let t = Tiling::new(13, 13, 16, 16);
        let n_i = t.steps(&l).3 as u64;
        let traffic = m.traffic(&l, &t, ReuseScheme::WghsReuse);
        let distinct = m.distinct_tiles(&l, &t, DataKind::Ofms);
        assert_eq!(traffic.ofms_stores, distinct * n_i);
        assert_eq!(traffic.ofms_loads, distinct * (n_i - 1));
    }

    #[test]
    fn distinct_tiles_product_of_dependent_trips() {
        let m = model();
        let l = conv3();
        let t = Tiling::new(7, 7, 16, 16);
        let (n_h, n_w, n_j, n_i) = t.steps(&l);
        assert_eq!(
            m.distinct_tiles(&l, &t, DataKind::Ifms),
            (n_h * n_w * n_i) as u64
        );
        assert_eq!(m.distinct_tiles(&l, &t, DataKind::Wghs), (n_j * n_i) as u64);
        assert_eq!(
            m.distinct_tiles(&l, &t, DataKind::Ofms),
            (n_h * n_w * n_j) as u64
        );
    }

    #[test]
    fn adaptive_picks_minimum_traffic() {
        let m = model();
        let l = conv3();
        let t = Tiling::new(13, 13, 16, 16);
        let chosen = m.resolve_adaptive(&l, &t, ReuseScheme::AdaptiveReuse);
        let chosen_bytes = m.traffic_bytes(&l, &t, chosen);
        for s in ReuseScheme::CONCRETE {
            assert!(chosen_bytes <= m.traffic_bytes(&l, &t, s));
        }
    }

    #[test]
    fn concrete_traffic_matches_loop_nest_derivation() {
        let mut acc = AcceleratorConfig::table_ii();
        acc.batch = 3;
        let batched = TrafficModel::new(acc);
        let grouped = Layer::conv_grouped("g", 27, 27, 256, 96, 5, 5, 1, 2);
        for (m, l, t) in [
            (model(), conv3(), Tiling::new(13, 13, 16, 16)),
            (model(), conv3(), Tiling::new(4, 7, 100, 5)),
            (batched, grouped, Tiling::new(9, 14, 32, 24)),
        ] {
            let closed = m.concrete_traffic(&l, &t);
            for (scheme, traffic) in ReuseScheme::CONCRETE.into_iter().zip(closed) {
                let derived =
                    |kind| m.distinct_tiles(&l, &t, kind) * m.refetch_factor(&l, &t, scheme, kind);
                let passes = m.refetch_factor(&l, &t, scheme, DataKind::Ofms);
                let ofms = m.distinct_tiles(&l, &t, DataKind::Ofms);
                assert_eq!(traffic.ifms_loads, derived(DataKind::Ifms), "{scheme}");
                assert_eq!(traffic.wghs_loads, derived(DataKind::Wghs), "{scheme}");
                assert_eq!(traffic.ofms_stores, ofms * passes, "{scheme}");
                assert_eq!(traffic.ofms_loads, ofms * (passes - 1), "{scheme}");
                assert_eq!(traffic, m.traffic(&l, &t, scheme));
            }
        }
    }

    #[test]
    fn least_traffic_is_the_column_minimum_of_the_concrete_table() {
        for (spatial, n_j, n_i) in [(1, 1, 1), (1, 24, 16), (9, 1, 7), (12, 5, 1), (36, 8, 3)] {
            let table = traffic_of_trips(spatial, n_j, n_i);
            let column = |f: fn(&TileTraffic) -> u64| table.iter().map(f).min().unwrap();
            let least = least_traffic(spatial, n_j, n_i);
            assert_eq!(least.ifms_loads, column(|t| t.ifms_loads));
            assert_eq!(least.wghs_loads, column(|t| t.wghs_loads));
            assert_eq!(least.ofms_loads, column(|t| t.ofms_loads));
            assert_eq!(least.ofms_stores, column(|t| t.ofms_stores));
        }
    }

    #[test]
    fn adaptive_ties_resolve_to_the_first_concrete_scheme() {
        // A whole-layer tiling has one step per loop: every scheme moves
        // every tile exactly once, so all three tie.
        let m = model();
        let l = conv3();
        let t = Tiling::whole_layer(&l);
        let traffic = m.concrete_traffic(&l, &t);
        assert_eq!(traffic[0], traffic[1]);
        assert_eq!(traffic[1], traffic[2]);
        assert_eq!(
            m.resolve_adaptive(&l, &t, ReuseScheme::AdaptiveReuse),
            ReuseScheme::CONCRETE[0]
        );
        // A later strict minimum still wins; a later tie does not.
        let tile = |ifms_loads| TileTraffic {
            ifms_loads,
            wghs_loads: 0,
            ofms_loads: 0,
            ofms_stores: 0,
        };
        assert_eq!(
            min_traffic_index(&[tile(5), tile(3), tile(3)], [8, 8, 8]),
            1
        );
        assert_eq!(
            min_traffic_index(&[tile(5), tile(7), tile(4)], [8, 8, 8]),
            2
        );
    }

    #[test]
    fn adaptive_resolution_is_identity_for_concrete() {
        let m = model();
        let l = conv3();
        let t = Tiling::new(13, 13, 16, 16);
        assert_eq!(
            m.resolve_adaptive(&l, &t, ReuseScheme::IfmsReuse),
            ReuseScheme::IfmsReuse
        );
    }

    #[test]
    fn fc_layer_traffic_dominated_by_single_weight_pass() {
        let m = model();
        let fc6 = Layer::fully_connected("FC6", 9216, 4096);
        let t = Tiling::new(1, 1, 64, 1024);
        assert!(t.fits(&fc6, m.accelerator()));
        let chosen = m.resolve_adaptive(&fc6, &t, ReuseScheme::AdaptiveReuse);
        let bytes = m.traffic_bytes(&fc6, &t, chosen);
        // With H=W=1 every scheme streams the 37.7 MB of weights exactly
        // once; the optimum must stay within a few percent of that floor.
        let wghs_bytes = fc6.wghs_elems();
        assert!(bytes >= wghs_bytes);
        assert!(
            (bytes as f64) < wghs_bytes as f64 * 1.05,
            "adaptive traffic {bytes} should be close to the weight volume {wghs_bytes}"
        );
    }

    #[test]
    fn batch_scales_ofms_and_ifms_tiles() {
        let mut acc = AcceleratorConfig::table_ii();
        acc.batch = 4;
        let m = TrafficModel::new(acc);
        let l = conv3();
        let t = Tiling::new(13, 13, 16, 16);
        let m1 = model();
        assert_eq!(
            m.distinct_tiles(&l, &t, DataKind::Ofms),
            4 * m1.distinct_tiles(&l, &t, DataKind::Ofms)
        );
        // Weights are batch-invariant.
        assert_eq!(
            m.distinct_tiles(&l, &t, DataKind::Wghs),
            m1.distinct_tiles(&l, &t, DataKind::Wghs)
        );
    }

    #[test]
    #[should_panic(expected = "adaptive-reuse")]
    fn adaptive_loop_order_panics() {
        let _ = ReuseScheme::AdaptiveReuse.loop_order();
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ReuseScheme::IfmsReuse.label(), "ifms-reuse");
        assert_eq!(ReuseScheme::AdaptiveReuse.label(), "adaptive-reuse");
    }
}
