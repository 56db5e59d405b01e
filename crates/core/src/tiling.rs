//! Layer partitioning: tile-size selection under buffer constraints.
//!
//! A [`Tiling`] fixes the step sizes `(Th, Tw, Tj, Ti)` of Fig. 3's outer
//! loops (with `Tp = P` and `Tq = Q`, per Algorithm 1's initialization).
//! The resulting `ifms`/`wghs`/`ofms` tiles must fit the corresponding
//! on-chip buffers — the feasibility condition on line 9 of Algorithm 1.

use core::fmt;

use drmap_cnn::accelerator::AcceleratorConfig;
use drmap_cnn::layer::{DataKind, Layer};

use crate::error::DseError;

/// Tile step sizes for one layer.
///
/// # Examples
///
/// ```
/// use drmap_core::tiling::Tiling;
/// use drmap_cnn::layer::{DataKind, Layer};
///
/// let layer = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
/// let tiling = Tiling::new(13, 13, 16, 16);
/// assert_eq!(tiling.tile_elems(&layer, DataKind::Ofms), 13 * 13 * 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    /// Output-row step `Th`.
    pub th: usize,
    /// Output-column step `Tw`.
    pub tw: usize,
    /// Output-channel step `Tj`.
    pub tj: usize,
    /// Input-channel step `Ti`.
    pub ti: usize,
}

impl Tiling {
    /// Create a tiling with the given steps.
    pub fn new(th: usize, tw: usize, tj: usize, ti: usize) -> Self {
        Tiling { th, tw, tj, ti }
    }

    /// The degenerate tiling that covers the whole layer in one tile.
    #[cfg(test)]
    pub(crate) fn whole_layer(layer: &Layer) -> Self {
        Tiling::new(layer.h, layer.w, layer.j, layer.i)
    }

    /// Clamp the steps to the layer's dimensions.
    pub fn clamped(self, layer: &Layer) -> Self {
        Tiling {
            th: self.th.min(layer.h).max(1),
            tw: self.tw.min(layer.w).max(1),
            tj: self.tj.min(layer.j).max(1),
            ti: self.ti.min(layer.i).max(1),
        }
    }

    /// Number of tile steps along each loop: `(n_h, n_w, n_j, n_i)`,
    /// each `ceil(dim / step)`.
    pub(crate) fn steps(&self, layer: &Layer) -> (usize, usize, usize, usize) {
        (
            layer.h.div_ceil(self.th),
            layer.w.div_ceil(self.tw),
            layer.j.div_ceil(self.tj),
            layer.i.div_ceil(self.ti),
        )
    }

    /// Elements of one tile of the given data kind (halo-aware for ifms).
    pub fn tile_elems(&self, layer: &Layer, kind: DataKind) -> u64 {
        match kind {
            DataKind::Ifms => {
                layer.ifm_patch_h(self.th) as u64
                    * layer.ifm_patch_w(self.tw) as u64
                    * self.ti as u64
            }
            DataKind::Wghs => {
                // Grouped convolutions store 1/groups of the dense filter
                // volume (each output channel sees i/groups inputs); an
                // ungrouped one skips the division.
                let dense = layer.p as u64 * layer.q as u64 * self.ti as u64 * self.tj as u64;
                match layer.groups {
                    1 => dense,
                    groups => dense.div_ceil(groups as u64),
                }
            }
            DataKind::Ofms => self.th as u64 * self.tw as u64 * self.tj as u64,
        }
    }

    /// Bytes of one tile of the given kind at the accelerator's precision.
    pub fn tile_bytes(&self, layer: &Layer, acc: &AcceleratorConfig, kind: DataKind) -> u64 {
        acc.bytes_for(self.tile_elems(layer, kind))
    }

    /// True if every tile fits its buffer (Algorithm 1, line 9).
    pub fn fits(&self, layer: &Layer, acc: &AcceleratorConfig) -> bool {
        DataKind::ALL
            .iter()
            .all(|&k| self.tile_bytes(layer, acc, k) <= acc.buffer_bytes(k) as u64)
    }
}

impl fmt::Display for Tiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Th={} Tw={} Tj={} Ti={}",
            self.th, self.tw, self.tj, self.ti
        )
    }
}

/// Geometric candidate steps for one dimension: the dimension itself and
/// successive halvings down to 1 (deduplicated, descending).
///
/// # Examples
///
/// ```
/// use drmap_core::tiling::candidate_steps;
///
/// assert_eq!(candidate_steps(13), vec![13, 7, 4, 2, 1]);
/// assert_eq!(candidate_steps(1), vec![1]);
/// ```
pub fn candidate_steps(dim: usize) -> Vec<usize> {
    steps(dim).collect()
}

/// The steps of [`candidate_steps`], in order, without a `Vec`: the one
/// statement of the halving rule.
fn steps(dim: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(dim.max(1)), |&v| (v > 1).then(|| v.div_ceil(2)))
}

/// The walk's four candidate axes `th`, `tw`, `tj`, `ti`, each step with
/// its trip count, back to back in one buffer: of exact size when new,
/// and regrown only for longer axes when reused.
struct Axes {
    steps: Vec<(usize, u64)>,
    /// Each axis's length.
    lens: [usize; 4],
}

impl Axes {
    const fn new() -> Self {
        Axes {
            steps: Vec::new(),
            lens: [0; 4],
        }
    }

    /// Replace the axes with those of `dims`.
    fn fill(&mut self, dims: [usize; 4]) {
        self.lens = dims.map(|dim| steps(dim).count());
        self.steps.clear();
        self.steps.reserve_exact(self.lens.iter().sum());
        for dim in dims {
            for step in steps(dim) {
                self.steps.push((step, dim.div_ceil(step) as u64));
            }
        }
    }

    /// The four axes, in `th`, `tw`, `tj`, `ti` order.
    fn split(&self) -> [&[(usize, u64)]; 4] {
        let (hs, rest) = self.steps.split_at(self.lens[0]);
        let (ws, rest) = rest.split_at(self.lens[1]);
        let (js, is) = rest.split_at(self.lens[2]);
        [hs, ws, js, is]
    }
}

/// What [`walk_tilings`] allocates, lent to it by the caller so that a
/// thread's walks can share one: the axes, the tiles (every `tj`'s wghs
/// row, then the one ifms row each walked block overwrites in place) and
/// each wghs row's first fit. A walk refills all three before reading
/// any, so what an earlier walk left in them never shows.
pub(crate) struct WalkBuffers<T> {
    axes: Axes,
    tiles: Vec<Option<T>>,
    wghs_first: Vec<usize>,
}

impl<T> WalkBuffers<T> {
    pub(crate) const fn new() -> Self {
        WalkBuffers {
            axes: Axes::new(),
            tiles: Vec::new(),
            wghs_first: Vec::new(),
        }
    }
}

/// What [`walk_tilings`] hands its caller, each thing once, at the loop
/// depth that determines it.
pub(crate) trait TilingVisitor {
    /// What the visitor keeps of a tile that fits its buffer.
    type Tile: Copy;

    /// A tile of `bytes` bytes that fits its buffer: a wghs tile once
    /// per `(tj, ti)`, before the walk; an ifms tile once per
    /// `(th, tw, ti)`, on entering a walked `(th, tw)`; an ofms tile once
    /// per `(th, tw, tj)` of a walked block whose `ti` loop has a
    /// feasible tiling.
    fn tile(&mut self, bytes: u64) -> Self::Tile;

    /// Once per row of tiles of `kind` along the `ti` axis `is`, as soon
    /// as [`TilingVisitor::tile`] has made it (aligned with the axis,
    /// `None` where one overflows): each `tj`'s wghs row before the walk,
    /// with `trips = n_j`, and each walked `(th, tw)`'s ifms row on
    /// entering it, with `trips = batch · n_h · n_w` — the row's loads per
    /// `ti` trip.
    fn ti_row(
        &mut self,
        _kind: DataKind,
        _is: &[(usize, u64)],
        _tiles: &mut [Option<Self::Tile>],
        _trips: u64,
    ) {
    }

    /// On entering a `(th, tw)` block, before any of its tiles is made:
    /// its `spatial = batch · n_h · n_w` and the bytes of its whole ifms
    /// (`ti = i`) and whole ofms (`tj = j`). Returns whether to walk the
    /// block; a skipped block's tilings are still counted.
    fn block(&mut self, _spatial: u64, _ifms_bytes: u64, _ofms_bytes: u64) -> bool {
        true
    }

    /// Before the `ti` loop of a walked block's `(th, tw, tj)` whose ofms
    /// tile fits: the three steps and the `ti` axis, each step with its
    /// trip count, the loop's ifms and wghs tiles (aligned with the axis,
    /// `None` where one overflows) and ofms tile, and how many tilings the
    /// loop has — at least one, the last that many steps of the axis.
    /// Returns whether to walk the loop; a skipped loop's tilings are
    /// still counted.
    fn ti_loop(
        &mut self,
        _outer: [(usize, u64); 3],
        _is: &[(usize, u64)],
        _ifms: &[Option<Self::Tile>],
        _wghs: &[Option<Self::Tile>],
        _ofms: Self::Tile,
        _tilings: usize,
    ) -> bool {
        true
    }

    /// One feasible tiling, in enumeration order, with its trip counts
    /// `[n_h, n_w, n_j, n_i]` (what [`Tiling::steps`] would compute) and
    /// what [`TilingVisitor::tile`] made of its three tiles, in
    /// [`DataKind::ALL`] order.
    fn tiling(&mut self, tiling: Tiling, trips: [u64; 4], tiles: [Self::Tile; 3]);
}

/// A visitor that only wants the tilings.
impl<F: FnMut(Tiling)> TilingVisitor for F {
    type Tile = ();

    fn tile(&mut self, _bytes: u64) {}

    fn tiling(&mut self, tiling: Tiling, _trips: [u64; 4], _tiles: [(); 3]) {
        self(tiling);
    }
}

/// Walk the buffer-feasible tilings of a layer and return how many there
/// are. The four candidate axes nest `th`, `tw`, `tj`, `ti` (innermost)
/// and a tiling is feasible when each tile fits its buffer
/// ([`Tiling::fits`], one kind at a time): the one definition of order
/// and feasibility behind [`enumerate_tilings`], [`count_tilings`] and
/// the DSE sweep. Each tile is sized and tested once per combination of
/// the steps it depends on, not once per tiling. A tile never shrinks as
/// `ti` grows and the axis descends, so the steps at which one fits are a
/// suffix of the axis: a loop's tilings start at the later of its two
/// first fits, and are counted without a scan. A `(th, tw)` block the
/// visitor declines ([`TilingVisitor::block`]) is counted the same way
/// from bytes alone, without making a tile.
///
/// The walk allocates only into `buffers`: the four axes, each step with
/// its trip count, back to back in one buffer reserved from the halving
/// rule before it is filled; the tiles in one more (every `tj`'s wghs
/// row, then the one ifms row each walked block overwrites in place); and
/// each wghs row's first fit. Each is cleared and refilled, so buffers
/// that already hold a larger layer's cost no allocation, and the sweep
/// lends every walk on a thread the same ones. Its divisions are the
/// axes' trip counts, one per step; one to split the wghs rows; and a
/// grouped layer's wghs tile bytes ([`Tiling::tile_bytes`] skips its
/// `div_ceil(groups)` when `groups` is 1).
///
/// # Errors
///
/// Returns [`DseError`] if the inputs are invalid or no candidate fits.
pub(crate) fn walk_tilings<V: TilingVisitor>(
    layer: &Layer,
    acc: &AcceleratorConfig,
    visitor: &mut V,
    buffers: &mut WalkBuffers<V::Tile>,
) -> Result<usize, DseError> {
    acc.validate()?;
    layer.validate()?;
    let WalkBuffers {
        axes,
        tiles,
        wghs_first,
    } = buffers;
    axes.fill([layer.h, layer.w, layer.j, layer.i]);
    let [hs, ws, js, is] = axes.split();
    // `tile_bytes` ignores the steps `kind` does not depend on.
    let fits = |kind, tiling: Tiling| {
        let bytes = tiling.tile_bytes(layer, acc, kind);
        (bytes <= acc.buffer_bytes(kind) as u64).then_some(bytes)
    };
    let fitting = |visitor: &mut V, kind, tiling| fits(kind, tiling).map(|b| visitor.tile(b));
    // Overflowing steps are a prefix of the axis: their count is the
    // first fit.
    let first_fit = |tiles: &[Option<V::Tile>]| {
        let fitting = tiles.iter().position(Option::is_some);
        fitting.unwrap_or(tiles.len())
    };
    tiles.clear();
    tiles.resize((js.len() + 1) * is.len(), None);
    let (wghs, ifms) = tiles.split_at_mut(js.len() * is.len());
    for (&(tj, n_j), row) in js.iter().zip(wghs.chunks_exact_mut(is.len())) {
        for (tile, &(ti, _)) in row.iter_mut().zip(is) {
            *tile = fitting(visitor, DataKind::Wghs, Tiling::new(1, 1, tj, ti));
        }
        visitor.ti_row(DataKind::Wghs, is, row, n_j);
    }
    wghs_first.clear();
    wghs_first.extend(wghs.chunks_exact(is.len()).map(first_fit));
    let mut count = 0;
    for &(th, n_h) in hs {
        for &(tw, n_w) in ws {
            let spatial = acc.batch as u64 * n_h * n_w;
            let whole = Tiling::new(th, tw, layer.j, layer.i);
            let ifms_bytes = whole.tile_bytes(layer, acc, DataKind::Ifms);
            let ofms_bytes = whole.tile_bytes(layer, acc, DataKind::Ofms);
            if !visitor.block(spatial, ifms_bytes, ofms_bytes) {
                // The loops' tilings, as the walk below counts them, from
                // bytes alone; a loop without a fitting ofms tile or a
                // fitting step adds nothing.
                let mut ifms_first = 0;
                for &(ti, _) in is {
                    if fits(DataKind::Ifms, Tiling::new(th, tw, 1, ti)).is_some() {
                        break;
                    }
                    ifms_first += 1;
                }
                for (&(tj, _), &wghs_first) in js.iter().zip(&*wghs_first) {
                    let ofms_fits = fits(DataKind::Ofms, Tiling::new(th, tw, tj, 1)).is_some();
                    count += usize::from(ofms_fits) * (is.len() - ifms_first.max(wghs_first));
                }
                continue;
            }
            for (tile, &(ti, _)) in ifms.iter_mut().zip(is) {
                *tile = fitting(visitor, DataKind::Ifms, Tiling::new(th, tw, 1, ti));
            }
            visitor.ti_row(DataKind::Ifms, is, ifms, spatial);
            let ifms_first = first_fit(ifms);
            for (k, (&(tj, n_j), &wghs_first)) in js.iter().zip(&*wghs_first).enumerate() {
                let wghs = &wghs[k * is.len()..][..is.len()];
                let start = ifms_first.max(wghs_first);
                if start == is.len() {
                    continue;
                }
                let ofms = fitting(visitor, DataKind::Ofms, Tiling::new(th, tw, tj, 1));
                let Some(ofms) = ofms else { continue };
                let (outer, tilings) = ([(th, n_h), (tw, n_w), (tj, n_j)], is.len() - start);
                count += tilings;
                if !visitor.ti_loop(outer, is, ifms, wghs, ofms, tilings) {
                    continue;
                }
                let tiles = ifms[start..].iter().zip(&wghs[start..]);
                for (&(ti, n_i), (&ifms, &wghs)) in is[start..].iter().zip(tiles) {
                    let (Some(ifms), Some(wghs)) = (ifms, wghs) else {
                        unreachable!("a tile that fits at one step fits at every smaller one");
                    };
                    let tiling = Tiling::new(th, tw, tj, ti);
                    visitor.tiling(tiling, [n_h, n_w, n_j, n_i], [ifms, wghs, ofms]);
                }
            }
        }
    }
    if count == 0 {
        return Err(DseError::new(format!(
            "no tiling of layer {} fits the buffers ({})",
            layer.name, acc
        )));
    }
    Ok(count)
}

/// Enumerate all buffer-feasible tilings of a layer from the geometric
/// candidate steps of each dimension.
///
/// # Errors
///
/// Returns [`DseError`] if no candidate fits the buffers (cannot happen
/// for realistic buffer sizes: the minimal tile is a single `P×Q` patch).
///
/// # Examples
///
/// ```
/// use drmap_core::tiling::enumerate_tilings;
/// use drmap_cnn::prelude::*;
///
/// let layer = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
/// let acc = AcceleratorConfig::table_ii();
/// let tilings = enumerate_tilings(&layer, &acc)?;
/// assert!(!tilings.is_empty());
/// assert!(tilings.iter().all(|t| t.fits(&layer, &acc)));
/// # Ok::<(), drmap_core::error::DseError>(())
/// ```
pub fn enumerate_tilings(layer: &Layer, acc: &AcceleratorConfig) -> Result<Vec<Tiling>, DseError> {
    let mut out = Vec::new();
    walk_tilings(
        layer,
        acc,
        &mut |tiling| out.push(tiling),
        &mut WalkBuffers::new(),
    )?;
    Ok(out)
}

/// Count the buffer-feasible tilings of a layer: the size of the
/// outermost axis of the DSE sweep. The same axis walk the enumeration
/// and the sweep are built on, so it can never drift from either, and
/// it allocates nothing per tiling.
///
/// # Errors
///
/// Returns [`DseError`] under exactly the conditions
/// [`enumerate_tilings`] does: invalid inputs or no feasible tiling.
pub fn count_tilings(layer: &Layer, acc: &AcceleratorConfig) -> Result<usize, DseError> {
    walk_tilings(layer, acc, &mut |_| {}, &mut WalkBuffers::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_cnn::network::Network;

    fn conv3() -> Layer {
        Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1)
    }

    #[test]
    fn whole_layer_tiling_covers_everything() {
        let l = conv3();
        let t = Tiling::whole_layer(&l);
        assert_eq!(t.steps(&l), (1, 1, 1, 1));
        assert_eq!(t.tile_elems(&l, DataKind::Ofms), l.ofms_elems());
        assert_eq!(t.tile_elems(&l, DataKind::Wghs), l.wghs_elems());
        assert_eq!(t.tile_elems(&l, DataKind::Ifms), l.ifms_elems());
    }

    #[test]
    fn steps_use_ceiling_division() {
        let l = conv3();
        let t = Tiling::new(5, 5, 100, 100);
        assert_eq!(t.steps(&l), (3, 3, 4, 3));
    }

    #[test]
    fn ifms_tile_includes_halo() {
        let l = Layer::conv("c", 55, 55, 96, 3, 11, 11, 4);
        let t = Tiling::new(2, 2, 96, 3);
        // 2 output rows at stride 4 with an 11-row kernel need 15 rows.
        assert_eq!(t.tile_elems(&l, DataKind::Ifms), 15 * 15 * 3);
    }

    #[test]
    fn fits_checks_every_buffer() {
        let l = conv3();
        let acc = AcceleratorConfig::table_ii();
        // Whole CONV3: wghs = 884736 B >> 64 KB, must not fit.
        assert!(!Tiling::whole_layer(&l).fits(&l, &acc));
        let small = Tiling::new(13, 13, 16, 16);
        assert!(small.fits(&l, &acc));
    }

    #[test]
    fn clamped_restricts_to_layer() {
        let l = conv3();
        let t = Tiling::new(100, 100, 1000, 1000).clamped(&l);
        assert_eq!(t, Tiling::whole_layer(&l));
        let t0 = Tiling::new(0, 1, 1, 1).clamped(&l);
        assert_eq!(t0.th, 1);
    }

    #[test]
    fn candidate_steps_halve_down_to_one() {
        assert_eq!(candidate_steps(8), vec![8, 4, 2, 1]);
        assert_eq!(candidate_steps(55), vec![55, 28, 14, 7, 4, 2, 1]);
        assert_eq!(candidate_steps(0), vec![1]);
    }

    #[test]
    fn the_walks_axes_are_the_candidate_steps_with_their_trips() {
        let dims = [0, 1, 2, 13, 55, 4096, 9216, (1 << 32) + 1, usize::MAX];
        let expected = |dim: usize| -> Vec<(usize, u64)> {
            let trips = |step: usize| (step, dim.div_ceil(step) as u64);
            candidate_steps(dim).into_iter().map(trips).collect()
        };
        // Each window of four, cyclically: every dim at every position,
        // next to axes of other lengths; fresh axes of exact size, and one
        // set refilled window after window, as a thread's walks reuse it.
        let mut reused = Axes::new();
        for n in 0..dims.len() {
            let four = [0, 1, 2, 3].map(|k| dims[(n + k) % dims.len()]);
            let mut axes = Axes::new();
            axes.fill(four);
            assert_eq!(axes.steps.capacity(), axes.steps.len(), "dims {four:?}");
            reused.fill(four);
            for axes in [&axes, &reused] {
                for (axis, &dim) in axes.split().iter().zip(&four) {
                    assert_eq!(axis.to_vec(), expected(dim), "dim {dim} in {four:?}");
                }
            }
        }
    }

    #[test]
    fn enumerate_finds_feasible_tilings_for_alexnet() {
        let acc = AcceleratorConfig::table_ii();
        for layer in Network::alexnet().layers() {
            let tilings = enumerate_tilings(layer, &acc).unwrap();
            assert!(!tilings.is_empty(), "layer {}", layer.name);
            assert!(tilings.iter().all(|t| t.fits(layer, &acc)));
        }
    }

    #[test]
    fn enumerate_excludes_oversized() {
        let l = conv3();
        let acc = AcceleratorConfig::table_ii();
        let tilings = enumerate_tilings(&l, &acc).unwrap();
        assert!(!tilings.contains(&Tiling::whole_layer(&l)));
    }

    #[test]
    fn enumeration_is_deduplicated_by_construction() {
        let l = Layer::fully_connected("fc", 4096, 1000);
        let acc = AcceleratorConfig::table_ii();
        let tilings = enumerate_tilings(&l, &acc).unwrap();
        let mut seen = std::collections::HashSet::new();
        for t in &tilings {
            assert!(seen.insert(*t), "duplicate tiling {t}");
        }
    }

    #[test]
    fn count_agrees_with_enumeration() {
        let acc = AcceleratorConfig::table_ii();
        for layer in Network::alexnet().layers() {
            assert_eq!(
                count_tilings(layer, &acc).unwrap(),
                enumerate_tilings(layer, &acc).unwrap().len(),
                "layer {}",
                layer.name
            );
        }
        let impossible = Layer::conv("HUGE", 1, 1, 1, 1, 4096, 4096, 1);
        assert!(count_tilings(&impossible, &acc).is_err());
    }

    #[test]
    fn display_shows_steps() {
        let t = Tiling::new(1, 2, 3, 4);
        assert_eq!(t.to_string(), "Th=1 Tw=2 Tj=3 Ti=4");
    }
}
