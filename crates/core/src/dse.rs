//! The design-space exploration engine: Algorithm 1 of the paper.
//!
//! For each layer, the DSE sweeps every feasible layer partitioning
//! (tiling), every scheduling scheme, and every DRAM mapping policy,
//! evaluates the analytical EDP model, and keeps the minimum-EDP
//! configuration. Layers are independent and explored in parallel.
//!
//! ## The evaluation pipeline
//!
//! Both sweeps — [`DseEngine::explore_layer`] and the one-scheme,
//! one-mapping [`DseEngine::best_over_tilings`] — are the same loop
//! nest: the four candidate axes `th`, `tw`, `tj`, `ti` (innermost),
//! walked by `tiling::walk_tilings` — the walk
//! [`enumerate_tilings`](crate::tiling::enumerate_tilings) is built on,
//! so no `Vec<Tiling>` is ever materialized — then schemes × mappings.
//! Each piece of work is done at the depth that determines it:
//!
//! * per **engine**: from the cost table alone, a *tile lower bound* —
//!   what any mapping's per-tile cost is at least at a given burst
//!   count — on a table that meets the engine's one precondition;
//! * per **axis**: every candidate step with its trip count, all four
//!   axes in one buffer that the thread's sweeps share (see "Code shape");
//! * per **layer**: the wghs tile of every `(tj, ti)` — its bytes, burst
//!   count, whether it fits, and its read lower bound — and, as each
//!   `tj`'s row is built, its first fitting `ti` step and the suffix
//!   minima of the loop bounds' wghs column, whose least over the layer
//!   is the block bound's;
//! * per **`(th, tw)`**: one *block bound*, in O(1) from the block's
//!   whole ifms and ofms bytes and the layer's least wghs column, before
//!   anything in the block is built — it skips 2,341 of the zoo's 3,433
//!   blocks, whose tilings the walk counts from bytes alone — and, in a
//!   walked block, the same as per layer for the ifms tiles of every `ti`;
//! * per **`(th, tw, tj)`**: the loop's tilings, counted without a scan
//!   (the `ti` steps from the later of the two first fits on; a loop
//!   with none is passed over), the ofms tile's bytes, burst count, fit
//!   and `(read, write)` lower bound — a tile that overflows its buffer
//!   skips the whole `ti` loop — and one *loop bound* per scheme, each
//!   read in O(1): with the block bound they end all but 516 of the zoo's
//!   27,578 loops;
//! * per **burst count**, per **engine**: a *cost row*, built the first
//!   time a visited tiling of any sweep needs it — the per-tile
//!   `(read, write)` cost under every mapping the engine sweeps (the
//!   closed-form transition counting of
//!   [`access_model`](crate::access_model), weighted by the profiled
//!   table) plus their component-wise minimum, the *floor*. A row depends
//!   on neither the layer, the data kind nor the scheme, so the engine
//!   keeps each for its lifetime, in a slot per burst count that is
//!   initialized once and read without a lock, shared by every sweep,
//!   thread and clone. One pass over the zoo on SALP-2 reads 2,502 rows
//!   (the distinct burst counts of each sweep, summed), only 326 of them
//!   distinct: a fresh engine builds those 326 and a warm one none.
//!   [`DseEngine::best_over_tilings`] reads its mapping's column of the
//!   same rows, whose floor is that mapping's own cost;
//! * per **tiling**: three row lookups, `S = batch · n_h · n_w`, and
//!   one *tiling bound* that often ends the tiling there. Otherwise the
//!   tile traffic of all three concrete schemes in closed form
//!   (`TrafficModel::concrete_traffic`'s table), which makes
//!   adaptive-reuse an index (the first minimum of the three);
//! * per **(tiling, scheme) group**: one *group bound* that decides
//!   whether the group's mappings are scored at all;
//! * per **scored point**: four multiply-adds per coordinate
//!   (`TileCosts::estimate`, the one place an estimate is assembled;
//!   [`EdpModel::layer_breakdown`] goes through it too, so the sweep
//!   and the single-point evaluator agree bit for bit) plus, under
//!   `keep_points`, an incremental Pareto-front insert (no label
//!   allocation; labels materialize for survivors only).
//!
//! ## Bound-and-skip, and why it is exact
//!
//! The sweep returns what scoring every point in order would return —
//! same winner, same front, same labels — while scoring almost none of
//! them. It skips in two ways.
//!
//! **Duplicates.** Adaptive-reuse resolves, per tiling, to one of the
//! concrete schemes. When that scheme (or adaptive-reuse itself) was
//! already swept for the tiling — it comes earlier in
//! [`DseConfig::schemes`] — the group repeats earlier estimates bit for
//! bit, and a later equal never displaces an earlier one: the incumbent
//! changes on strict improvement only, and [`ParetoFront::insert`]
//! discards a point that an existing point ties.
//!
//! **Bounds.** A bound at a walk depth is one expression: a *lower-bound
//! cost row* weighted by the *least traffic over the depth's subtree*,
//! column by column, summed in `TileCosts::estimate`'s order.
//!
//! | depth | cost row | traffic, each column at its least over |
//! |---|---|---|
//! | group | the floor | the group (its own traffic) |
//! | tiling | the floor | the three concrete schemes: `S·n_i` ifms and `n_j·n_i` wghs loads, no ofms loads, `S·n_j` stores |
//! | `ti` loop, per concrete scheme | the tile lower bounds | the loop's tilings |
//! | `(th, tw)` block | the tile lower bounds of the block's whole ifms and ofms | the block: `S` ifms loads and `S` stores of those, no ofms loads, and the wghs column at its least over the layer |
//!
//! The subtree is skipped when the bound *shuts out* what the sweep has
//! found: it scores `>=` the incumbent (every member follows the
//! incumbent in sweep order, so a tie cannot displace it), or, under
//! `keep_points`, a retained front point is no worse in both coordinates
//! (`insert` would discard every member, the relation being transitive,
//! and the incumbent scores no worse than that point). A loop is
//! skipped only when all three of its bounds shut out: adaptive-reuse
//! resolves to one of them, and a duplicate is skipped anyway.
//!
//! Each bound is `<=` every member of its subtree in `cycles` and
//! `energy` — computed value for computed value — and so under all four
//! `Objective::score`s, which are products of the two and a non-negative
//! clock. IEEE-754 `*` and `+` round monotonically, so over finite
//! non-negative operands they are non-decreasing in each operand. The
//! floor is `<=` every mapping's row component by component, and a
//! group's traffic is its members' own, so the group bound is `<=` each
//! member; the tiling's least traffic is `<=` every scheme's, so the
//! tiling bound is `<=` each group bound. The closed form charges a
//! tile's first burst as `dif_rows` and each of its other `u − 1`
//! transitions to one class, so in exact arithmetic any mapping's cost
//! of a `u`-burst tile, custom ones included, is at least
//! `cost(dif_rows) + (u − 1) · min_class_cost`, per component and per
//! direction; the tile lower bound is that value computed and scaled by
//! `1 − 2⁻⁴⁰`. Each bound is implied by the ones below it, so the tiling
//! and loop bounds change what is computed, never what is counted.
//!
//! A loop's least columns cost O(1) because its tilings are a **suffix**
//! of the descending `ti` axis: an ifms or wghs tile never shrinks as
//! `ti` grows, so the loop's tilings are its steps from `start =
//! max(ifms_first, wghs_first)` on. As the walk builds a row of tiles
//! along the axis — each `tj`'s wghs row with `trips = n_j`, each `(th,
//! tw)`'s ifms row with `trips = S` — every tile stores the suffix
//! minimum of `lb × trips·n_i`, and the loop reads it at `start`. Where
//! a scheme loads more (`n_j` times the ifms tiles under wghs- and
//! ofms-reuse, `S` times the wghs tiles under ifms- and ofms-reuse) the
//! least is scaled by that count. The ofms tile does not depend on `ti`,
//! so its columns are least at the least trip count, `n_i` at `start`.
//!
//! A **block**'s bound prices its whole ifms and whole ofms as one tile
//! each, so it needs no tile of the block. With `lb(u) = first + (u −
//! 1)·step`, `n · lb(u) = lb(n·u) + (n − 1)·(first − step) ≥ lb(n·u)`
//! when `first ≥ step`, and `lb` never falls as `u` grows when `step ≥
//! 0`; so `n · lb(u) ≥ lb(⌈n·bytes/burst⌉)` for a tile of `bytes` bytes
//! in `u` bursts. Both hold component-wise on an engine's table: `step`
//! is the least class cost, `dif_rows` among them, and none is negative.
//! Every member loads `S·n_i` ifms tiles, `n_i` of them per spatial trip,
//! and `n_i·ti ≥ i`, so those `n_i` hold at least the block's whole ifms
//! bytes: its ifms column is at least `S · lb(⌈ifms_total/burst⌉)`. Its
//! `S·n_j` ofms stores, with `n_j·tj ≥ j`, are at least `S ·
//! lb(⌈ofms_total/burst⌉)`; its ofms loads at least nothing. Its wghs
//! column is at least the least of the loop bounds' `lb × n_j·n_i` over
//! every fitting wghs tile of the layer, `W*`, which each wghs row's
//! suffix minimum at its first fit already holds. A skipped block's
//! tilings are still counted: its ifms first fit comes from bytes, the
//! wghs first fits are known, and each `tj`'s ofms fit is checked.
//!
//! **One rounding budget.** The tile lower bound is the one bound that
//! is not the candidates' own expression, so it alone needs room for
//! rounding. Under the precondition every class cost is `0` or in
//! `[2⁻¹⁰²², 2⁵¹²]` and every count below `2⁶⁴`, so nothing overflows
//! (no sum reaches `2⁷⁰⁶`) and none but a scaled lower bound can be
//! subnormal; every rounding is then a relative error of at most
//! `ε = 2⁻⁵²`. A loop-bound term — the lower bound's conversion,
//! product, sum and scaling, then up to two conversions and two products
//! by trip counts — is at most its exact value times `(1 + ε)⁸ (1 −
//! 2⁻⁴⁰)`. The group bound's term — a row's four products of a count and
//! a cost (two roundings each, three in their sum), then one conversion
//! and one product — is at least its exact value times `(1 − ε)⁷`. Since
//! `15 ε < 2⁻⁴⁰`, the first is below the second, and sums taken in the
//! same order keep the order. A block-bound term — the lower bound's
//! four roundings, then the conversion of `S` and one product — is at
//! most its exact value times `(1 + ε)⁶ (1 − 2⁻⁴⁰)`, and its wghs column
//! is a loop-bound column times one, which is exact: six roundings,
//! inside the loop bound's eight, so the block bound needs no scaling of
//! its own. The unscaled columns and the tile-against-row check (`(1 +
//! ε)⁴` against `(1 − ε)⁵`) take fewer roundings.
//!
//! **One precondition**, checked once, by [`DseEngine::new`]: every
//! class cost is `0` or a normal number in `(0, 2⁵¹²]`, and the clock is
//! finite and non-negative. Such a table makes every row finite and
//! non-negative, which the monotonicity argument starts from; every
//! profiled table is one. [`AccessCostTable::from_costs`] builds any
//! table, and the engine refuses the others, as it refuses an empty
//! scheme or mapping list. The first group has no incumbent, so it is
//! always scored.
//!
//! On the zoo on SALP-2 the block bound skips 2,341 of 3,433 blocks, and
//! in the other 1,092 the loop bounds, read for 8,944 loops, end all
//! but 516: together they end 27,062 of 27,578 loops (195,924 tilings).
//! Of the 3,537 tilings the 516 walked loops visit the tiling bound
//! ends 2,602, so 935 reach the group bounds. On the 96 layers of
//! `tests/data/big_layers.spec` the block bound skips 667 of 3,986
//! blocks, the loop bounds are read for 27,189 of the 31,945 loops and
//! together they end 31,335, and 3,403 of 239,519 tilings reach the
//! groups. On the four profiled architectures DRMap's row *is* the floor
//! at every burst count the model zoo produces
//! (`tests/drmap_optimality.rs` asserts it), so the group bound is the
//! exact score of the group's best member and about 99.95 % of the zoo's
//! 4.79 M design points are skipped.
//!
//! [`LayerDseResult::evaluations`] counts the design points a sweep
//! *covered* — scored, or proven unable to win — so it is the size of
//! the swept product whatever was skipped, and stored results, wire
//! bytes and golden digests that carry it are unaffected.
//! [`DseEngine::explore_layer_counted`] also says how many of them were
//! skipped.
//!
//! ## Code shape
//!
//! The walk's and the sweep's hot steps — `walk_tilings`' per-block and
//! per-loop work and the visitor's `tiling`, `ti_loop` and `block` — are
//! written element by element: no `[T; N]::map`, no `extend(iter.map(..))`
//! and no `filter(..).count()`. Under the default release profile (16
//! codegen units, no LTO), which the servers, the benchmark and any
//! downstream build use, those adapters are compiled as out-of-line calls
//! (`try_trait::Wrapped::call_mut`, `Map::fold`, `array::try_map`,
//! `array::Drain`) on every tile, loop and tiling, which slowed the zoo
//! sweep by about ×1.3. Only the once-per-layer work (the
//! axes, the wghs rows' index) uses adapters. To check, disassemble a
//! release binary that runs the sweep (`objdump -d -C`) and count the
//! calls to `Wrapped`, `Map<I,F>`, `try_map` and `Drain` inside
//! `walk_tilings` and `<Sweep as TilingVisitor>::{tiling, ti_loop,
//! block}`: there are none (the per-layer index's `extend` is inlined).
//!
//! A tile is priced once and only as far as it is read: its burst count
//! when the walk makes it, then one lower bound where the sweep reads it —
//! the read bound of an ifms or wghs tile in `Sweep::ti_row`, both
//! directions of an ofms tile in `Sweep::loop_bounds`, and of a block's
//! whole tiles in `Sweep::block_bound` — each from the one expression
//! the rounding budget above counts. With a burst of a power of two bytes
//! (Table II's is 8) the burst count is a shift and a carry
//! (`TileBound::units`), and an ungrouped layer's wghs tile skips its
//! `div_ceil(groups)`, so on the zoo a tile costs no division. The
//! divisions left in the walk are the axes' trip counts (one per
//! candidate step per layer), the split of the wghs rows (one per layer),
//! a grouped layer's wghs bytes, and a burst count whose burst is not a
//! power of two. To check, build a binary that runs the sweep with line
//! tables (`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build
//! --release`; a build without them has the same `div`s), disassemble it
//! (`objdump -d -C -l`) and list the `div` instructions inside
//! `walk_tilings`, into which the visitor's `tile` is inlined: each is
//! one of those. There are five sites, each a 64- and a 32-bit `div`: the
//! `chunks_exact_mut` split of the wghs rows, the grouped `div_ceil` of
//! `Tiling::tile_elems`, and three inlined copies of the `div_ceil`
//! `TileBound::units` falls back to. The axes' divisions are in
//! `Axes::fill`.
//!
//! A warm thread's walk allocates nothing: its axes, its tiles and its
//! wghs rows' first fits sit in `tiling::WalkBuffers`, which each sweep
//! borrows from a thread-local and hands back, and which a walk clears and
//! refills before reading, growing it only for a layer larger than any the
//! thread has swept (the zoo's largest `(tj, ti)` grid, VGG-16's FC6,
//! takes ≈ 9 KB of tiles). Per layer, a sweep still allocates its
//! result's name and, under `keep_points`, its front.

use core::cell::Cell;
use core::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use drmap_cnn::accelerator::AcceleratorConfig;
use drmap_cnn::layer::{DataKind, Layer};
use drmap_cnn::network::Network;
use drmap_dram::geometry::Geometry;
use drmap_dram::profiler::{AccessCost, AccessCostTable, TransitionClass};
use drmap_dram::request::RequestKind;

use crate::access_model::{counts_cost, CountingPlan};
use crate::edp::{EdpEstimate, EdpModel, TileCosts};
use crate::error::DseError;
use crate::mapping::MappingPolicy;
use crate::pareto::{DesignPoint, ParetoFront};
use crate::schedule::{
    least_traffic, min_traffic_index, traffic_of_trips, ReuseScheme, TileTraffic,
};
use crate::tiling::{walk_tilings, Tiling, TilingVisitor, WalkBuffers};

/// Optimization objective for the exploration.
///
/// The paper minimizes EDP (Eq. 1); the alternatives let a deployment
/// weigh energy or latency differently without touching the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Energy × delay (the paper's Eq. 1).
    #[default]
    Edp,
    /// Energy only (battery-bound edge devices).
    Energy,
    /// Delay only (latency-bound inference).
    Delay,
    /// Energy × delay² (throughput-leaning metric).
    Ed2p,
}

impl Objective {
    /// All objectives.
    pub const ALL: [Objective; 4] = [
        Objective::Edp,
        Objective::Energy,
        Objective::Delay,
        Objective::Ed2p,
    ];

    /// Stable textual label (used in cache keys and wire formats).
    pub fn label(self) -> &'static str {
        match self {
            Objective::Edp => "edp",
            Objective::Energy => "energy",
            Objective::Delay => "delay",
            Objective::Ed2p => "ed2p",
        }
    }

    /// Scalar score of an estimate under this objective (lower is better).
    pub(crate) fn score(self, estimate: &EdpEstimate) -> f64 {
        match self {
            Objective::Edp => estimate.edp(),
            Objective::Energy => estimate.energy,
            Objective::Delay => estimate.seconds(),
            Objective::Ed2p => estimate.energy * estimate.seconds() * estimate.seconds(),
        }
    }
}

/// Which schemes and mappings the DSE sweeps.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Scheduling schemes to consider (default: all four of the paper).
    pub schemes: Vec<ReuseScheme>,
    /// Mapping policies to consider (default: Table I's six).
    pub mappings: Vec<MappingPolicy>,
    /// Keep the full (energy, latency) point cloud for Pareto analysis.
    pub keep_points: bool,
    /// Optimization objective (default: EDP, the paper's Eq. 1).
    pub objective: Objective,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            schemes: ReuseScheme::ALL.to_vec(),
            mappings: MappingPolicy::table_i().to_vec(),
            keep_points: false,
            objective: Objective::Edp,
        }
    }
}

impl DseConfig {
    /// Append the canonical, order-sensitive fingerprint of the sweep
    /// configuration to `out`, allocating nothing else.
    ///
    /// Two engines with equal fingerprints (and equal models) perform the
    /// same sweep in the same order, so their results are bit-identical —
    /// the property memoization caches rely on.
    fn write_fingerprint(&self, out: &mut String) {
        out.push_str("obj=");
        out.push_str(self.objective.label());
        out.push_str(";schemes=");
        for (n, scheme) in self.schemes.iter().enumerate() {
            if n > 0 {
                out.push('+');
            }
            out.push_str(scheme.label());
        }
        out.push_str(";mappings=");
        for (n, mapping) in self.mappings.iter().enumerate() {
            if n > 0 {
                out.push('+');
            }
            mapping.write_unique_name(out);
        }
        out.push_str(if self.keep_points {
            ";points=true"
        } else {
            ";points=false"
        });
    }
}

/// A thread-safe, shareable handle to a [`DseEngine`].
///
/// The engine's configuration is fixed at construction and it is
/// `Send + Sync`; its cost rows fill in behind `&self`, each built once
/// whichever thread needs it first. So one handle can serve any number of
/// worker threads concurrently (the job-server crate spreads a network's
/// layers across workers this way).
pub type SharedEngine = std::sync::Arc<DseEngine>;

/// Canonical memoization key for a single-layer exploration.
///
/// Captures everything that determines [`DseEngine::explore_layer`]'s
/// output **except the layer's name**: the layer shape, the accelerator
/// configuration (buffers bound the tiling enumeration; precision scales
/// traffic), the sweep configuration, and an `engine_tag` identifying the
/// profiled substrate (DRAM architecture, geometry, timing/energy
/// parameters). Identically shaped layers — e.g. VGG-16's repeated conv
/// blocks — therefore share one cache entry.
///
/// [`DseEngine::layer_key`] returns the same bytes with the part after
/// the shape written once per engine.
pub fn layer_cache_key(
    engine_tag: &str,
    layer: &Layer,
    acc: &AcceleratorConfig,
    config: &DseConfig,
) -> String {
    // One allocation: the default sweep's key is ≈ 210 bytes past the tag.
    let mut key = String::with_capacity(engine_tag.len() + 256);
    write_key_head(&mut key, engine_tag, layer);
    write_key_suffix(&mut key, acc, config);
    key
}

/// A [`layer_cache_key`]'s per-layer part: the tag and the shape.
fn write_key_head(key: &mut String, engine_tag: &str, layer: &Layer) {
    key.push_str(engine_tag);
    write_key_fields(
        key,
        [
            ("|h", layer.h),
            ("w", layer.w),
            ("j", layer.j),
            ("i", layer.i),
            ("p", layer.p),
            ("q", layer.q),
            ("s", layer.stride),
            ("g", layer.groups),
        ],
    );
}

/// A [`layer_cache_key`]'s part after the shape — the accelerator and the
/// sweep fingerprint — the same for every layer on one engine.
fn write_key_suffix(key: &mut String, acc: &AcceleratorConfig, config: &DseConfig) {
    write_key_fields(
        key,
        [
            ("|ib", acc.ifms_buffer),
            ("wb", acc.wghs_buffer),
            ("ob", acc.ofms_buffer),
            ("px", acc.precision.bytes()),
            ("b", acc.batch),
        ],
    );
    key.push('|');
    config.write_fingerprint(key);
}

/// Append each field as its label and then its value in decimal, as
/// `{}` writes it but without `core::fmt`: a served layer's key is
/// written on every request.
fn write_key_fields<const N: usize>(key: &mut String, fields: [(&str, usize); N]) {
    fn digits(n: usize, key: &mut String) {
        if n >= 10 {
            digits(n / 10, key);
        }
        key.push(char::from(b'0' + (n % 10) as u8));
    }
    for (label, value) in fields {
        key.push_str(label);
        digits(value, key);
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DseCandidate {
    /// The mapping policy.
    pub mapping: MappingPolicy,
    /// The tiling.
    pub tiling: Tiling,
    /// The (possibly adaptive) scheduling scheme requested.
    pub scheme: ReuseScheme,
    /// The analytical estimate.
    pub estimate: EdpEstimate,
}

impl fmt::Display for DseCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | {} -> {}",
            self.mapping, self.scheme, self.tiling, self.estimate
        )
    }
}

/// DSE output for one layer.
#[derive(Debug, Clone)]
pub struct LayerDseResult {
    /// Layer name.
    pub layer_name: String,
    /// The minimum-EDP configuration (Algorithm 1's `map`, `minEDP`).
    pub best: DseCandidate,
    /// Number of design points covered — tilings × schemes × mappings,
    /// each either scored or proven unable to win (see the module docs).
    /// Independent of how many the sweep managed to skip.
    pub evaluations: usize,
    /// Pareto front over (energy, latency), if `keep_points` was set.
    pub pareto: Vec<DesignPoint>,
}

/// DSE output for a whole network.
#[derive(Debug, Clone)]
pub struct NetworkDseResult {
    /// Per-layer results, in network order.
    pub layers: Vec<LayerDseResult>,
    /// Sum of the per-layer best estimates (minimum total EDP components).
    pub total: EdpEstimate,
}

impl NetworkDseResult {
    /// Total EDP of the per-layer best configurations.
    pub fn total_edp(&self) -> f64 {
        self.total.edp()
    }
}

/// Identifies the configuration behind a retained Pareto point without
/// allocating; the label string is materialized for survivors only.
#[derive(Debug, Clone, Copy)]
struct CandidateTag {
    mapping: MappingPolicy,
    scheme: ReuseScheme,
    tiling: Tiling,
}

/// Label a surviving Pareto point exactly as the collect-then-filter
/// path used to label every evaluation.
fn tag_label(tag: &CandidateTag) -> String {
    format!("{} | {} | {}", tag.mapping.name(), tag.scheme, tag.tiling)
}

/// What a sweep has found so far: the incumbent, the Pareto front under
/// `keep_points`, and how many design points it covered and scored.
struct Accumulator {
    objective: Objective,
    /// Design points covered, whether scored or proven unable to win
    /// (see [`LayerDseResult::evaluations`]).
    evaluations: usize,
    /// How many of `evaluations` were scored: the rest the exact bound
    /// skipped.
    scored: usize,
    best: Option<DseCandidate>,
    /// The incumbent's score under `objective` (meaningless while there
    /// is no incumbent).
    best_score: f64,
    front: ParetoFront<CandidateTag>,
}

impl Accumulator {
    /// Offer one scored design point, in sweep order: it replaces the
    /// incumbent only on a strict improvement.
    fn offer(&mut self, estimate: EdpEstimate, tag: CandidateTag, keep_points: bool) {
        self.scored += 1;
        if keep_points {
            self.front.insert(estimate, tag);
        }
        let score = self.objective.score(&estimate);
        if self.best.is_none() || score < self.best_score {
            self.best_score = score;
            self.best = Some(DseCandidate {
                mapping: tag.mapping,
                tiling: tag.tiling,
                scheme: tag.scheme,
                estimate,
            });
        }
    }

    /// True when no design point whose cycles and energy are both `>=`
    /// `floor`'s can change this accumulator if offered now (the module
    /// docs give the argument). With a front to maintain that takes a
    /// retained point no worse than `floor` in both coordinates;
    /// without, an incumbent scoring no worse than `floor`.
    fn shuts_out(&self, floor: &EdpEstimate, keep_points: bool) -> bool {
        if keep_points {
            self.front.covers(floor)
        } else {
            self.best.is_some() && self.objective.score(floor) >= self.best_score
        }
    }

    /// How many of `evaluations` the exact bound skipped instead of
    /// scoring.
    fn pruned(&self) -> usize {
        self.evaluations - self.scored
    }
}

/// Where a minimum over costs starts.
const INFINITE: AccessCost = AccessCost {
    cycles: f64::INFINITY,
    energy: f64::INFINITY,
};

/// `1 − 2⁻⁴⁰`: what a tile's closed-form lower bound is scaled by, so that
/// its computed value stays `<=` every computed row (see the module docs).
const SHRINK: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// `2^512`, the largest class cost the closed-form bound serves.
const TRUSTED_MAX: f64 = f64::from_bits((1023 + 512) << 52);

fn min_cost(a: AccessCost, b: AccessCost) -> AccessCost {
    AccessCost {
        cycles: a.cycles.min(b.cycles),
        energy: a.energy.min(b.energy),
    }
}

/// A fitting tile as the sweep keeps it.
#[derive(Debug, Clone, Copy)]
struct Tile {
    bytes: u64,
    /// Its burst count: the key of its cost row and of its lower bound
    /// ([`TileBound::at`]), which the sweep computes where it reads it.
    units: u64,
    /// For an ifms or wghs tile, the component-wise least of the loop
    /// bounds' column `read_at(units) × trips·n_i` over its `ti` step and
    /// every later one of its row ([`Sweep::ti_row`]); unused for ofms.
    least: AccessCost,
}

/// What any mapping's per-tile cost is at least, known from the table
/// before any row exists. The closed form charges a tile's first burst as
/// `dif_rows` and each of its other `units − 1` transitions to one class,
/// so every mapping's cost is at least `first + (units − 1) · step`, with
/// `step` the cheapest class — component by component and per direction,
/// for any mapping, custom ones included.
#[derive(Debug, Clone, Copy)]
struct TileBound {
    /// Bytes per burst.
    burst_bytes: u64,
    /// `log2(burst_bytes)` when a burst is a power of two of bytes, so
    /// that a tile's burst count is a shift; `None` otherwise.
    burst_shift: Option<u32>,
    /// The `(read, write)` `dif_rows` cost.
    first: (AccessCost, AccessCost),
    /// The component-wise least `(read, write)` class cost.
    step: (AccessCost, AccessCost),
}

impl TileBound {
    /// The bound of `table`, or an error naming its first class cost or
    /// clock outside the engine's precondition (see the module docs).
    fn new(geometry: &Geometry, table: &AccessCostTable) -> Result<Self, DseError> {
        let t_ck_ns = table.t_ck_ns;
        if !(t_ck_ns.is_finite() && t_ck_ns >= 0.0) {
            let clock = format!("clock {t_ck_ns} ns: negative or not finite");
            return Err(DseError::new(clock));
        }
        let mut step = [INFINITE; 2];
        for (step, kind) in step.iter_mut().zip([RequestKind::Read, RequestKind::Write]) {
            for class in TransitionClass::ALL {
                let cost = table.cost(class, kind);
                for (x, unit) in [(cost.cycles, "cycles"), (cost.energy, "energy")] {
                    if !(x == 0.0 || (x.is_normal() && x > 0.0 && x <= TRUSTED_MAX)) {
                        let why = "neither 0 nor a normal number in (0, 2^512]";
                        return Err(DseError::new(format!("{kind} {class} {unit} {x:e}: {why}")));
                    }
                }
                *step = min_cost(*step, cost);
            }
        }
        let first = |kind| table.cost(TransitionClass::DifRow, kind);
        let burst_bytes = geometry.burst_bytes() as u64;
        Ok(TileBound {
            burst_bytes,
            burst_shift: burst_bytes
                .is_power_of_two()
                .then(|| burst_bytes.trailing_zeros()),
            first: (first(RequestKind::Read), first(RequestKind::Write)),
            step: (step[0], step[1]),
        })
    }

    /// The `(read, write)` bound for a tile of `units` bursts, at least
    /// one (the walk validates the layer, so every tile holds an element).
    #[inline]
    fn at(&self, units: u64) -> (AccessCost, AccessCost) {
        (
            self.read_at(units),
            scaled(self.first.1, self.step.1, units),
        )
    }

    /// The read half of [`TileBound::at`]: all an ifms or wghs tile needs.
    #[inline]
    fn read_at(&self, units: u64) -> AccessCost {
        scaled(self.first.0, self.step.0, units)
    }

    /// `⌈bytes / burst_bytes⌉`: a shift plus a carry, which cannot
    /// overflow, when a burst is a power of two, a division otherwise.
    #[inline]
    fn units(&self, bytes: u64) -> u64 {
        match self.burst_shift {
            Some(shift) => (bytes >> shift) + u64::from(bytes & (self.burst_bytes - 1) != 0),
            None => bytes.div_ceil(self.burst_bytes),
        }
    }

    #[inline]
    fn tile(&self, bytes: u64) -> Tile {
        let units = self.units(bytes);
        Tile {
            bytes,
            units,
            least: INFINITE,
        }
    }
}

/// One direction of [`TileBound::at`]: `(first + (units − 1) · step)`
/// scaled by [`SHRINK`].
#[inline]
fn scaled(first: AccessCost, step: AccessCost, units: u64) -> AccessCost {
    let transitions = (units - 1) as f64;
    AccessCost {
        cycles: (first.cycles + transitions * step.cycles) * SHRINK,
        energy: (first.energy + transitions * step.energy) * SHRINK,
    }
}

/// Every mapping's per-tile cost at one burst count.
struct CostRow {
    /// The `(read, write)` cost under each of the memo's mappings, in
    /// sweep order.
    costs: Box<[(AccessCost, AccessCost)]>,
    /// The component-wise minimum of `costs`: what the cheapest mapping
    /// would charge if one mapping were cheapest in every component (on
    /// the profiled tables DRMap is, so the floor is DRMap's own cost).
    floor: (AccessCost, AccessCost),
}

/// One cost-row slot per burst count, initialised once (boxed, so that an
/// empty slot costs 16 bytes).
type RowChunk = Box<[OnceLock<Box<CostRow>>]>;

/// An engine's [`CostRow`]s by burst count, each built the first time a
/// sweep needs it and kept for the engine's lifetime. A row depends only
/// on the cost table, the geometry, the mappings and the burst count —
/// not on the layer, the data kind or the scheme — so every sweep, thread
/// and clone of the engine shares one. Reading a built row takes no lock.
///
/// A fitting tile is no larger than its buffer, so burst counts run from
/// one to the largest buffer's. Their slots come in about `√slots`
/// chunks of about `√slots` (at least 64), each allocated the first time
/// one of its rows is built: memory follows the rows built, not the
/// buffer size, and construction allocates only the chunk directory.
/// Table II's 64 KiB buffers of 8-byte bursts take 8,192 slots in 64
/// chunks of 128; a 1 GiB buffer's 2²⁷ take 8,192 chunks of 16,384.
struct RowMemo {
    /// Each mapping's counting plan, in sweep order.
    plans: Box<[CountingPlan]>,
    /// `log2` of the slots per chunk.
    chunk_bits: u32,
    /// Chunk `c` holds the rows of burst counts `(c << chunk_bits) + 1`
    /// on.
    chunks: Box<[OnceLock<RowChunk>]>,
    /// Rows built so far.
    built: AtomicUsize,
}

impl RowMemo {
    fn new(model: &EdpModel, mappings: &[MappingPolicy]) -> Self {
        let acc = model.traffic_model().accelerator();
        let largest = DataKind::ALL.map(|kind| acc.buffer_bytes(kind) as u64);
        let slots = largest
            .into_iter()
            .max()
            .unwrap_or(0)
            .div_ceil(model.geometry().burst_bytes() as u64);
        // `⌈log2 slots⌉`, halved and rounded up: about `√slots` per chunk.
        let chunk_bits = (u64::BITS - slots.saturating_sub(1).leading_zeros())
            .div_ceil(2)
            .max(6);
        let chunks = usize::try_from(slots.div_ceil(1 << chunk_bits))
            .expect("a buffer's chunk count fits in memory");
        RowMemo {
            plans: mappings
                .iter()
                .map(|mapping| CountingPlan::new(mapping, model.geometry()))
                .collect(),
            chunk_bits,
            chunks: (0..chunks).map(|_| OnceLock::new()).collect(),
            built: AtomicUsize::new(0),
        }
    }

    /// The row of a tile of `units` bursts (at least one, at most the
    /// largest buffer's), priced by `table`, the engine's.
    #[inline]
    fn row(&self, units: u64, table: &AccessCostTable) -> &CostRow {
        let slot = usize::try_from(units - 1).expect("a fitting tile's bursts fit in memory");
        let chunk = self.chunks[slot >> self.chunk_bits]
            .get_or_init(|| (0..1 << self.chunk_bits).map(|_| OnceLock::new()).collect());
        chunk[slot & ((1 << self.chunk_bits) - 1)]
            .get_or_init(|| Box::new(self.build(units, table)))
    }

    fn build(&self, units: u64, table: &AccessCostTable) -> CostRow {
        // ordering: Relaxed — a statistic; the row itself is published by
        // its `OnceLock`.
        self.built.fetch_add(1, Ordering::Relaxed);
        let costs: Box<[_]> = self
            .plans
            .iter()
            .map(|plan| {
                let counts = plan.counts(units);
                (
                    counts_cost(&counts, table, RequestKind::Read),
                    counts_cost(&counts, table, RequestKind::Write),
                )
            })
            .collect();
        let floor = costs.iter().fold((INFINITE, INFINITE), |floor, cost| {
            (min_cost(floor.0, cost.0), min_cost(floor.1, cost.1))
        });
        CostRow { costs, floor }
    }

    /// How many rows have been built.
    fn built(&self) -> usize {
        // ordering: Relaxed — a statistic, read for reports and tests.
        self.built.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for RowMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowMemo")
            .field("mappings", &self.plans.len())
            .field("rows_built", &self.built())
            .finish()
    }
}

/// The part of an engine's [`RowMemo`] a sweep reads: every column, or
/// the one column of the single mapping it sweeps.
#[derive(Clone, Copy)]
struct Rows<'a> {
    memo: &'a RowMemo,
    table: &'a AccessCostTable,
    /// The one column swept, or `None` for all of them in order.
    column: Option<usize>,
}

impl<'a> Rows<'a> {
    #[inline]
    fn row(&self, units: u64) -> &'a CostRow {
        self.memo.row(units, self.table)
    }

    /// The row's floor over the swept columns; one column is its own.
    #[inline]
    fn floor(&self, row: &CostRow) -> (AccessCost, AccessCost) {
        self.column.map_or(row.floor, |column| row.costs[column])
    }

    /// Per-tile costs no swept mapping undercuts in any component, from
    /// the cost rows of the ifms, wghs and ofms tile.
    fn floor_costs(&self, [ifms, wghs, ofms]: [&CostRow; 3]) -> TileCosts {
        let ofms = self.floor(ofms);
        TileCosts {
            ifms_read: self.floor(ifms).0,
            wghs_read: self.floor(wghs).0,
            ofms_read: ofms.0,
            ofms_write: ofms.1,
        }
    }

    /// Per-tile costs under the mapping in sweep position `slot`, from the
    /// cost rows of the ifms, wghs and ofms tile.
    fn mapping_costs(&self, [ifms, wghs, ofms]: [&CostRow; 3], slot: usize) -> TileCosts {
        let at = self.column.unwrap_or(slot);
        TileCosts {
            ifms_read: ifms.costs[at].0,
            wghs_read: wghs.costs[at].0,
            ofms_read: ofms.costs[at].0,
            ofms_write: ofms.costs[at].1,
        }
    }
}

/// The work sweeps did, pinned by a test so that a weaker bound fails
/// whatever the machine's timing noise.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    /// Rows the engine built.
    rows: usize,
    /// Tiles whose burst count and lower bound the sweeps computed: every
    /// fitting tile the walk made, and each block's whole ifms and ofms.
    tiles: usize,
    /// Distinct rows each sweep read, summed over the sweeps.
    touched: usize,
    tilings: usize,
    loops: usize,
    /// `(th, tw)` blocks whose ifms row was built.
    blocks: usize,
    /// `ti` loops whose loop bounds were read.
    bounded: usize,
}

thread_local! {
    /// This thread's walk buffers, lent to each of its sweeps in turn.
    static WALK: Cell<WalkBuffers<Tile>> = const { Cell::new(WalkBuffers::new()) };
}

/// One sweep in progress: what [`walk_tilings`] drives through the
/// pipeline of the module docs.
struct Sweep<'a> {
    schemes: &'a [ReuseScheme],
    mappings: &'a [MappingPolicy],
    keep_points: bool,
    batch: u64,
    t_ck_ns: f64,
    /// The engine's tile lower bound.
    bound: TileBound,
    rows: Rows<'a>,
    found: Accumulator,
    /// The least over the layer's wghs rows of the loop bounds' column
    /// `read_at(units) × n_j·n_i`: each row's suffix minimum at its first
    /// fit.
    wghs_least: AccessCost,
    /// Tilings visited, `ti` loops walked and bounded, blocks walked.
    #[cfg(test)]
    tally: Tally,
    /// The burst counts whose rows this sweep read.
    #[cfg(test)]
    touched: std::collections::HashSet<u64>,
}

impl<'a> Sweep<'a> {
    fn new(
        engine: &'a DseEngine,
        schemes: &'a [ReuseScheme],
        mappings: &'a [MappingPolicy],
        rows: Rows<'a>,
        keep_points: bool,
    ) -> Self {
        let model = &engine.model;
        Sweep {
            schemes,
            mappings,
            keep_points,
            batch: model.traffic_model().accelerator().batch as u64,
            t_ck_ns: model.table().t_ck_ns,
            bound: engine.bound,
            rows,
            found: Accumulator {
                objective: engine.config.objective,
                evaluations: 0,
                scored: 0,
                best: None,
                best_score: 0.0,
                front: ParetoFront::new(),
            },
            wghs_least: INFINITE,
            #[cfg(test)]
            tally: Tally::default(),
            #[cfg(test)]
            touched: std::collections::HashSet::new(),
        }
    }

    /// What this sweep did (`rows` is the engine's to count).
    #[cfg(test)]
    fn tally(&self) -> Tally {
        Tally {
            touched: self.touched.len(),
            ..self.tally
        }
    }

    /// The row of a tile of `units` bursts.
    #[inline]
    fn row(&mut self, units: u64) -> &'a CostRow {
        #[cfg(test)]
        self.touched.insert(units);
        self.rows.row(units)
    }

    /// The `(th, tw, tj)` loop's bound per concrete scheme, in
    /// [`ReuseScheme::CONCRETE`] order (see the module docs): each column
    /// of the scheme's [`traffic_of_trips`] row weighted by the tiles'
    /// lower bounds at its least over the loop's `tilings`, read at the
    /// loop's first, and summed in `TileCosts::estimate`'s order.
    fn loop_bounds(
        &self,
        [(_, n_h), (_, n_w), (_, n_j)]: [(usize, u64); 3],
        is: &[(usize, u64)],
        [ifms, wghs]: [&[Option<Tile>]; 2],
        ofms: &Tile,
        tilings: usize,
    ) -> [EdpEstimate; 3] {
        let spatial = self.batch * n_h * n_w;
        let start = is.len() - tilings;
        let (Some(ifms), Some(wghs)) = (ifms[start], wghs[start]) else {
            unreachable!("both tiles fit at a loop's first tiling");
        };
        let (ofms_read, ofms_write) = self.bound.at(ofms.units);
        let lb = TileCosts {
            ifms_read: ifms.least,
            wghs_read: wghs.least,
            ofms_read,
            ofms_write,
        };
        // The ofms columns are least at the least `n_i`, the loop's first.
        // The ifms and wghs columns already weigh `S·n_i` and `n_j·n_i`
        // loads; where a scheme loads more, by `n_j` or `S`, scale them.
        let [ifms_reuse, wghs_reuse, ofms_reuse] = traffic_of_trips(spatial, n_j, is[start].1);
        let (ifms_loads, wghs_loads) = (n_j, spatial);
        let ifms_reuse = TileTraffic {
            ifms_loads: 1,
            wghs_loads,
            ..ifms_reuse
        };
        let wghs_reuse = TileTraffic {
            ifms_loads,
            wghs_loads: 1,
            ..wghs_reuse
        };
        let ofms_reuse = TileTraffic {
            ifms_loads,
            wghs_loads,
            ..ofms_reuse
        };
        let t_ck_ns = self.t_ck_ns;
        [
            lb.estimate(&ifms_reuse, t_ck_ns),
            lb.estimate(&wghs_reuse, t_ck_ns),
            lb.estimate(&ofms_reuse, t_ck_ns),
        ]
    }

    /// The `(th, tw)` block's bound (see the module docs): the tiling
    /// bound's least traffic at `n_j = n_i = 1`, weighted by the tile
    /// lower bounds of the block's whole ifms and ofms and by the layer's
    /// least wghs column. Needs the wghs rows.
    fn block_bound(&self, spatial: u64, ifms_bytes: u64, ofms_bytes: u64) -> EdpEstimate {
        let bound = &self.bound;
        let (ofms_read, ofms_write) = bound.at(bound.units(ofms_bytes));
        let lb = TileCosts {
            ifms_read: bound.read_at(bound.units(ifms_bytes)),
            wghs_read: self.wghs_least,
            ofms_read,
            ofms_write,
        };
        lb.estimate(&least_traffic(spatial, 1, 1), self.t_ck_ns)
    }
}

impl TilingVisitor for Sweep<'_> {
    type Tile = Tile;

    fn tile(&mut self, bytes: u64) -> Tile {
        #[cfg(test)]
        {
            self.tally.tiles += 1;
        }
        self.bound.tile(bytes)
    }

    /// Each tile's suffix minimum of the loop bounds' column
    /// `lb × trips·n_i`, so that a loop reads its least at its first step;
    /// a wghs row's least at its first fit also lowers `wghs_least`.
    fn ti_row(
        &mut self,
        kind: DataKind,
        is: &[(usize, u64)],
        tiles: &mut [Option<Tile>],
        trips: u64,
    ) {
        let mut least = INFINITE;
        for (&(_, n_i), tile) in is.iter().zip(tiles).rev() {
            if let Some(tile) = tile {
                // `TileCosts::components`' product, operand for operand.
                let (lb, loads) = (self.bound.read_at(tile.units), (trips * n_i) as f64);
                let (cycles, energy) = (lb.cycles * loads, lb.energy * loads);
                // A compare, not `f64::min`: it compiles to a bare `minpd`
                // where `min` adds a NaN fix-up, and under the engine's
                // precondition neither operand is NaN.
                if cycles < least.cycles {
                    least.cycles = cycles;
                }
                if energy < least.energy {
                    least.energy = energy;
                }
                tile.least = least;
            }
        }
        if kind == DataKind::Wghs {
            self.wghs_least = min_cost(self.wghs_least, least);
        }
    }

    /// The block bound: implied by every group bound of the block, so it
    /// too changes what is computed, never what is counted.
    fn block(&mut self, spatial: u64, ifms_bytes: u64, ofms_bytes: u64) -> bool {
        #[cfg(test)]
        {
            self.tally.tiles += 2;
        }
        let bound = self.block_bound(spatial, ifms_bytes, ofms_bytes);
        if self.found.shuts_out(&bound, self.keep_points) {
            return false;
        }
        #[cfg(test)]
        {
            self.tally.blocks += 1;
        }
        true
    }

    /// The loop bounds: implied by every group bound of the loop, so they
    /// too change what is computed, never what is counted. The loop is
    /// skipped only when all three shut out.
    fn ti_loop(
        &mut self,
        outer: [(usize, u64); 3],
        is: &[(usize, u64)],
        ifms: &[Option<Tile>],
        wghs: &[Option<Tile>],
        ofms: Tile,
        tilings: usize,
    ) -> bool {
        #[cfg(test)]
        {
            self.tally.bounded += 1;
        }
        let bounds = self.loop_bounds(outer, is, [ifms, wghs], &ofms, tilings);
        if bounds
            .iter()
            .all(|bound| self.found.shuts_out(bound, self.keep_points))
        {
            return false;
        }
        #[cfg(test)]
        {
            self.tally.loops += 1;
        }
        true
    }

    fn tiling(&mut self, tiling: Tiling, [n_h, n_w, n_j, n_i]: [u64; 4], tiles: [Tile; 3]) {
        #[cfg(test)]
        {
            self.tally.tilings += 1;
        }
        let (t_ck_ns, keep_points) = (self.t_ck_ns, self.keep_points);
        let spatial = self.batch * n_h * n_w;
        let [ifms, wghs, ofms] = tiles;
        let rows = [
            self.row(ifms.units),
            self.row(wghs.units),
            self.row(ofms.units),
        ];
        let floor = self.rows.floor_costs(rows);
        let found = &mut self.found;
        // The tiling-level bound: implied by every group's bound below,
        // so it changes what is computed, never what is counted.
        let least = least_traffic(spatial, n_j, n_i);
        if found.shuts_out(&floor.estimate(&least, t_ck_ns), keep_points) {
            return;
        }
        let traffic = traffic_of_trips(spatial, n_j, n_i);
        let adaptive = min_traffic_index(&traffic, [ifms.bytes, wghs.bytes, ofms.bytes]);
        // Concrete schemes this tiling's earlier groups covered.
        let mut covered = [false; 3];
        for &scheme in self.schemes {
            let concrete = scheme.concrete_index().unwrap_or(adaptive);
            let traffic = &traffic[concrete];
            let duplicate = std::mem::replace(&mut covered[concrete], true);
            if duplicate || found.shuts_out(&floor.estimate(traffic, t_ck_ns), keep_points) {
                continue;
            }
            for (slot, &mapping) in self.mappings.iter().enumerate() {
                let tag = CandidateTag {
                    mapping,
                    scheme,
                    tiling,
                };
                let estimate = self
                    .rows
                    .mapping_costs(rows, slot)
                    .estimate(traffic, t_ck_ns);
                found.offer(estimate, tag, keep_points);
            }
        }
    }
}

/// The exploration engine: an [`EdpModel`] plus a sweep configuration.
///
/// # Examples
///
/// ```no_run
/// use drmap_core::dse::{DseConfig, DseEngine};
/// use drmap_core::edp::EdpModel;
/// use drmap_cnn::prelude::*;
/// use drmap_dram::prelude::*;
///
/// let profiler = Profiler::table_ii()?;
/// let table = profiler.cost_table(DramArch::Salp2);
/// let model = EdpModel::new(Geometry::salp_2gb_x8(), table, AcceleratorConfig::table_ii());
/// let engine = DseEngine::new(model, DseConfig::default())?;
/// let result = engine.explore_network(&Network::alexnet())?;
/// assert!(result.layers[0].best.mapping.is_drmap());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// A clone shares the original's cost rows: each is built once, by
/// whichever sweep first needs it.
#[derive(Debug, Clone)]
pub struct DseEngine {
    model: EdpModel,
    config: DseConfig,
    /// The cost rows of `config.mappings`, built on demand.
    memo: Arc<RowMemo>,
    /// The tile lower bound.
    bound: TileBound,
    /// Every layer's cache key after its shape (see
    /// [`DseEngine::layer_key`]).
    key_suffix: Arc<str>,
}

impl DseEngine {
    /// Create an engine. No cost row is built until a sweep needs it.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] for an empty scheme or mapping list, or for a
    /// table outside the module docs' precondition, naming its offending
    /// class cost or clock.
    pub fn new(model: EdpModel, config: DseConfig) -> Result<Self, DseError> {
        if config.schemes.is_empty() || config.mappings.is_empty() {
            return Err(DseError::new("empty scheme or mapping sweep"));
        }
        let bound = TileBound::new(model.geometry(), model.table())?;
        let memo = Arc::new(RowMemo::new(&model, &config.mappings));
        let mut key_suffix = String::new();
        write_key_suffix(
            &mut key_suffix,
            model.traffic_model().accelerator(),
            &config,
        );
        Ok(DseEngine {
            model,
            config,
            memo,
            bound,
            key_suffix: key_suffix.into(),
        })
    }

    /// [`layer_cache_key`] of `layer` on this engine's accelerator and
    /// sweep configuration, byte for byte, writing only the tag and the
    /// shape per call.
    pub fn layer_key(&self, engine_tag: &str, layer: &Layer) -> String {
        let mut key = String::with_capacity(engine_tag.len() + 48 + self.key_suffix.len());
        write_key_head(&mut key, engine_tag, layer);
        key.push_str(&self.key_suffix);
        key
    }

    /// The rows a sweep reads: all of the engine's columns, or `column`.
    fn rows(&self, column: Option<usize>) -> Rows<'_> {
        Rows {
            memo: &self.memo,
            table: self.model.table(),
            column,
        }
    }

    /// The underlying analytical model.
    pub fn model(&self) -> &EdpModel {
        &self.model
    }

    /// The sweep configuration.
    pub fn config(&self) -> &DseConfig {
        &self.config
    }

    /// Wrap the engine in a thread-safe shared handle (see
    /// [`SharedEngine`]).
    pub fn into_shared(self) -> SharedEngine {
        std::sync::Arc::new(self)
    }

    /// Evaluate one explicit configuration (used by the figure harness).
    pub fn evaluate(
        &self,
        layer: &Layer,
        tiling: &Tiling,
        scheme: ReuseScheme,
        mapping: &MappingPolicy,
    ) -> EdpEstimate {
        self.model.layer_estimate(layer, tiling, scheme, mapping)
    }

    /// Minimum-EDP estimate over all feasible tilings for a fixed
    /// `(scheme, mapping)` — one bar of Fig. 9.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if no tiling fits the buffers.
    pub fn best_over_tilings(
        &self,
        layer: &Layer,
        scheme: ReuseScheme,
        mapping: &MappingPolicy,
    ) -> Result<DseCandidate, DseError> {
        let (schemes, mappings) = ([scheme], std::slice::from_ref(mapping));
        let found = match self.config.mappings.iter().position(|m| m == mapping) {
            Some(column) => {
                self.sweep(layer, &schemes, mappings, self.rows(Some(column)), false)?
                    .found
            }
            None => {
                // A mapping outside the engine's set: its rows, for this
                // call only.
                let own = RowMemo::new(&self.model, mappings);
                let rows = Rows {
                    memo: &own,
                    ..self.rows(None)
                };
                self.sweep(layer, &schemes, mappings, rows, false)?.found
            }
        };
        Ok(found.best.expect("a feasible sweep has a winner"))
    }

    /// Algorithm 1 for one layer: sweep tilings × schemes × mappings.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if no tiling fits the buffers.
    pub fn explore_layer(&self, layer: &Layer) -> Result<LayerDseResult, DseError> {
        self.explore_layer_counted(layer).map(|(result, _)| result)
    }

    /// [`DseEngine::explore_layer`], plus how many of the result's
    /// `evaluations` the exact bound skipped instead of scoring (never
    /// more than `evaluations`).
    ///
    /// # Errors
    ///
    /// As [`DseEngine::explore_layer`].
    pub fn explore_layer_counted(
        &self,
        layer: &Layer,
    ) -> Result<(LayerDseResult, usize), DseError> {
        let config = &self.config;
        let rows = self.rows(None);
        let swept = self
            .sweep(
                layer,
                &config.schemes,
                &config.mappings,
                rows,
                config.keep_points,
            )?
            .found;
        let pruned = swept.pruned();
        let result = LayerDseResult {
            layer_name: layer.name.clone(),
            best: swept.best.expect("a feasible sweep has a winner"),
            evaluations: swept.evaluations,
            pareto: swept.front.into_design_points(tag_label),
        };
        Ok((result, pruned))
    }

    /// The evaluation pipeline of the module docs: the layer's feasible
    /// tilings × `schemes` × `mappings` (`mappings` non-empty, priced by
    /// `rows`) in that nesting order, under this engine's objective; what
    /// it found is the finished sweep's `found`, which covers every
    /// feasible tiling's `schemes.len() · mappings.len()` points.
    fn sweep<'a>(
        &'a self,
        layer: &Layer,
        schemes: &'a [ReuseScheme],
        mappings: &'a [MappingPolicy],
        rows: Rows<'a>,
        keep_points: bool,
    ) -> Result<Sweep<'a>, DseError> {
        let mut sweep = Sweep::new(self, schemes, mappings, rows, keep_points);
        let acc = self.model.traffic_model().accelerator();
        let mut buffers = WALK.replace(WalkBuffers::new());
        let walked = walk_tilings(layer, acc, &mut sweep, &mut buffers);
        WALK.set(buffers);
        let tilings = walked?;
        sweep.found.evaluations = tilings * schemes.len() * mappings.len();
        Ok(sweep)
    }

    /// Algorithm 1 for a whole network: [`DseEngine::explore_layer`]
    /// on each layer in order, with the per-layer winners' estimates
    /// summed into the network total. Each layer's result is
    /// bit-identical to a lone `explore_layer` call on it. The service's
    /// worker pool spreads the layers of many jobs over threads; this
    /// call runs on the caller's.
    ///
    /// # Errors
    ///
    /// Propagates the first per-layer failure (in layer order).
    pub fn explore_network(&self, network: &Network) -> Result<NetworkDseResult, DseError> {
        let mut total = EdpEstimate::zero(self.model.table().t_ck_ns);
        let layers = network
            .layers()
            .iter()
            .map(|layer| {
                let result = self.explore_layer(layer)?;
                total.accumulate(&result.best.estimate);
                Ok(result)
            })
            .collect::<Result<_, DseError>>()?;
        Ok(NetworkDseResult { layers, total })
    }
}

#[cfg(test)]
mod exactness;

#[cfg(test)]
mod tests {
    use super::exactness::{assert_results_bit_identical, naive_explore};
    use super::*;
    use drmap_cnn::accelerator::AcceleratorConfig;
    use drmap_dram::geometry::Geometry;
    use drmap_dram::profiler::{AccessCost, AccessCostTable};
    use drmap_dram::timing::DramArch;

    /// A cost table with the qualitative ordering the hardware produces:
    /// columns cheapest, banks next, subarrays dearer, rows dearest.
    pub(super) fn ordered_table() -> AccessCostTable {
        let mk = |cycles: f64, energy: f64| AccessCost {
            cycles,
            energy: energy * 1e-9,
        };
        AccessCostTable::from_costs(
            DramArch::Ddr3,
            [mk(4.2, 1.2), mk(6.0, 2.0), mk(40.0, 5.5), mk(42.0, 5.8)],
            [mk(4.2, 1.1), mk(6.5, 2.1), mk(44.0, 5.6), mk(46.0, 5.9)],
            1.25,
        )
    }

    fn engine(config: DseConfig) -> DseEngine {
        let acc = AcceleratorConfig::table_ii();
        let model = EdpModel::new(Geometry::salp_2gb_x8(), ordered_table(), acc);
        DseEngine::new(model, config).unwrap()
    }

    fn fingerprint(config: &DseConfig) -> String {
        let mut out = String::new();
        config.write_fingerprint(&mut out);
        out
    }

    fn conv3() -> Layer {
        Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1)
    }

    #[test]
    fn explore_layer_finds_drmap_under_ordered_costs() {
        let e = engine(DseConfig::default());
        let r = e.explore_layer(&conv3()).unwrap();
        assert!(
            r.best.mapping.is_drmap() || r.best.mapping.index() == 1,
            "expected a column-innermost mapping, got {}",
            r.best.mapping
        );
        assert!(r.evaluations > 0);
    }

    #[test]
    fn best_over_tilings_beats_fixed_tiling() {
        let e = engine(DseConfig::default());
        let layer = conv3();
        let best = e
            .best_over_tilings(&layer, ReuseScheme::OfmsReuse, &MappingPolicy::drmap())
            .unwrap();
        let fixed = Tiling::new(13, 13, 16, 16);
        let fixed_est = e.evaluate(
            &layer,
            &fixed,
            ReuseScheme::OfmsReuse,
            &MappingPolicy::drmap(),
        );
        assert!(best.estimate.edp() <= fixed_est.edp());
    }

    #[test]
    fn explore_network_accumulates_totals() {
        let e = engine(DseConfig::default());
        let net = drmap_cnn::network::Network::tiny();
        let r = e.explore_network(&net).unwrap();
        assert_eq!(r.layers.len(), net.layers().len());
        let sum: f64 = r.layers.iter().map(|l| l.best.estimate.energy).sum();
        assert!((r.total.energy - sum).abs() / sum < 1e-12);
        assert!(r.total_edp() > 0.0);
    }

    #[test]
    fn empty_sweep_is_an_error() {
        let no_schemes = DseConfig {
            schemes: vec![],
            ..DseConfig::default()
        };
        let no_mappings = DseConfig {
            mappings: vec![],
            ..DseConfig::default()
        };
        for config in [no_schemes, no_mappings] {
            let model = engine(DseConfig::default()).model().clone();
            let refused = DseEngine::new(model, config).unwrap_err().to_string();
            assert!(
                refused.ends_with("empty scheme or mapping sweep"),
                "{refused}"
            );
        }
    }

    #[test]
    fn keep_points_builds_pareto_front() {
        let e = engine(DseConfig {
            keep_points: true,
            ..DseConfig::default()
        });
        let r = e.explore_layer(&conv3()).unwrap();
        assert!(!r.pareto.is_empty());
        assert!(r.pareto.len() <= r.evaluations);
        // The best-EDP candidate need not be on the extreme ends, but the
        // front must contain a point no worse than it in both coordinates.
        let best = &r.best.estimate;
        assert!(r
            .pareto
            .iter()
            .any(|p| p.estimate.energy <= best.energy * 1.0001
                || p.estimate.cycles <= best.cycles * 1.0001));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let e = engine(DseConfig::default());
        let net = drmap_cnn::network::Network::tiny();
        let parallel = e.explore_network(&net).unwrap();
        let mut total = EdpEstimate::zero(1.25);
        for layer in net.layers() {
            total.accumulate(&e.explore_layer(layer).unwrap().best.estimate);
        }
        assert!((parallel.total.energy - total.energy).abs() / total.energy < 1e-12);
        assert!((parallel.total.cycles - total.cycles).abs() / total.cycles < 1e-12);
    }

    #[test]
    fn objective_scores_are_consistent() {
        let e = EdpEstimate {
            cycles: 800.0,
            energy: 2.0,
            t_ck_ns: 1.25,
        };
        let t = e.seconds();
        assert_eq!(Objective::Edp.score(&e), 2.0 * t);
        assert_eq!(Objective::Energy.score(&e), 2.0);
        assert_eq!(Objective::Delay.score(&e), t);
        assert_eq!(Objective::Ed2p.score(&e), 2.0 * t * t);
    }

    #[test]
    fn objectives_can_change_the_winner() {
        // Delay-only exploration must find a configuration at least as
        // fast as the EDP winner; energy-only at least as frugal.
        let layer = conv3();
        let edp_best = engine(DseConfig::default())
            .explore_layer(&layer)
            .unwrap()
            .best;
        let delay_best = engine(DseConfig {
            objective: Objective::Delay,
            ..DseConfig::default()
        })
        .explore_layer(&layer)
        .unwrap()
        .best;
        let energy_best = engine(DseConfig {
            objective: Objective::Energy,
            ..DseConfig::default()
        })
        .explore_layer(&layer)
        .unwrap()
        .best;
        assert!(delay_best.estimate.cycles <= edp_best.estimate.cycles * 1.0001);
        assert!(energy_best.estimate.energy <= edp_best.estimate.energy * 1.0001);
    }

    #[test]
    fn engine_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DseEngine>();
        assert_send_sync::<SharedEngine>();
        let shared = engine(DseConfig::default()).into_shared();
        let layer = conv3();
        let direct = shared.explore_layer(&layer).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                let layer = layer.clone();
                std::thread::spawn(move || shared.explore_layer(&layer).unwrap())
            })
            .collect();
        for t in threads {
            let r = t.join().unwrap();
            assert_eq!(r.best, direct.best);
        }
    }

    #[test]
    fn cache_key_ignores_name_but_not_shape_or_config() {
        let acc = AcceleratorConfig::table_ii();
        let config = DseConfig::default();
        let a = layer_cache_key("SALP-2", &conv3(), &acc, &config);
        let renamed = Layer::conv("OTHER", 13, 13, 384, 256, 3, 3, 1);
        assert_eq!(a, layer_cache_key("SALP-2", &renamed, &acc, &config));

        let reshaped = Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 2);
        assert_ne!(a, layer_cache_key("SALP-2", &reshaped, &acc, &config));
        assert_ne!(a, layer_cache_key("DDR3", &conv3(), &acc, &config));

        let delay = DseConfig {
            objective: Objective::Delay,
            ..DseConfig::default()
        };
        assert_ne!(a, layer_cache_key("SALP-2", &conv3(), &acc, &delay));

        let mut wide = acc;
        wide.ifms_buffer *= 2;
        assert_ne!(a, layer_cache_key("SALP-2", &conv3(), &wide, &config));
    }

    #[test]
    fn fingerprint_tracks_sweep_contents() {
        let d = DseConfig::default();
        let fp = fingerprint(&d);
        assert!(fp.contains("obj=edp"));
        assert!(fp.contains("adaptive-reuse"));
        let reduced = DseConfig {
            schemes: vec![ReuseScheme::OfmsReuse],
            ..DseConfig::default()
        };
        assert_ne!(fp, fingerprint(&reduced));
    }

    #[test]
    fn fingerprint_tells_custom_mapping_orders_apart() {
        use drmap_dram::geometry::Level::{Bank, Column, Row, Subarray};
        let sweep_of = |order| DseConfig {
            mappings: vec![MappingPolicy::custom(order).unwrap()],
            ..DseConfig::default()
        };
        let a = sweep_of([Column, Bank, Row, Subarray]);
        let b = sweep_of([Row, Bank, Column, Subarray]);
        assert_eq!(a.mappings[0].name(), b.mappings[0].name());
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let acc = AcceleratorConfig::table_ii();
        assert_ne!(
            layer_cache_key("SALP-2", &conv3(), &acc, &a),
            layer_cache_key("SALP-2", &conv3(), &acc, &b)
        );
        assert!(fingerprint(&a).contains("mappings=custom[column>bank>row>subarray];"));
        // All 24 permutations are told apart, Table I's six by name.
        let all = MappingPolicy::all_permutations();
        let prints: std::collections::HashSet<String> = all
            .iter()
            .map(|&m| {
                fingerprint(&DseConfig {
                    mappings: vec![m],
                    ..DseConfig::default()
                })
            })
            .collect();
        assert_eq!(prints.len(), all.len());
        // Table I's names, and so every default-sweep key, are unchanged.
        assert_eq!(
            layer_cache_key("SALP-2", &conv3(), &acc, &DseConfig::default()),
            "SALP-2|h13w13j384i256p3q3s1g1|ib65536wb65536ob65536px1b1|obj=edp;\
             schemes=ifms-reuse+wghs-reuse+ofms-reuse+adaptive-reuse;\
             mappings=Mapping-1+Mapping-2+Mapping-3 (DRMap)+Mapping-4+Mapping-5+Mapping-6;\
             points=false"
        );
    }

    /// A key's numbers are the digits `{}` writes, at every width.
    #[test]
    fn key_fields_are_written_as_format_writes_them() {
        for value in [0, 1, 9, 10, 99, 100, 65_536, 1 << 30, usize::MAX] {
            let mut key = String::new();
            write_key_fields(&mut key, [("|h", value), ("w", 7)]);
            assert_eq!(key, format!("|h{value}w7"));
        }
    }

    #[test]
    fn pipelined_sweep_matches_naive_evaluation_bit_exactly() {
        for objective in Objective::ALL {
            for keep_points in [false, true] {
                let e = engine(DseConfig {
                    objective,
                    keep_points,
                    ..DseConfig::default()
                });
                let layer = conv3();
                assert_results_bit_identical(
                    &e.explore_layer(&layer).unwrap(),
                    &naive_explore(&e, &layer),
                );
            }
        }
    }

    #[test]
    fn mapping2_never_beats_drmap_under_ordered_costs() {
        let e = engine(DseConfig::default());
        let layer = conv3();
        for scheme in ReuseScheme::ALL {
            let m2 = e
                .best_over_tilings(&layer, scheme, &MappingPolicy::table_i_policy(2))
                .unwrap();
            let m3 = e
                .best_over_tilings(&layer, scheme, &MappingPolicy::drmap())
                .unwrap();
            assert!(
                m3.estimate.edp() <= m2.estimate.edp(),
                "{scheme}: DRMap {} vs Mapping-2 {}",
                m3.estimate.edp(),
                m2.estimate.edp()
            );
        }
    }
}
