//! The design-space exploration engine: Algorithm 1 of the paper.
//!
//! For each layer, the DSE sweeps every feasible layer partitioning
//! (tiling), every scheduling scheme, and every DRAM mapping policy,
//! evaluates the analytical EDP model, and keeps the minimum-EDP
//! configuration. Layers are independent and explored in parallel.
//!
//! ## The evaluation pipeline
//!
//! The sweep is organized so per-evaluation work shrinks to what
//! actually varies with the mapping policy:
//!
//! * per **tiling**: tile footprints in DRAM bursts (three data kinds),
//! * per **(tiling, scheme)**: adaptive-scheme resolution and
//!   tile-fetch counts — neither depends on the mapping,
//! * per **(mapping, burst count)**: the closed-form transition
//!   counting and its cost weighting, memoized because a layer has only
//!   a handful of distinct burst counts,
//! * per **evaluation**: four multiply-adds plus an incremental
//!   Pareto-front insert (no label allocation; labels materialize for
//!   survivors only).
//!
//! The tiling axis is also *shardable*: [`DseEngine::explore_layer_range`]
//! explores a contiguous subrange of the tiling enumeration and returns
//! a [`LayerPartial`] whose [`LayerPartial::merge`] is exact, so
//! several workers can split one huge layer and reassemble a result
//! bit-identical to the sequential sweep.

use core::fmt;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use drmap_cnn::layer::{DataKind, Layer};
use drmap_cnn::network::Network;
use drmap_dram::geometry::Geometry;
use drmap_dram::profiler::{AccessCost, AccessCostTable};
use drmap_dram::request::RequestKind;

use crate::access_model::{bytes_to_bursts, counts_cost, transition_counts};
use crate::edp::{EdpEstimate, EdpModel};
use crate::error::DseError;
use crate::mapping::MappingPolicy;
use crate::pareto::{DesignPoint, ParetoFront};
use crate::schedule::ReuseScheme;
use crate::tiling::{count_tilings, enumerate_tilings, Tiling};

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

    /// Parse a [`Objective::label`] string.
    pub fn from_label(label: &str) -> Option<Self> {
        Objective::ALL.into_iter().find(|o| o.label() == label)
    }

    /// Scalar score of an estimate under this objective (lower is better).
    pub fn score(self, estimate: &EdpEstimate) -> f64 {
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
    /// Canonical, order-sensitive fingerprint of the sweep configuration.
    ///
    /// Two engines with equal fingerprints (and equal models) perform the
    /// same sweep in the same order, so their results are bit-identical —
    /// the property memoization caches rely on.
    pub fn fingerprint(&self) -> String {
        let schemes: Vec<&str> = self.schemes.iter().map(|s| s.label()).collect();
        let mappings: Vec<String> = self.mappings.iter().map(|m| m.name()).collect();
        format!(
            "obj={};schemes={};mappings={};points={}",
            self.objective.label(),
            schemes.join("+"),
            mappings.join("+"),
            self.keep_points,
        )
    }
}

/// A thread-safe, shareable handle to a [`DseEngine`].
///
/// The engine is immutable after construction and `Send + Sync`, so one
/// handle can serve any number of worker threads concurrently (the
/// job-server crate shards a network's layers across workers this way).
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
pub fn layer_cache_key(
    engine_tag: &str,
    layer: &Layer,
    acc: &drmap_cnn::accelerator::AcceleratorConfig,
    config: &DseConfig,
) -> String {
    format!(
        "{engine_tag}|h{}w{}j{}i{}p{}q{}s{}g{}|ib{}wb{}ob{}px{}b{}|{}",
        layer.h,
        layer.w,
        layer.j,
        layer.i,
        layer.p,
        layer.q,
        layer.stride,
        layer.groups,
        acc.ifms_buffer,
        acc.wghs_buffer,
        acc.ofms_buffer,
        acc.precision.bytes(),
        acc.batch,
        config.fingerprint(),
    )
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
    /// Number of configurations evaluated.
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

/// Partial output of exploring a contiguous subrange of one layer's
/// tiling enumeration (see [`DseEngine::explore_layer_range`]).
///
/// Partials over consecutive ranges combine with [`LayerPartial::merge`]
/// into exactly the result a single sequential sweep produces — same
/// best candidate (bit-identical estimate), same evaluation count, same
/// Pareto front — because the per-range sweeps preserve evaluation
/// order, the best-candidate fold is associative with a
/// first-of-equals tie-break, and [`ParetoFront::merge`] is exact.
#[derive(Debug, Clone)]
pub struct LayerPartial {
    objective: Objective,
    evaluations: usize,
    best: Option<DseCandidate>,
    front: ParetoFront<CandidateTag>,
}

impl LayerPartial {
    /// Number of configurations this partial evaluated.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Best candidate found within this partial's range, if the range
    /// was non-empty.
    pub fn best(&self) -> Option<&DseCandidate> {
        self.best.as_ref()
    }

    /// Fold the partial of the **next** tiling subrange into this one.
    /// Exact provided ranges are merged in ascending order: ties on the
    /// objective keep the lower-range candidate, exactly as the
    /// sequential sweep's strict-improvement rule does.
    pub fn merge(&mut self, later: LayerPartial) {
        debug_assert_eq!(
            self.objective, later.objective,
            "merged partials of different objectives"
        );
        self.evaluations += later.evaluations;
        let objective = self.objective;
        self.best = match (self.best.take(), later.best) {
            (Some(a), Some(b)) => {
                if objective.score(&b.estimate) < objective.score(&a.estimate) {
                    Some(b)
                } else {
                    Some(a)
                }
            }
            (a, b) => a.or(b),
        };
        self.front.merge(later.front);
    }

    /// Finish the exploration: materialize the Pareto front and name the
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if no candidate was evaluated (an empty merged range);
    /// callers merge partials covering the whole enumeration first.
    pub fn into_result(self, layer_name: impl Into<String>) -> LayerDseResult {
        LayerDseResult {
            layer_name: layer_name.into(),
            best: self.best.expect("non-empty sweep produced no candidate"),
            evaluations: self.evaluations,
            pareto: self.front.into_design_points(tag_label),
        }
    }
}

/// Per-exploration memo of weighted access costs, keyed by mapping slot
/// (position in the sweep's mapping list) and tile burst count. A layer
/// has only a handful of distinct burst counts (three data kinds across
/// the tiling enumeration), so the closed-form transition counting runs
/// once per (mapping, burst count) instead of once per evaluation.
struct CostMemo {
    /// One `units -> (read cost, write cost)` map per mapping slot.
    costs: Vec<HashMap<u64, (AccessCost, AccessCost)>>,
}

impl CostMemo {
    fn new(mappings: usize) -> Self {
        CostMemo {
            costs: (0..mappings).map(|_| HashMap::new()).collect(),
        }
    }

    fn get(
        &mut self,
        slot: usize,
        mapping: &MappingPolicy,
        geometry: &Geometry,
        table: &AccessCostTable,
        units: u64,
    ) -> (AccessCost, AccessCost) {
        *self.costs[slot].entry(units).or_insert_with(|| {
            let counts = transition_counts(mapping, geometry, units);
            (
                counts_cost(&counts, table, RequestKind::Read),
                counts_cost(&counts, table, RequestKind::Write),
            )
        })
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
/// let engine = DseEngine::new(model, DseConfig::default());
/// let result = engine.explore_network(&Network::alexnet())?;
/// assert!(result.layers[0].best.mapping.is_drmap());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DseEngine {
    model: EdpModel,
    config: DseConfig,
}

impl DseEngine {
    /// Create an engine.
    pub fn new(model: EdpModel, config: DseConfig) -> Self {
        DseEngine { model, config }
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
        let acc = *self.model.traffic_model().accelerator();
        let tilings = enumerate_tilings(layer, &acc)?;
        let objective = self.config.objective;
        let mut best: Option<DseCandidate> = None;
        for tiling in tilings {
            let estimate = self.evaluate(layer, &tiling, scheme, mapping);
            let better = best
                .as_ref()
                .is_none_or(|b| objective.score(&estimate) < objective.score(&b.estimate));
            if better {
                best = Some(DseCandidate {
                    mapping: *mapping,
                    tiling,
                    scheme,
                    estimate,
                });
            }
        }
        best.ok_or_else(|| DseError::new("no feasible tiling"))
    }

    /// Number of feasible tilings of `layer` under this engine's
    /// accelerator — the size of the shardable axis of
    /// [`DseEngine::explore_layer_range`], counted without materializing
    /// the enumeration.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if no tiling fits the buffers.
    pub fn tiling_count(&self, layer: &Layer) -> Result<usize, DseError> {
        count_tilings(layer, self.model.traffic_model().accelerator())
    }

    /// Algorithm 1 for one layer: sweep tilings × schemes × mappings.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if no tiling fits the buffers or the sweep
    /// configuration is empty.
    pub fn explore_layer(&self, layer: &Layer) -> Result<LayerDseResult, DseError> {
        Ok(self
            .explore_layer_range(layer, 0..usize::MAX)?
            .into_result(layer.name.clone()))
    }

    /// Algorithm 1 restricted to a contiguous subrange of the layer's
    /// tiling enumeration (clamped to the enumeration's length): the
    /// unit of intra-layer sharding. Merging the partials of a disjoint
    /// cover of `0..tiling_count` in ascending range order and calling
    /// [`LayerPartial::into_result`] is bit-identical to
    /// [`DseEngine::explore_layer`].
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if no tiling fits the buffers or the sweep
    /// configuration is empty.
    pub fn explore_layer_range(
        &self,
        layer: &Layer,
        tiling_range: Range<usize>,
    ) -> Result<LayerPartial, DseError> {
        let acc = *self.model.traffic_model().accelerator();
        let tilings = enumerate_tilings(layer, &acc)?;
        self.explore_tilings_range(layer, &tilings, tiling_range)
    }

    /// [`DseEngine::explore_layer_range`] over a caller-supplied tiling
    /// enumeration, so workers sharding one layer can enumerate **once**
    /// and share the slice instead of re-enumerating per chunk.
    ///
    /// `tilings` must be (a prefix-identical copy of) this engine's
    /// [`enumerate_tilings`] output for the layer — merged partials
    /// equal the sequential sweep only when every range sweeps the same
    /// enumeration in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] if the sweep configuration is empty.
    pub fn explore_tilings_range(
        &self,
        layer: &Layer,
        tilings: &[Tiling],
        tiling_range: Range<usize>,
    ) -> Result<LayerPartial, DseError> {
        if self.config.schemes.is_empty() || self.config.mappings.is_empty() {
            return Err(DseError::new("empty scheme or mapping sweep"));
        }
        let acc = *self.model.traffic_model().accelerator();
        let start = tiling_range.start.min(tilings.len());
        let end = tiling_range.end.min(tilings.len()).max(start);
        let objective = self.config.objective;
        let keep_points = self.config.keep_points;
        let geometry = *self.model.geometry();
        let table = self.model.table();
        let traffic_model = self.model.traffic_model();
        let mut memo = CostMemo::new(self.config.mappings.len());
        let mut best: Option<DseCandidate> = None;
        let mut evaluations = 0usize;
        let mut front = ParetoFront::new();
        for tiling in &tilings[start..end] {
            // Hoisted per tiling: tile footprints in DRAM bursts.
            let units = [
                bytes_to_bursts(tiling.tile_bytes(layer, &acc, DataKind::Ifms), &geometry),
                bytes_to_bursts(tiling.tile_bytes(layer, &acc, DataKind::Wghs), &geometry),
                bytes_to_bursts(tiling.tile_bytes(layer, &acc, DataKind::Ofms), &geometry),
            ];
            for &scheme in &self.config.schemes {
                // Hoisted per (tiling, scheme): adaptive resolution and
                // tile-fetch counts — neither depends on the mapping.
                let (_, traffic) = traffic_model.resolved_traffic(layer, tiling, scheme);
                for (slot, mapping) in self.config.mappings.iter().enumerate() {
                    let (ifms_read, _) = memo.get(slot, mapping, &geometry, table, units[0]);
                    let (wghs_read, _) = memo.get(slot, mapping, &geometry, table, units[1]);
                    let (ofms_read, ofms_write) =
                        memo.get(slot, mapping, &geometry, table, units[2]);
                    // Same accumulation order as EdpModel::layer_breakdown,
                    // term by term, so estimates stay bit-identical to the
                    // unmemoized path.
                    let estimate = EdpEstimate {
                        cycles: ifms_read.cycles * traffic.ifms_loads as f64
                            + wghs_read.cycles * traffic.wghs_loads as f64
                            + ofms_read.cycles * traffic.ofms_loads as f64
                            + ofms_write.cycles * traffic.ofms_stores as f64,
                        energy: ifms_read.energy * traffic.ifms_loads as f64
                            + wghs_read.energy * traffic.wghs_loads as f64
                            + ofms_read.energy * traffic.ofms_loads as f64
                            + ofms_write.energy * traffic.ofms_stores as f64,
                        t_ck_ns: table.t_ck_ns,
                    };
                    evaluations += 1;
                    if keep_points {
                        front.insert(
                            estimate,
                            CandidateTag {
                                mapping: *mapping,
                                scheme,
                                tiling: *tiling,
                            },
                        );
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
        Ok(LayerPartial {
            objective,
            evaluations,
            best,
            front,
        })
    }

    /// Algorithm 1 for a whole network: layers are claimed from a shared
    /// counter by a bounded crew of worker threads (at most the machine's
    /// available parallelism), so a thousand-layer network no longer
    /// spawns a thousand threads. Results are reassembled in layer order
    /// and are bit-identical to a sequential run.
    ///
    /// # Errors
    ///
    /// Propagates the first per-layer failure (in layer order).
    pub fn explore_network(&self, network: &Network) -> Result<NetworkDseResult, DseError> {
        let layers = network.layers();
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(layers.len())
            .max(1);
        let next = AtomicUsize::new(0);
        let mut gathered: Vec<Option<Result<LayerDseResult, DseError>>> =
            (0..layers.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let next = &next;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut claimed = Vec::new();
                        loop {
                            // ordering: Relaxed — a work-claim ticket
                            // over the immutable `layers` slice; results
                            // are returned via join, which synchronizes.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= layers.len() {
                                return claimed;
                            }
                            claimed.push((i, self.explore_layer(&layers[i])));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in handle.join().expect("DSE worker panicked") {
                    gathered[i] = Some(result);
                }
            }
        });

        let mut layers_out = Vec::with_capacity(layers.len());
        let mut total = EdpEstimate::zero(self.model.table().t_ck_ns);
        for slot in gathered {
            let r = slot.expect("every claimed layer reports a result")?;
            total.accumulate(&r.best.estimate);
            layers_out.push(r);
        }
        Ok(NetworkDseResult {
            layers: layers_out,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_cnn::accelerator::AcceleratorConfig;
    use drmap_dram::geometry::Geometry;
    use drmap_dram::profiler::{AccessCost, AccessCostTable};
    use drmap_dram::timing::DramArch;

    /// A cost table with the qualitative ordering the hardware produces:
    /// columns cheapest, banks next, subarrays dearer, rows dearest.
    fn ordered_table() -> AccessCostTable {
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
        DseEngine::new(
            EdpModel::new(
                Geometry::salp_2gb_x8(),
                ordered_table(),
                AcceleratorConfig::table_ii(),
            ),
            config,
        )
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
        let e = engine(DseConfig {
            schemes: vec![],
            ..DseConfig::default()
        });
        assert!(e.explore_layer(&conv3()).is_err());
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
        let fp = d.fingerprint();
        assert!(fp.contains("obj=edp"));
        assert!(fp.contains("adaptive-reuse"));
        let reduced = DseConfig {
            schemes: vec![ReuseScheme::OfmsReuse],
            ..DseConfig::default()
        };
        assert_ne!(fp, reduced.fingerprint());
    }

    #[test]
    fn objective_labels_round_trip() {
        for o in Objective::ALL {
            assert_eq!(Objective::from_label(o.label()), Some(o));
        }
        assert_eq!(Objective::from_label("bogus"), None);
    }

    /// The pre-pipeline sweep, re-derived from the public single-point
    /// evaluator: the reference the hoisted/memoized hot loop must match
    /// bit for bit.
    fn naive_explore(e: &DseEngine, layer: &Layer) -> LayerDseResult {
        let acc = *e.model().traffic_model().accelerator();
        let tilings = enumerate_tilings(layer, &acc).unwrap();
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
                        points.push(crate::pareto::DesignPoint::new(
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
            pareto: crate::pareto::pareto_front(&points),
        }
    }

    fn assert_results_bit_identical(a: &LayerDseResult, b: &LayerDseResult) {
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
    fn merged_range_partials_match_sequential_bit_exactly() {
        let e = engine(DseConfig {
            keep_points: true,
            ..DseConfig::default()
        });
        let layer = conv3();
        let whole = e.explore_layer(&layer).unwrap();
        let n = e.tiling_count(&layer).unwrap();
        assert!(n > 3, "need a non-trivial enumeration, got {n}");
        for cuts in [vec![n / 2], vec![1, n - 1], vec![n / 3, 2 * n / 3], vec![]] {
            let mut bounds = vec![0usize];
            bounds.extend(cuts);
            bounds.push(n);
            let mut merged: Option<LayerPartial> = None;
            for pair in bounds.windows(2) {
                let partial = e.explore_layer_range(&layer, pair[0]..pair[1]).unwrap();
                merged = Some(match merged {
                    None => partial,
                    Some(mut m) => {
                        m.merge(partial);
                        m
                    }
                });
            }
            let merged = merged.unwrap().into_result(layer.name.clone());
            assert_results_bit_identical(&merged, &whole);
        }
    }

    #[test]
    fn ranges_clamp_and_empty_partials_merge() {
        let e = engine(DseConfig::default());
        let layer = conv3();
        let n = e.tiling_count(&layer).unwrap();
        let empty = e.explore_layer_range(&layer, n..n + 10).unwrap();
        assert_eq!(empty.evaluations(), 0);
        assert!(empty.best().is_none());
        let mut all = e.explore_layer_range(&layer, 0..n).unwrap();
        let best_before = all.best().cloned().unwrap();
        all.merge(empty);
        assert_eq!(all.best().unwrap(), &best_before);
        let mut from_empty = e.explore_layer_range(&layer, n..n).unwrap();
        from_empty.merge(e.explore_layer_range(&layer, 0..n).unwrap());
        assert_eq!(from_empty.best().unwrap().estimate, best_before.estimate);
        // An inverted range clamps to empty rather than panicking.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = e.explore_layer_range(&layer, 5..2).unwrap();
        assert_eq!(inverted.evaluations(), 0);
    }

    #[test]
    fn tiling_count_matches_enumeration_len() {
        let e = engine(DseConfig::default());
        let layer = conv3();
        let acc = *e.model().traffic_model().accelerator();
        assert_eq!(
            e.tiling_count(&layer).unwrap(),
            enumerate_tilings(&layer, &acc).unwrap().len()
        );
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
