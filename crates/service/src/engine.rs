//! Engine construction and the cached single-layer execution path.
//!
//! Profiling an architecture's access-cost table is the expensive part
//! of engine construction (it runs the cycle-level simulator), so
//! [`EngineFactory`] profiles once per [`DramArch`], and keeps one shared
//! [`DseEngine`] per (architecture, objective, `keep_points`): every job
//! on it reuses the cost rows earlier sweeps built. [`ServiceState`]
//! bundles the factory with the shared layer cache — one
//! `Arc<ServiceState>` is the whole service's shared state, handed to
//! every worker, connection handler, and front-end.

use std::sync::{Arc, Mutex, OnceLock};

use drmap_cnn::accelerator::AcceleratorConfig;
use drmap_cnn::layer::Layer;
use drmap_core::dse::{
    layer_cache_key, DseConfig, DseEngine, LayerDseResult, Objective, SharedEngine,
};
use drmap_core::edp::EdpModel;
use drmap_core::error::DseError;
use drmap_dram::geometry::Geometry;
use drmap_dram::profiler::{AccessCostTable, Profiler};
use drmap_dram::timing::DramArch;
use drmap_store::store::FaultDirective;
use drmap_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, SlowLog, Span, Trace};

use crate::cache::{CacheConfig, CacheMetrics, CacheOutcome, DseCache};
use crate::error::ServiceError;
use crate::faults::{FaultAction, FaultState, FAULTS_COMPILED_IN};
use crate::spec::{CacheMode, EngineSpec, JobResult, JobSpec, LayerOutcome};

/// How many slow requests the [`SlowLog`] ring buffer retains by
/// default (retunable live with the `set-slow-log` admin verb).
const SLOW_LOG_CAPACITY: usize = 32;

/// The profiled substrate every served engine runs on: Table II
/// geometry and accelerator, DDR3-1600K timing, Micron 2Gb x8 energy
/// parameters. Part of every cache fingerprint — and therefore of
/// [`job_route_key`], which must agree with the backends' keys without
/// building an engine.
pub(crate) const SUBSTRATE: &str = "salp_2gb_x8/ddr3_1600k/micron_2gb_x8/table_ii";

/// Builds [`DseEngine`]s on demand: one per (architecture, objective,
/// `keep_points`), shared by every caller.
#[derive(Debug)]
pub struct EngineFactory {
    geometry: Geometry,
    acc: AcceleratorConfig,
    profiler: Profiler,
    /// Each architecture's [`EngineFactory::engine_tag`], in
    /// [`DramArch::ALL`] order.
    tags: [String; DramArch::ALL.len()],
    /// Each architecture's profiled cost table, in [`DramArch::ALL`]
    /// order, profiled on first use.
    tables: [OnceLock<AccessCostTable>; DramArch::ALL.len()],
    /// The engines, by architecture, objective (in [`Objective::ALL`]
    /// order) and `keep_points`, built on first use.
    engines: [[[OnceLock<SharedEngine>; 2]; Objective::ALL.len()]; DramArch::ALL.len()],
}

/// Where `arch` is in [`DramArch::ALL`].
fn arch_slot(arch: DramArch) -> usize {
    DramArch::ALL
        .iter()
        .position(|&a| a == arch)
        .expect("every architecture is in DramArch::ALL")
}

impl EngineFactory {
    /// The paper's substrate: Table II geometry and accelerator, DDR3-1600K
    /// timing, Micron 2Gb x8 energy parameters.
    ///
    /// # Errors
    ///
    /// Propagates profiler configuration errors (none for the built-in
    /// configuration).
    pub fn table_ii() -> Result<Self, ServiceError> {
        Ok(EngineFactory {
            geometry: Geometry::salp_2gb_x8(),
            acc: AcceleratorConfig::table_ii(),
            profiler: Profiler::table_ii()?,
            tags: DramArch::ALL.map(|arch| format!("{}@{SUBSTRATE}", arch.label())),
            tables: Default::default(),
            engines: Default::default(),
        })
    }

    /// The accelerator configuration every engine uses.
    pub fn accelerator(&self) -> &AcceleratorConfig {
        &self.acc
    }

    /// Cache-key tag identifying the profiled substrate for `spec`:
    /// everything that determines an engine's model besides the sweep
    /// configuration (which [`layer_cache_key`] covers separately).
    pub fn engine_tag(&self, spec: &EngineSpec) -> String {
        self.tag(spec.arch).to_owned()
    }

    /// [`EngineFactory::engine_tag`], borrowed.
    pub(crate) fn tag(&self, arch: DramArch) -> &str {
        &self.tags[arch_slot(arch)]
    }

    /// The engine for `spec`: a clone of the one the factory keeps for
    /// it, sharing its cost rows.
    pub fn engine(&self, spec: &EngineSpec) -> DseEngine {
        self.engine_with(spec, false)
    }

    /// [`EngineFactory::engine`] with the sweep's Pareto-point
    /// retention selected per job
    /// ([`JobOptions::keep_points`](crate::spec::JobOptions::keep_points)).
    /// The setting is part of the sweep
    /// fingerprint, so point-keeping and point-free results never share
    /// a cache entry.
    pub(crate) fn engine_with(&self, spec: &EngineSpec, keep_points: bool) -> DseEngine {
        DseEngine::clone(&self.shared(spec, keep_points))
    }

    /// The one engine for `spec` and `keep_points`, built on first use
    /// (profiling the architecture on its first); racing callers wait for
    /// it and all get the same engine.
    pub(crate) fn shared(&self, spec: &EngineSpec, keep_points: bool) -> SharedEngine {
        let arch = arch_slot(spec.arch);
        let objective = Objective::ALL
            .iter()
            .position(|&o| o == spec.objective)
            .expect("every objective is in Objective::ALL");
        let engine = self.engines[arch][objective][usize::from(keep_points)].get_or_init(|| {
            let table = self.tables[arch].get_or_init(|| self.profiler.cost_table(spec.arch));
            let config = DseConfig {
                objective: spec.objective,
                keep_points,
                ..DseConfig::default()
            };
            let model = EdpModel::new(self.geometry, table.clone(), self.acc);
            DseEngine::new(model, config).into_shared()
        });
        Arc::clone(engine)
    }
}

/// Pre-resolved handles for every request-path stage metric, looked up
/// once at [`ServiceState`] construction so hot paths never touch the
/// registry's name maps. The span taxonomy is documented in
/// `docs/OBSERVABILITY.md`.
#[derive(Debug)]
pub(crate) struct StageMetrics {
    /// End-to-end latency of one submitted job (dispatch → response
    /// queued).
    pub(crate) request_ns: Arc<Histogram>,
    /// Wire frame read + parse + request decode.
    pub(crate) frame_decode_ns: Arc<Histogram>,
    /// Response serialization + wire frame write.
    pub(crate) frame_encode_ns: Arc<Histogram>,
    /// Full cached layer lookup (contains `explore_ns` on a miss).
    pub(crate) cache_lookup_ns: Arc<Histogram>,
    /// The DSE sweep itself (cache misses only).
    pub(crate) explore_ns: Arc<Histogram>,
    /// Jobs submitted through the pool.
    pub(crate) jobs_total: Arc<Counter>,
    /// Per-layer tasks processed by workers.
    pub(crate) layers_total: Arc<Counter>,
    /// Layer lookups answered from the resident cache tier.
    pub(crate) cache_hits_total: Arc<Counter>,
    /// Layer lookups that fell through the resident tier (computed
    /// here, coalesced onto another caller, or served by the store).
    pub(crate) cache_misses_total: Arc<Counter>,
    /// Design points covered by finished layer sweeps (a layer's whole
    /// count is added at once).
    pub(crate) dse_evaluations_total: Arc<Counter>,
    /// The part of `dse_evaluations_total` the sweeps' exact bound
    /// skipped instead of scoring.
    pub(crate) dse_pruned_total: Arc<Counter>,
    /// Store operations failed or delayed by an armed fault plan.
    pub(crate) fault_store_total: Arc<Counter>,
    /// Response frames dropped or stalled by an armed fault plan.
    pub(crate) fault_wire_total: Arc<Counter>,
    /// Worker panics injected by an armed fault plan.
    pub(crate) fault_pool_total: Arc<Counter>,
    /// Jobs accepted but not yet answered — what the graceful drain
    /// waits on.
    pub(crate) jobs_inflight: Arc<Gauge>,
}

impl StageMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        StageMetrics {
            request_ns: registry.histogram("request_ns"),
            frame_decode_ns: registry.histogram("frame_decode_ns"),
            frame_encode_ns: registry.histogram("frame_encode_ns"),
            cache_lookup_ns: registry.histogram("cache_lookup_ns"),
            explore_ns: registry.histogram("explore_ns"),
            jobs_total: registry.counter("jobs_total"),
            layers_total: registry.counter("layers_total"),
            cache_hits_total: registry.counter("cache_hits_total"),
            cache_misses_total: registry.counter("cache_misses_total"),
            dse_evaluations_total: registry.counter("dse_evaluations_total"),
            dse_pruned_total: registry.counter("dse_pruned_total"),
            fault_store_total: registry.counter("fault_store_total"),
            fault_wire_total: registry.counter("fault_wire_total"),
            fault_pool_total: registry.counter("fault_pool_total"),
            jobs_inflight: registry.gauge("jobs_inflight"),
        }
    }
}

/// The service's shared state: engine factory, layer memo cache, and
/// the telemetry plane (metrics registry and slow-request log).
#[derive(Debug)]
pub struct ServiceState {
    factory: EngineFactory,
    cache: DseCache,
    metrics: Arc<MetricsRegistry>,
    stages: StageMetrics,
    slow_log: SlowLog,
    /// Armed fault plan (if any) shared by every injection site.
    faults: Arc<FaultState>,
    /// Dead-bytes ratio above which the background tick compacts the
    /// attached store (armed by the `store-compact` verb's
    /// `auto_ratio` extension). `None` disables the background check.
    auto_compact_ratio: Mutex<Option<f64>>,
    /// Store compactions triggered by the background ratio check (as
    /// opposed to explicit `store-compact` requests).
    wal_autocompact_total: Arc<Counter>,
}

impl ServiceState {
    /// Shared state over the paper's Table II substrate with an
    /// unbounded cache.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineFactory::table_ii`] failures.
    pub fn new() -> Result<Arc<Self>, ServiceError> {
        Self::with_cache_config(CacheConfig::unbounded())
    }

    /// Shared state over the paper's Table II substrate with the given
    /// cache capacity bounds.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineFactory::table_ii`] failures.
    pub fn with_cache_config(config: CacheConfig) -> Result<Arc<Self>, ServiceError> {
        Self::with_cache_and_store(config, None)
    }

    /// Shared state whose cache is optionally backed by a persistent
    /// result store: resident misses consult the store before
    /// computing, completed explorations write through, and
    /// [`DseCache::warm_from_store`] can pre-populate the resident tier.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineFactory::table_ii`] failures.
    pub fn with_cache_and_store(
        config: CacheConfig,
        store: Option<Arc<drmap_store::store::Store>>,
    ) -> Result<Arc<Self>, ServiceError> {
        let metrics = Arc::new(MetricsRegistry::new());
        let stages = StageMetrics::resolve(&metrics);
        let faults = Arc::new(FaultState::default());
        if let Some(store) = &store {
            store.attach_metrics(
                metrics.histogram("wal_read_ns"),
                metrics.histogram("wal_write_ns"),
                metrics.histogram("wal_compact_ns"),
            );
            // Builds that can never arm a plan skip the hook entirely,
            // so release store paths stay exactly as before.
            if FAULTS_COMPILED_IN {
                let hook_faults = Arc::clone(&faults);
                let injected = Arc::clone(&stages.fault_store_total);
                store.attach_fault_hook(Box::new(move |_op| {
                    let action = hook_faults.store_action()?;
                    injected.inc();
                    Some(match action {
                        FaultAction::Fail => FaultDirective::Fail,
                        FaultAction::Delay(jitter) => FaultDirective::Delay(jitter),
                    })
                }));
            }
        }
        let cache = match store {
            Some(store) => DseCache::with_store(config, store),
            None => DseCache::with_config(config),
        };
        cache.attach_metrics(CacheMetrics {
            store_read_ns: metrics.histogram("store_read_ns"),
            store_write_ns: metrics.histogram("store_write_ns"),
            singleflight_wait_ns: metrics.histogram("singleflight_wait_ns"),
        });
        let wal_autocompact_total = metrics.counter("wal_autocompact_total");
        Ok(Arc::new(ServiceState {
            factory: EngineFactory::table_ii()?,
            cache,
            metrics,
            stages,
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
            faults,
            auto_compact_ratio: Mutex::new(None),
            wal_autocompact_total,
        }))
    }

    /// The current auto-compaction threshold: the dead-bytes ratio
    /// (`dead_bytes / file_bytes`) above which
    /// [`ServiceState::maybe_auto_compact`] compacts the store. `None`
    /// means the background check is disabled.
    pub fn auto_compact_ratio(&self) -> Option<f64> {
        *crate::sync::lock_recovered(&self.auto_compact_ratio)
    }

    /// Arm (`Some`) or disarm (`None`) the background auto-compaction
    /// check; returns the previous threshold.
    pub fn set_auto_compact_ratio(&self, ratio: Option<f64>) -> Option<f64> {
        std::mem::replace(
            &mut *crate::sync::lock_recovered(&self.auto_compact_ratio),
            ratio,
        )
    }

    /// One background auto-compaction check (the server's background
    /// tick runs this every
    /// [`sample_interval`](crate::server::ServerConfig::sample_interval)):
    /// when a threshold is armed, a store is attached, and the store's
    /// dead-bytes ratio has reached the threshold, compact and count it
    /// in `wal_autocompact_total`.
    /// Returns whether a compaction ran. A compaction failure is
    /// swallowed — the check is opportunistic hygiene and the explicit
    /// `store-compact` verb still reports errors to the caller.
    pub fn maybe_auto_compact(&self) -> bool {
        let Some(ratio) = self.auto_compact_ratio() else {
            return false;
        };
        let Some(store) = self.cache.store() else {
            return false;
        };
        let stats = store.stats();
        if stats.file_bytes == 0 || (stats.dead_bytes as f64) < ratio * stats.file_bytes as f64 {
            return false;
        }
        if store.compact().is_ok() {
            self.wal_autocompact_total.inc();
            return true;
        }
        false
    }

    /// The metrics registry every layer of the stack records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The slow-request ring buffer (disabled until a threshold is
    /// set, e.g. by `drmap-serve --slow-ms`).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// The live fault-injection state (armed by the `set-faults` admin
    /// verb; empty by default).
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// The pre-resolved request-path stage handles.
    pub(crate) fn stages(&self) -> &StageMetrics {
        &self.stages
    }

    /// The engine factory.
    pub fn factory(&self) -> &EngineFactory {
        &self.factory
    }

    /// The shared layer cache.
    pub fn cache(&self) -> &DseCache {
        &self.cache
    }

    /// Explore one layer through the cache: returns the result plus how
    /// the lookup was satisfied (resident hit, coalesced onto another
    /// caller's in-flight computation, or computed here). Concurrent
    /// lookups of the same key perform exactly one computation. Cached
    /// and coalesced results are re-labelled with the requesting layer's
    /// name (keys ignore names).
    ///
    /// # Errors
    ///
    /// Propagates [`DseEngine::explore_layer`] failures (shared by every
    /// caller coalesced onto the failing computation). Failures are not
    /// cached.
    pub fn explore_layer_cached(
        &self,
        engine: &DseEngine,
        tag: &str,
        layer: &Layer,
    ) -> Result<(LayerDseResult, CacheOutcome), DseError> {
        let key = engine.layer_key(tag, layer);
        self.explore_keyed(&key, engine, layer, CacheMode::Default, None)
    }

    /// The full cached lookup of one layer under its precomputed
    /// [`DseEngine::layer_key`] — what [`ServiceState::run_job`] runs for every
    /// layer and a pool worker for each layer the submit-time
    /// [`ServiceState::lookup_resident`] did not answer. `key` must be
    /// `engine.layer_key(tag, layer)`; the sweep
    /// runs only when `mode` says the lookup falls through to
    /// computation (for [`CacheMode::Default`], when both cache tiers
    /// miss and no equivalent computation is in flight; always for
    /// [`CacheMode::Bypass`]/[`CacheMode::Refresh`]). The whole
    /// lookup is timed as a `cache_lookup` span and the computation
    /// (when the lookup falls through) as a nested `explore` stage, read
    /// off the cache's own timing of it; both are
    /// recorded in the stage histograms and — when a per-request
    /// [`Trace`] is attached — in that request's stage breakdown.
    /// Every sweep the service runs is this one, so
    /// `dse_evaluations_total` and `dse_pruned_total` (what it covered,
    /// what it skipped) cover exactly the layers that were computed.
    /// Instrumentation never touches the result, so bit-identity across
    /// paths is preserved.
    ///
    /// # Errors
    ///
    /// Propagates sweep failures (shared by every caller coalesced onto
    /// the failing computation); failures are not cached.
    pub(crate) fn explore_keyed(
        &self,
        key: &str,
        engine: &DseEngine,
        layer: &Layer,
        mode: CacheMode,
        trace: Option<&Arc<Trace>>,
    ) -> Result<(LayerDseResult, CacheOutcome), DseError> {
        let _lookup = Span::enter("cache_lookup", &self.stages.cache_lookup_ns).traced(trace);
        self.stages.layers_total.inc();
        let (looked_up, explore_ns) = self.cache.get_or_compute_with(key, mode, || {
            let (result, pruned) = engine.explore_layer_counted(layer)?;
            self.stages
                .dse_evaluations_total
                .add(result.evaluations as u64);
            self.stages.dse_pruned_total.add(pruned as u64);
            Ok(result)
        });
        // The cache already times the sweep; its clock reads serve the
        // `explore` stage too.
        if let Some(ns) = explore_ns {
            self.stages.explore_ns.record(ns);
            if let Some(trace) = trace {
                trace.add("explore", ns);
            }
        }
        let (mut result, outcome) = looked_up?;
        // Resident-tier semantics: only `Hit` was answered from memory
        // already resident; coalesced waits, store reads, and fresh
        // computations all count against the resident hit ratio.
        if outcome == CacheOutcome::Hit {
            self.stages.cache_hits_total.inc();
        } else {
            self.stages.cache_misses_total.inc();
        }
        if result.layer_name != layer.name {
            result.layer_name.clone_from(&layer.name);
        }
        Ok((result, outcome))
    }

    /// The resident-tier fast path the pool runs on the submitting
    /// thread: answer `layer` from memory if its entry is resident,
    /// accounted exactly as [`ServiceState::explore_keyed`] accounts a
    /// hit (one `layers_total`, one `cache_hits_total`, one
    /// `cache_lookup` span, an LRU touch). A layer that is not resident
    /// returns `None` and leaves **no trace at all** — it is counted
    /// once, by the worker that later serves it.
    pub(crate) fn lookup_resident(
        &self,
        key: &str,
        layer: &Layer,
        trace: Option<&Arc<Trace>>,
    ) -> Option<LayerDseResult> {
        let start = std::time::Instant::now();
        let mut result = self.cache.get_resident(key)?;
        if result.layer_name != layer.name {
            result.layer_name.clone_from(&layer.name);
        }
        self.stages.layers_total.inc();
        self.stages.cache_hits_total.inc();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stages.cache_lookup_ns.record(ns);
        if let Some(trace) = trace {
            trace.add("cache_lookup", ns);
        }
        Some(result)
    }

    /// Run a whole job sequentially on the calling thread (the reference
    /// path; the worker pool produces bit-identical results in parallel).
    ///
    /// # Errors
    ///
    /// Propagates the first per-layer failure.
    pub fn run_job(&self, spec: &JobSpec) -> Result<JobResult, ServiceError> {
        let engine = self.factory.shared(&spec.engine, spec.options.keep_points);
        let tag = self.factory.tag(spec.engine.arch);
        let mut outcomes = Vec::with_capacity(spec.workload.layers().len());
        let mut total = drmap_core::edp::EdpEstimate::zero(engine.model().table().t_ck_ns);
        for layer in spec.workload.layers() {
            let key = engine.layer_key(tag, layer);
            let (result, outcome) =
                self.explore_keyed(&key, &engine, layer, spec.options.cache, None)?;
            total.accumulate(&result.best.estimate);
            outcomes.push(outcome_from_result(result, outcome));
        }
        Ok(JobResult {
            id: spec.id,
            workload: spec.workload.name().to_owned(),
            total,
            layers: outcomes,
        })
    }
}

/// The routing fingerprint for a job: the concatenated cache keys of
/// its layers over the served substrate, computed without profiling an
/// engine (the router never builds one). Two jobs share a fingerprint
/// exactly when they share every layer cache entry, so rendezvous
/// hashing on it keeps each backend's memo cache and WAL store hot for
/// a stable key slice.
pub fn job_route_key(spec: &JobSpec) -> String {
    let acc = AcceleratorConfig::table_ii();
    let config = DseConfig {
        objective: spec.engine.objective,
        keep_points: spec.options.keep_points,
        ..DseConfig::default()
    };
    let tag = format!("{}@{}", spec.engine.arch.label(), SUBSTRATE);
    let mut key = String::new();
    for layer in spec.workload.layers() {
        key.push_str(&layer_cache_key(&tag, layer, &acc, &config));
        key.push('\n');
    }
    key
}

/// Convert a core-layer result into the service's wire outcome.
pub(crate) fn outcome_from_result(result: LayerDseResult, outcome: CacheOutcome) -> LayerOutcome {
    LayerOutcome {
        name: result.layer_name,
        mapping: result.best.mapping.name(),
        scheme: result.best.scheme.label().to_owned(),
        tiling: result.best.tiling,
        estimate: result.best.estimate,
        evaluations: result.evaluations as u64,
        cached: outcome == CacheOutcome::Hit,
        coalesced: outcome == CacheOutcome::Coalesced,
        store_hit: outcome == CacheOutcome::StoreHit,
        pareto: result.pareto,
    }
}

/// Number of workers to use when the caller does not specify one.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_cnn::network::Network;

    #[test]
    fn factory_profiles_each_arch_once_and_engines_agree() {
        let state = ServiceState::new().unwrap();
        let spec = EngineSpec::default();
        let e1 = state.factory().engine(&spec);
        let e2 = state.factory().engine(&spec);
        let tiny = Network::tiny();
        let layer = &tiny.layers()[0];
        let r1 = e1.explore_layer(layer).unwrap();
        let r2 = e2.explore_layer(layer).unwrap();
        assert_eq!(r1.best, r2.best);
        assert_eq!(
            r1.best.estimate.energy.to_bits(),
            r2.best.estimate.energy.to_bits()
        );
    }

    #[test]
    fn engine_tags_distinguish_archs() {
        let state = ServiceState::new().unwrap();
        let tags: std::collections::HashSet<String> = DramArch::ALL
            .into_iter()
            .map(|arch| state.factory().engine_tag(&EngineSpec::for_arch(arch)))
            .collect();
        assert_eq!(tags.len(), DramArch::ALL.len());
    }

    #[test]
    fn cached_layer_results_are_bit_identical_and_renamed() {
        let state = ServiceState::new().unwrap();
        let spec = EngineSpec::default();
        let engine = state.factory().engine(&spec);
        let tag = state.factory().engine_tag(&spec);
        let layer = Layer::conv("FIRST", 8, 8, 16, 8, 3, 3, 1);
        let (fresh, outcome) = state.explore_layer_cached(&engine, &tag, &layer).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let renamed = Layer::conv("SECOND", 8, 8, 16, 8, 3, 3, 1);
        let (hit, outcome) = state.explore_layer_cached(&engine, &tag, &renamed).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(hit.layer_name, "SECOND");
        assert_eq!(hit.best, fresh.best);
        assert_eq!(
            hit.best.estimate.energy.to_bits(),
            fresh.best.estimate.energy.to_bits()
        );
        assert_eq!(state.cache().stats().entries, 1);
    }

    #[test]
    fn run_job_matches_direct_explore_network() {
        let state = ServiceState::new().unwrap();
        let spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
        let served = state.run_job(&spec).unwrap();
        let engine = state.factory().engine(&spec.engine);
        let direct = engine.explore_network(&Network::tiny()).unwrap();
        assert_eq!(served.layers.len(), direct.layers.len());
        for (s, d) in served.layers.iter().zip(&direct.layers) {
            assert_eq!(s.name, d.layer_name);
            assert_eq!(s.mapping, d.best.mapping.name());
            assert_eq!(s.tiling, d.best.tiling);
            assert_eq!(
                s.estimate.energy.to_bits(),
                d.best.estimate.energy.to_bits()
            );
            assert_eq!(
                s.estimate.cycles.to_bits(),
                d.best.estimate.cycles.to_bits()
            );
        }
        assert_eq!(served.total.energy.to_bits(), direct.total.energy.to_bits());
        assert_eq!(served.total.cycles.to_bits(), direct.total.cycles.to_bits());
    }

    /// Racing callers on a cold architecture all get the one engine; a
    /// different architecture, objective or `keep_points` gets another.
    #[test]
    fn racing_callers_share_one_engine_per_arch_objective_and_points() {
        let factory = EngineFactory::table_ii().unwrap();
        let spec = EngineSpec::for_arch(DramArch::SalpMasa);
        let start = std::sync::Barrier::new(4);
        let engines: Vec<SharedEngine> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        factory.shared(&spec, false)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(engines.iter().all(|e| Arc::ptr_eq(e, &engines[0])));
        let others = [
            factory.shared(&EngineSpec::for_arch(DramArch::Salp2), false),
            factory.shared(
                &EngineSpec {
                    objective: Objective::Delay,
                    ..spec
                },
                false,
            ),
            factory.shared(&spec, true),
        ];
        for other in &others {
            assert!(!Arc::ptr_eq(other, &engines[0]));
        }
        assert!(others[2].config().keep_points);
        assert_eq!(others[1].config().objective, Objective::Delay);
    }

    /// The served key of every zoo layer on every architecture, objective
    /// and `keep_points` is `layer_cache_key`'s, and their bytes are
    /// pinned: a WAL or cache written before stays addressable.
    #[test]
    fn served_layer_keys_are_byte_identical_to_layer_cache_key() {
        let factory = EngineFactory::table_ii().unwrap();
        let acc = AcceleratorConfig::table_ii();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut keys = 0;
        for arch in DramArch::ALL {
            let tag = format!("{}@{SUBSTRATE}", arch.label());
            for objective in Objective::ALL {
                for keep_points in [false, true] {
                    let spec = EngineSpec { arch, objective };
                    let engine = factory.shared(&spec, keep_points);
                    let config = DseConfig {
                        objective,
                        keep_points,
                        ..DseConfig::default()
                    };
                    for (_, build) in Network::zoo() {
                        for layer in build().layers() {
                            let key = engine.layer_key(factory.tag(arch), layer);
                            assert_eq!(key, layer_cache_key(&tag, layer, &acc, &config));
                            // FNV-1a over every key and a newline.
                            for byte in key.bytes().chain([b'\n']) {
                                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                            }
                            keys += 1;
                        }
                    }
                }
            }
        }
        assert_eq!((keys, hash), (3_520, 0xa2d3_5ea9_3bcf_1f01));
    }
}
