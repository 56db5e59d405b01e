//! Typed job requests and results, with their JSON wire representation.
//!
//! A [`JobSpec`] names a workload (a zoo network, an inline layer list, a
//! `drmap-cnn` text spec, or a single layer) and the engine to explore it
//! on (DRAM architecture × optimization objective). A [`JobResult`]
//! carries the per-layer minimum-objective configurations plus the
//! accumulated totals — bit-identical to what a direct
//! [`DseEngine::explore_network`](drmap_core::dse::DseEngine::explore_network)
//! call returns, whether the layers were computed or served from cache.

use drmap_cnn::layer::{Layer, LayerKind};
use drmap_cnn::network::Network;
use drmap_core::dse::Objective;
use drmap_core::edp::EdpEstimate;
use drmap_core::pareto::DesignPoint;
use drmap_core::tiling::Tiling;
use drmap_dram::timing::DramArch;

use crate::error::ServiceError;
use crate::json::{Json, JsonSink};

/// How a job interacts with the shared layer memo cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Normal lookup: resident tier, then store tier, then compute
    /// (the pre-options behavior).
    #[default]
    Default,
    /// Skip the cache entirely: compute fresh, store nothing. For
    /// measurement jobs that must not disturb (or be served by) the
    /// cache.
    Bypass,
    /// Skip the lookup but keep the write path: compute fresh, then
    /// replace the cached (and persisted) entry. For invalidating a
    /// result an operator no longer trusts.
    Refresh,
}

impl CacheMode {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::Default => "default",
            CacheMode::Bypass => "bypass",
            CacheMode::Refresh => "refresh",
        }
    }

    /// Parse a [`CacheMode::label`] string.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "default" => Some(CacheMode::Default),
            "bypass" => Some(CacheMode::Bypass),
            "refresh" => Some(CacheMode::Refresh),
            _ => None,
        }
    }
}

/// Per-job execution options, carried in a job request's `options`
/// object. Everything defaults to the pre-options behavior, and the
/// wire representation omits default fields — a job with default
/// options serializes byte-identically to a pre-options job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobOptions {
    /// How this job's layers interact with the memo cache.
    pub cache: CacheMode,
    /// Keep the per-layer Pareto front over (energy, latency) and
    /// return it in the result (`pareto` on each layer outcome). Keyed
    /// into the cache separately from point-free sweeps.
    pub keep_points: bool,
    /// Budget for the whole job, measured from the moment the server
    /// accepts it. Layers still queued when the budget lapses are
    /// never computed and the job answers with a typed
    /// `deadline_exceeded` error. `None` (the default) never expires.
    pub deadline_ms: Option<u64>,
}

impl JobOptions {
    /// Write the non-default fields (default options leave the whole
    /// object out, byte-identical to a pre-options job).
    fn members<S: JsonSink>(&self, out: &mut S) {
        if self.cache != CacheMode::Default {
            out.key("cache").str(self.cache.label());
        }
        if self.keep_points {
            out.key("keep_points").bool(true);
        }
        if let Some(deadline) = self.deadline_ms {
            out.key("deadline_ms").num(deadline as f64);
        }
    }

    /// Parse the wire representation. Every field is optional; a field
    /// that is *present* must be well-formed (a malformed cache mode
    /// must not silently run with the default and pollute the cache).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for mistyped fields or
    /// unknown cache-mode labels.
    pub fn from_json(v: &Json) -> Result<Self, ServiceError> {
        let mut options = JobOptions::default();
        if let Some(field) = v.get("cache") {
            let label = field
                .as_str()
                .ok_or_else(|| ServiceError::protocol("\"cache\" must be a string"))?;
            options.cache = CacheMode::from_label(label).ok_or_else(|| {
                ServiceError::protocol(format!(
                    "unknown cache mode {label:?} (expected default/bypass/refresh)"
                ))
            })?;
        }
        if let Some(field) = v.get("keep_points") {
            options.keep_points = field
                .as_bool()
                .ok_or_else(|| ServiceError::protocol("\"keep_points\" must be a boolean"))?;
        }
        if let Some(field) = v.get("deadline_ms") {
            let deadline = field.as_u64().filter(|&n| n > 0).ok_or_else(|| {
                ServiceError::protocol("\"deadline_ms\" must be a positive integer")
            })?;
            options.deadline_ms = Some(deadline);
        }
        // Retired, and unlike an ignorable hint it changed the answer:
        // a slice request must not be served a whole-layer result.
        if v.get("tiling_range").is_some() {
            return Err(ServiceError::protocol(
                "the \"tiling_range\" option was removed: a layer is always swept whole",
            ));
        }
        Ok(options)
    }
}

/// Which profiled engine a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSpec {
    /// DRAM architecture to profile against.
    pub arch: DramArch,
    /// Optimization objective (Algorithm 1 minimizes this).
    pub objective: Objective,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            arch: DramArch::Salp2,
            objective: Objective::Edp,
        }
    }
}

impl EngineSpec {
    /// An engine spec for the given architecture, EDP objective.
    pub fn for_arch(arch: DramArch) -> Self {
        EngineSpec {
            arch,
            ..EngineSpec::default()
        }
    }

    /// Write the wire representation: `{"arch":"SALP-2","objective":"edp"}`.
    pub fn encode<S: JsonSink>(&self, out: &mut S) {
        out.object(|o| {
            o.key("arch").str(self.arch.label());
            o.key("objective").str(self.objective.label());
        });
    }

    /// Parse the wire representation; both fields are optional and
    /// default to SALP-2 / EDP. A field that is *present* must be a
    /// string with a known label — silently substituting a default for
    /// a malformed field would return results for the wrong engine.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for non-string fields or
    /// unknown labels.
    pub fn from_json(v: &Json) -> Result<Self, ServiceError> {
        let mut spec = EngineSpec::default();
        if let Some(field) = v.get("arch") {
            let label = field
                .as_str()
                .ok_or_else(|| ServiceError::protocol("\"arch\" must be a string"))?;
            spec.arch = DramArch::ALL
                .into_iter()
                .find(|a| a.label().eq_ignore_ascii_case(label))
                .ok_or_else(|| {
                    ServiceError::protocol(format!(
                        "unknown arch {label:?} (expected one of DDR3/SALP-1/SALP-2/SALP-MASA)"
                    ))
                })?;
        }
        if let Some(field) = v.get("objective") {
            let label = field
                .as_str()
                .ok_or_else(|| ServiceError::protocol("\"objective\" must be a string"))?;
            spec.objective =
                Objective::from_label(&label.to_ascii_lowercase()).ok_or_else(|| {
                    ServiceError::protocol(format!(
                        "unknown objective {label:?} (expected edp/energy/delay/ed2p)"
                    ))
                })?;
        }
        Ok(spec)
    }
}

/// What a job explores: a whole network or a single layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Explore every layer of a network.
    Network(Network),
    /// Explore one layer.
    Layer(Layer),
}

impl Workload {
    /// Display name (network name or layer name).
    pub fn name(&self) -> &str {
        match self {
            Workload::Network(n) => n.name(),
            Workload::Layer(l) => &l.name,
        }
    }

    /// The layers to explore, in order.
    pub fn layers(&self) -> &[Layer] {
        match self {
            Workload::Network(n) => n.layers(),
            Workload::Layer(l) => std::slice::from_ref(l),
        }
    }
}

fn encode_layer<S: JsonSink>(layer: &Layer, out: &mut S) {
    out.object(|o| {
        o.key("name").str(&layer.name);
        o.key("kind").str(match layer.kind {
            LayerKind::Conv => "conv",
            LayerKind::FullyConnected => "fc",
        });
        for (key, n) in [
            ("h", layer.h),
            ("w", layer.w),
            ("j", layer.j),
            ("i", layer.i),
            ("p", layer.p),
            ("q", layer.q),
            ("stride", layer.stride),
            ("groups", layer.groups),
        ] {
            o.key(key).num(n as f64);
        }
    });
}

fn dim(v: &Json, field: &str, default: Option<usize>) -> Result<usize, ServiceError> {
    match v.get(field) {
        Some(n) => n.as_usize().ok_or_else(|| {
            ServiceError::protocol(format!(
                "layer field {field:?} must be a non-negative integer"
            ))
        }),
        None => default
            .ok_or_else(|| ServiceError::protocol(format!("layer is missing field {field:?}"))),
    }
}

fn layer_from_json(v: &Json) -> Result<Layer, ServiceError> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::protocol("layer is missing \"name\""))?;
    let kind = v.get("kind").and_then(Json::as_str).unwrap_or("conv");
    let layer = match kind {
        "fc" => Layer::fully_connected(name, dim(v, "i", None)?, dim(v, "j", None)?),
        "conv" => {
            let mut layer = Layer::conv(
                name,
                dim(v, "h", None)?,
                dim(v, "w", None)?,
                dim(v, "j", None)?,
                dim(v, "i", None)?,
                dim(v, "p", None)?,
                dim(v, "q", None)?,
                dim(v, "stride", Some(1))?,
            );
            layer.groups = dim(v, "groups", Some(1))?;
            layer
        }
        other => {
            return Err(ServiceError::protocol(format!(
                "unknown layer kind {other:?} (expected conv/fc)"
            )))
        }
    };
    layer.validate()?;
    Ok(layer)
}

fn network_from_json(v: &Json) -> Result<Network, ServiceError> {
    if let Some(model) = v.get("model").and_then(Json::as_str) {
        return Network::by_name(model).ok_or_else(|| {
            let known: Vec<&str> = Network::zoo().into_iter().map(|(n, _)| n).collect();
            ServiceError::protocol(format!(
                "unknown model {model:?} (known: {})",
                known.join(", ")
            ))
        });
    }
    if let Some(text) = v.get("spec").and_then(Json::as_str) {
        return Ok(drmap_cnn::spec::parse_network(text)?);
    }
    if let Some(layers) = v.get("layers").and_then(Json::as_array) {
        let name = v.get("name").and_then(Json::as_str).unwrap_or("custom");
        let layers = layers
            .iter()
            .map(layer_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Network::new(name, layers)?);
    }
    Err(ServiceError::protocol(
        "network needs \"model\", \"spec\", or \"layers\"",
    ))
}

/// One job: a workload plus the engine to run it on.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen id, echoed in the result.
    pub id: u64,
    /// Engine selection.
    pub engine: EngineSpec,
    /// What to explore.
    pub workload: Workload,
    /// Per-job execution options (cache mode, Pareto retention,
    /// deadline); defaults reproduce the pre-options behavior.
    pub options: JobOptions,
}

impl JobSpec {
    /// A network-exploration job with default options.
    pub fn network(id: u64, engine: EngineSpec, network: Network) -> Self {
        JobSpec {
            id,
            engine,
            workload: Workload::Network(network),
            options: JobOptions::default(),
        }
    }

    /// A single-layer job with default options.
    pub fn layer(id: u64, engine: EngineSpec, layer: Layer) -> Self {
        JobSpec {
            id,
            engine,
            workload: Workload::Layer(layer),
            options: JobOptions::default(),
        }
    }

    /// The same job with the given options.
    pub fn with_options(mut self, options: JobOptions) -> Self {
        self.options = options;
        self
    }

    /// Write the wire representation (see crate docs for the schema).
    pub fn encode<S: JsonSink>(&self, out: &mut S) {
        out.object(|o| self.members(o));
    }

    /// Write the members alone (`submit` splices them beside `"type"`).
    pub(crate) fn members<S: JsonSink>(&self, out: &mut S) {
        out.key("id").num(self.id as f64);
        self.engine.encode(out.key("engine"));
        match &self.workload {
            Workload::Network(n) => {
                // Prefer the compact zoo reference when the network is a
                // preset; otherwise ship the full layer list.
                let zoo_name = Network::zoo()
                    .into_iter()
                    .find(|(_, build)| &build() == n)
                    .map(|(name, _)| name);
                out.key("network").object(|o| match zoo_name {
                    Some(name) => o.key("model").str(name),
                    None => {
                        o.key("name").str(n.name());
                        o.key("layers")
                            .array(|a| n.layers().iter().for_each(|l| encode_layer(l, a)));
                    }
                });
            }
            Workload::Layer(l) => encode_layer(l, out.key("layer")),
        }
        if self.options != JobOptions::default() {
            out.key("options").object(|o| self.options.members(o));
        }
    }

    /// Parse the wire representation.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for missing/unknown fields.
    pub fn from_json(v: &Json) -> Result<Self, ServiceError> {
        // A present-but-malformed id must not silently become 0: the id
        // is the client's request/response correlation key.
        let id = match v.get("id") {
            Some(field) => field
                .as_u64()
                .ok_or_else(|| ServiceError::protocol("\"id\" must be a non-negative integer"))?,
            None => 0,
        };
        let engine = match v.get("engine") {
            Some(e) => EngineSpec::from_json(e)?,
            None => EngineSpec::default(),
        };
        let workload = match (v.get("network"), v.get("layer")) {
            (Some(n), None) => Workload::Network(network_from_json(n)?),
            (None, Some(l)) => Workload::Layer(layer_from_json(l)?),
            (Some(_), Some(_)) => {
                return Err(ServiceError::protocol(
                    "job has both \"network\" and \"layer\"",
                ))
            }
            (None, None) => {
                return Err(ServiceError::protocol(
                    "job needs a \"network\" or \"layer\" workload",
                ))
            }
        };
        let options = match v.get("options") {
            Some(o) => JobOptions::from_json(o)?,
            None => JobOptions::default(),
        };
        Ok(JobSpec {
            id,
            engine,
            workload,
            options,
        })
    }
}

fn encode_estimate<S: JsonSink>(e: &EdpEstimate, out: &mut S) {
    out.object(|o| {
        o.key("cycles").num(e.cycles);
        o.key("energy").num(e.energy);
        o.key("t_ck_ns").num(e.t_ck_ns);
        // Derived, for human readers; ignored when parsing.
        o.key("edp").num(e.edp());
    });
}

fn estimate_from_json(v: &Json) -> Result<EdpEstimate, ServiceError> {
    let field = |name: &str| {
        v.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| ServiceError::protocol(format!("estimate is missing {name:?}")))
    };
    Ok(EdpEstimate {
        cycles: field("cycles")?,
        energy: field("energy")?,
        t_ck_ns: field("t_ck_ns")?,
    })
}

/// The winning configuration for one layer of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOutcome {
    /// Layer name, as submitted.
    pub name: String,
    /// Winning mapping policy (Table I name).
    pub mapping: String,
    /// Winning scheduling scheme label.
    pub scheme: String,
    /// Winning tiling.
    pub tiling: Tiling,
    /// The winning configuration's estimate.
    pub estimate: EdpEstimate,
    /// Configurations evaluated by the sweep that produced this result
    /// (a cached result retains the original sweep's count).
    pub evaluations: u64,
    /// True if this layer was served from the memo cache.
    pub cached: bool,
    /// True if this layer was served by coalescing onto another job's
    /// in-flight computation of the same shape (single-flight).
    pub coalesced: bool,
    /// True if this layer was served from the persistent result store
    /// (computed by some earlier process, revived from disk).
    pub store_hit: bool,
    /// Pareto front over (energy, latency), present only when the job
    /// asked for it ([`JobOptions::keep_points`]); empty otherwise and
    /// omitted from the wire when empty, so point-free responses stay
    /// byte-identical to the pre-options protocol.
    pub pareto: Vec<DesignPoint>,
}

impl LayerOutcome {
    fn encode<S: JsonSink>(&self, out: &mut S) {
        out.object(|o| {
            o.key("name").str(&self.name);
            o.key("mapping").str(&self.mapping);
            o.key("scheme").str(&self.scheme);
            let t = &self.tiling;
            o.key("tiling").object(|o| {
                for (key, n) in [("th", t.th), ("tw", t.tw), ("tj", t.tj), ("ti", t.ti)] {
                    o.key(key).num(n as f64);
                }
            });
            encode_estimate(&self.estimate, o.key("estimate"));
            o.key("evaluations").num(self.evaluations as f64);
            o.key("cached").bool(self.cached);
            o.key("coalesced").bool(self.coalesced);
            o.key("store").bool(self.store_hit);
            if !self.pareto.is_empty() {
                o.key("pareto").array(|a| {
                    for p in &self.pareto {
                        a.object(|o| {
                            o.key("label").str(&p.label);
                            encode_estimate(&p.estimate, o.key("estimate"));
                        });
                    }
                });
            }
        });
    }

    fn from_json(v: &Json) -> Result<Self, ServiceError> {
        let text = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ServiceError::protocol(format!("layer outcome missing {name:?}")))
        };
        let t = v
            .get("tiling")
            .ok_or_else(|| ServiceError::protocol("layer outcome missing \"tiling\""))?;
        let step = |name: &str| {
            t.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| ServiceError::protocol(format!("tiling missing {name:?}")))
        };
        Ok(LayerOutcome {
            name: text("name")?,
            mapping: text("mapping")?,
            scheme: text("scheme")?,
            tiling: Tiling::new(step("th")?, step("tw")?, step("tj")?, step("ti")?),
            estimate: estimate_from_json(
                v.get("estimate")
                    .ok_or_else(|| ServiceError::protocol("layer outcome missing \"estimate\""))?,
            )?,
            evaluations: v.get("evaluations").and_then(Json::as_u64).unwrap_or(0),
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            coalesced: v.get("coalesced").and_then(Json::as_bool).unwrap_or(false),
            store_hit: v.get("store").and_then(Json::as_bool).unwrap_or(false),
            pareto: match v.get("pareto").and_then(Json::as_array) {
                Some(points) => points
                    .iter()
                    .map(|p| {
                        let label = p.get("label").and_then(Json::as_str).ok_or_else(|| {
                            ServiceError::protocol("pareto point missing \"label\"")
                        })?;
                        let estimate = estimate_from_json(p.get("estimate").ok_or_else(|| {
                            ServiceError::protocol("pareto point missing \"estimate\"")
                        })?)?;
                        Ok(DesignPoint::new(label, estimate))
                    })
                    .collect::<Result<Vec<_>, ServiceError>>()?,
                None => Vec::new(),
            },
        })
    }
}

/// The result of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Echoed job id.
    pub id: u64,
    /// Workload name.
    pub workload: String,
    /// Sum of the per-layer winning estimates, in layer order.
    pub total: EdpEstimate,
    /// Per-layer winners, in workload order.
    pub layers: Vec<LayerOutcome>,
}

impl JobResult {
    /// Layers served from the memo cache.
    pub fn cache_hits(&self) -> usize {
        self.layers.iter().filter(|l| l.cached).count()
    }

    /// Layers served by coalescing onto an in-flight computation.
    pub fn coalesced_hits(&self) -> usize {
        self.layers.iter().filter(|l| l.coalesced).count()
    }

    /// Layers served from the persistent result store.
    pub fn store_hits(&self) -> usize {
        self.layers.iter().filter(|l| l.store_hit).count()
    }

    /// Write the wire representation.
    pub fn encode<S: JsonSink>(&self, out: &mut S) {
        out.object(|o| {
            o.key("id").num(self.id as f64);
            o.key("workload").str(&self.workload);
            encode_estimate(&self.total, o.key("total"));
            o.key("layers")
                .array(|a| self.layers.iter().for_each(|l| l.encode(a)));
        });
    }

    /// Parse the wire representation.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for missing fields.
    pub fn from_json(v: &Json) -> Result<Self, ServiceError> {
        Ok(JobResult {
            id: v.get("id").and_then(Json::as_u64).unwrap_or(0),
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            total: estimate_from_json(
                v.get("total")
                    .ok_or_else(|| ServiceError::protocol("result missing \"total\""))?,
            )?,
            layers: v
                .get("layers")
                .and_then(Json::as_array)
                .ok_or_else(|| ServiceError::protocol("result missing \"layers\""))?
                .iter()
                .map(LayerOutcome::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonTree;

    #[test]
    fn engine_spec_round_trips_every_arch_and_objective() {
        for arch in DramArch::ALL {
            for objective in Objective::ALL {
                let spec = EngineSpec { arch, objective };
                let parsed = EngineSpec::from_json(&JsonTree::build(|t| spec.encode(t))).unwrap();
                assert_eq!(parsed, spec);
            }
        }
    }

    #[test]
    fn engine_spec_defaults_and_rejects_unknowns() {
        let spec = EngineSpec::from_json(&Json::obj([])).unwrap();
        assert_eq!(spec, EngineSpec::default());
        let bad = Json::obj([("arch", Json::str("HBM3"))]);
        assert!(EngineSpec::from_json(&bad).is_err());
        let bad = Json::obj([("objective", Json::str("speed"))]);
        assert!(EngineSpec::from_json(&bad).is_err());
    }

    #[test]
    fn present_but_mistyped_fields_are_errors_not_defaults() {
        // A numeric arch must not silently fall back to SALP-2.
        let bad = Json::obj([("arch", Json::num_u64(5))]);
        assert!(EngineSpec::from_json(&bad).is_err());
        let bad = Json::obj([("objective", Json::Bool(true))]);
        assert!(EngineSpec::from_json(&bad).is_err());
        // A string id must not silently become 0 (it is the client's
        // request/response correlation key).
        let v = Json::parse(r#"{"id": "42", "network": {"model": "tiny"}}"#).unwrap();
        let err = JobSpec::from_json(&v).unwrap_err();
        assert!(err.to_string().contains("id"), "{err}");
        // An absent id still defaults to 0.
        let v = Json::parse(r#"{"network": {"model": "tiny"}}"#).unwrap();
        assert_eq!(JobSpec::from_json(&v).unwrap().id, 0);
    }

    #[test]
    fn job_spec_round_trips_zoo_and_custom_networks() {
        let zoo = JobSpec::network(3, EngineSpec::default(), Network::alexnet());
        let rendered = JsonTree::build(|t| zoo.encode(t)).render();
        assert!(rendered.contains("\"model\":\"alexnet\""), "{rendered}");
        assert_eq!(
            JobSpec::from_json(&JsonTree::build(|t| zoo.encode(t))).unwrap(),
            zoo
        );

        let custom = JobSpec::network(
            4,
            EngineSpec::for_arch(DramArch::Ddr3),
            Network::new(
                "custom",
                vec![
                    Layer::conv("C1", 8, 8, 16, 3, 3, 3, 1),
                    Layer::conv_grouped("DW", 8, 8, 16, 16, 3, 3, 1, 16),
                    Layer::fully_connected("F", 1024, 10),
                ],
            )
            .unwrap(),
        );
        assert_eq!(
            JobSpec::from_json(&JsonTree::build(|t| custom.encode(t))).unwrap(),
            custom
        );
    }

    #[test]
    fn job_spec_accepts_text_specs_and_single_layers() {
        let v =
            Json::parse(r#"{"id": 9, "network": {"spec": "network t\nconv C 8 8 16 3 3 3 1\n"}}"#)
                .unwrap();
        let job = JobSpec::from_json(&v).unwrap();
        assert_eq!(job.workload.name(), "t");
        assert_eq!(job.workload.layers().len(), 1);

        let layer = JobSpec::layer(
            1,
            EngineSpec::default(),
            Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1),
        );
        assert_eq!(
            JobSpec::from_json(&JsonTree::build(|t| layer.encode(t))).unwrap(),
            layer
        );
    }

    #[test]
    fn job_spec_rejects_malformed_workloads() {
        for bad in [
            r#"{"id": 1}"#,
            r#"{"network": {"model": "no-such"}}"#,
            r#"{"network": {}}"#,
            r#"{"layer": {"name": "x", "kind": "pool"}}"#,
            r#"{"layer": {"kind": "fc", "i": 4, "j": 2}}"#,
            r#"{"layer": {"name": "x", "kind": "fc", "i": 0, "j": 2}}"#,
            r#"{"network": {"model": "tiny"}, "layer": {"name": "x", "kind": "fc", "i": 1, "j": 1}}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn job_options_round_trip_and_default_is_invisible_on_the_wire() {
        // Default options must not appear in the rendered job at all —
        // the byte-compatibility contract with pre-options clients.
        let plain = JobSpec::network(3, EngineSpec::default(), Network::tiny());
        let rendered = JsonTree::build(|t| plain.encode(t));
        assert!(!rendered.render().contains("options"));
        assert_eq!(JobSpec::from_json(&rendered).unwrap(), plain);

        for options in [
            JobOptions {
                cache: CacheMode::Bypass,
                ..JobOptions::default()
            },
            JobOptions {
                cache: CacheMode::Refresh,
                keep_points: true,
                deadline_ms: Some(1500),
            },
            JobOptions {
                keep_points: true,
                ..JobOptions::default()
            },
            JobOptions {
                deadline_ms: Some(250),
                ..JobOptions::default()
            },
        ] {
            let spec =
                JobSpec::network(4, EngineSpec::default(), Network::tiny()).with_options(options);
            let reparsed = JobSpec::from_json(&JsonTree::build(|t| spec.encode(t))).unwrap();
            assert_eq!(reparsed, spec);
            assert_eq!(reparsed.options, options);
        }
    }

    #[test]
    fn malformed_job_options_are_errors_not_defaults() {
        for bad in [
            r#"{"network": {"model": "tiny"}, "options": {"cache": "sometimes"}}"#,
            r#"{"network": {"model": "tiny"}, "options": {"cache": 1}}"#,
            r#"{"network": {"model": "tiny"}, "options": {"keep_points": "yes"}}"#,
            r#"{"network": {"model": "tiny"}, "options": {"deadline_ms": 0}}"#,
            r#"{"network": {"model": "tiny"}, "options": {"deadline_ms": "soon"}}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "accepted {bad}");
        }
        // A retired option that selected a different answer is refused
        // by name, however well-formed...
        let sliced = r#"{"network": {"model": "tiny"}, "options": {"tiling_range": [0, 64]}}"#;
        let refused = JobSpec::from_json(&Json::parse(sliced).unwrap()).unwrap_err();
        assert!(refused
            .to_string()
            .contains("\"tiling_range\" option was removed"));
        // ...while a retired hint an older client may still send is
        // ignored and the job still runs.
        let retired = r#"{"network": {"model": "tiny"}, "options": {"shard_chunk": 16}}"#;
        let spec = JobSpec::from_json(&Json::parse(retired).unwrap()).unwrap();
        assert_eq!(spec.options, JobOptions::default());
        for mode in [CacheMode::Default, CacheMode::Bypass, CacheMode::Refresh] {
            assert_eq!(CacheMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(CacheMode::from_label("write-around"), None);
    }

    #[test]
    fn job_result_round_trips_bit_exactly() {
        let result = JobResult {
            id: 11,
            workload: "TinyNet".into(),
            total: EdpEstimate {
                cycles: 123456.75,
                energy: 1.2345e-7,
                t_ck_ns: 1.25,
            },
            layers: vec![LayerOutcome {
                name: "CONV1".into(),
                mapping: "Mapping-3 (DRMap)".into(),
                scheme: "adaptive-reuse".into(),
                tiling: Tiling::new(13, 13, 16, 16),
                estimate: EdpEstimate {
                    cycles: 0.1 + 0.2,
                    energy: 3.3e-9,
                    t_ck_ns: 1.25,
                },
                evaluations: 4242,
                cached: true,
                coalesced: false,
                store_hit: true,
                pareto: vec![DesignPoint::new(
                    "t13x13x16x16/ofms-reuse/Mapping-3 (DRMap)",
                    EdpEstimate {
                        cycles: 7.5,
                        energy: 1.25e-9,
                        t_ck_ns: 1.25,
                    },
                )],
            }],
        };
        let rendered = JsonTree::build(|t| result.encode(t)).render();
        let reparsed = JobResult::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(reparsed, result);
        assert_eq!(
            reparsed.layers[0].estimate.cycles.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(reparsed.cache_hits(), 1);
        assert_eq!(reparsed.store_hits(), 1);
    }
}
