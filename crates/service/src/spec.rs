//! Typed job requests and results.
//!
//! A [`JobSpec`] names a workload (a zoo network, an inline layer list, a
//! `drmap-cnn` text spec, or a single layer) and the engine to explore it
//! on (DRAM architecture × optimization objective). A [`JobResult`]
//! carries the per-layer minimum-objective configurations plus the
//! accumulated totals — bit-identical to what a direct
//! [`DseEngine::explore_network`](drmap_core::dse::DseEngine::explore_network)
//! call returns, whether the layers were computed or served from cache.
//!
//! Their JSON form is declared with every other wire shape, as field
//! tables in [`crate::proto`]; the spec form without `"type"` doubles as
//! `drmap-batch`'s NDJSON job-file line, read by [`JobSpec::from_json`].

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_core::dse::Objective;
use drmap_core::edp::EdpEstimate;
use drmap_core::pareto::DesignPoint;
use drmap_core::tiling::Tiling;
use drmap_dram::timing::DramArch;

use crate::error::ServiceError;
use crate::json::Json;
use crate::proto::Wire;

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
    /// Every mode.
    pub const ALL: [CacheMode; 3] = [CacheMode::Default, CacheMode::Bypass, CacheMode::Refresh];

    /// Stable wire label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            CacheMode::Default => "default",
            CacheMode::Bypass => "bypass",
            CacheMode::Refresh => "refresh",
        }
    }
}

/// Per-job execution options, carried in a job request's `options`
/// object. Everything defaults to the pre-options behavior, and the
/// wire representation omits default fields — a job with default
/// options serializes byte-identically to a pre-options job. A field
/// that is *present* must be well-formed: a malformed cache mode must
/// not silently run with the default and pollute the cache.
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

/// Which profiled engine a job runs on. Both fields default (SALP-2,
/// EDP) when absent from the wire, but a field that is *present* must
/// be a known label — silently substituting a default for a malformed
/// field would return results for the wrong engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSpec {
    /// DRAM architecture to profile against.
    pub arch: DramArch,
    /// Optimization objective (Algorithm 1 minimizes this).
    pub objective: Objective,
}

impl EngineSpec {
    /// An engine spec for the given architecture, EDP objective.
    pub fn for_arch(arch: DramArch) -> Self {
        EngineSpec {
            arch,
            ..EngineSpec::default()
        }
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

    /// Parse one job: a `submit` message's members, or a job-file line.
    /// An absent `id` reads as 0, but a present one must be an integer:
    /// it is the client's request/response correlation key.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for missing, mistyped or
    /// unknown fields.
    pub fn from_json(v: &Json) -> Result<Self, ServiceError> {
        <Self as Wire>::from_json(v).map_err(ServiceError::protocol)
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Label, Request, Response};

    /// A job line, read through the one spec entry point.
    fn job(line: &str) -> Result<JobSpec, ServiceError> {
        JobSpec::from_json(&Json::parse(line).unwrap())
    }

    /// `spec` as it travels in a `submit` message.
    fn wire(spec: &JobSpec) -> Json {
        Request::Submit(spec.clone()).to_json()
    }

    /// `spec` written as a `submit` message and read back as a job.
    fn reparse(spec: &JobSpec) -> JobSpec {
        JobSpec::from_json(&wire(spec)).unwrap()
    }

    #[test]
    fn engine_spec_round_trips_every_arch_and_objective() {
        for arch in DramArch::ALL {
            for objective in Objective::ALL {
                let spec = EngineSpec { arch, objective };
                let job = JobSpec::network(1, spec, Network::tiny());
                assert_eq!(reparse(&job).engine, spec);
            }
        }
    }

    #[test]
    fn engine_spec_defaults_and_rejects_unknowns() {
        let spec = job(r#"{"engine": {}, "network": {"model": "tiny"}}"#).unwrap();
        assert_eq!(spec.engine, EngineSpec::default());
        let bad = r#"{"engine": {"arch": "HBM3"}, "network": {"model": "tiny"}}"#;
        assert!(job(bad).is_err());
        let bad = r#"{"engine": {"objective": "speed"}, "network": {"model": "tiny"}}"#;
        assert!(job(bad).is_err());
    }

    #[test]
    fn present_but_mistyped_fields_are_errors_not_defaults() {
        // A numeric arch must not silently fall back to SALP-2.
        let bad = r#"{"engine": {"arch": 5}, "network": {"model": "tiny"}}"#;
        assert!(job(bad).is_err());
        let bad = r#"{"engine": {"objective": true}, "network": {"model": "tiny"}}"#;
        assert!(job(bad).is_err());
        // A string id must not silently become 0 (it is the client's
        // request/response correlation key).
        let err = job(r#"{"id": "42", "network": {"model": "tiny"}}"#).unwrap_err();
        assert!(err.to_string().contains("id"), "{err}");
        // An absent id still defaults to 0.
        assert_eq!(job(r#"{"network": {"model": "tiny"}}"#).unwrap().id, 0);
    }

    #[test]
    fn job_spec_round_trips_zoo_and_custom_networks() {
        let zoo = JobSpec::network(3, EngineSpec::default(), Network::alexnet());
        let rendered = wire(&zoo).render();
        assert!(rendered.contains("\"model\":\"alexnet\""), "{rendered}");
        assert_eq!(reparse(&zoo), zoo);

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
        assert_eq!(reparse(&custom), custom);
    }

    #[test]
    fn job_spec_accepts_text_specs_and_single_layers() {
        let job =
            job(r#"{"id": 9, "network": {"spec": "network t\nconv C 8 8 16 3 3 3 1\n"}}"#).unwrap();
        assert_eq!(job.workload.name(), "t");
        assert_eq!(job.workload.layers().len(), 1);

        let layer = JobSpec::layer(
            1,
            EngineSpec::default(),
            Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1),
        );
        assert_eq!(reparse(&layer), layer);
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
            assert!(job(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn job_options_round_trip_and_default_is_invisible_on_the_wire() {
        // Default options must not appear in the rendered job at all —
        // the byte-compatibility contract with pre-options clients.
        let plain = JobSpec::network(3, EngineSpec::default(), Network::tiny());
        assert!(!wire(&plain).render().contains("options"));
        assert_eq!(reparse(&plain), plain);

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
            let reparsed = reparse(&spec);
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
            assert!(job(bad).is_err(), "accepted {bad}");
        }
        // A retired option that selected a different answer is refused
        // by name, however well-formed...
        let sliced = r#"{"network": {"model": "tiny"}, "options": {"tiling_range": [0, 64]}}"#;
        let refused = job(sliced).unwrap_err();
        assert!(refused
            .to_string()
            .contains("\"tiling_range\" option was removed"));
        // ...while a retired hint an older client may still send is
        // ignored and the job still runs.
        let retired = r#"{"network": {"model": "tiny"}, "options": {"shard_chunk": 16}}"#;
        assert_eq!(job(retired).unwrap().options, JobOptions::default());
        for mode in CacheMode::ALL {
            assert_eq!(CacheMode::parse_label(mode.label()), Ok(mode));
        }
        assert!(CacheMode::parse_label("write-around").is_err());
    }

    /// The request rules the field tables keep from the hand-written
    /// decoder they replaced, and (last) where they are stricter.
    #[test]
    fn the_tables_keep_the_lenient_request_rules() {
        let fc = || Layer::fully_connected("F", 1024, 10);
        let net = |engine, network| Ok(JobSpec::network(0, engine, network));
        let tiny = || net(EngineSpec::default(), Network::tiny());
        let custom = |name| {
            net(
                EngineSpec::default(),
                Network::new(name, vec![fc()]).unwrap(),
            )
        };
        let layer = |layer| Ok(JobSpec::layer(0, EngineSpec::default(), layer));
        // (job line, the job it reads as, or a piece of its error)
        #[rustfmt::skip]
        let cases: Vec<(&str, Result<JobSpec, &str>)> = vec![
            // Labels: `arch` in any case, `objective` lower-cased, zoo names in any case.
            (r#"{"engine": {"arch": "salp-2", "objective": "EDP"}, "network": {"model": "tiny"}}"#, tiny()),
            (r#"{"engine": {"arch": "ddr3"}, "network": {"model": "TINY"}}"#, net(EngineSpec::for_arch(DramArch::Ddr3), Network::tiny())),
            // An fc layer reads only `i` and `j`; a conv layer (the default
            // kind) defaults `stride` and `groups` to 1, but not to `null`.
            (r#"{"layer": {"name": "F", "kind": "fc", "i": 1024, "j": 10}}"#, layer(fc())),
            (r#"{"layer": {"name": "C", "h": 8, "w": 8, "j": 16, "i": 8, "p": 3, "q": 3}}"#, layer(Layer::conv("C", 8, 8, 16, 8, 3, 3, 1))),
            (r#"{"layer": {"name": "C", "h": 8, "w": 8, "j": 16, "i": 8, "p": 3, "q": 3, "stride": null}}"#, Err("\"stride\"")),
            // `model` wins over `spec` and `layers`, `spec` over `layers`,
            // and an unnamed layer list is called "custom".
            (r#"{"network": {"model": "tiny", "spec": "network t\nfc X 1 1\n", "layers": [{"name": "X", "kind": "fc", "i": 1, "j": 1}]}}"#, tiny()),
            (r#"{"network": {"spec": "network t\nfc F 1024 10\n", "layers": [{"name": "X", "kind": "fc", "i": 1, "j": 1}]}}"#, custom("t")),
            (r#"{"network": {"layers": [{"name": "F", "kind": "fc", "i": 1024, "j": 10}]}}"#, custom("custom")),
            (r#"{"network": {"name": null, "layers": [{"name": "F", "kind": "fc", "i": 1024, "j": 10}]}}"#, custom("custom")),
            // A retired hint is ignored; a retired slice is refused.
            (r#"{"network": {"model": "tiny"}, "options": {"shard_chunk": 16}}"#, tiny()),
            (r#"{"network": {"model": "tiny"}, "options": {"tiling_range": [0, 64]}}"#, Err("\"tiling_range\" option was removed")),
            // A present field must decode, `null` included.
            (r#"{"id": null, "network": {"model": "tiny"}}"#, Err("\"id\"")),
            (r#"{"id": "42", "network": {"model": "tiny"}}"#, Err("\"id\"")),
            (r#"{"network": {"model": "tiny"}, "options": {"deadline_ms": null}}"#, Err("\"deadline_ms\"")),
            // Stricter than the hand-written decoder, which read each of
            // these as its default, or (`model`, `spec`) skipped it.
            (r#"{"engine": null, "network": {"model": "tiny"}}"#, Err("\"engine\": expected an object")),
            (r#"{"engine": "DDR3", "network": {"model": "tiny"}}"#, Err("\"engine\": expected an object")),
            (r#"{"network": {"model": "tiny"}, "options": null}"#, Err("\"options\": expected an object")),
            (r#"{"layer": {"name": "F", "kind": 2, "i": 1024, "j": 10}}"#, Err("\"kind\": expected a string")),
            (r#"{"network": {"model": 7, "spec": "network t\nfc F 1024 10\n"}}"#, Err("\"model\": expected a string")),
            (r#"{"network": {"spec": 7, "layers": [{"name": "F", "kind": "fc", "i": 1024, "j": 10}]}}"#, Err("\"spec\": expected a string")),
            (r#"{"network": {"name": 7, "layers": [{"name": "F", "kind": "fc", "i": 1024, "j": 10}]}}"#, Err("\"name\": expected a string")),
        ];
        for (line, expected) in cases {
            match (job(line), expected) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{line}"),
                (Err(err), Err(piece)) => assert!(err.to_string().contains(piece), "{line}: {err}"),
                (got, expected) => panic!("{line}: got {got:?}, expected {expected:?}"),
            }
        }
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
        let rendered = Response::Job {
            result: result.clone(),
        }
        .to_json()
        .render();
        let Ok(Response::Job { result: reparsed }) =
            Response::decode(&Json::parse(&rendered).unwrap())
        else {
            panic!("a job response decodes as one: {rendered}");
        };
        assert_eq!(reparsed, result);
        assert_eq!(
            reparsed.layers[0].estimate.cycles.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(reparsed.cache_hits(), 1);
        assert_eq!(reparsed.store_hits(), 1);
    }
}
