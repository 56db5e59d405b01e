//! The metric catalogue and the result document.
//!
//! Every metric the benchmark can print is declared here once, with
//! its unit and direction; `BENCHMARK.json` at the repository root
//! lists the same names (a unit test keeps the two in step). A run
//! prints every end-to-end metric (untraced) or every per-layer metric
//! (traced); a per-layer metric of a layer that does no work on the
//! workload reads 0.

use drmap_service::json::Json;

use crate::spans::SpanRec;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// The five workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "dse-sweep",
    "sim-validate",
    "serve-hot",
    "serve-cold",
    "route-mixed",
];

/// Why each workload exists, one line each, in [`WORKLOADS`] order.
pub const WORKLOAD_WHY: [&str; 5] = [
    "in-process zoo sweep on SALP-2: core does all the work and service/store/router none, so pruning and hot-loop work show here only",
    "in-process replay of AlexNet DSE winners through the command-level simulator on four architectures: dram does most of the work",
    "closed loop, all resident hits, no store: json/proto/wire/server/cache-hit/telemetry do all the work and core none",
    "closed loop, cache-refresh whole-network jobs with a WAL: every layer recomputed and both cache tiers rewritten, pool fan-out over core",
    "open loop at 300 jobs/s through the router over two small-cache WAL backends with 5% bypass: every tier works and a queue can form",
];

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 18;

/// End-to-end metrics: `(name, unit, direction, regression bound)`.
/// Every workload reports every one of them.
pub const END_TO_END: [(&str, &str, Better, f64); 2] = [
    ("layers_per_s", "1/s", Higher, 0.25),
    ("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics: `(name, unit, direction)`. The module a name
/// starts with is the layer it measures.
pub const PER_LAYER: [(&str, &str, Better); 68] = [
    // dram
    ("dram.profiler.table_us", "us", Lower),
    ("dram.sim.ns_per_req", "ns", Lower),
    ("dram.sim.row_hit_rate", "ratio", Higher),
    ("dram.sim.cycles_per_req", "cycles", Lower),
    ("sim_mreq_per_s", "1e6/s", Higher),
    // core
    ("core.tiling.count", "count", Lower),
    ("core.tiling.enumerate_us", "us", Lower),
    ("core.dse.evals_per_layer", "count", Lower),
    ("core.dse.ns_per_eval", "ns", Lower),
    ("core.dse.net_ms.alexnet", "ms", Lower),
    ("core.dse.net_ms.alexnet-grouped", "ms", Lower),
    ("core.dse.net_ms.vgg16", "ms", Lower),
    ("core.dse.net_ms.resnet18", "ms", Lower),
    ("core.dse.net_ms.mobilenet", "ms", Lower),
    ("core.dse.net_ms.squeezenet", "ms", Lower),
    ("core.dse.net_ms.tiny", "ms", Lower),
    ("core.dse.pass_ms_p50", "ms", Lower),
    ("core.dse.pass_ms_p90", "ms", Lower),
    ("core.dse.layer_ms_max", "ms", Lower),
    ("core.bytes.encode_us", "us", Lower),
    ("core.bytes.decode_us", "us", Lower),
    ("core.validate.ms_per_case", "ms", Lower),
    ("model_cycle_err", "ratio", Lower),
    ("model_energy_err", "ratio", Lower),
    // service
    ("service.json.parse_req_us", "us", Lower),
    ("service.json.parse_resp_us", "us", Lower),
    ("service.json.render_resp_us", "us", Lower),
    ("service.proto.decode_us", "us", Lower),
    ("service.proto.encode_us", "us", Lower),
    ("service.wire.frame_us", "us", Lower),
    ("service.wire.bytes_per_req", "B", Lower),
    ("service.wire.bytes_per_resp", "B", Lower),
    ("service.cache.key_ns", "ns", Lower),
    ("service.cache.hit_ns", "ns", Lower),
    ("service.cache.evict_insert_ns", "ns", Lower),
    ("service.cache.hit_share", "ratio", Higher),
    ("service.cache.store_hit_share", "ratio", Higher),
    ("service.engine.run_job_hot_us", "us", Lower),
    ("service.pool.hop_us", "us", Lower),
    ("service.pool.shard_speedup", "ratio", Higher),
    ("service.server.handle_us", "us", Lower),
    ("service.server.ping_rtt_us", "us", Lower),
    ("service.server.job_rtt_us", "us", Lower),
    ("service.server.stall_share", "ratio", Lower),
    ("service.server.cpu_ms_per_job", "ms", Lower),
    ("telemetry.record_ns", "ns", Lower),
    ("telemetry.span_ns", "ns", Lower),
    // store
    ("store.put_us", "us", Lower),
    ("store.get_us", "us", Lower),
    ("store.open_ms", "ms", Lower),
    ("store.bulk_load_ms", "ms", Lower),
    ("store.compact_ms", "ms", Lower),
    ("store.bytes_per_record", "B", Lower),
    ("store.wal_mb_after", "MB", Lower),
    // router
    ("router.hash.pick_ns", "ns", Lower),
    ("router.hop_us", "us", Lower),
    ("router.cpu_ms_per_job", "ms", Lower),
    ("router.busiest_share", "ratio", Lower),
    // harness
    ("jobs_per_s", "1/s", Higher),
    ("latency_p50_ms", "ms", Lower),
    ("latency_p99_ms", "ms", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("loadgen.late_p99_ms", "ms", Lower),
    ("loadgen.cpu_share", "ratio", Lower),
    ("host.steal_share", "ratio", Lower),
    ("host.busy_share", "ratio", Lower),
    ("trace.overhead_share", "ratio", Lower),
    ("budget.unexplained_share", "ratio", Lower),
];

/// `BENCHMARK.json`, generated from the catalogue (pretty-printed by
/// hand: one metric per line keeps diffs readable).
pub fn catalogue_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .zip(WORKLOAD_WHY)
        .map(|(name, why)| {
            Json::obj([("name", Json::str(*name)), ("why", Json::str(why))]).render()
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            Json::obj([
                ("name", Json::str(*name)),
                ("unit", Json::str(*unit)),
                ("better", Json::str(better.label())),
                ("bound", Json::Num(*bound)),
            ])
            .render()
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            Json::obj([
                ("name", Json::str(*name)),
                ("unit", Json::str(*unit)),
                ("better", Json::str(better.label())),
            ])
            .render()
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}",
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// Named values gathered during a run. Setting a name that is not in
/// the catalogue is a bug in the harness, caught at once.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Set (or replace) one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        match self.0.iter_mut().find(|(n, _)| *n == known) {
            Some(slot) => slot.1 = value,
            None => self.0.push((known, value)),
        }
    }

    /// A value set earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted during the measured interval.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Why the run is incorrect; empty when every gate passed.
    pub violations: Vec<String>,
    /// Metrics gathered (end-to-end or per-layer, by mode).
    pub values: Values,
    /// Free-form facts worth keeping beside the numbers (sample counts,
    /// the tail the sample supports, stats deltas).
    pub facts: Vec<(&'static str, Json)>,
    /// Spans recorded by a traced run, written to the trace file.
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    /// A run with nothing attempted yet.
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            values: Values::default(),
            facts: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Record a failed correctness gate.
    pub fn violation(&mut self, message: impl Into<String>) {
        self.violations.push(message.into());
    }

    /// True when every gate passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// `(name, unit)` of every metric a run prints: the end-to-end ones,
/// or (traced) the per-layer ones.
pub fn printed_metrics(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    }
}

/// The metrics block of a run: every end-to-end metric, or (traced)
/// every per-layer metric, unset ones reading 0.
pub fn metrics_block(outcome: &Outcome, traced: bool) -> Json {
    Json::Obj(
        printed_metrics(traced)
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.values.get(name).unwrap_or(0.0);
                (
                    name.to_owned(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The one-line summary printed last: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn summary_line(outcome: &Outcome, traced: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::num_u64(outcome.attempted)),
        ("failed", Json::num_u64(outcome.failed)),
        ("metrics", metrics_block(outcome, traced)),
    ])
}

/// Run-level settings recorded in the result document.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: f64,
    /// True for `--smoke` runs, which are refused as baselines.
    pub smoke: bool,
    /// True for the traced (per-layer) run.
    pub traced: bool,
}

/// The full result document written under `out/`.
pub fn result_document(outcome: &Outcome, run: &RunInfo, environment: Json) -> Json {
    Json::obj([
        ("workload", Json::str(outcome.workload)),
        ("seed", Json::num_u64(run.seed)),
        ("seconds", Json::Num(run.seconds)),
        ("smoke", Json::Bool(run.smoke)),
        ("traced", Json::Bool(run.traced)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::num_u64(outcome.attempted)),
        (
            "succeeded",
            Json::num_u64(outcome.attempted.saturating_sub(outcome.failed)),
        ),
        ("failed", Json::num_u64(outcome.failed)),
        (
            "violations",
            Json::Arr(outcome.violations.iter().map(Json::str).collect()),
        ),
        (
            if run.traced { "layers" } else { "metrics" },
            metrics_block(outcome, run.traced),
        ),
        (
            "facts",
            Json::Obj(
                outcome
                    .facts
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            ),
        ),
        ("environment", environment),
    ])
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Schema gate for a result document: counts present and consistent,
/// every metric a finite `value` plus a `unit`, names well-formed, an
/// environment block. A document that fails is never written.
///
/// # Errors
///
/// Names the first missing or malformed field.
pub fn validate_result(doc: &Json) -> Result<(), String> {
    for field in ["attempted", "succeeded", "failed", "seed"] {
        doc.get(field)
            .and_then(Json::as_u64)
            .ok_or(format!("missing count {field:?}"))?;
    }
    let count = |f: &str| doc.get(f).and_then(Json::as_u64).unwrap_or(0);
    if count("succeeded") + count("failed") != count("attempted") {
        return Err("succeeded + failed != attempted".to_owned());
    }
    for field in ["correct", "smoke", "traced"] {
        doc.get(field)
            .and_then(Json::as_bool)
            .ok_or(format!("missing flag {field:?}"))?;
    }
    doc.get("workload")
        .and_then(Json::as_str)
        .filter(|w| WORKLOADS.contains(w))
        .ok_or("missing or unknown \"workload\"")?;
    let block = match (doc.get("metrics"), doc.get("layers")) {
        (Some(Json::Obj(pairs)), None) | (None, Some(Json::Obj(pairs))) => pairs,
        _ => return Err("exactly one of \"metrics\" / \"layers\" must be an object".to_owned()),
    };
    if block.is_empty() {
        return Err("no metrics".to_owned());
    }
    for (name, metric) in block {
        if !valid_name(name) {
            return Err(format!("malformed metric name {name:?}"));
        }
        metric
            .get("value")
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or(format!("metric {name:?} has no finite value"))?;
        metric
            .get("unit")
            .and_then(Json::as_str)
            .filter(|u| !u.is_empty())
            .ok_or(format!("metric {name:?} has no unit"))?;
    }
    match doc.get("environment") {
        Some(Json::Obj(env)) if env.iter().any(|(k, _)| k == "nproc") => Ok(()),
        _ => Err("missing environment block".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(traced: bool) -> Json {
        let mut outcome = Outcome::new("serve-hot");
        outcome.attempted = 10;
        outcome.failed = 1;
        outcome.values.set("layers_per_s", 1234.5);
        outcome.values.set("service.cache.hit_ns", 80.25);
        let run = RunInfo {
            seed: 7,
            seconds: 2.0,
            smoke: true,
            traced,
        };
        let env = crate::host::environment("abc", "rustc 1.0", vec![]);
        result_document(&outcome, &run, env)
    }

    #[test]
    fn result_documents_pass_their_own_schema() {
        for traced in [false, true] {
            let doc = sample(traced);
            validate_result(&doc).unwrap();
            // And survive a render/parse round trip.
            validate_result(&Json::parse(&doc.render()).unwrap()).unwrap();
            let block = doc.get(if traced { "layers" } else { "metrics" }).unwrap();
            let expected = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            match block {
                Json::Obj(pairs) => assert_eq!(pairs.len(), expected),
                _ => panic!("metrics block is not an object"),
            }
        }
        let doc = sample(false);
        assert_eq!(doc.get("succeeded").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn schema_gate_refuses_broken_documents() {
        let strip = |doc: &Json, key: &str| match doc {
            Json::Obj(pairs) => {
                Json::Obj(pairs.iter().filter(|(k, _)| k != key).cloned().collect())
            }
            _ => unreachable!(),
        };
        let doc = sample(false);
        for key in ["attempted", "failed", "metrics", "environment", "smoke"] {
            assert!(validate_result(&strip(&doc, key)).is_err(), "{key}");
        }
        let bad_metric = |metric: Json| {
            let mut d = strip(&doc, "metrics");
            if let Json::Obj(pairs) = &mut d {
                pairs.push((
                    "metrics".to_owned(),
                    Json::Obj(vec![("x".to_owned(), metric)]),
                ));
            }
            d
        };
        assert!(validate_result(&bad_metric(Json::obj([("value", Json::Num(1.0))]))).is_err());
        assert!(validate_result(&bad_metric(Json::obj([("unit", Json::str("s"))]))).is_err());
        assert!(validate_result(&bad_metric(Json::obj([
            ("value", Json::Num(1.0)),
            ("unit", Json::str("s"))
        ])))
        .is_ok());
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::new("dse-sweep");
        outcome.attempted = 3;
        for (name, ..) in END_TO_END {
            outcome.values.set(name, 1.5);
        }
        let line = summary_line(&outcome, false);
        let Json::Obj(pairs) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(!line.render().contains('\n'));
    }

    #[test]
    fn catalogue_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        assert!(names.contains(&"setup_s"));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// `BENCHMARK.json` is the contract; the catalogue must say the same.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
        let listed: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(listed, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        // The committed file is exactly what `catalogue` prints.
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(committed.trim_end(), catalogue_json());
        assert!(WORKLOAD_WHY
            .iter()
            .all(|w| w.len() <= 200 && !w.contains('\n')));
        let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(m, "name"), name);
            assert_eq!(field(m, "unit"), unit);
            assert_eq!(field(m, "better"), better.label());
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name"), name);
            assert_eq!(field(m, "unit"), unit);
            assert_eq!(field(m, "better"), better.label());
        }
    }
}
