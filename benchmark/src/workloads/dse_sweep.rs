//! `dse-sweep` — in process, one thread, no service: the zoo explored
//! layer by layer with `DseEngine::explore_layer` on SALP-2.
//!
//! `core` (tiling → access model → EDP → Pareto) does all the work and
//! `service`/`store`/`router` none, so bound-and-skip pruning and
//! hot-loop work show here and nowhere else.

use std::ops::Range;
use std::time::Instant;

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_core::dse::{DseEngine, LayerDseResult};
use drmap_core::tiling::{count_tilings, enumerate_tilings};
use drmap_dram::profiler::Profiler;
use drmap_dram::timing::DramArch;
use drmap_service::engine::EngineFactory;
use drmap_service::json::Json;
use drmap_service::loadgen::SplitMix64;
use drmap_service::spec::EngineSpec;

use super::{run_units, shuffled, timed_setup, Config, UnitRun};
use crate::digest::{check_golden, winner_digest, Fnv};
use crate::host;
use crate::probe::{probe_ns, MIN_CALLS};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{highest_supported_percentile, quantile_sorted};

/// Every layer of every zoo network, flattened, with each network's
/// slice of the flat list.
pub struct Zoo {
    /// All layers, network after network.
    pub layers: Vec<Layer>,
    /// `(zoo name, range into layers)`.
    pub nets: Vec<(&'static str, Range<usize>)>,
}

impl Zoo {
    /// The built-in model zoo.
    pub fn load() -> Self {
        let mut layers = Vec::new();
        let mut nets = Vec::new();
        for (name, build) in Network::zoo() {
            let start = layers.len();
            layers.extend(build().layers().iter().cloned());
            nets.push((name, start..layers.len()));
        }
        Zoo { layers, nets }
    }
}

/// Per architecture: the engine and its result for every layer.
pub type Explored = Vec<(DramArch, DseEngine, Vec<LayerDseResult>)>;

/// The verified pass every in-process workload's set-up runs: build
/// the factory, profile all four cost tables, explore `layers` on each.
///
/// # Errors
///
/// Propagates profiler and exploration failures.
pub fn explore_all_archs(layers: &[Layer]) -> Result<Explored, String> {
    let factory = EngineFactory::table_ii().map_err(|e| e.to_string())?;
    DramArch::ALL
        .into_iter()
        .map(|arch| {
            let engine = factory.engine(&EngineSpec::for_arch(arch));
            let results = layers
                .iter()
                .map(|l| engine.explore_layer(l).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((arch, engine, results))
        })
        .collect()
}

/// Gate the explored winners: digests against `golden`, and DRMap
/// (Mapping-3) as every layer's EDP minimum on every architecture.
pub fn gate_winners(
    explored: &Explored,
    extra: impl Fn(usize, usize, &mut Fnv),
    golden: &std::path::Path,
    regen: bool,
    out: &mut Outcome,
) {
    let mut lines = Vec::new();
    for (a, (arch, _, results)) in explored.iter().enumerate() {
        let mut h = Fnv::default();
        for (l, r) in results.iter().enumerate() {
            h.winner(r);
            extra(a, l, &mut h);
            if !r.best.mapping.is_drmap() {
                out.violation(format!(
                    "{}: {} is won by {}, not DRMap",
                    arch.label(),
                    r.layer_name,
                    r.best.mapping.name()
                ));
            }
        }
        lines.push((arch.label().to_owned(), h.finish()));
    }
    if let Err(e) = check_golden(golden, &lines, regen) {
        out.violation(e);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latency quantiles over per-unit fastest times: the latency a caller
/// of one unit sees, with the box's noise removed.
pub fn unit_latency_ms(fastest: &[u64]) -> (f64, f64) {
    let mut sorted = fastest.to_vec();
    sorted.sort_unstable();
    (
        ms(quantile_sorted(&sorted, 0.5)),
        ms(quantile_sorted(&sorted, 0.99)),
    )
}

/// Fill the end-to-end metrics every in-process workload shares.
pub fn in_process_end_to_end(out: &mut Outcome, run: &UnitRun, setup_s: f64) {
    let fastest = run.times.fastest();
    let pass_s = run.times.sum_fastest() as f64 / 1e9;
    let (p50, p99) = unit_latency_ms(&fastest);
    out.attempted = run.attempted;
    out.failed = run.failed;
    out.values
        .set("layers_per_s", fastest.len() as f64 / pass_s);
    out.values.set("latency_p50_ms", p50);
    out.values.set("latency_p99_ms", p99);
    let rss = host::peak_rss_mb("self");
    out.values.set("peak_rss_mb", rss);
    out.facts.push(("peak_rss_mb", Json::Num(rss)));
    out.values.set("setup_s", setup_s);
    out.facts.push(("latency_p50_ms", Json::Num(p50)));
    out.facts.push(("latency_p99_ms", Json::Num(p99)));
    out.facts.push(("units", Json::num_usize(fastest.len())));
    out.facts
        .push(("passes", Json::num_usize(run.times.passes())));
    out.facts.push((
        "latency_is",
        Json::str("quantiles over units of each unit's fastest repetition"),
    ));
}

/// Gate: an in-process workload spawns no thread.
pub fn gate_single_threaded(out: &mut Outcome) {
    let threads = host::own_threads();
    out.facts.push(("threads", Json::num_u64(threads)));
    if threads != 1 {
        out.violation(format!(
            "in-process workload ran {threads} threads, expected 1"
        ));
    }
}

/// The measured part every in-process workload shares: the timed loop
/// over `order`, the end-to-end metrics from it and — on a traced run —
/// the same loop again with a span around every unit, the tracing
/// overhead and the host's CPU shares. Returns the untraced run and the
/// recorder for the probes to go on with, or `None` on an untraced run.
pub fn measure_units(
    cfg: &Config,
    out: &mut Outcome,
    units: usize,
    span: &'static str,
    setup_s: f64,
    unit: impl FnMut(usize) -> (u64, bool) + Copy,
) -> Option<(UnitRun, Recorder)> {
    let order = shuffled(units, &mut SplitMix64::new(cfg.seed));
    let epoch = Instant::now();
    let meter = host::Meter::start();
    let untraced = &mut Recorder::new(epoch, false);
    let run = run_units(units, &order, cfg.slice(), untraced, span, unit);
    in_process_end_to_end(out, &run, setup_s);
    if !cfg.traced {
        gate_single_threaded(out);
        return None;
    }
    let mut rec = Recorder::new(epoch, true);
    let traced = run_units(units, &order, cfg.slice(), &mut rec, span, unit);
    let metered = meter.stop();
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.values
        .set("trace.overhead_share", run.overhead_of(&traced));
    out.values.set("host.busy_share", metered.busy);
    out.values.set("host.steal_share", metered.steal);
    Some((run, rec))
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new("dse-sweep");
    let zoo = Zoo::load();
    let n = zoo.layers.len();

    let (explored, setup_s) = match timed_setup(|| explore_all_archs(&zoo.layers)) {
        Ok(done) => done,
        Err(e) => {
            out.violation(format!("set-up failed: {e}"));
            return out;
        }
    };
    gate_winners(
        &explored,
        |_, _, _| (),
        &cfg.root.join("golden/dse-sweep.digest"),
        cfg.regen_golden,
        &mut out,
    );
    let (_, engine, expected) = explored
        .iter()
        .find(|(arch, ..)| *arch == DramArch::Salp2)
        .expect("SALP-2 is one of the four architectures");

    let verified: Vec<u64> = expected.iter().map(winner_digest).collect();
    let explore = |u: usize| {
        let t0 = Instant::now();
        let result = engine.explore_layer(&zoo.layers[u]);
        let ns = t0.elapsed().as_nanos() as u64;
        (ns, result.is_ok_and(|r| winner_digest(&r) == verified[u]))
    };
    let span = "core.dse.explore_layer";
    let Some((run, mut rec)) = measure_units(cfg, &mut out, n, span, setup_s, explore) else {
        return out;
    };
    let v = &mut out.values;

    let fastest = run.times.fastest();
    let evaluations: usize = expected.iter().map(|r| r.evaluations).sum();
    v.set("core.dse.evals_per_layer", evaluations as f64 / n as f64);
    v.set(
        "core.dse.ns_per_eval",
        run.times.sum_fastest() as f64 / evaluations as f64,
    );
    for (name, range) in &zoo.nets {
        let net_ns: u64 = fastest[range.clone()].iter().sum();
        v.set(&format!("core.dse.net_ms.{name}"), ms(net_ns));
    }
    v.set(
        "core.dse.layer_ms_max",
        ms(fastest.iter().copied().max().unwrap_or(0)),
    );
    let mut passes = run.times.pass_times();
    passes.sort_unstable();
    v.set("core.dse.pass_ms_p50", ms(quantile_sorted(&passes, 0.5)));
    v.set("core.dse.pass_ms_p90", ms(quantile_sorted(&passes, 0.9)));
    out.facts.push((
        "pass_tail_supported",
        Json::str(highest_supported_percentile(passes.len()).map_or("none", |(label, _)| label)),
    ));

    // Layer probes on the workload's own inputs.
    let acc = *engine.model().traffic_model().accelerator();
    let tilings: usize = zoo
        .layers
        .iter()
        .map(|l| count_tilings(l, &acc).unwrap_or(0))
        .sum();
    v.set("core.tiling.count", tilings as f64);
    let reps = MIN_CALLS.div_ceil(n);
    let enumerate_ns: f64 = zoo
        .layers
        .iter()
        .map(|l| {
            probe_ns(&mut rec, "core.tiling.enumerate", reps, 1, || {
                std::hint::black_box(enumerate_tilings(l, &acc).map(|t| t.len()).unwrap_or(0));
            })
        })
        .sum();
    v.set("core.tiling.enumerate_us", enumerate_ns / n as f64 / 1e3);
    match Profiler::table_ii() {
        Ok(profiler) => {
            let per_arch = MIN_CALLS.div_ceil(DramArch::ALL.len());
            let table_ns: f64 = DramArch::ALL
                .into_iter()
                .map(|arch| {
                    probe_ns(&mut rec, "dram.profiler.cost_table", per_arch, 1, || {
                        std::hint::black_box(profiler.cost_table(arch));
                    })
                })
                .sum();
            v.set(
                "dram.profiler.table_us",
                table_ns / DramArch::ALL.len() as f64 / 1e3,
            );
        }
        Err(e) => out.violation(format!("profiler: {e}")),
    }
    out.spans = rec.finish();
    gate_single_threaded(&mut out);
    out
}
