//! `dse_hot` — the DSE hot-loop benchmark.
//!
//! Measures the invariant-hoisted evaluation pipeline against a
//! faithful re-implementation of the pre-pipeline sweep (per-evaluation
//! `evaluate()` calls, a `format!`ed label per point, collect-then-
//! filter Pareto extraction), on the full AlexNet layer set with
//! `keep_points` enabled — the paper's Algorithm 1 at its most
//! expensive. **Verifies bit-identity** — pipelined against naive —
//! before reporting anything: a mismatch fails the run with a non-zero
//! exit, so CI catches identity regressions here as well as in the
//! proptests. A
//! second hard gate bounds the cost of the service's telemetry
//! instrumentation at <3% of the sweep's wall clock (see
//! `verify_telemetry_overhead`).
//!
//! Writes `BENCH_dse.json` at the workspace root. Run with `--smoke`
//! (as CI does) for a fast low-iteration pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use drmap_bench::build_engines;
use drmap_cnn::accelerator::AcceleratorConfig;
use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_core::dse::{DseCandidate, DseConfig, DseEngine, LayerDseResult};
use drmap_core::pareto::{pareto_front, DesignPoint};
use drmap_core::tiling::enumerate_tilings;
use drmap_service::engine::ServiceState;
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::prelude::{Counter, Histogram, Span};
use drmap_service::spec::{EngineSpec, JobSpec};

/// The keep-points sweep configuration both contenders run.
fn sweep_config() -> DseConfig {
    DseConfig {
        keep_points: true,
        ..DseConfig::default()
    }
}

/// A SALP-2 engine with `keep_points` enabled.
fn hot_engine() -> DseEngine {
    let engines = build_engines(AcceleratorConfig::table_ii()).unwrap();
    DseEngine::new(engines[2].engine.model().clone(), sweep_config())
}

/// The pre-pipeline `explore_layer`, re-derived from the public
/// single-point evaluator: per-evaluation schedule resolution and
/// transition counting inside `evaluate()`, a heap-allocated label per
/// point, and batch Pareto extraction at the end. This is the baseline
/// the ≥3x acceptance target is measured against.
fn naive_explore(engine: &DseEngine, layer: &Layer) -> LayerDseResult {
    let acc = *engine.model().traffic_model().accelerator();
    let tilings = enumerate_tilings(layer, &acc).unwrap();
    let objective = engine.config().objective;
    let mut best: Option<DseCandidate> = None;
    let mut evaluations = 0usize;
    let mut points = Vec::new();
    for tiling in &tilings {
        for &scheme in &engine.config().schemes {
            for mapping in &engine.config().mappings {
                let estimate = engine.evaluate(layer, tiling, scheme, mapping);
                evaluations += 1;
                if engine.config().keep_points {
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
        best: best.expect("non-empty sweep"),
        evaluations,
        pareto: pareto_front(&points),
    }
}

fn assert_bit_identical(a: &LayerDseResult, b: &LayerDseResult, context: &str) -> bool {
    let best_ok = a.best.mapping == b.best.mapping
        && a.best.scheme == b.best.scheme
        && a.best.tiling == b.best.tiling
        && a.best.estimate.cycles.to_bits() == b.best.estimate.cycles.to_bits()
        && a.best.estimate.energy.to_bits() == b.best.estimate.energy.to_bits();
    let front_ok = a.pareto.len() == b.pareto.len()
        && a.pareto.iter().zip(&b.pareto).all(|(p, q)| {
            p.label == q.label
                && p.estimate.cycles.to_bits() == q.estimate.cycles.to_bits()
                && p.estimate.energy.to_bits() == q.estimate.energy.to_bits()
        });
    let ok = best_ok && front_ok && a.evaluations == b.evaluations;
    if !ok {
        eprintln!("dse_hot: IDENTITY FAILURE in {context}");
    }
    ok
}

/// Hard gate: the pipelined sweep must match the naive sweep, bit for
/// bit, on every AlexNet layer. Exits non-zero on any mismatch.
fn verify_identity(engine: &DseEngine, network: &Network) {
    let mut ok = true;
    for layer in network.layers() {
        let pipelined = engine.explore_layer(layer).unwrap();
        let naive = naive_explore(engine, layer);
        ok &= assert_bit_identical(
            &pipelined,
            &naive,
            &format!("{} pipelined-vs-naive", layer.name),
        );
    }
    if !ok {
        eprintln!("dse_hot: pipelined results diverged from the naive sweep");
        std::process::exit(1);
    }
    println!("dse_hot: identity verified (pipelined == naive)");
}

/// Best-of-`repeats` wall-clock time of `f`.
fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..repeats {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// The telemetry overhead gate: instrumentation on the AlexNet sweep
/// must cost less than this fraction of the sweep's own wall clock.
const MAX_TELEMETRY_OVERHEAD: f64 = 0.03;

/// Hard gate on telemetry cost, measured deterministically instead of
/// by differencing two noisy wall-clock runs: run the AlexNet sweep
/// through the instrumented service stack, count every telemetry
/// operation it actually performed (each histogram sample is one span —
/// two `Instant::now` calls plus an atomic bucket add; each counter
/// unit is one atomic add), price the two operation kinds with tight
/// calibration loops, and compare the total against the sweep's wall
/// clock. Exits non-zero above [`MAX_TELEMETRY_OVERHEAD`].
fn verify_telemetry_overhead() -> Json {
    let state = ServiceState::new().unwrap();
    let pool = DsePool::new(Arc::clone(&state), 1);
    let spec = JobSpec::network(1, EngineSpec::default(), Network::alexnet());
    let start = Instant::now();
    pool.submit(&spec).wait().unwrap();
    let wall = start.elapsed();

    let snap = state.metrics().snapshot();
    let span_ops: u64 = snap.histograms.iter().map(|(_, h)| h.count).sum();
    // A counter's value is its operation count, except for the two a
    // finished sweep advances by a whole layer's design points at once.
    let per_sweep = ["dse_evaluations_total", "dse_pruned_total"];
    let sweeps = snap.counter("layers_total").unwrap_or(0);
    let counter_ops: u64 = snap
        .counters
        .iter()
        .map(|(name, v)| {
            if per_sweep.contains(&name.as_str()) {
                sweeps
            } else {
                *v
            }
        })
        .sum();

    // Per-operation prices. The span probe pays the full RAII cost:
    // enter (one `Instant::now`) plus drop (a second `Instant::now`
    // and the histogram record).
    let reps: u32 = 100_000;
    let hist = Arc::new(Histogram::new());
    let t = Instant::now();
    for _ in 0..reps {
        drop(std::hint::black_box(Span::enter("overhead_probe", &hist)));
    }
    let per_span_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(reps);
    let counter = Counter::new();
    let t = Instant::now();
    for _ in 0..reps {
        counter.inc();
    }
    std::hint::black_box(counter.get());
    let per_counter_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(reps);

    let overhead_ns = span_ops as f64 * per_span_ns + counter_ops as f64 * per_counter_ns;
    let frac = overhead_ns / (wall.as_secs_f64() * 1e9).max(1.0);
    println!(
        "dse_hot: telemetry overhead on the AlexNet sweep: {span_ops} spans \
         ({per_span_ns:.0} ns each) + {counter_ops} counter ops ({per_counter_ns:.1} ns each) \
         over {:.3}s -> {:.5}% of wall clock",
        wall.as_secs_f64(),
        frac * 100.0,
    );
    if frac >= MAX_TELEMETRY_OVERHEAD {
        eprintln!(
            "dse_hot: TELEMETRY OVERHEAD FAILURE: {:.3}% >= {:.0}%",
            frac * 100.0,
            MAX_TELEMETRY_OVERHEAD * 100.0,
        );
        std::process::exit(1);
    }
    Json::obj([
        ("span_ops", Json::num_u64(span_ops)),
        ("counter_ops", Json::num_u64(counter_ops)),
        ("per_span_ns", Json::Num(per_span_ns)),
        ("per_counter_ns", Json::Num(per_counter_ns)),
        ("sweep_wall_s", Json::Num(wall.as_secs_f64())),
        ("overhead_frac", Json::Num(frac)),
        ("max_overhead_frac", Json::Num(MAX_TELEMETRY_OVERHEAD)),
    ])
}

fn bench_dse_hot(c: &mut Criterion) {
    let engine = hot_engine();
    let network = Network::alexnet();
    let conv3 = &network.layers()[2];
    c.bench_function("dse_hot_conv3_naive", |b| {
        b.iter(|| std::hint::black_box(naive_explore(&engine, conv3)))
    });
    c.bench_function("dse_hot_conv3_pipelined", |b| {
        b.iter(|| std::hint::black_box(engine.explore_layer(conv3).unwrap()))
    });
}

fn emit_bench_json(smoke: bool) {
    let engine = hot_engine();
    let network = Network::alexnet();
    verify_identity(&engine, &network);

    let repeats = if smoke { 1 } else { 5 };
    // Single-thread AlexNet sweep, keep_points on: old loop vs new.
    let baseline = best_of(repeats, || {
        for layer in network.layers() {
            std::hint::black_box(naive_explore(&engine, layer));
        }
    });
    let pipelined = best_of(repeats, || {
        for layer in network.layers() {
            std::hint::black_box(engine.explore_layer(layer).unwrap());
        }
    });
    let speedup = baseline.as_secs_f64() / pipelined.as_secs_f64().max(1e-9);
    let evaluations: usize = network
        .layers()
        .iter()
        .map(|l| engine.explore_layer(l).unwrap().evaluations)
        .sum();
    println!(
        "dse_hot: AlexNet sweep ({evaluations} evaluations, keep_points on): \
         naive {:.3}s, pipelined {:.3}s -> {speedup:.2}x",
        baseline.as_secs_f64(),
        pipelined.as_secs_f64(),
    );

    let telemetry = verify_telemetry_overhead();

    let secs = |d: Duration| Json::Num(d.as_secs_f64());
    let report = Json::obj([
        ("bench", Json::str("dse_hot")),
        ("smoke", Json::Bool(smoke)),
        ("identity", Json::str("ok")),
        (
            "alexnet_sweep",
            Json::obj([
                ("layers", Json::num_usize(network.layers().len())),
                ("evaluations", Json::num_usize(evaluations)),
                ("keep_points", Json::Bool(true)),
                ("naive_s", secs(baseline)),
                ("pipelined_s", secs(pipelined)),
                ("speedup", Json::Num(speedup)),
            ]),
        ),
        ("telemetry_overhead", telemetry),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dse.json");
    match std::fs::write(path, report.render() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_dse_hot);

fn main() {
    // Harness introspection flags (`cargo bench -- --list`, `--test`)
    // expect a fast exit: skip measurement and don't clobber a previous
    // run's artifact.
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list" || a == "--test") {
        println!("dse_hot: benchmark");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    if !smoke {
        benches();
    }
    emit_bench_json(smoke);
}
