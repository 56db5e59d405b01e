//! `drmap-batch` — run a batch of DSE jobs and print a throughput and
//! cache report.
//!
//! ```text
//! drmap-batch [SPEC_FILE] [--models a,b,c] [--arch ARCH] [--objective OBJ]
//!             [--workers N] [--repeat R] [--compare]
//!             [--cache-entries N] [--cache-bytes BYTES] [--store PATH]
//!             [--connect HOST:PORT]
//!             [--connect HOST:PORT --admin CMD [CMD…] [--text]]
//! ```
//!
//! `SPEC_FILE` holds one JSON job per line (the server's request
//! format; blank lines and `#` comments ignored). Without a file,
//! `--models` (default `alexnet,squeezenet,tiny`) builds one job per
//! zoo network. `--repeat R` submits the whole batch `R` times —
//! repeats hit the memo cache (and concurrent duplicates coalesce onto
//! one in-flight computation). `--compare` also times the same batch on
//! a fresh single-worker pool and reports the multi-worker speedup.
//!
//! By default jobs run on an in-process pool; `--cache-entries` /
//! `--cache-bytes` bound its LRU memo cache, and `--store PATH` backs it
//! with a persistent result log — rerunning the same batch later serves
//! every layer from disk without recomputation. With `--connect` the
//! batch is instead **pipelined over TCP** to a running `drmap-serve`:
//! every job goes on the wire up front and responses return out of
//! order as they complete.
//!
//! `--admin` (with `--connect`) switches to **control-plane mode**: the
//! remaining arguments are admin commands driven over the typed
//! protocol, in order, failing on the first non-ok response:
//!
//! ```text
//! drmap-batch --connect 127.0.0.1:7878 --admin hello \
//!     set-bounds=entries:512 cache-warm store-compact stats
//! ```
//!
//! The `metrics` admin command dumps the server's telemetry — request
//! counters, latency histogram quantiles, and the slow-request log;
//! with `--text` it prints Prometheus-style text exposition instead
//! (see `docs/OBSERVABILITY.md`):
//!
//! ```text
//! drmap-batch --connect 127.0.0.1:7878 --admin metrics --text
//! ```
//!
//! `set-slow-log=slow_ms:N,cap:N` retunes the slow log live, and
//! `set-faults=SPEC|off` arms or disarms a deterministic
//! fault-injection plan (builds with faults compiled in only; see
//! `docs/RELIABILITY.md`):
//!
//! ```text
//! drmap-batch --connect 127.0.0.1:7878 --admin \
//!     set-slow-log=slow_ms:250,cap:64 \
//!     set-faults=seed=42,store-fail=0.1 set-faults=off
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drmap_service::cache::CacheConfig;
use drmap_service::cli::{parse_admin_command, parse_positive as positive, AdminCmd};
use drmap_service::client::Client;
use drmap_service::engine::{default_workers, ServiceState};
use drmap_service::error::ServiceError;
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::prelude::Network;
use drmap_service::proto::Label;
use drmap_service::spec::{EngineSpec, JobResult, JobSpec};

struct Args {
    spec_file: Option<String>,
    models: Vec<String>,
    engine: EngineSpec,
    workers: usize,
    repeat: usize,
    compare: bool,
    cache: CacheConfig,
    store: Option<String>,
    connect: Option<String>,
    admin: Option<Vec<AdminCmd>>,
    text: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec_file: None,
        models: vec!["alexnet".into(), "squeezenet".into(), "tiny".into()],
        engine: EngineSpec::default(),
        workers: default_workers(),
        repeat: 1,
        compare: false,
        cache: CacheConfig::unbounded(),
        store: None,
        connect: None,
        admin: None,
        text: false,
    };
    // Flags that only apply to the in-process pool; rejected with
    // --connect rather than silently ignored.
    let mut local_only: Vec<&'static str> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--models" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--arch" => args.engine.arch = label(&value("--arch")?)?,
            "--objective" => args.engine.objective = label(&value("--objective")?)?,
            "--workers" => {
                args.workers = positive("--workers", &value("--workers")?)?;
                local_only.push("--workers");
            }
            "--repeat" => args.repeat = positive("--repeat", &value("--repeat")?)?,
            "--compare" => {
                args.compare = true;
                local_only.push("--compare");
            }
            "--cache-entries" => {
                args.cache.max_entries =
                    Some(positive("--cache-entries", &value("--cache-entries")?)?);
                local_only.push("--cache-entries");
            }
            "--cache-bytes" => {
                args.cache.max_bytes = Some(positive("--cache-bytes", &value("--cache-bytes")?)?);
                local_only.push("--cache-bytes");
            }
            "--store" => {
                args.store = Some(value("--store")?);
                local_only.push("--store");
            }
            "--connect" => args.connect = Some(value("--connect")?),
            // A repeated --admin is a no-op, not a reset: commands
            // already collected must survive.
            "--admin" => {
                args.admin.get_or_insert_with(Vec::new);
            }
            "--text" => args.text = true,
            "--help" | "-h" => {
                println!(
                    "usage: drmap-batch [SPEC_FILE] [--models a,b,c] [--arch ARCH] \
                     [--objective OBJ] [--workers N] [--repeat R] [--compare] \
                     [--cache-entries N] [--cache-bytes BYTES] [--store PATH] \
                     [--connect HOST:PORT] \
                     [--admin CMD [CMD...] [--text]]"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') && args.admin.is_some() => {
                args.admin
                    .as_mut()
                    .expect("checked is_some")
                    .push(parse_admin_command(other)?);
            }
            other if !other.starts_with('-') && args.spec_file.is_none() => {
                args.spec_file = Some(other.to_owned());
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if let Some(commands) = &args.admin {
        if args.connect.is_none() {
            return Err("--admin drives a live server; it needs --connect".to_owned());
        }
        if commands.is_empty() {
            return Err("--admin needs at least one command (try --help)".to_owned());
        }
        // Batch-only arguments are rejected, not silently ignored —
        // the same policy the --connect/local-flag check applies below.
        if let Some(path) = &args.spec_file {
            return Err(format!(
                "a spec file ({path:?}) does not apply in --admin mode"
            ));
        }
        if args.repeat != 1 {
            return Err("--repeat does not apply in --admin mode".to_owned());
        }
    }
    if args.text && args.admin.is_none() {
        return Err("--text only applies in --admin mode (with the metrics command)".to_owned());
    }
    if args.connect.is_some() && !local_only.is_empty() {
        return Err(format!(
            "{} appl{} only to the in-process pool; with --connect the server's \
             workers and cache settings are in charge",
            local_only.join(", "),
            if local_only.len() == 1 { "ies" } else { "y" },
        ));
    }
    Ok(args)
}

/// An `--arch`/`--objective` value, read as the job codec reads the
/// wire label.
fn label<T: Label>(value: &str) -> Result<T, String> {
    T::parse_label(value).map_err(|e| ServiceError::protocol(e).to_string())
}

fn bound_label(b: Option<usize>) -> String {
    match b {
        Some(n) => n.to_string(),
        None => "unbounded".to_owned(),
    }
}

/// Drive a sequence of admin commands over the typed protocol, printing
/// each response; the first non-ok response aborts with its error.
/// `text` makes the `metrics` command print Prometheus-style
/// exposition instead of the human summary.
fn run_admin(addr: &str, text: bool, commands: &[AdminCmd]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    for command in commands {
        match command {
            AdminCmd::Hello => {
                let info = client.hello().map_err(|e| format!("hello: {e}"))?;
                println!(
                    "hello: {} speaks protocol v{} (capabilities: {})",
                    info.server,
                    info.version,
                    info.capabilities.join(", "),
                );
            }
            AdminCmd::Ping => {
                client.ping().map_err(|e| format!("ping: {e}"))?;
                println!("ping: pong");
            }
            AdminCmd::Stats => {
                let report = client.stats_report().map_err(|e| format!("stats: {e}"))?;
                println!(
                    "stats: {} hits / {} misses / {} coalesced ({} bypassed, {} refreshed), \
                     {} entries, {} bytes, {} evictions, {} workers",
                    report.cache.hits,
                    report.cache.misses,
                    report.cache.coalesced,
                    report.cache.bypasses,
                    report.cache.refreshes,
                    report.cache.entries,
                    report.cache.bytes,
                    report.cache.evictions,
                    report.workers,
                );
                println!(
                    "config: cache bounds {} entries / {} bytes",
                    bound_label(report.max_entries),
                    bound_label(report.max_bytes),
                );
                if let Some(store) = report.store {
                    println!(
                        "store: {} live entries in {} bytes ({} dead records)",
                        store.live_entries, store.file_bytes, store.dead_records,
                    );
                }
            }
            AdminCmd::SetBounds(update) => {
                let (entries, bytes, evicted) = client
                    .set_bounds(*update)
                    .map_err(|e| format!("set-bounds: {e}"))?;
                println!(
                    "set-bounds: {} entries / {} bytes ({evicted} evicted)",
                    bound_label(entries),
                    bound_label(bytes),
                );
            }
            AdminCmd::Metrics => {
                let report = client.metrics().map_err(|e| format!("metrics: {e}"))?;
                if text {
                    print!("{}", report.snapshot.to_prometheus());
                } else {
                    for (name, v) in &report.snapshot.counters {
                        println!("counter  {name} = {v}");
                    }
                    for (name, v) in &report.snapshot.gauges {
                        println!("gauge    {name} = {v}");
                    }
                    for (name, h) in &report.snapshot.histograms {
                        if h.count == 0 {
                            println!("hist     {name}: empty");
                            continue;
                        }
                        println!(
                            "hist     {name}: count {} p50 {} p95 {} p99 {} p999 {} max {} (ns)",
                            h.count,
                            h.p50(),
                            h.p95(),
                            h.p99(),
                            h.p999(),
                            h.max,
                        );
                    }
                    if report.slow.is_empty() {
                        println!("slow log: empty");
                    }
                    for entry in &report.slow {
                        let stages = entry
                            .stages
                            .iter()
                            .map(|(name, ns)| format!("{name} {:.2}ms", *ns as f64 / 1e6))
                            .collect::<Vec<_>>()
                            .join(", ");
                        println!(
                            "slow job {}: {:.2}ms total ({stages})",
                            entry.trace_id,
                            entry.total_ns as f64 / 1e6,
                        );
                    }
                }
            }
            AdminCmd::SetSlowLog { slow_ms, cap } => {
                let (slow_ms, cap) = client
                    .set_slow_log(*slow_ms, *cap)
                    .map_err(|e| format!("set-slow-log: {e}"))?;
                println!(
                    "set-slow-log: threshold {}, ring capacity {cap}",
                    match slow_ms {
                        Some(ms) => format!(">= {ms} ms"),
                        None => "off".to_owned(),
                    },
                );
            }
            AdminCmd::SetFaults(plan) => {
                let spec = plan.map(|p| p.render());
                let armed = client
                    .set_faults(spec.as_deref())
                    .map_err(|e| format!("set-faults: {e}"))?;
                match armed {
                    Some(spec) => println!("set-faults: armed {spec}"),
                    None => println!("set-faults: disarmed"),
                }
            }
            AdminCmd::CacheClear => {
                client
                    .cache_clear()
                    .map_err(|e| format!("cache-clear: {e}"))?;
                println!("cache-clear: done");
            }
            AdminCmd::CacheWarm(limit) => {
                let loaded = client
                    .cache_warm(*limit)
                    .map_err(|e| format!("cache-warm: {e}"))?;
                println!("cache-warm: {loaded} entries promoted");
            }
            AdminCmd::StoreCompact(auto_ratio) => {
                let report = client
                    .compact_store_with(*auto_ratio)
                    .map_err(|e| format!("store-compact: {e}"))?;
                println!(
                    "store-compact: {} -> {} bytes ({} records dropped, {} live)",
                    report.bytes_before,
                    report.bytes_after,
                    report.dropped_records,
                    report.live_records,
                );
            }
            AdminCmd::Shutdown => {
                client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                println!("shutdown: acknowledged");
            }
        }
    }
    Ok(())
}

fn load_specs(args: &Args) -> Result<Vec<JobSpec>, String> {
    if let Some(path) = &args.spec_file {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let mut specs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            specs.push(JobSpec::from_json(&parsed).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
        }
        if specs.is_empty() {
            return Err(format!("{path:?} contains no job specs"));
        }
        return Ok(specs);
    }
    args.models
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Network::by_name(name)
                .map(|net| JobSpec::network(i as u64 + 1, args.engine, net))
                .ok_or_else(|| format!("unknown model {name:?}"))
        })
        .collect()
}

/// The full batch: every spec, `repeat` times over. Rounds are offset
/// by the batch's maximum id plus one (not its length — spec files may
/// use sparse ids, and an id of 0 must still move), so repeats of
/// distinct-id specs stay distinct: the pipelined path needs unique
/// ids as its correlation keys.
fn batch_of(specs: &[JobSpec], repeat: usize) -> Vec<JobSpec> {
    let stride = specs.iter().map(|s| s.id).max().unwrap_or(0) + 1;
    let mut batch = Vec::with_capacity(specs.len() * repeat);
    for round in 0..repeat {
        for spec in specs {
            let mut spec = spec.clone();
            spec.id += round as u64 * stride;
            batch.push(spec);
        }
    }
    batch
}

fn run_timed(
    workers: usize,
    cache: CacheConfig,
    store: Option<Arc<drmap_store::store::Store>>,
    batch: &[JobSpec],
) -> Result<(Vec<JobResult>, Duration, Arc<ServiceState>), ServiceError> {
    let state = ServiceState::with_cache_and_store(cache, store)?;
    let pool = DsePool::new(Arc::clone(&state), workers);
    let start = Instant::now();
    let results = pool
        .run_batch(batch)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok((results, start.elapsed(), state))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("drmap-batch: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_results(results: &[JobResult]) {
    println!("job  workload            layers  cached  coalesced  stored  total-EDP (J*s)");
    for result in results {
        println!(
            "{:<4} {:<20} {:>5} {:>7} {:>9} {:>7}  {:.4e}",
            result.id,
            result.workload,
            result.layers.len(),
            result.cache_hits(),
            result.coalesced_hits(),
            result.store_hits(),
            result.total.edp(),
        );
    }
}

/// Pipeline the batch to a running server: every job on the wire up
/// front, responses collected as they complete.
fn run_connected(args: &Args, batch: &[JobSpec]) -> Result<(), String> {
    let addr = args.connect.as_deref().expect("caller checked --connect");
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let start = Instant::now();
    let outcomes = client.submit_batch(batch).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let mut results = Vec::with_capacity(outcomes.len());
    let mut failures = 0usize;
    for (spec, outcome) in batch.iter().zip(outcomes) {
        match outcome {
            Ok(result) => results.push(result),
            Err(e) => {
                failures += 1;
                eprintln!("drmap-batch: job {} failed: {e}", spec.id);
            }
        }
    }
    print_results(&results);
    let layers: usize = results.iter().map(|r| r.layers.len()).sum();
    println!();
    println!(
        "{} jobs ({} layers, {} failed) pipelined to {} in {:.3}s  ->  \
         {:.2} jobs/s, {:.1} layers/s",
        results.len(),
        layers,
        failures,
        addr,
        elapsed,
        results.len() as f64 / elapsed,
        layers as f64 / elapsed,
    );
    if let Ok(report) = client.stats_report() {
        let stats = report.cache;
        println!(
            "server cache: {} hits / {} misses / {} coalesced ({:.1}% hit rate), \
             {} entries, {} bytes, {} evictions, {} workers",
            stats.hits,
            stats.misses,
            stats.coalesced,
            stats.hit_rate() * 100.0,
            stats.entries,
            stats.bytes,
            stats.evictions,
            report.workers,
        );
        if stats.store_hits + stats.store_misses > 0 {
            println!(
                "server store: {} hits / {} misses; {:.1} ms of exploration represented",
                stats.store_hits,
                stats.store_misses,
                stats.compute_ns_total as f64 / 1e6,
            );
        }
    }
    if failures > 0 {
        return Err(format!("{failures} job(s) failed"));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(commands) = &args.admin {
        let addr = args
            .connect
            .as_deref()
            .expect("parse_args checked --connect");
        return run_admin(addr, args.text, commands);
    }
    let specs = load_specs(&args)?;
    let batch = batch_of(&specs, args.repeat);
    if args.connect.is_some() {
        return run_connected(&args, &batch);
    }

    let store = match &args.store {
        Some(path) => Some(Arc::new(
            drmap_store::store::Store::open(path)
                .map_err(|e| format!("cannot open store {path:?}: {e}"))?,
        )),
        None => None,
    };
    let (results, elapsed, state) =
        run_timed(args.workers, args.cache, store.clone(), &batch).map_err(|e| e.to_string())?;
    print_results(&results);

    let layers: usize = results.iter().map(|r| r.layers.len()).sum();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let stats = state.cache().stats();
    println!();
    println!(
        "{} jobs ({} layers) on {} workers in {:.3}s  ->  {:.2} jobs/s, {:.1} layers/s",
        results.len(),
        layers,
        args.workers,
        secs,
        results.len() as f64 / secs,
        layers as f64 / secs,
    );
    println!(
        "cache: {} hits / {} misses / {} coalesced ({:.1}% hit rate), \
         {} entries, {} bytes, {} evictions",
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.hit_rate() * 100.0,
        stats.entries,
        stats.bytes,
        stats.evictions,
    );
    if let Some(store) = &store {
        let s = store.stats();
        println!(
            "store: {} hits / {} misses ({} errors); log holds {} live entries in {} bytes",
            stats.store_hits, stats.store_misses, stats.store_errors, s.live_entries, s.file_bytes,
        );
    }

    if args.compare {
        // The comparison run gets no store: it measures raw
        // single-worker exploration, not disk reads.
        let (_, sequential, _) =
            run_timed(1, args.cache, None, &batch).map_err(|e| e.to_string())?;
        let seq_secs = sequential.as_secs_f64().max(1e-9);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "compare: 1 worker {:.3}s vs {} workers {:.3}s  ->  {:.2}x speedup \
             ({} cores available{})",
            seq_secs,
            args.workers,
            secs,
            seq_secs / secs,
            cores,
            if cores == 1 {
                "; multi-worker speedup needs >1 core"
            } else {
                ""
            },
        );

        // Cache effect, independent of core count: resubmit the whole
        // batch on the already-warm pool state.
        let warm_pool = DsePool::new(Arc::clone(&state), args.workers);
        let start = Instant::now();
        let warm: Result<Vec<_>, _> = warm_pool.run_batch(&batch).into_iter().collect();
        let warm = warm.map_err(|e| e.to_string())?;
        let warm_secs = start.elapsed().as_secs_f64().max(1e-9);
        let warm_hits: usize = warm.iter().map(JobResult::cache_hits).sum();
        println!(
            "warm resubmission: {:.3}s ({:.1} layers/s, {warm_hits}/{layers} layers cached) \
             ->  {:.2}x vs cold",
            warm_secs,
            layers as f64 / warm_secs,
            secs / warm_secs,
        );
    }
    Ok(())
}
