//! `drmap-serve` — the DSE job server.
//!
//! ```text
//! drmap-serve [--addr HOST:PORT] [--workers N]
//!             [--cache-entries N] [--cache-bytes BYTES]
//!             [--store PATH] [--warm N] [--auto-compact-ratio R]
//!             [--max-inflight N]
//!             [--slow-ms N] [--slow-log-cap N] [--sample-secs N]
//!             [--fault-plan SPEC]
//! ```
//!
//! Speaks the typed, versioned protocol over pipelined TCP as
//! newline-delimited JSON text; see `docs/PROTOCOL.md`. The cache flags
//! bound the layer memo cache, which evicts the least recently used
//! entry; without them the cache is unbounded (both bounds are
//! retunable live with the `set-bounds` admin verb).
//! `--store PATH` opens (or creates) a
//! persistent result log beneath the cache — results survive restarts,
//! and on boot the most recent stored results warm the cache (`--warm`
//! caps how many; default: up to the cache's entry bound, or all of
//! them). `--auto-compact-ratio R` arms background store compaction:
//! each background tick compacts the log when its dead-bytes ratio
//! reaches R (retunable live via `store-compact=auto:R`; counted in
//! `drmap_wal_autocompact_total`). `--sample-secs N` sets that tick's
//! cadence (default 10; `--sample-secs 0` disables it); the tick runs
//! only with `--store`, since compaction is its one job.
//! `--max-inflight` bounds in-flight requests per connection
//! (default 128). `--slow-ms N` turns on the slow-request log: any job
//! taking at least N ms is captured with its per-stage span breakdown
//! and dumped by the `metrics` admin verb (`--slow-ms 0` logs every
//! job). `--slow-log-cap N` sizes the slow ring (default 32; retunable
//! live via `set-slow-log`). On `shutdown` the server drains in-flight
//! jobs for at most 5 s.
//! `--fault-plan SPEC` arms a seeded deterministic fault plan at boot
//! (debug builds or the `faults` cargo feature only; same spec grammar
//! as the `set-faults` admin verb — see `docs/RELIABILITY.md`). Try it
//! with netcat:
//!
//! ```text
//! $ drmap-serve --addr 127.0.0.1:7878 --cache-entries 4096 --store results.wal &
//! $ echo '{"type":"submit","id":1,"network":{"model":"alexnet"}}' | nc 127.0.0.1 7878
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use drmap_service::cache::CacheConfig;
use drmap_service::cli::parse_positive as positive;
use drmap_service::engine::{default_workers, ServiceState};
use drmap_service::faults::FaultPlan;
use drmap_service::pool::DsePool;
use drmap_service::server::{JobServer, ServerConfig};
use drmap_store::store::Store;

struct Args {
    addr: String,
    workers: usize,
    cache: CacheConfig,
    store: Option<String>,
    warm: Option<usize>,
    auto_compact_ratio: Option<f64>,
    slow_log_cap: Option<usize>,
    fault_plan: Option<FaultPlan>,
    server: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        workers: default_workers(),
        cache: CacheConfig::unbounded(),
        store: None,
        warm: None,
        auto_compact_ratio: None,
        slow_log_cap: None,
        fault_plan: None,
        server: ServerConfig {
            // The serve bin ticks every 10 s by default so
            // --auto-compact-ratio works out of the box; --sample-secs 0
            // opts out. Library users opt *in* via ServerConfig.
            sample_interval: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => args.workers = positive("--workers", &value("--workers")?)?,
            "--cache-entries" => {
                args.cache.max_entries =
                    Some(positive("--cache-entries", &value("--cache-entries")?)?);
            }
            "--cache-bytes" => {
                args.cache.max_bytes = Some(positive("--cache-bytes", &value("--cache-bytes")?)?);
            }
            "--store" => args.store = Some(value("--store")?),
            "--warm" => args.warm = Some(positive("--warm", &value("--warm")?)?),
            "--auto-compact-ratio" => {
                let v = value("--auto-compact-ratio")?;
                let ratio: f64 = v
                    .parse()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r) && *r > 0.0)
                    .ok_or_else(|| {
                        format!("invalid --auto-compact-ratio value {v:?} (expected (0, 1])")
                    })?;
                args.auto_compact_ratio = Some(ratio);
            }
            "--max-inflight" => {
                args.server.max_inflight = positive("--max-inflight", &value("--max-inflight")?)?;
            }
            "--slow-ms" => {
                // 0 is meaningful: it logs every request.
                let v = value("--slow-ms")?;
                args.server.slow_ms = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --slow-ms value {v:?}"))?,
                );
            }
            "--slow-log-cap" => {
                args.slow_log_cap = Some(positive("--slow-log-cap", &value("--slow-log-cap")?)?);
            }
            "--sample-secs" => {
                // 0 is meaningful: it disables the background tick.
                let v = value("--sample-secs")?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --sample-secs value {v:?}"))?;
                args.server.sample_interval = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--fault-plan" => {
                let v = value("--fault-plan")?;
                args.fault_plan =
                    Some(FaultPlan::parse(&v).map_err(|e| format!("invalid --fault-plan: {e}"))?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: drmap-serve [--addr HOST:PORT] [--workers N] \
                     [--cache-entries N] [--cache-bytes BYTES] \
                     [--store PATH] [--warm N] [--auto-compact-ratio R] \
                     [--max-inflight N] \
                     [--slow-ms N] [--slow-log-cap N] [--sample-secs N] \
                     [--fault-plan SPEC]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.warm.is_some() && args.store.is_none() {
        return Err("--warm only applies with --store".to_owned());
    }
    if args.auto_compact_ratio.is_some() && args.store.is_none() {
        return Err("--auto-compact-ratio only applies with --store".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("drmap-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let store = match &args.store {
        Some(path) => match Store::open(path) {
            Ok(store) => Some(Arc::new(store)),
            Err(e) => {
                eprintln!("drmap-serve: cannot open store {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let server = ServiceState::with_cache_and_store(args.cache, store.clone()).and_then(|state| {
        if store.is_some() {
            let warmed = state.warm_start(args.warm);
            if warmed > 0 {
                println!("drmap-serve: warm-started {warmed} cached results from the store");
            }
        }
        if let Some(ratio) = args.auto_compact_ratio {
            state.set_auto_compact_ratio(Some(ratio));
        }
        if let Some(cap) = args.slow_log_cap {
            state.slow_log().set_capacity(cap);
        }
        if let Some(plan) = args.fault_plan {
            state.faults().set_plan(Some(plan))?;
        }
        let pool = Arc::new(DsePool::new(state, args.workers));
        JobServer::with_config(&args.addr, pool, args.server)
    });
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            eprintln!("drmap-serve: failed to start on {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            let bound = |b: Option<usize>| match b {
                Some(n) => n.to_string(),
                None => "unbounded".to_owned(),
            };
            println!(
                "drmap-serve: listening on {addr} with {} workers \
                 (cache: {} entries, {} bytes; store: {}; \
                 in-flight: {}/conn; slow log: {} (cap {}); tick: {})",
                args.workers,
                bound(args.cache.max_entries),
                bound(args.cache.max_bytes),
                args.store.as_deref().unwrap_or("none"),
                args.server.max_inflight,
                match args.server.slow_ms {
                    Some(ms) => format!(">= {ms} ms"),
                    None => "off".to_owned(),
                },
                args.slow_log_cap.unwrap_or(32),
                match args.server.sample_interval.filter(|_| args.store.is_some()) {
                    Some(interval) => format!("every {}s", interval.as_secs()),
                    None => "off".to_owned(),
                },
            );
            if let Some(plan) = &args.fault_plan {
                println!("drmap-serve: fault plan armed: {}", plan.render());
            }
        }
        Err(e) => eprintln!("drmap-serve: {e}"),
    }
    if let Err(e) = server.run() {
        eprintln!("drmap-serve: {e}");
        return ExitCode::FAILURE;
    }
    println!("drmap-serve: shut down");
    ExitCode::SUCCESS
}
