//! `drmap-serve` — the DSE job server.
//!
//! ```text
//! drmap-serve [--addr HOST:PORT] [--workers N]
//!             [--cache-entries N] [--cache-bytes BYTES] [--store PATH]
//!             [--max-inflight N] [--slow-ms N] [--sample-secs N]
//! ```
//!
//! Speaks the typed, versioned protocol over pipelined TCP as
//! newline-delimited JSON text; see `docs/PROTOCOL.md`. The cache flags
//! bound the layer memo cache, which evicts the least recently used
//! entry; without them the cache is unbounded (both bounds are
//! retunable live with the `set-bounds` admin verb).
//! `--store PATH` opens (or creates) a
//! persistent result log beneath the cache — results survive restarts,
//! and on boot the most recent stored results warm the cache (up to the
//! cache's entry bound, or all of them). `store-compact`'s `auto_ratio`
//! R arms background store compaction: each background tick
//! compacts the log when its dead-bytes ratio reaches R (counted in
//! `drmap_wal_autocompact_total`). `--sample-secs N` sets that tick's
//! cadence (default 10; `--sample-secs 0` disables it); the tick runs
//! only with `--store`, since compaction is its one job.
//! `--max-inflight` bounds in-flight requests per connection
//! (default 128). `--slow-ms N` turns on the slow-request log: any job
//! taking at least N ms is captured with its per-stage span breakdown
//! and dumped by the `metrics` admin verb (`--slow-ms 0` logs every
//! job); its ring holds 32 entries, retunable live via `set-slow-log`.
//! A fault plan is armed live with `set-faults`, whose `spec` is a JSON
//! object (see `docs/RELIABILITY.md`). On `shutdown` the server drains in-flight
//! jobs for at most 5 s. Try it with netcat:
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
use drmap_service::pool::DsePool;
use drmap_service::server::{JobServer, ServerConfig};
use drmap_store::store::Store;

struct Args {
    addr: String,
    workers: usize,
    cache: CacheConfig,
    store: Option<String>,
    server: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        workers: default_workers(),
        cache: CacheConfig::unbounded(),
        store: None,
        server: ServerConfig {
            // The serve bin ticks every 10 s by default so
            // store-compact's auto_ratio works out of the box; --sample-secs 0
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
            "--sample-secs" => {
                // 0 is meaningful: it disables the background tick.
                let v = value("--sample-secs")?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --sample-secs value {v:?}"))?;
                args.server.sample_interval = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--help" | "-h" => {
                println!(
                    "usage: drmap-serve [--addr HOST:PORT] [--workers N] \
                     [--cache-entries N] [--cache-bytes BYTES] [--store PATH] \
                     [--max-inflight N] [--slow-ms N] [--sample-secs N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
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
    let server = ServiceState::with_cache_and_store(args.cache, store).and_then(|state| {
        let warmed = state.cache().warm_from_store(None);
        if warmed > 0 {
            println!("drmap-serve: warm-started {warmed} cached results from the store");
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
                 in-flight: {}/conn; slow log: {}; tick: {})",
                args.workers,
                bound(args.cache.max_entries),
                bound(args.cache.max_bytes),
                args.store.as_deref().unwrap_or("none"),
                args.server.max_inflight,
                match args.server.slow_ms {
                    Some(ms) => format!(">= {ms} ms"),
                    None => "off".to_owned(),
                },
                match args.server.sample_interval.filter(|_| args.store.is_some()) {
                    Some(interval) => format!("every {}s", interval.as_secs()),
                    None => "off".to_owned(),
                },
            );
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
