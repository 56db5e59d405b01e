//! `drmap-loadgen` — seeded zipfian load generator for `drmap-serve`.
//!
//! ```text
//! drmap-loadgen [--addr HOST:PORT] [--seed N] [--connections N]
//!               [--duration SECS] [--warmup SECS] [--rate RPS]
//!               [--window N] [--zipf S] [--out PATH] [--binary]
//! ```
//!
//! Replays a deterministic, zipfian-skewed mix of network- and
//! layer-exploration jobs (see `drmap_service::loadgen`) over N
//! pipelined TCP connections against a live server. Each connection
//! runs a sender and a receiver thread, so requests stream without
//! waiting for responses; latency is measured client-side from the
//! instant before a request is written to the instant its response is
//! decoded, recorded into a `drmap_telemetry::Histogram`.
//!
//! Two modes:
//!
//! * **closed-loop** (default): each connection keeps `--window`
//!   requests in flight and sends the next as soon as one completes —
//!   measures the server's saturated throughput;
//! * **open-loop** (`--rate R`): senders pace requests at a fixed
//!   aggregate target of R req/s regardless of completions (bounded by
//!   `--window` in-flight per connection as a backpressure cap) —
//!   measures latency at a fixed offered load.
//!
//! The first `--warmup` seconds are sent but excluded from the
//! recorded percentiles; the measurement window is `--duration`
//! seconds after that. Before and after the run, the server's
//! `metrics` and `stats` admin verbs are scraped so the report can
//! attribute cache and store hit rates to the run itself (deltas, not
//! lifetime totals).
//!
//! Results go to `--out` (default `BENCH_load.json`) — p50/p99/p999
//! latency, throughput, hit ratios, and a mandatory environment block
//! (core count, connections, workers, mode, target rate). A document
//! missing any of those fields is *refused*, not written. A markdown
//! results table is printed to stdout, with the single-core caveat
//! footnoted.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drmap_service::cli::parse_positive as positive;
use drmap_service::client::Client;
use drmap_service::json::Json;
use drmap_service::loadgen::{self, JobMix, DEFAULT_ZIPF_EXPONENT};
use drmap_service::proto::{Request, Response, StatsReport};
use drmap_service::wire::{self, Encoding};
use drmap_telemetry::{Histogram, MetricsSnapshot};

struct Args {
    addr: String,
    seed: u64,
    connections: usize,
    duration: Duration,
    warmup: Duration,
    rate: Option<f64>,
    window: usize,
    zipf: f64,
    out: String,
    encoding: Encoding,
}

fn parse_secs(flag: &str, v: &str) -> Result<Duration, String> {
    match v.parse::<f64>() {
        Ok(secs) if secs >= 0.0 && secs.is_finite() => Ok(Duration::from_secs_f64(secs)),
        _ => Err(format!("invalid {flag} value {v:?} (seconds, >= 0)")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        seed: 42,
        connections: 4,
        duration: Duration::from_secs(10),
        warmup: Duration::from_secs(1),
        rate: None,
        window: 16,
        zipf: DEFAULT_ZIPF_EXPONENT,
        out: "BENCH_load.json".to_owned(),
        encoding: Encoding::Text,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("invalid --seed value {v:?}"))?;
            }
            "--connections" => {
                args.connections = positive("--connections", &value("--connections")?)?;
            }
            "--duration" => {
                args.duration = parse_secs("--duration", &value("--duration")?)?;
                if args.duration.is_zero() {
                    return Err("--duration must be positive".to_owned());
                }
            }
            "--warmup" => args.warmup = parse_secs("--warmup", &value("--warmup")?)?,
            "--rate" => {
                let v = value("--rate")?;
                match v.parse::<f64>() {
                    Ok(r) if r > 0.0 && r.is_finite() => args.rate = Some(r),
                    _ => return Err(format!("invalid --rate value {v:?} (req/s, > 0)")),
                }
            }
            "--window" => args.window = positive("--window", &value("--window")?)?,
            "--zipf" => {
                let v = value("--zipf")?;
                match v.parse::<f64>() {
                    Ok(s) if s >= 0.0 && s.is_finite() => args.zipf = s,
                    _ => return Err(format!("invalid --zipf value {v:?} (exponent, >= 0)")),
                }
            }
            "--out" => args.out = value("--out")?,
            "--binary" => args.encoding = Encoding::Binary,
            "--help" | "-h" => {
                println!(
                    "usage: drmap-loadgen [--addr HOST:PORT] [--seed N] [--connections N] \
                     [--duration SECS] [--warmup SECS] [--rate RPS] [--window N] \
                     [--zipf S] [--out PATH] [--binary]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// In-flight requests on one connection, shared between its sender and
/// receiver threads.
#[derive(Default)]
struct ConnShared {
    inner: Mutex<ConnInner>,
    cv: Condvar,
}

#[derive(Default)]
struct ConnInner {
    /// Job id -> the instant just before its request hit the socket.
    pending: HashMap<u64, Instant>,
    /// The sender has stopped; once `pending` drains, the run is over.
    done: bool,
}

/// What one receiver thread observed.
#[derive(Default)]
struct Tally {
    completed: u64,
    failed: u64,
    warmup_completed: u64,
    transport_error: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn sender_loop(
    stream: TcpStream,
    mut mix: JobMix,
    shared: Arc<ConnShared>,
    encoding: Encoding,
    window: usize,
    pace: Option<Duration>,
    t0: Instant,
    deadline: Instant,
) -> u64 {
    let mut writer = &stream;
    let mut sent = 0u64;
    let mut next_send = t0;
    'run: while Instant::now() < deadline {
        {
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            while inner.pending.len() >= window {
                if Instant::now() >= deadline {
                    break 'run;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(inner, Duration::from_millis(20))
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
            }
        }
        if let Some(pace) = pace {
            let now = Instant::now();
            if next_send > now {
                std::thread::sleep(next_send - now);
            }
            next_send += pace;
            if Instant::now() >= deadline {
                break;
            }
        }
        let spec = mix.next_spec();
        let id = spec.id;
        {
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.pending.insert(id, Instant::now());
        }
        if wire::write_request(&mut writer, &Request::Submit(spec), encoding).is_err() {
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.pending.remove(&id);
            break;
        }
        sent += 1;
    }
    {
        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.done = true;
        shared.cv.notify_all();
    }
    // Half-close: the server drains every in-flight response after a
    // client EOF, then closes — which is exactly the drain the
    // receiver needs to exit cleanly.
    let _ = stream.shutdown(Shutdown::Write);
    sent
}

fn receiver_loop(
    stream: TcpStream,
    shared: Arc<ConnShared>,
    hist: Arc<Histogram>,
    measure_start: Instant,
) -> Tally {
    let mut reader = BufReader::new(stream);
    let mut tally = Tally::default();
    loop {
        let response = match wire::read_response(&mut reader) {
            Ok(Some((response, _))) => response,
            Ok(None) => break,
            Err(e) => {
                tally.transport_error = Some(e.to_string());
                break;
            }
        };
        let (id, ok) = match &response {
            Response::Job { result } => (Some(result.id), true),
            Response::Error { id, .. } => (*id, false),
            _ => continue,
        };
        let Some(id) = id else { continue };
        let sent_at = {
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            let sent_at = inner.pending.remove(&id);
            shared.cv.notify_all();
            sent_at
        };
        let Some(sent_at) = sent_at else { continue };
        if sent_at < measure_start {
            tally.warmup_completed += 1;
        } else if ok {
            let elapsed = sent_at.elapsed();
            hist.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            tally.completed += 1;
        } else {
            tally.failed += 1;
        }
    }
    tally
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    // Reads existing server counters by runtime name — not a
    // registration site, so there is no literal for the drift lint.
    let after = after.counter(name).unwrap_or(0); // check:allow(metrics-doc-drift)
    let before = before.counter(name).unwrap_or(0); // check:allow(metrics-doc-drift)
    after.saturating_sub(before)
}

fn ratio(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

fn opt_f64(v: Option<f64>) -> Json {
    match v {
        Some(x) => Json::Num(x),
        None => Json::Null,
    }
}

struct RunReport {
    doc: Json,
    completed: u64,
    transport_errors: Vec<String>,
}

fn run(args: &Args) -> Result<RunReport, String> {
    let scrape =
        |what: &str, admin: &mut Client| -> Result<(StatsReport, MetricsSnapshot), String> {
            let stats = admin
                .stats_report()
                .map_err(|e| format!("stats scrape {what} the run failed: {e}"))?;
            let metrics = admin
                .metrics()
                .map_err(|e| format!("metrics scrape {what} the run failed: {e}"))?;
            Ok((stats, metrics.snapshot))
        };

    let mut admin =
        Client::connect(&args.addr).map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let hello = admin
        .hello()
        .map_err(|e| format!("handshake with {} failed: {e}", args.addr))?;
    let (stats_before, metrics_before) = scrape("before", &mut admin)?;
    eprintln!(
        "drmap-loadgen: {} at {} ({} workers); seed {}, {} connection(s), {} mode, \
         warmup {:.1}s, measuring {:.1}s",
        hello.server,
        args.addr,
        stats_before.workers,
        args.seed,
        args.connections,
        match args.rate {
            Some(r) => format!("open-loop @ {r} req/s"),
            None => format!("closed-loop (window {})", args.window),
        },
        args.warmup.as_secs_f64(),
        args.duration.as_secs_f64(),
    );

    let hist = Arc::new(Histogram::new());
    let t0 = Instant::now();
    let measure_start = t0 + args.warmup;
    let deadline = measure_start + args.duration;

    let mut senders: Vec<JoinHandle<u64>> = Vec::new();
    let mut receivers: Vec<JoinHandle<Tally>> = Vec::new();
    for conn in 0..args.connections {
        let stream = TcpStream::connect(&args.addr)
            .map_err(|e| format!("connection {conn} to {} failed: {e}", args.addr))?;
        // The read deadline is a backstop only: the normal exit path
        // is the server's drain-and-close after our write-half shutdown.
        wire::configure_socket(&stream, Some(Duration::from_secs(120)), None)
            .map_err(|e| format!("cannot configure connection {conn}: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cannot clone connection {conn}: {e}"))?;
        // Per-connection plans are derived from the one seed, so the
        // full request sequence is reproducible per connection; the
        // id spaces are disjoint so replies correlate unambiguously.
        let mut mix = JobMix::new(
            args.seed
                .wrapping_add((conn as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            args.zipf,
        );
        mix.set_next_id((conn as u64 + 1) << 40);
        let pace = args
            .rate
            .map(|r| Duration::from_secs_f64(args.connections as f64 / r));
        let shared = Arc::new(ConnShared::default());
        let (encoding, window) = (args.encoding, args.window);
        senders.push(std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || sender_loop(stream, mix, shared, encoding, window, pace, t0, deadline)
        }));
        receivers.push(std::thread::spawn({
            let (shared, hist) = (Arc::clone(&shared), Arc::clone(&hist));
            move || receiver_loop(reader, shared, hist, measure_start)
        }));
    }

    let mut sent = 0u64;
    for handle in senders {
        sent += handle.join().unwrap_or(0);
    }
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut warmup_completed = 0u64;
    let mut transport_errors = Vec::new();
    for handle in receivers {
        let tally = handle.join().unwrap_or_default();
        completed += tally.completed;
        failed += tally.failed;
        warmup_completed += tally.warmup_completed;
        transport_errors.extend(tally.transport_error);
    }
    let measured_secs = Instant::now()
        .saturating_duration_since(measure_start)
        .as_secs_f64()
        .max(f64::EPSILON);

    let (stats_after, metrics_after) = scrape("after", &mut admin)?;

    let snapshot = hist.snapshot();
    let throughput = completed as f64 / measured_secs;
    let cache_hits = counter_delta(&metrics_before, &metrics_after, "cache_hits_total");
    let cache_misses = counter_delta(&metrics_before, &metrics_after, "cache_misses_total");
    let cache_ratio = ratio(cache_hits, cache_misses);
    let store_hits = stats_after
        .cache
        .store_hits
        .saturating_sub(stats_before.cache.store_hits);
    let store_misses = stats_after
        .cache
        .store_misses
        .saturating_sub(stats_before.cache.store_misses);
    let store_ratio = stats_after
        .store
        .as_ref()
        .and_then(|_| ratio(store_hits, store_misses));
    let cores_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let doc = Json::obj([
        ("bench", Json::str("drmap-loadgen")),
        ("server", Json::str(&hello.server)),
        ("seed", Json::num_u64(args.seed)),
        ("zipf_exponent", Json::Num(args.zipf)),
        ("warmup_secs", Json::Num(args.warmup.as_secs_f64())),
        ("duration_secs", Json::Num(args.duration.as_secs_f64())),
        ("measured_secs", Json::Num(measured_secs)),
        ("requests_sent", Json::num_u64(sent)),
        ("requests_completed", Json::num_u64(completed)),
        ("requests_failed", Json::num_u64(failed)),
        ("warmup_completed", Json::num_u64(warmup_completed)),
        ("throughput_rps", Json::Num(throughput)),
        (
            "latency_ns",
            Json::obj([
                ("count", Json::num_u64(snapshot.count)),
                ("p50_ns", Json::num_u64(snapshot.p50())),
                ("p99_ns", Json::num_u64(snapshot.p99())),
                ("p999_ns", Json::num_u64(snapshot.p999())),
                (
                    "mean_ns",
                    Json::num_u64(snapshot.sum.checked_div(snapshot.count).unwrap_or(0)),
                ),
                ("max_ns", Json::num_u64(snapshot.max)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits_delta", Json::num_u64(cache_hits)),
                ("misses_delta", Json::num_u64(cache_misses)),
                ("hit_ratio", opt_f64(cache_ratio)),
            ]),
        ),
        (
            "store",
            Json::obj([
                ("attached", Json::Bool(stats_after.store.is_some())),
                ("hits_delta", Json::num_u64(store_hits)),
                ("misses_delta", Json::num_u64(store_misses)),
                ("hit_ratio", opt_f64(store_ratio)),
            ]),
        ),
        (
            "environment",
            Json::obj([
                ("cores_available", Json::num_usize(cores_available)),
                ("connections", Json::num_usize(args.connections)),
                ("workers", Json::num_usize(stats_before.workers)),
                (
                    "mode",
                    Json::str(if args.rate.is_some() {
                        "open-loop"
                    } else {
                        "closed-loop"
                    }),
                ),
                ("target_rate_rps", opt_f64(args.rate)),
                // Topology: how many serving nodes produced these
                // numbers, and whether a router tier sat in front.
                (
                    "backends",
                    Json::num_usize(stats_before.backends.unwrap_or(1)),
                ),
                ("router", Json::Bool(hello.has("router"))),
                ("window", Json::num_usize(args.window)),
                ("addr", Json::str(&args.addr)),
            ]),
        ),
    ]);
    // The environment block is not optional: a benchmark number that
    // cannot be tied to the cores/concurrency that produced it is
    // noise. Refuse to write rather than emit a partial document.
    loadgen::validate_bench(&doc).map_err(|e| format!("refusing to write {}: {e}", args.out))?;
    std::fs::write(&args.out, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;

    Ok(RunReport {
        doc,
        completed,
        transport_errors,
    })
}

fn print_markdown(args: &Args, report: &RunReport) {
    let doc = &report.doc;
    let num = |path: &[&str]| -> f64 {
        let mut v = doc;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_f64().unwrap_or(0.0)
    };
    let ms = |ns: f64| ns / 1e6;
    let pct = |path: &[&str]| -> String {
        let mut v = doc;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return "n/a".to_owned(),
            }
        }
        match v.as_f64() {
            Some(r) => format!("{:.1}%", r * 100.0),
            None => "n/a".to_owned(),
        }
    };
    println!("## drmap-loadgen results\n");
    println!("| metric | value |");
    println!("|---|---|");
    println!(
        "| mode | {} (seed {}, zipf {}) |",
        match args.rate {
            Some(r) => format!("open-loop @ {r} req/s"),
            None => format!("closed-loop, window {}/conn", args.window),
        },
        args.seed,
        args.zipf,
    );
    println!(
        "| requests (completed / failed) | {} / {} |",
        num(&["requests_completed"]),
        num(&["requests_failed"]),
    );
    println!("| throughput | {:.1} req/s |", num(&["throughput_rps"]));
    println!(
        "| latency p50 / p99 / p999 ¹ | {:.2} / {:.2} / {:.2} ms |",
        ms(num(&["latency_ns", "p50_ns"])),
        ms(num(&["latency_ns", "p99_ns"])),
        ms(num(&["latency_ns", "p999_ns"])),
    );
    println!(
        "| cache hit ratio (resident) | {} ({}/{} lookups) |",
        pct(&["cache", "hit_ratio"]),
        num(&["cache", "hits_delta"]),
        num(&["cache", "hits_delta"]) + num(&["cache", "misses_delta"]),
    );
    println!("| store hit ratio | {} |", pct(&["store", "hit_ratio"]));
    println!();
    println!(
        "¹ {} connection(s) against {} worker(s) on {} available core(s); \
         on single-core runners the percentiles include queueing delay, \
         not just service time.",
        num(&["environment", "connections"]),
        num(&["environment", "workers"]),
        num(&["environment", "cores_available"]),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("drmap-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("drmap-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_markdown(&args, &report);
    eprintln!("drmap-loadgen: wrote {}", args.out);
    for error in &report.transport_errors {
        eprintln!("drmap-loadgen: connection ended early: {error}");
    }
    if report.completed == 0 {
        eprintln!("drmap-loadgen: no requests completed inside the measurement window");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
