//! Live control-plane integration tests: a running `JobServer` must
//! accept `hello`, `set-bounds`, `cache-clear`, `cache-warm`,
//! `store-compact`, `metrics`, and `set-slow-log` over TCP — as typed
//! requests and from `drmap-batch --connect … --admin` — with every
//! change observable through `stats` **without a restart**, and per-job
//! options (cache bypass/refresh, Pareto retention) must behave over the
//! wire exactly as they do in-process.

use std::process::{Command, Output};
use std::sync::Arc;

use drmap_service::cache::CacheConfig;
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::error::ServiceError;
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::proto::{BoundsUpdate, Request, Response, PROTOCOL_VERSION};
use drmap_service::server::{JobServer, ServerConfig};
use drmap_service::spec::{CacheMode, EngineSpec, JobOptions, JobSpec};
use drmap_store::store::Store;

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;

fn temp_store_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("drmap-admin-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.wal");
    let _ = std::fs::remove_file(&path);
    path
}

/// Boot a server (2 workers, entry-bounded cache, persistent store) on
/// an ephemeral port; returns the address, its accept-loop handle, and
/// the shared pool for server-side assertions.
fn boot(
    tag: &str,
    cache: CacheConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
    Arc<DsePool>,
) {
    let store = Arc::new(Store::open(temp_store_path(tag)).unwrap());
    let state = ServiceState::with_cache_and_store(cache, Some(store)).unwrap();
    let pool = Arc::new(DsePool::new(state, 2));
    let server = JobServer::with_pool("127.0.0.1:0", Arc::clone(&pool)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, pool)
}

/// Distinctly shaped single-layer jobs (every shape gets its own cache
/// entry).
fn shaped_job(id: u64, j: usize) -> JobSpec {
    JobSpec::layer(
        id,
        EngineSpec::default(),
        Layer::conv(&format!("L{j}"), 8, 8, j, 8, 3, 3, 1),
    )
}

#[test]
fn cache_warm_and_store_compact_work_over_the_wire() {
    let (addr, handle, _pool) = boot("warm-compact", CacheConfig::unbounded());
    let mut client = Client::connect(addr).unwrap();

    // Populate the store: the tiny network plus one extra shape, then
    // refresh that shape so the log carries a superseded record for
    // compaction to drop.
    let job = JobSpec::network(1, EngineSpec::default(), Network::tiny());
    client.submit(&job).unwrap();
    client.submit(&shaped_job(2, 26)).unwrap();
    client
        .submit(&shaped_job(3, 26).with_options(JobOptions {
            cache: CacheMode::Refresh,
            ..JobOptions::default()
        }))
        .unwrap();
    let stats = client.stats_report().unwrap();
    let live = stats.store.expect("server has a store").live_entries;
    assert!(live >= 3, "{stats:?}");

    // Clear memory, warm back from disk, and the resubmission is all
    // resident hits — no exploration.
    client
        .typed_request(&Request::CacheClear { id: None })
        .unwrap();
    assert_eq!(client.stats_report().unwrap().cache.entries, 0);
    let mut warm = |limit| match client.typed_request(&Request::CacheWarm { id: None, limit }) {
        Ok(Response::CacheWarmed { loaded, .. }) => loaded,
        other => panic!("{other:?}"),
    };
    assert_eq!(warm(Some(2)), 2, "warm honors its limit");
    assert_eq!(warm(None), live, "a full warm promotes every stored result");
    let warmed = client.submit(&job).unwrap();
    assert_eq!(warmed.cache_hits(), warmed.layers.len());

    // Compact drops the refreshed entry's superseded record.
    let compact = Request::StoreCompact {
        id: None,
        auto_ratio: None,
    };
    let Ok(Response::StoreCompacted { report, .. }) = client.typed_request(&compact) else {
        panic!("store-compact failed");
    };
    assert!(report.dropped_records >= 1, "{report:?}");
    assert!(report.bytes_after <= report.bytes_before);
    let after = client.stats_report().unwrap().store.unwrap();
    assert_eq!(after.dead_records, 0);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn metrics_verb_reports_live_telemetry_over_the_wire() {
    let (addr, handle, _pool) = boot("metrics", CacheConfig::unbounded());
    let mut client = Client::connect(addr).unwrap();
    let info = client.hello().unwrap();
    assert_eq!(info.version, PROTOCOL_VERSION);
    assert!(info.has("admin"));
    assert!(info.has("store"));
    assert!(info.has("metrics"));
    assert!(info.has("set-bounds"));

    client
        .submit(&JobSpec::network(1, EngineSpec::default(), Network::tiny()))
        .unwrap();
    client.submit(&shaped_job(2, 16)).unwrap();

    let report = client.metrics().unwrap();
    let snap = &report.snapshot;
    assert_eq!(snap.counter("jobs_total"), Some(2));
    assert_eq!(snap.counter("layers_total"), Some(4));
    assert!(snap.counter("connections_total").unwrap() >= 1);
    assert!(
        snap.counter("frames_text_total").unwrap() >= 4,
        "hello + 2 submits + metrics all arrived as text frames"
    );
    let request_ns = snap.histogram("request_ns").unwrap();
    assert_eq!(request_ns.count, 2, "one sample per job");
    let lookup = snap.histogram("cache_lookup_ns").unwrap();
    assert_eq!(lookup.count, 4, "one sample per layer");
    assert!(lookup.p50() > 0);
    assert!(lookup.p50() <= lookup.p99(), "{lookup:?}");
    assert!(lookup.p99() <= lookup.max);
    // Cold lookups compute, so explore shows up too, and the
    // store-backed boot wires WAL write timings through.
    assert!(snap.histogram("explore_ns").unwrap().count >= 4);
    assert!(snap.histogram("store_write_ns").unwrap().count > 0);
    assert!(snap.histogram("wal_write_ns").unwrap().count > 0);
    // The snapshot renders as Prometheus-style exposition client-side.
    let text = snap.to_prometheus();
    assert!(text.contains("drmap_jobs_total 2"), "{text}");
    assert!(text.contains("drmap_request_ns_count 2"), "{text}");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// `set-bounds` over the wire: the bounds now in force and how many
/// entries the change evicted, or the server's refusal.
fn set_bounds(
    client: &mut Client,
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
) -> Result<(Option<usize>, Option<usize>, u64), ServiceError> {
    let update = BoundsUpdate {
        max_entries,
        max_bytes,
    };
    match client.typed_request(&Request::SetBounds { id: None, update })? {
        Response::BoundsSet {
            max_entries,
            max_bytes,
            evicted,
            ..
        } => Ok((max_entries, max_bytes, evicted)),
        other => panic!("{other:?}"),
    }
}

/// `set-slow-log` over the wire: the `(slow_ms, cap)` now in force, or
/// the server's refusal.
fn set_slow_log(
    client: &mut Client,
    slow_ms: Option<u64>,
    cap: Option<usize>,
) -> Result<(Option<u64>, usize), ServiceError> {
    match client.typed_request(&Request::SetSlowLog {
        id: None,
        slow_ms,
        cap,
    })? {
        Response::SlowLogSet { slow_ms, cap, .. } => Ok((slow_ms, cap)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn set_bounds_retunes_cache_caps_on_a_live_server() {
    let (addr, handle, pool) = boot("set-bounds", CacheConfig::unbounded());
    let mut client = Client::connect(addr).unwrap();

    // Six distinctly-shaped layers resident, unbounded.
    for (id, j) in [(1, 8), (2, 16), (3, 24), (4, 32), (5, 40), (6, 48)] {
        client.submit(&shaped_job(id, j)).unwrap();
    }
    let before = client.stats_report().unwrap();
    assert_eq!(before.cache.entries, 6);
    assert_eq!(before.max_entries, None);

    // Shrinking evicts down to the new cap immediately.
    assert_eq!(
        set_bounds(&mut client, Some(2), None).unwrap(),
        (Some(2), None, 4)
    );
    assert_eq!(pool.state().cache().bounds(), (Some(2), None));
    let after = client.stats_report().unwrap();
    assert_eq!(after.cache.entries, 2);
    assert_eq!(after.max_entries, Some(2), "stats report the live bound");
    assert_eq!(after.cache.evictions, before.cache.evictions + 4);

    // 0 clears a bound back to unbounded; absent fields keep.
    assert_eq!(
        set_bounds(&mut client, Some(0), Some(1 << 20)).unwrap(),
        (None, Some(1 << 20), 0)
    );
    let cleared = client.stats_report().unwrap();
    assert_eq!(cleared.max_entries, None);
    assert_eq!(cleared.max_bytes, Some(1 << 20));

    // An empty update is refused as a usage error.
    assert!(set_bounds(&mut client, None, None).is_err());

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn trace_stage_spans_cover_most_of_the_request_wall_clock() {
    // One worker, so a job's layer tasks run sequentially and its
    // stage spans are disjoint in time — their sum can approach but
    // never exceed the request's wall clock.
    let store = Arc::new(Store::open(temp_store_path("span-sum")).unwrap());
    let state = ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();
    let pool = Arc::new(DsePool::new(state, 1));
    // The first job on an architecture also profiles it, once per
    // process and outside every stage: do that before the timed job.
    pool.state().factory().engine(&EngineSpec::default());
    let config = ServerConfig {
        slow_ms: Some(0), // log every request
        ..ServerConfig::default()
    };
    let server = JobServer::with_config("127.0.0.1:0", Arc::clone(&pool), config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(addr).unwrap();

    // What no stage covers — the hand-off to the worker, which may wait
    // out a scheduler slice (≈ 0.5–0.7 ms) on a busy machine — is per
    // job, so the job's sweeps must dwarf it in every build profile. One
    // VGG-16 sweeps in ≈ 0.5 ms in release, and one slow hand-off broke
    // the bound; 40 variants of its 16 layers, each shape distinct so
    // none is a cache hit, sweep for ≈ 10–17 ms.
    let vgg16 = Network::vgg16();
    let layers = (0..40)
        .flat_map(|variant| {
            vgg16.layers().iter().map(move |layer| Layer {
                name: format!("{}_{variant}", layer.name),
                j: layer.j + variant,
                ..layer.clone()
            })
        })
        .collect();
    let network = Network::new("VGG-16 variants", layers).unwrap();
    client
        .submit(&JobSpec::network(1, EngineSpec::default(), network))
        .unwrap();

    // `ServerConfig::slow_ms` on a live server: threshold 0 lists every
    // job in `metrics`'s `slow` array, under its wire id.
    client.submit(&shaped_job(7, 16)).unwrap();
    let report = client.metrics().unwrap();
    assert_eq!(report.slow.len(), 2, "threshold 0 logs every job");
    assert_eq!(report.slow[1].trace_id, 7);
    assert!(report.slow[1].total_ns > 0);
    let entry = &report.slow[0];
    assert_eq!(entry.trace_id, 1, "traces carry the wire job id");
    let stage = |name: &str| {
        entry
            .stages
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, ns)| *ns)
    };
    assert!(stage("explore") > 0, "a cold cache explores every layer");
    // The request is decoded before its job and trace exist, so
    // frame_decode is recorded but lies outside the trace's wall clock.
    // Inside it, cache_lookup is the one top-level stage (explore nests
    // within it), disjoint per layer with one worker, and it accounts
    // for nearly all of the request's wall clock.
    assert!(
        stage("frame_decode") > 0,
        "the decode is recorded: {entry:?}"
    );
    let disjoint = stage("cache_lookup");
    assert!(
        disjoint <= entry.total_ns,
        "disjoint spans cannot exceed the wall clock: {entry:?}"
    );
    assert!(
        disjoint * 5 >= entry.total_ns * 4,
        "stage spans must cover >= 80% of the request: {disjoint} of {} ns ({:?})",
        entry.total_ns,
        entry.stages,
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn set_slow_log_retunes_threshold_and_capacity_live() {
    let (addr, handle, pool) = boot("set-slow-log", CacheConfig::unbounded());
    let mut client = Client::connect(addr).unwrap();

    // Slow logging is off by default: a job leaves no trace.
    client.submit(&shaped_job(1, 8)).unwrap();
    assert!(client.metrics().unwrap().slow.is_empty());

    // Turn it on (threshold 0 = log everything) and shrink the ring.
    let (slow_ms, cap) = set_slow_log(&mut client, Some(0), Some(2)).unwrap();
    assert_eq!(slow_ms, Some(0));
    assert_eq!(cap, 2);
    assert_eq!(pool.state().slow_log().capacity(), 2);
    for (id, j) in [(2, 16), (3, 24), (4, 32)] {
        client.submit(&shaped_job(id, j)).unwrap();
    }
    let slow = client.metrics().unwrap().slow;
    assert_eq!(slow.len(), 2, "the ring holds only its capacity");
    assert_eq!(slow[1].trace_id, 4, "newest entries win");

    // Partial update: only the threshold moves.
    let (slow_ms, cap) = set_slow_log(&mut client, Some(60_000), None).unwrap();
    assert_eq!(slow_ms, Some(60_000));
    assert_eq!(cap, 2);
    client.submit(&shaped_job(5, 40)).unwrap();
    assert_eq!(
        client.metrics().unwrap().slow.len(),
        2,
        "a fast job no longer logs under the raised threshold"
    );

    // An empty update is refused as a usage error.
    assert!(set_slow_log(&mut client, None, None).is_err());

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn per_job_options_thread_through_the_wire() {
    let (addr, handle, _pool) = boot("job-options", CacheConfig::unbounded());
    let mut client = Client::connect(addr).unwrap();

    let spec = shaped_job(1, 16);
    let first = client.submit(&spec).unwrap();
    assert_eq!(first.cache_hits(), 0);

    // Bypass: recomputes despite the resident entry, touches nothing.
    let stats_before = client.stats_report().unwrap();
    let bypassed = client
        .submit(&spec.clone().with_options(JobOptions {
            cache: CacheMode::Bypass,
            ..JobOptions::default()
        }))
        .unwrap();
    assert_eq!(bypassed.cache_hits(), 0, "bypass never reads the cache");
    assert_eq!(
        bypassed.total.energy.to_bits(),
        first.total.energy.to_bits(),
        "bypassed recomputation is bit-identical"
    );
    let stats_after = client.stats_report().unwrap();
    assert_eq!(stats_after.cache.bypasses, stats_before.cache.bypasses + 1);
    assert_eq!(stats_after.cache.hits, stats_before.cache.hits);

    // Refresh: recomputes and replaces; counted distinctly.
    let refreshed = client
        .submit(&spec.clone().with_options(JobOptions {
            cache: CacheMode::Refresh,
            ..JobOptions::default()
        }))
        .unwrap();
    assert_eq!(refreshed.cache_hits(), 0);
    assert_eq!(client.stats_report().unwrap().cache.refreshes, 1);
    // A plain resubmission now hits the refreshed entry.
    let warm = client.submit(&spec).unwrap();
    assert_eq!(warm.cache_hits(), 1);

    // keep_points: the result carries the Pareto front, and is cached
    // under its own key (the point-free entry still hits).
    let with_points = client
        .submit(&spec.clone().with_options(JobOptions {
            keep_points: true,
            ..JobOptions::default()
        }))
        .unwrap();
    assert!(
        !with_points.layers[0].pareto.is_empty(),
        "keep_points returns the front over the wire"
    );
    assert_eq!(with_points.cache_hits(), 0, "separate cache key");
    let without = client.submit(&spec).unwrap();
    assert!(without.layers[0].pareto.is_empty());
    assert_eq!(without.cache_hits(), 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Run the `drmap-batch` binary built alongside these tests.
fn drmap_batch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drmap-batch"))
        .args(args)
        .output()
        .expect("drmap-batch runs")
}

#[test]
fn drmap_batch_drives_a_live_server_over_connect_and_admin() {
    let (addr, handle, pool) = boot("batch-cli", CacheConfig::unbounded());
    let addr = addr.to_string();

    let batch = drmap_batch(&["--connect", &addr, "--models", "tiny"]);
    assert!(batch.status.success(), "{batch:?}");
    let stdout = String::from_utf8_lossy(&batch.stdout);
    assert!(stdout.contains("1 jobs (3 layers, 0 failed)"), "{stdout}");

    let hello = format!(r#"{{"type":"hello","version":{PROTOCOL_VERSION}}}"#);
    let admin = drmap_batch(&[
        "--connect",
        &addr,
        "--admin",
        &hello,
        "ping",
        r#"{"type":"set-bounds","max_entries":32}"#,
        "cache-warm",
        "store-compact",
        "stats",
        "metrics",
    ]);
    assert!(admin.status.success(), "{admin:?}");
    let stdout = String::from_utf8_lossy(&admin.stdout);
    // One answer per request, in order, each its wire line.
    let lines: Vec<&str> = stdout.lines().collect();
    let expected = [
        r#"{"type":"hello","ok":true,"version":"#,
        r#"{"type":"pong","ok":true}"#,
        r#"{"type":"bounds-set","ok":true,"max_entries":32,"max_bytes":null,"#,
        r#"{"type":"cache-warmed","ok":true,"#,
        r#"{"type":"store-compacted","ok":true,"#,
        r#"{"type":"stats","ok":true,"#,
        r#"{"type":"metrics","ok":true,"#,
    ];
    assert_eq!(lines.len(), expected.len(), "{stdout}");
    for (line, start) in lines.iter().zip(expected) {
        assert!(line.starts_with(start), "{line:?} does not start {start:?}");
        Response::decode(&Json::parse(line).unwrap()).unwrap();
    }
    assert_eq!(pool.state().cache().bounds(), (Some(32), None));

    // A store-less server refuses a store verb, and the CLI says so
    // with a failing exit status.
    let bare = JobServer::bind("127.0.0.1:0", 1).unwrap();
    let bare_addr = bare.local_addr().unwrap().to_string();
    let bare_handle = std::thread::spawn(move || bare.run().unwrap());
    let refused = drmap_batch(&["--connect", &bare_addr, "--admin", "cache-warm"]);
    assert!(!refused.status.success(), "{refused:?}");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("cache-warm"),
        "{refused:?}"
    );

    // An argument that does not decode is refused before anything is
    // sent: the error is the decoder's, not a failed connection.
    let undecodable = drmap_batch(&[
        "--connect",
        "127.0.0.1:1",
        "--admin",
        "ping",
        "set-bounds=entries:32",
    ]);
    assert!(!undecodable.status.success(), "{undecodable:?}");
    let stderr = String::from_utf8_lossy(&undecodable.stderr);
    assert!(
        stderr.contains(r#"unknown request type "set-bounds=entries:32""#),
        "{stderr}"
    );
    assert!(!stderr.contains("cannot connect"), "{stderr}");

    Client::connect(&bare_addr).unwrap().shutdown().unwrap();
    bare_handle.join().unwrap();
    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

/// The three `drmap-batch` paths the test above leaves out: a spec
/// file, `--repeat`, and `metrics --text` (and `--text` refused on any
/// other request).
#[test]
fn drmap_batch_repeats_a_spec_file_and_prints_metrics_as_text() {
    // One worker: the two rounds' layers are looked up one after the
    // other, so the second finds the first's result resident instead
    // of coalescing onto it in flight.
    let server = JobServer::bind("127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let spec_file = temp_store_path("spec-file").with_file_name("jobs.ndjson");
    std::fs::write(
        &spec_file,
        "# one inline layer job\n\
         {\"id\":1,\"layer\":{\"name\":\"L\",\"h\":8,\"w\":8,\"j\":16,\"i\":8,\"p\":3,\"q\":3}}\n",
    )
    .unwrap();

    let spec_file = spec_file.to_str().unwrap();
    let batch = drmap_batch(&["--connect", &addr, spec_file, "--repeat", "2"]);
    assert!(batch.status.success(), "{batch:?}");
    let stdout = String::from_utf8_lossy(&batch.stdout);
    assert!(stdout.contains("2 jobs (2 layers, 0 failed)"), "{stdout}");
    // Columns from the right: layers, cached, coalesced, stored, EDP.
    let row = |id: &str| -> Vec<&str> {
        let line = stdout
            .lines()
            .find(|line| line.split_whitespace().next() == Some(id))
            .unwrap_or_else(|| panic!("no row for job {id} in {stdout}"));
        line.split_whitespace().rev().skip(1).take(4).collect()
    };
    // The repeat of job 1 goes out as job 3 (ids step by the maximum
    // id + 1): cold first, every layer cached second.
    assert_eq!(row("1"), ["0", "0", "0", "1"], "{stdout}");
    assert_eq!(row("3"), ["0", "0", "1", "1"], "{stdout}");

    let text = drmap_batch(&["--connect", &addr, "--admin", "metrics", "--text"]);
    assert!(text.status.success(), "{text:?}");
    let stdout = String::from_utf8_lossy(&text.stdout);
    let jobs: u64 = stdout
        .lines()
        .find_map(|line| line.strip_prefix("drmap_jobs_total "))
        .unwrap_or_else(|| panic!("no drmap_jobs_total sample in {stdout}"))
        .parse()
        .unwrap();
    assert_eq!(jobs, 2, "{stdout}");

    // `--text` applies only to a metrics request: it is refused, not
    // ignored, elsewhere.
    let stray = drmap_batch(&["--connect", &addr, "--admin", "stats", "--text"]);
    assert!(!stray.status.success(), "{stray:?}");
    let stderr = String::from_utf8_lossy(&stray.stderr);
    assert!(stderr.contains("--text only applies"), "{stderr}");

    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

/// `drmap-batch`'s in-process pool mode is gone: its five flags are
/// unknown.
#[test]
fn deleted_batch_flags_are_unknown() {
    for flag in [
        "--workers",
        "--compare",
        "--cache-entries",
        "--cache-bytes",
        "--store",
    ] {
        let out = drmap_batch(&["--connect", "127.0.0.1:1", flag, "2"]);
        assert!(!out.status.success(), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}
