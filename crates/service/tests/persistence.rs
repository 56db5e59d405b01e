//! Persistence integration tests: a service restarted over the same
//! store file must serve previously computed fingerprints from disk —
//! bit-identically and without recomputation — through both the
//! in-process pool API and a real TCP server restart.
//!
//! The TCP test deliberately leaves its log at
//! `target/store-smoke/store.wal` (workspace-relative), where CI runs a
//! `drmap-store verify` smoke pass over it after the test suite.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_service::cache::CacheConfig;
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::pool::DsePool;
use drmap_service::server::{JobServer, ServerConfig};
use drmap_service::spec::{CacheMode, EngineSpec, JobSpec};
use drmap_store::store::Store;
use drmap_store::verify::verify;

/// The workspace `target/` directory, resolved from this crate's
/// manifest so it works from any test working directory.
fn smoke_path(file: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/store-smoke"
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    let _ = std::fs::remove_file(&path);
    path
}

fn jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::network(1, EngineSpec::default(), Network::tiny()),
        JobSpec::layer(
            2,
            EngineSpec::default(),
            Layer::conv("EXTRA", 8, 8, 24, 8, 3, 3, 1),
        ),
    ]
}

#[test]
fn a_restarted_pool_serves_previous_results_from_disk() {
    let path = smoke_path("restart.wal");
    let specs = jobs();

    // First life: everything computes and writes through.
    let store = Arc::new(Store::open(&path).unwrap());
    let state = ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();
    let pool = DsePool::new(Arc::clone(&state), 2);
    let first: Vec<_> = specs
        .iter()
        .map(|s| pool.submit(s))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|job| job.wait())
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(first.iter().map(|r| r.store_hits()).sum::<usize>(), 0);
    let persisted = state.cache().store().unwrap().len();
    assert!(persisted > 0, "computations were persisted");
    assert_eq!(
        state.cache().stats().store_misses,
        persisted as u64,
        "every distinct fingerprint consulted the store exactly once"
    );
    drop(pool);
    drop(state);

    // Restart: a fresh process image — new store handle, empty cache.
    let store = Arc::new(Store::open(&path).unwrap());
    assert_eq!(store.len(), persisted, "the log survived the restart");
    let state = ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();
    let pool = DsePool::new(Arc::clone(&state), 2);
    let second: Vec<_> = specs
        .iter()
        .map(|s| pool.submit(s))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|job| job.wait())
        .map(|r| r.unwrap())
        .collect();

    let store_hits: usize = second.iter().map(|r| r.store_hits()).sum();
    assert!(store_hits > 0, "restart must serve from disk");
    let stats = state.cache().stats();
    assert_eq!(stats.store_hits, persisted as u64);
    assert_eq!(stats.store_misses, 0, "nothing was recomputed");
    assert!(
        stats.compute_ns_total > 0,
        "compute durations were revived from the store"
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.total.energy.to_bits(), b.total.energy.to_bits());
        assert_eq!(a.total.cycles.to_bits(), b.total.cycles.to_bits());
        for (x, y) in a.layers.iter().zip(&b.layers) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.tiling, y.tiling);
            assert_eq!(x.mapping, y.mapping);
            assert_eq!(x.estimate.energy.to_bits(), y.estimate.energy.to_bits());
            assert_eq!(x.estimate.cycles.to_bits(), y.estimate.cycles.to_bits());
        }
    }
    drop(pool);
    drop(state);

    // Third life, warm-started: the hot set is resident before the
    // first request, so every layer is a plain memory hit.
    let store = Arc::new(Store::open(&path).unwrap());
    let state = ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();
    assert_eq!(state.cache().warm_from_store(None), persisted);
    let pool = DsePool::new(Arc::clone(&state), 2);
    let third: Vec<_> = specs
        .iter()
        .map(|s| pool.submit(s))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|job| job.wait())
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(
        third.iter().map(|r| r.cache_hits()).sum::<usize>(),
        specs
            .iter()
            .map(|s| s.workload.layers().len())
            .sum::<usize>(),
        "a warm-started cache answers everything from memory"
    );
    assert_eq!(state.cache().stats().store_hits, 0);
}

#[test]
fn a_restarted_tcp_server_serves_store_hits_over_the_wire() {
    let path = smoke_path("store.wal");
    let specs = jobs();

    let serve_once = |path: &PathBuf, warm: bool| -> (Vec<drmap_service::spec::JobResult>, u64) {
        let store = Arc::new(Store::open(path).unwrap());
        let state =
            ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();
        if warm {
            state.cache().warm_from_store(None);
        }
        let pool = Arc::new(DsePool::new(state, 2));
        let server = JobServer::with_pool("127.0.0.1:0", pool).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(addr).unwrap();
        let results: Vec<_> = client
            .submit_batch(&specs)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let stats = client.stats_report().unwrap().cache;
        client.shutdown().unwrap();
        handle.join().unwrap();
        (results, stats.store_hits)
    };

    let (first, first_store_hits) = serve_once(&path, false);
    assert_eq!(first_store_hits, 0, "a fresh log has nothing to serve");

    // Restart the server process state over the same log.
    let (second, second_store_hits) = serve_once(&path, false);
    assert!(
        second_store_hits > 0,
        "the restarted server must hit the store"
    );
    let wire_store_hits: usize = second.iter().map(|r| r.store_hits()).sum();
    assert!(
        wire_store_hits > 0,
        "store hits are visible per layer on the wire"
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.total.energy.to_bits(), b.total.energy.to_bits());
        assert_eq!(a.total.cycles.to_bits(), b.total.cycles.to_bits());
    }

    // The log this test leaves behind must verify clean — CI reruns
    // this exact check via the drmap-store CLI.
    let report = verify(&path, true).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert!(report.records > 0);
    assert_eq!(report.undecodable, 0);
}

#[test]
fn auto_compaction_triggers_on_the_dead_bytes_ratio() {
    let path = smoke_path("autocompact.wal");
    let store = Arc::new(Store::open(&path).unwrap());
    let state = ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();

    // Disarmed and empty: the check must be a no-op.
    assert!(!state.maybe_auto_compact());
    assert_eq!(state.auto_compact_ratio(), None);

    // Populate the log, then refresh the same fingerprints so every
    // original record is superseded in place — pure dead bytes.
    let mut spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
    state.run_job(&spec).unwrap();
    spec.options.cache = CacheMode::Refresh;
    state.run_job(&spec).unwrap();
    let stats = state.cache().store().unwrap().stats();
    assert!(stats.dead_bytes > 0, "refresh must strand the old records");

    // Armed above the current ratio: still a no-op.
    assert_eq!(state.set_auto_compact_ratio(Some(0.99)), None);
    assert!(!state.maybe_auto_compact());
    assert_eq!(
        state.metrics().snapshot().counter("wal_autocompact_total"),
        Some(0)
    );

    // Armed below it: the background check compacts and counts.
    assert_eq!(state.set_auto_compact_ratio(Some(0.01)), Some(0.99));
    assert!(state.maybe_auto_compact());
    let stats = state.cache().store().unwrap().stats();
    assert_eq!(stats.dead_bytes, 0, "compaction dropped the dead records");
    assert_eq!(stats.compactions, 1);
    assert_eq!(
        state.metrics().snapshot().counter("wal_autocompact_total"),
        Some(1)
    );
    // And it does not retrigger on a clean log.
    assert!(!state.maybe_auto_compact());
}

#[test]
fn a_live_server_tick_auto_compacts_without_any_verb() {
    // The background tick's one job, run by the server's own thread:
    // only jobs cross the wire, and the counter is read in-process.
    let path = smoke_path("tick.wal");
    let store = Arc::new(Store::open(&path).unwrap());
    let state = ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();
    state.set_auto_compact_ratio(Some(0.25));
    let pool = Arc::new(DsePool::new(Arc::clone(&state), 2));
    let config = ServerConfig {
        sample_interval: Some(Duration::from_millis(25)),
        ..ServerConfig::default()
    };
    let server = JobServer::with_config("127.0.0.1:0", pool, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(addr).unwrap();

    // Refreshes re-append every layer, stranding the earlier records.
    let mut spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
    client.submit(&spec).unwrap();
    spec.options.cache = CacheMode::Refresh;
    for id in 2..=4 {
        spec.id = id;
        client.submit(&spec).unwrap();
    }
    let autocompacted = || {
        state
            .metrics()
            .snapshot()
            .counter("wal_autocompact_total")
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while autocompacted() == 0 {
        assert!(
            Instant::now() < deadline,
            "the tick never compacted: {:?}",
            state.cache().store().unwrap().stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(state.cache().store().unwrap().stats().compactions >= 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}
