//! In-flight limit tests: the per-connection cap must bound
//! concurrency without ever deadlocking or dropping responses.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::proto::{Request, Response};
use drmap_service::server::{JobServer, ServerConfig};
use drmap_service::spec::{CacheMode, EngineSpec, JobOptions, JobSpec};
use drmap_service::wire;

fn batch(ids: std::ops::Range<u64>) -> Vec<JobSpec> {
    ids.map(|id| JobSpec::network(id, EngineSpec::default(), Network::tiny()))
        .collect()
}

/// Jobs pipelined past the cap wait in the connection's reader: with
/// the only worker held, exactly `max_inflight` of them are ever in
/// flight, and every one still answers under its own id once the worker
/// is free.
#[test]
fn the_per_connection_cap_bounds_jobs_in_flight() {
    const CAP: usize = 4;
    const JOBS: u64 = 12;
    let state = ServiceState::new().unwrap();
    let pool = Arc::new(DsePool::new(state, 1));
    let server = JobServer::with_config(
        "127.0.0.1:0",
        Arc::clone(&pool),
        ServerConfig {
            max_inflight: CAP,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(server.config().max_inflight, CAP);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let (holding, held) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let blocker = Layer::conv("BLOCK", 8, 8, 16, 8, 3, 3, 1);
    pool.submit_then(
        &JobSpec::layer(0, EngineSpec::default(), blocker),
        None,
        move |_| {
            holding.send(()).unwrap();
            let _ = released.recv();
        },
    );
    held.recv().unwrap();

    let bypass = JobOptions {
        cache: CacheMode::Bypass,
        ..JobOptions::default()
    };
    let mut client = Client::connect(addr).unwrap();
    for id in 1..=JOBS {
        let job = JobSpec::network(id, EngineSpec::default(), Network::tiny()).with_options(bypass);
        client.send(&Request::Submit(job).to_json()).unwrap();
    }

    let inflight = || pool.state().metrics().snapshot().gauge("jobs_inflight");
    let deadline = Instant::now() + Duration::from_secs(10);
    while inflight() < Some(CAP as i64) {
        assert!(
            Instant::now() < deadline,
            "only {:?} jobs became in-flight",
            inflight()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(inflight(), Some(CAP as i64), "the cap did not hold");
    release.send(()).unwrap();

    let mut answered: Vec<u64> = (0..JOBS)
        .map(|_| {
            let response = client.recv().unwrap();
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
            response.get("id").and_then(Json::as_u64).unwrap()
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (1..=JOBS).collect::<Vec<_>>());
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A small cap under several concurrently pipelining connections: every
/// job still completes, and each connection's gate is its own.
#[test]
fn a_small_cap_never_deadlocks_concurrent_connections() {
    let state = ServiceState::new().unwrap();
    let pool = Arc::new(DsePool::new(state, 2));
    let server = JobServer::with_config(
        "127.0.0.1:0",
        pool,
        ServerConfig {
            max_inflight: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let clients: Vec<_> = (0..3)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let specs = batch(c * 100..c * 100 + 6);
                let results = client.submit_batch(&specs).unwrap();
                for (spec, result) in specs.iter().zip(results) {
                    let result = result.unwrap();
                    assert_eq!(result.id, spec.id);
                    assert_eq!(result.layers.len(), 3);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown().unwrap();
    handle.join().unwrap();
}

/// A per-connection cap of one forces strictly serial service of a
/// pipelined burst — slow, but complete and correctly correlated.
#[test]
fn a_per_connection_cap_of_one_still_serves_a_pipelined_burst() {
    let state = ServiceState::new().unwrap();
    let pool = Arc::new(DsePool::new(state, 2));
    let server = JobServer::with_config(
        "127.0.0.1:0",
        pool,
        ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let specs = batch(1..9);
    let results = client.submit_batch(&specs).unwrap();
    assert_eq!(results.len(), 8);
    for (spec, result) in specs.iter().zip(results) {
        assert_eq!(result.unwrap().id, spec.id);
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The reader writes the answers it holds for a pipelined burst before
/// it waits at the cap: with a cap of two, ten pings sent in one write
/// are all answered, where a reader that waited for a third slot while
/// holding the first two answers would wait on itself.
#[test]
fn a_burst_past_the_cap_is_answered_whole() {
    let state = ServiceState::new().unwrap();
    let pool = Arc::new(DsePool::new(state, 1));
    let server = JobServer::with_config(
        "127.0.0.1:0",
        pool,
        ServerConfig {
            max_inflight: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut burst = Vec::new();
    for id in 0..10 {
        wire::write_request(&mut burst, &Request::Ping { id: Some(id) }).unwrap();
    }
    stream.write_all(&burst).unwrap();
    let mut ids: Vec<u64> = (0..10)
        .map(|_| match wire::read_response(&mut reader).unwrap() {
            Some(Response::Pong { id: Some(id) }) => id,
            other => panic!("{other:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..10).collect::<Vec<_>>());

    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

/// A zero cap is a configuration error, not a latent deadlock.
#[test]
fn zero_caps_are_rejected_at_construction() {
    let state = ServiceState::new().unwrap();
    let pool = Arc::new(DsePool::new(state, 1));
    assert!(JobServer::with_config(
        "127.0.0.1:0",
        pool,
        ServerConfig {
            max_inflight: 0,
            ..ServerConfig::default()
        },
    )
    .is_err());
}

/// The global in-flight cap, the drain bound and the boot-time twins
/// of live verbs are gone; their flags are unknown.
#[test]
fn deleted_serve_flags_are_unknown() {
    for flag in [
        "--max-inflight-global",
        "--drain-secs",
        "--warm",
        "--auto-compact-ratio",
        "--slow-log-cap",
        "--fault-plan",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_drmap-serve"))
            .args([flag, "2"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}
