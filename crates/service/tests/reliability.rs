//! Reliability integration tests over live sockets: chaos (a seeded
//! fault plan against a fixed load plan), a dropped frame against the
//! client's read timeout, graceful-shutdown drain, and the wire-level
//! `deadline_exceeded` response.
//!
//! The chaos test asserts the contract `docs/RELIABILITY.md` promises:
//! under injected store failures, wire stalls, and a worker panic,
//! every response is either **bit-identical** to the fault-free run's
//! response or a **typed error** — never a hang (a watchdog thread
//! fails the test if the run wedges), never a silent wrong answer.

use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_service::cache::CacheConfig;
use drmap_service::client::{Client, ClientConfig};
use drmap_service::engine::ServiceState;
use drmap_service::error::ServiceError;
use drmap_service::faults::{FaultPlan, FAULTS_COMPILED_IN};
use drmap_service::loadgen::default_catalog;
use drmap_service::pool::DsePool;
use drmap_service::proto::{MetricsReport, Request};
use drmap_service::server::JobServer;
use drmap_service::spec::{EngineSpec, JobOptions, JobResult, JobSpec};
use drmap_store::store::Store;

/// A scratch WAL path under the workspace `target/`, resolved from
/// this crate's manifest so it works from any test working directory.
fn scratch_path(file: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/chaos-scratch"
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    let _ = std::fs::remove_file(&path);
    path
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report
        .snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn gauge(report: &MetricsReport, name: &str) -> i64 {
    report
        .snapshot
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Bit-exact fingerprint of a job's merged estimate.
fn bits(result: &JobResult) -> (u64, u64) {
    (result.total.energy.to_bits(), result.total.cycles.to_bits())
}

// ---------------------------------------------------------------------
// Chaos: seeded fault plan vs fixed load
// ---------------------------------------------------------------------

/// The plan the chaos run arms. Probabilities are deliberately high
/// enough that every fault site fires within a 48-job run (the draws
/// are a pure function of the seed, so the firing pattern is stable
/// across runs and machines); `wire-stall-ms` is kept tiny so the
/// stalls prove the path without slowing the suite.
const CHAOS_PLAN: &str = "seed=42,store-fail=0.1,wire-stall=0.15,wire-stall-ms=2,panic-job=1";
const CHAOS_JOBS: usize = 48;

#[test]
fn chaos_load_is_bit_identical_or_typed_error() {
    // Watchdog: the whole chaos run executes on a driver thread; if it
    // wedges (a lost response would block the pipelined client
    // forever), the receive below times out and fails the test instead
    // of hanging the suite.
    let (tx, rx) = mpsc::channel();
    let driver = thread::spawn(move || {
        run_chaos();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => driver.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos run wedged: no completion within the watchdog window")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match driver.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("driver dropped the channel without panicking"),
        },
    }
}

fn run_chaos() {
    // Fixed load plan: the same specs drive the baseline and the chaos
    // run, in the same order.
    let specs: Vec<JobSpec> = default_catalog()
        .into_iter()
        .cycle()
        .zip(1..=CHAOS_JOBS as u64)
        .map(|(spec, id)| JobSpec { id, ..spec })
        .collect();

    // Fault-free baseline, computed in-process on a clean state.
    let baseline: Vec<JobResult> = {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(state, 2);
        specs
            .iter()
            .map(|s| pool.submit(s))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|job| job.wait())
            .map(|r| r.expect("baseline job failed"))
            .collect()
    };

    // Chaos server: store-backed (so store faults have a site to hit),
    // with the seeded plan armed before any job arrives.
    let store = Arc::new(Store::open(scratch_path("chaos.wal")).unwrap());
    let state = ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();
    state
        .faults()
        .set_plan(Some(FaultPlan::parse(CHAOS_PLAN).unwrap()))
        .unwrap();
    let pool = Arc::new(DsePool::new(state, 2));
    let server = JobServer::with_pool("127.0.0.1:0", Arc::clone(&pool)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = thread::spawn(move || server.run().unwrap());

    // A read timeout distinguishes "stalled frame" from "lost frame":
    // the armed plan stalls but never drops, so nothing here should
    // ever hit it — if it fires, the typed Timeout fails the batch and
    // the test, which is exactly the contract.
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(30)),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, config).unwrap();
    let results = client.submit_batch(&specs).unwrap();

    // Every response: bit-identical to the fault-free baseline, or a
    // typed error. The injected worker panic must surface as at least
    // one of the latter.
    let mut identical = 0usize;
    let mut typed_errors = 0usize;
    for (slot, outcome) in results.iter().enumerate() {
        match outcome {
            Ok(result) => {
                assert_eq!(
                    bits(result),
                    bits(&baseline[slot]),
                    "job {} diverged from the fault-free baseline under faults",
                    specs[slot].id
                );
                identical += 1;
            }
            Err(err) => {
                assert!(
                    !err.to_string().is_empty(),
                    "typed errors must carry a message"
                );
                typed_errors += 1;
            }
        }
    }
    assert!(identical > 0, "no job survived the fault plan at all");
    assert!(
        typed_errors > 0,
        "the injected worker panic must surface as a typed job error"
    );

    // The plan actually fired, at every site.
    let report = client.metrics().unwrap();
    assert!(
        counter(&report, "fault_store_total") > 0,
        "store faults never fired"
    );
    assert!(
        counter(&report, "fault_wire_total") > 0,
        "wire faults never fired"
    );
    assert_eq!(
        counter(&report, "fault_pool_total"),
        1,
        "the worker panic fires exactly once per armed plan"
    );

    // Disarm and resubmit: the server recovered — the panicked
    // worker's replacement and the fault-free store now answer every
    // job, bit-identically.
    client
        .typed_request(&Request::SetFaults {
            id: None,
            spec: None,
        })
        .unwrap();
    let healed = client.submit_batch(&specs).unwrap();
    for (slot, outcome) in healed.iter().enumerate() {
        let result = outcome
            .as_ref()
            .expect("disarmed server must answer every job");
        assert_eq!(
            bits(result),
            bits(&baseline[slot]),
            "post-disarm job {} diverged from the baseline",
            specs[slot].id
        );
    }

    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------
// Client read timeout against a dropped frame
// ---------------------------------------------------------------------

/// With every response frame dropped on the server's writer, a client
/// whose read timeout is set gets the typed `Timeout` instead of
/// blocking forever.
#[test]
fn a_dropped_frame_surfaces_as_a_typed_client_timeout() {
    if !FAULTS_COMPILED_IN {
        return; // release build without the `faults` feature
    }
    let state = ServiceState::new().unwrap();
    state
        .faults()
        .set_plan(Some(FaultPlan::parse("seed=1,wire-drop=1").unwrap()))
        .unwrap();
    let pool = Arc::new(DsePool::new(state, 1));
    let server = JobServer::with_pool("127.0.0.1:0", Arc::clone(&pool)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = thread::spawn(move || server.run().unwrap());

    let config = ClientConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, config).unwrap();
    let started = Instant::now();
    match client.ping() {
        Err(ServiceError::Timeout(_)) => {}
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5));

    pool.state().faults().set_plan(None).unwrap();
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------
// Graceful shutdown: no in-flight job lost
// ---------------------------------------------------------------------

#[test]
fn graceful_shutdown_loses_no_in_flight_job() {
    let store = Arc::new(Store::open(scratch_path("drain.wal")).unwrap());
    let state = ServiceState::with_cache_and_store(CacheConfig::unbounded(), Some(store)).unwrap();
    let pool = Arc::new(DsePool::new(state, 2));
    let server = JobServer::with_pool("127.0.0.1:0", Arc::clone(&pool)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = thread::spawn(move || server.run().unwrap());

    // A pipelined batch of distinct (uncacheable-across-slots) ids;
    // tiny jobs keep the test fast while the batch is long enough that
    // the shutdown lands while responses are still streaming.
    let specs: Vec<JobSpec> = (0..64)
        .map(|i| JobSpec::network(i + 1, EngineSpec::default(), Network::tiny()))
        .collect();
    let batch = specs.clone();
    let mut submitter = Client::connect(addr).unwrap();
    let driver = thread::spawn(move || submitter.submit_batch(&batch));

    // Fire shutdown from a second connection while the batch is (very
    // likely) still in flight. Even if the batch already finished the
    // assertions below still hold — the test can only fail if a
    // response is actually lost.
    thread::sleep(Duration::from_millis(10));
    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown().unwrap();

    let results = driver
        .join()
        .unwrap()
        .expect("pipelined batch failed across shutdown");
    assert_eq!(results.len(), specs.len());
    for (outcome, spec) in results.iter().zip(&specs) {
        let result = outcome
            .as_ref()
            .expect("an in-flight job lost its response across shutdown");
        assert_eq!(result.id, spec.id);
    }

    // run() returned only after the drain: every job had answered.
    handle.join().unwrap();
}

// ---------------------------------------------------------------------
// Deadlines over the wire
// ---------------------------------------------------------------------

#[test]
fn expired_deadline_answers_typed_over_the_wire() {
    // One worker, and the test holds it inside another job's
    // completion: the deadline job queues behind it until the test lets
    // go, past its 1 ms budget by the clock rather than by how long a
    // sweep happens to take.
    let state = ServiceState::new().unwrap();
    let pool = Arc::new(DsePool::new(state, 1));
    let server = JobServer::with_pool("127.0.0.1:0", Arc::clone(&pool)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = thread::spawn(move || server.run().unwrap());

    let (holding, held) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let blocker = Layer::conv("BLOCK", 8, 8, 16, 8, 3, 3, 1);
    pool.submit_then(
        &JobSpec::layer(1, EngineSpec::default(), blocker),
        None,
        move |result| {
            holding.send(result.map(|r| r.id)).unwrap();
            let _ = released.recv();
        },
    );
    let blocked = held.recv().unwrap();
    assert_eq!(blocked.expect("the blocking job itself must succeed"), 1);

    let mut submitter = Client::connect(addr).unwrap();
    let deadlined = thread::spawn(move || {
        let quick = JobSpec::network(2, EngineSpec::default(), Network::tiny());
        let options = JobOptions {
            deadline_ms: Some(1),
            ..JobOptions::default()
        };
        submitter.submit(&quick.with_options(options))
    });

    // Once the server reports the job admitted its budget is running;
    // let it lapse before the worker is free to dequeue the job.
    let mut observer = Client::connect(addr).unwrap();
    let started = Instant::now();
    while gauge(&observer.metrics().unwrap(), "jobs_inflight") < 1 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the deadline job never became in-flight"
        );
        thread::sleep(Duration::from_millis(2));
    }
    thread::sleep(Duration::from_millis(5));
    release.send(()).unwrap();

    match deadlined.join().unwrap() {
        Err(ServiceError::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 1),
        other => panic!("expected a typed deadline_exceeded response, got {other:?}"),
    }

    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown().unwrap();
    handle.join().unwrap();
}
