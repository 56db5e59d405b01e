//! Live cluster tests: a 3-backend fleet behind `drmap-router` must be
//! observationally identical to a single `drmap-serve` — results
//! bit-identical to direct engine calls, admin verbs aggregating, the
//! same per-connection in-flight cap — and a SIGKILLed backend's jobs
//! must fail over with zero client-visible errors.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_router::hash;
use drmap_router::proxy::{Router, RouterConfig, RouterCore};
use drmap_service::client::Client;
use drmap_service::engine::{job_route_key, ServiceState};
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::proto::Request;
use drmap_service::server::{JobServer, DEFAULT_MAX_INFLIGHT};
use drmap_service::spec::{CacheMode, EngineSpec, JobOptions, JobResult, JobSpec};

/// One in-process backend: a live `JobServer` plus its state handle so
/// tests can inspect the node directly.
struct InProcBackend {
    addr: String,
    state: Arc<ServiceState>,
}

fn boot_backends(n: usize) -> Vec<InProcBackend> {
    (0..n)
        .map(|_| {
            let state = ServiceState::new().unwrap();
            let pool = Arc::new(DsePool::new(Arc::clone(&state), 2));
            let server = JobServer::with_pool("127.0.0.1:0", pool).unwrap();
            let addr = server.local_addr().unwrap().to_string();
            std::thread::spawn(move || {
                let _ = server.run();
            });
            InProcBackend { addr, state }
        })
        .collect()
}

fn boot_router(
    backends: &[String],
    tune: impl FnOnce(&mut RouterConfig),
) -> (String, Arc<RouterCore>) {
    let mut cfg = RouterConfig {
        backends: backends.to_vec(),
        ..RouterConfig::default()
    };
    tune(&mut cfg);
    let router = Router::bind("127.0.0.1:0", cfg).unwrap();
    let addr = router.local_addr().unwrap().to_string();
    let core = router.core();
    std::thread::spawn(move || {
        let _ = router.run();
    });
    (addr, core)
}

fn wait_healthy(core: &RouterCore, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while core.healthy().len() < n {
        assert!(
            Instant::now() < deadline,
            "router admitted {} of {n} backends within 10 s",
            core.healthy().len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn assert_bit_identical(served: &JobResult, direct: &JobResult) {
    assert_eq!(served.workload, direct.workload);
    assert_eq!(served.layers.len(), direct.layers.len());
    for (s, d) in served.layers.iter().zip(&direct.layers) {
        assert_eq!(s.name, d.name);
        assert_eq!(s.mapping, d.mapping, "mapping differs for {}", s.name);
        assert_eq!(s.scheme, d.scheme, "scheme differs for {}", s.name);
        assert_eq!(s.tiling, d.tiling, "tiling differs for {}", s.name);
        assert_eq!(
            s.estimate.energy.to_bits(),
            d.estimate.energy.to_bits(),
            "energy differs for {}",
            s.name
        );
        assert_eq!(
            s.estimate.cycles.to_bits(),
            d.estimate.cycles.to_bits(),
            "cycles differ for {}",
            s.name
        );
        assert_eq!(
            s.evaluations, d.evaluations,
            "evaluations differ for {}",
            s.name
        );
    }
    assert_eq!(served.total.energy.to_bits(), direct.total.energy.to_bits());
    assert_eq!(served.total.cycles.to_bits(), direct.total.cycles.to_bits());
}

#[test]
fn routed_results_are_bit_identical_to_direct() {
    let backends = boot_backends(3);
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let (addr, core) = boot_router(&addrs, |_| {});
    wait_healthy(&core, 3);

    let mut client = Client::connect(&addr).unwrap();
    let hello = client.hello().unwrap();
    assert!(hello.has("router"), "router capability missing: {hello:?}");
    assert!(hello.has("jobs"));
    assert!(hello.has("pipelining"));
    // The router promises exactly what its (identical) backends speak,
    // plus its own tier marker.
    let node = Client::connect(&addrs[0]).unwrap().hello().unwrap();
    let mut expected = node.capabilities;
    expected.push("router".to_owned());
    assert_eq!(hello.capabilities, expected);

    let reference = ServiceState::new().unwrap();
    for (i, network) in [Network::tiny(), Network::alexnet()]
        .into_iter()
        .enumerate()
    {
        let spec = JobSpec::network(i as u64 + 1, EngineSpec::default(), network);
        let served = client.submit(&spec).unwrap();
        let direct = reference.run_job(&spec).unwrap();
        assert_eq!(served.id, spec.id, "client id must be restored");
        assert_bit_identical(&served, &direct);
    }
    let snapshot = core.metrics().snapshot();
    assert!(snapshot.counter("route_total").unwrap() >= 2);
    assert_eq!(snapshot.gauge("backends_up"), Some(3));
}

#[test]
fn admin_verbs_aggregate_and_broadcast() {
    let backends = boot_backends(3);
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let (addr, core) = boot_router(&addrs, |_| {});
    wait_healthy(&core, 3);

    let mut client = Client::connect(&addr).unwrap();
    // Distinct single-layer jobs spread over the fleet and populate
    // each backend's cache.
    let specs: Vec<JobSpec> = (0..6)
        .map(|i| {
            let layer = Layer::conv(&format!("L{i}"), 8, 8, 8 + i, 3, 3, 3, 1);
            JobSpec::layer(i as u64 + 1, EngineSpec::default(), layer)
        })
        .collect();
    for result in client.submit_batch(&specs).unwrap() {
        result.unwrap();
    }

    let report = client.stats_report().unwrap();
    assert_eq!(report.backends, Some(3), "router must report cluster size");
    assert_eq!(report.workers, 6, "2 workers per backend must sum");
    let direct_entries: usize = backends
        .iter()
        .map(|b| b.state.cache().stats().entries)
        .sum();
    assert_eq!(report.cache.entries, direct_entries);
    assert!(report.cache.entries >= 6, "6 distinct layers were explored");

    // Aggregated metrics carry both tiers: a backend counter summed
    // over the fleet and the router's own routing counters.
    let metrics = client.metrics().unwrap();
    assert!(metrics.snapshot.counter("route_total").unwrap() >= 6);
    assert!(metrics.snapshot.counter("connections_total").is_some());

    // A broadcast verb reaches every node.
    client
        .typed_request(&Request::CacheClear { id: None })
        .unwrap();
    for backend in &backends {
        assert_eq!(backend.state.cache().stats().entries, 0);
    }
}

/// The stall `service_roundtrip.rs` pins on a direct connection, through
/// the router's **default** two data connections per backend: a
/// response past 8 KiB used to wait ≈ 40 ms on the backend → router hop
/// for a delayed ACK (the backend wrote each frame in two pieces with
/// Nagle on), which is why benchmarks had to raise `--data-conns`.
#[test]
fn routed_large_responses_do_not_wait_out_a_delayed_ack() {
    let backends = boot_backends(2);
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let (addr, core) = boot_router(&addrs, |cfg| assert_eq!(cfg.data_conns, 2));
    wait_healthy(&core, 2);

    let mut client = Client::connect(&addr).unwrap();
    let spec = drmap_service::loadgen::default_catalog()
        .pop()
        .expect("the catalogue is not empty");
    // Prime: the job's rendezvous pick computes and keeps every layer.
    client.submit(&spec).unwrap();
    let mut samples: Vec<Duration> = (1..=21)
        .map(|id| {
            let job = JobSpec { id, ..spec.clone() };
            let sent = Instant::now();
            let served = client.submit(&job).unwrap();
            assert_eq!(served.cache_hits(), served.layers.len());
            sent.elapsed()
        })
        .collect();
    samples.sort();
    // The upper quartile, not the median: jobs alternate between the two
    // data connections and only every other one used to stall, which
    // left the median sitting on the boundary.
    let upper_quartile = samples[samples.len() * 3 / 4];
    assert!(
        upper_quartile < Duration::from_millis(20),
        "routed round trips, sorted: {samples:?}"
    );
}

/// A routed client that pipelines without reading is held to the same
/// per-connection cap as a direct one: the router stops reading its
/// socket at the cap instead of growing its pending map without limit.
#[test]
fn a_routed_pipelining_client_is_held_to_the_per_connection_cap() {
    const EXTRA: u64 = 8;
    // One backend with one worker, held inside another job's completion
    // so nothing the router forwards can finish until the test lets go.
    let state = ServiceState::new().unwrap();
    let pool = Arc::new(DsePool::new(state, 1));
    let server = JobServer::with_pool("127.0.0.1:0", Arc::clone(&pool)).unwrap();
    let backend = server.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = server.run();
    });
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

    let (addr, core) = boot_router(&[backend], |_| {});
    wait_healthy(&core, 1);

    // cap + 8 jobs that must all reach a worker, on one raw socket
    // that reads nothing until the worker is released.
    let jobs = DEFAULT_MAX_INFLIGHT as u64 + EXTRA;
    let bypass = JobOptions {
        cache: CacheMode::Bypass,
        ..JobOptions::default()
    };
    let mut socket = TcpStream::connect(&addr).unwrap();
    let mut burst = String::new();
    for id in 1..=jobs {
        let layer = Layer::conv("L", 13, 13, 16, 32, 3, 3, 1);
        let job = JobSpec::layer(id, EngineSpec::default(), layer).with_options(bypass);
        burst.push_str(&Request::Submit(job).to_json().render());
        burst.push('\n');
    }
    socket.write_all(burst.as_bytes()).unwrap();

    let inflight = || core.metrics().snapshot().gauge("backend0_inflight");
    let deadline = Instant::now() + Duration::from_secs(10);
    while inflight() < Some(DEFAULT_MAX_INFLIGHT as i64) {
        assert!(
            Instant::now() < deadline,
            "the router forwarded only {:?} jobs",
            inflight()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // It stays there: the reader holds the other 8 back.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(inflight(), Some(DEFAULT_MAX_INFLIGHT as i64));
    release.send(()).unwrap();

    let mut reader = BufReader::new(socket);
    let mut answered = BTreeSet::new();
    for _ in 0..jobs {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = Json::parse(&line).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{line}");
        let id = response.get("id").and_then(Json::as_u64).unwrap();
        assert!(answered.insert(id), "job {id} answered twice");
    }
    assert_eq!(answered, (1..=jobs).collect());
    assert_eq!(inflight(), Some(0));
}

/// The probe interval, the two backend timeouts and the failover
/// budget are constants now; their flags are gone.
#[test]
fn deleted_router_flags_are_unknown() {
    for flag in [
        "--probe-ms",
        "--connect-timeout-ms",
        "--admin-timeout-ms",
        "--retry-attempts",
        "--retry-base-ms",
        "--retry-cap-ms",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_drmap-router"))
            .args([flag, "100", "--backend", "127.0.0.1:1"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}

// ---------------------------------------------------------------------
// Failover under SIGKILL (external backend processes)
// ---------------------------------------------------------------------

fn serve_bin() -> std::path::PathBuf {
    // target/debug/deps/cluster-… → target/debug/drmap-serve
    let mut path = std::env::current_exe().unwrap();
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.join(format!("drmap-serve{}", std::env::consts::EXE_SUFFIX))
}

fn wait_for_backend(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(mut client) = Client::connect(addr) {
            if client.ping().is_ok() {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "backend {addr} not up within 20 s"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Send `signal` (`-STOP`, …) to a child through kill(1); std itself
/// can only SIGKILL.
fn signal(child: &std::process::Child, signal: &str) {
    let sent = std::process::Command::new("kill")
        .args([signal, &child.id().to_string()])
        .status()
        .unwrap();
    assert!(sent.success(), "kill {signal} {} failed", child.id());
}

#[test]
fn sigkilled_backend_fails_over_without_job_errors() {
    let bin = serve_bin();
    // A workspace `cargo test` builds the serve binary; a bare
    // `cargo test -p drmap-router` on a fresh tree does not. This is the
    // only SIGKILL-failover check, so a missing binary fails, not skips.
    assert!(
        bin.exists(),
        "{} not built: run `cargo build -p drmap-service --bin drmap-serve` first",
        bin.display()
    );

    let ports: Vec<u16> = (0..3)
        .map(|_| {
            std::net::TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
                .port()
        })
        .collect();
    let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let mut children: Vec<std::process::Child> = addrs
        .iter()
        .map(|addr| {
            std::process::Command::new(&bin)
                .args(["--addr", addr, "--workers", "2"])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();
    for addr in &addrs {
        wait_for_backend(addr);
    }

    let (addr, core) = boot_router(&addrs, |_| {});
    wait_healthy(&core, 3);

    // Jobs whose rendezvous pick is the victim: every one of them is
    // in flight on the node we are about to kill.
    let victim = 0usize;
    let all_healthy = vec![true; addrs.len()];
    let mut specs = Vec::new();
    let mut candidate = 0usize;
    while specs.len() < 6 {
        let layer = Layer::conv(
            &format!("victim-{candidate}"),
            27,
            27,
            64 + candidate,
            32,
            5,
            5,
            1,
        );
        let spec = JobSpec::layer(specs.len() as u64 + 1, EngineSpec::default(), layer);
        let key = job_route_key(&spec);
        if hash::pick(&key, &addrs, &all_healthy) == Some(victim) {
            specs.push(spec);
        }
        candidate += 1;
        assert!(
            candidate < 10_000,
            "could not find keys owned by the victim"
        );
    }

    // Stop the victim before the batch is written: whatever the router
    // sends it from here on stays unanswered, so "in flight when the
    // SIGKILL lands" is a fact this test establishes, not a property of
    // how long a sweep happens to take.
    let mut victim_child = children.remove(victim);
    signal(&victim_child, "-STOP");

    let batch = specs.clone();
    let client_addr = addr.clone();
    let submitter = std::thread::spawn(move || {
        let mut client = Client::connect(&client_addr).unwrap();
        let results = client.submit_batch(&batch).unwrap();
        (client, results)
    });

    // Kill it once the router holds the whole batch in flight on it.
    let inflight = format!("backend{victim}_inflight");
    let deadline = Instant::now() + Duration::from_secs(10);
    while core.metrics().snapshot().gauge(&inflight) != Some(specs.len() as i64) {
        assert!(
            Instant::now() < deadline,
            "the router never had the whole batch in flight on the victim"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    victim_child.kill().unwrap();
    victim_child.wait().unwrap();

    let (mut client, results) = submitter.join().unwrap();
    for (spec, result) in specs.iter().zip(results) {
        let job = result.unwrap_or_else(|e| panic!("job {} failed after failover: {e}", spec.id));
        assert_eq!(job.id, spec.id);
        assert_eq!(job.layers.len(), 1);
    }

    let snapshot = core.metrics().snapshot();
    assert!(
        snapshot.counter("failover_total").unwrap() >= specs.len() as u64,
        "every job was in flight on the killed node and must have failed over"
    );
    assert_eq!(snapshot.gauge("backends_up"), Some(2));

    // The survivors still answer admin verbs, reporting the shrunken
    // fleet.
    let report = client.stats_report().unwrap();
    assert_eq!(report.backends, Some(2));

    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}
