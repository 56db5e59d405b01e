//! End-to-end service tests: the job server (pool and TCP paths) must
//! return results bit-identical to direct `DseEngine` calls, and
//! resubmissions must be served from the memo cache without changing a
//! single bit.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drmap_cnn::network::Network;
use drmap_core::dse::NetworkDseResult;
use drmap_dram::timing::DramArch;
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::loadgen::default_catalog;
use drmap_service::pool::DsePool;
use drmap_service::proto::Request;
use drmap_service::server::JobServer;
use drmap_service::spec::{EngineSpec, JobResult, JobSpec};

fn test_networks() -> Vec<Network> {
    vec![Network::tiny(), Network::alexnet(), Network::squeezenet()]
}

fn assert_matches_direct(served: &JobResult, direct: &NetworkDseResult) {
    assert_eq!(served.layers.len(), direct.layers.len());
    for (s, d) in served.layers.iter().zip(&direct.layers) {
        assert_eq!(s.name, d.layer_name);
        assert_eq!(s.mapping, d.best.mapping.name());
        assert_eq!(s.scheme, d.best.scheme.label());
        assert_eq!(s.tiling, d.best.tiling);
        assert_eq!(
            s.estimate.energy.to_bits(),
            d.best.estimate.energy.to_bits(),
            "energy differs for {}",
            s.name
        );
        assert_eq!(
            s.estimate.cycles.to_bits(),
            d.best.estimate.cycles.to_bits(),
            "cycles differ for {}",
            s.name
        );
        assert_eq!(s.evaluations, d.evaluations as u64);
    }
    assert_eq!(served.total.energy.to_bits(), direct.total.energy.to_bits());
    assert_eq!(served.total.cycles.to_bits(), direct.total.cycles.to_bits());
}

#[test]
fn pooled_batch_matches_direct_engine_calls() {
    let state = ServiceState::new().unwrap();
    let pool = DsePool::new(Arc::clone(&state), 4);
    let engine_spec = EngineSpec::default();
    let specs: Vec<JobSpec> = test_networks()
        .into_iter()
        .enumerate()
        .map(|(i, net)| JobSpec::network(i as u64 + 1, engine_spec, net))
        .collect();

    let results: Vec<JobResult> = pool
        .run_batch(&specs)
        .into_iter()
        .map(Result::unwrap)
        .collect();

    let engine = state.factory().engine(&engine_spec);
    for (spec, served) in specs.iter().zip(&results) {
        let net = match &spec.workload {
            drmap_service::spec::Workload::Network(n) => n.clone(),
            _ => unreachable!(),
        };
        let direct = engine.explore_network(&net).unwrap();
        assert_matches_direct(served, &direct);
    }
}

#[test]
fn resubmission_reports_cache_hits_with_identical_results() {
    let state = ServiceState::new().unwrap();
    let pool = DsePool::new(Arc::clone(&state), 4);
    let spec = JobSpec::network(1, EngineSpec::default(), Network::squeezenet());

    let cold = pool.submit(&spec).wait().unwrap();
    let warm = pool.submit(&spec).wait().unwrap();

    assert_eq!(warm.cache_hits(), warm.layers.len());
    let stats = state.cache().stats();
    assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
    // SqueezeNet repeats expand shapes within one network, so even the
    // cold run deduplicates some layers.
    assert!(stats.entries < 2 * warm.layers.len());

    assert_eq!(warm.total.energy.to_bits(), cold.total.energy.to_bits());
    assert_eq!(warm.total.cycles.to_bits(), cold.total.cycles.to_bits());
    for (c, w) in cold.layers.iter().zip(&warm.layers) {
        assert_eq!(c.name, w.name);
        assert_eq!(c.mapping, w.mapping);
        assert_eq!(c.tiling, w.tiling);
        assert_eq!(c.estimate.energy.to_bits(), w.estimate.energy.to_bits());
        assert_eq!(c.estimate.cycles.to_bits(), w.estimate.cycles.to_bits());
    }
}

#[test]
fn tcp_round_trip_matches_direct_engine_calls() {
    let server = JobServer::bind("127.0.0.1:0", 4).unwrap();
    let addr = server.local_addr().unwrap();
    let state = Arc::clone(server.pool().state());
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();

    let engine_spec = EngineSpec::for_arch(DramArch::SalpMasa);
    let engine = state.factory().engine(&engine_spec);
    let mut first_pass = Vec::new();
    for (i, net) in test_networks().into_iter().enumerate() {
        let spec = JobSpec::network(i as u64 + 1, engine_spec, net.clone());
        let served = client.submit(&spec).unwrap();
        assert_eq!(served.id, i as u64 + 1);
        assert_eq!(served.workload, net.name());
        let direct = engine.explore_network(&net).unwrap();
        // The result crossed the JSON wire: floats must still be
        // bit-identical thanks to shortest-roundtrip rendering.
        assert_matches_direct(&served, &direct);
        first_pass.push(served);
    }

    // Resubmit the whole batch on a second connection: all cache hits.
    let mut second = Client::connect(addr).unwrap();
    for (i, net) in test_networks().into_iter().enumerate() {
        let spec = JobSpec::network(10 + i as u64, engine_spec, net);
        let served = second.submit(&spec).unwrap();
        assert_eq!(served.cache_hits(), served.layers.len());
        assert_eq!(
            served.total.energy.to_bits(),
            first_pass[i].total.energy.to_bits()
        );
    }

    let report = second.stats_report().unwrap();
    let stats = report.cache;
    assert!(stats.hits > 0);
    assert_eq!(report.workers, 4);
    assert!(stats.hit_rate() > 0.0);
    assert!(stats.entries > 0);
    assert!(stats.bytes > 0, "resident entries are byte-accounted");
    assert_eq!(stats.evictions, 0, "an unbounded cache never evicts");

    // Unknown models produce an error response, not a dead connection.
    let bad =
        drmap_service::json::Json::parse(r#"{"type":"submit","id":99,"network":{"model":"nope"}}"#)
            .unwrap();
    let response = second.request(&bad).unwrap();
    assert_eq!(
        response
            .get("ok")
            .and_then(drmap_service::json::Json::as_bool),
        Some(false)
    );

    second.shutdown().unwrap();
    server_thread.join().unwrap();
}

/// The median of 21 window-1 round trips of the catalogue's largest
/// whole-network job (primed first, so every timed one is all resident
/// hits). `round_trip(id)` submits the job under `id` and blocks for its
/// response.
fn median_hot_round_trip(mut round_trip: impl FnMut(JobSpec)) -> Duration {
    let spec = default_catalog().pop().expect("the catalogue is not empty");
    round_trip(spec.clone());
    let mut samples: Vec<Duration> = (1..=21)
        .map(|id| {
            let job = JobSpec { id, ..spec.clone() };
            let sent = Instant::now();
            round_trip(job);
            sent.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// A frame written as payload-then-terminator parks the terminator
/// behind Nagle's algorithm until the peer's delayed ACK (≈ 40 ms)
/// whenever the payload outgrows one buffered write — the stall that
/// was most of `serve-hot`'s round trip. A response well past 8 KiB
/// must come back in far less than that, whether or not the *client*
/// turned Nagle off on its side.
#[test]
fn large_responses_do_not_wait_out_a_delayed_ack() {
    const BOUND: Duration = Duration::from_millis(20);
    let server = JobServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // A bare socket with the OS defaults (Nagle on), as `nc` would be.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();
    let raw = median_hot_round_trip(|job| {
        let request = Request::Submit(job).to_json().render() + "\n";
        writer.write_all(request.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.len() > 8192, "the response must span several segments");
        assert!(line.contains(r#""ok":true"#), "{line}");
    });
    assert!(raw < BOUND, "raw socket: median round trip {raw:?}");

    let mut client = Client::connect(addr).unwrap();
    let typed = median_hot_round_trip(|job| {
        let served = client.submit(&job).unwrap();
        assert_eq!(served.cache_hits(), served.layers.len());
    });
    assert!(typed < BOUND, "Client: median round trip {typed:?}");

    client.shutdown().unwrap();
    server_thread.join().unwrap();
}
