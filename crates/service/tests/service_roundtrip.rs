//! End-to-end service tests: the job server (pool and TCP paths) must
//! return results bit-identical to direct `DseEngine` calls, and
//! resubmissions must be served from the memo cache without changing a
//! single bit.

use std::sync::Arc;

use drmap_cnn::network::Network;
use drmap_core::dse::NetworkDseResult;
use drmap_dram::timing::DramArch;
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::pool::DsePool;
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
