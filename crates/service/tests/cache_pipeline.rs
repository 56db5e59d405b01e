//! Integration tests for the bounded single-flight cache and the
//! pipelined TCP protocol: concurrent duplicate submissions must
//! compute each distinct shape exactly once, bounded caches must never
//! exceed their limits while staying bit-identical, pipelined clients
//! must get every response matched by id with no deadlock, and a
//! panicking computation must produce errors — never hangs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_core::dse::{DseCandidate, LayerDseResult};
use drmap_core::edp::EdpEstimate;
use drmap_core::mapping::MappingPolicy;
use drmap_core::schedule::ReuseScheme;
use drmap_core::tiling::Tiling;
use drmap_service::cache::{CacheConfig, CacheOutcome, DseCache};
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::proto::Request;
use drmap_service::server::JobServer;
use drmap_service::spec::{EngineSpec, JobSpec};
use proptest::{proptest, ProptestConfig};

fn dummy_result(name: &str) -> LayerDseResult {
    LayerDseResult {
        layer_name: name.to_owned(),
        best: DseCandidate {
            mapping: MappingPolicy::drmap(),
            tiling: Tiling::new(1, 1, 1, 1),
            scheme: ReuseScheme::OfmsReuse,
            estimate: EdpEstimate {
                cycles: 1.0,
                energy: 2.0,
                t_ck_ns: 1.25,
            },
        },
        evaluations: 1,
        pareto: vec![],
    }
}

/// One profiled service state shared by the whole test binary:
/// profiling the substrate is the expensive part and every test needs
/// only its own pool/cache on top.
fn shared_state() -> &'static Arc<ServiceState> {
    static STATE: OnceLock<Arc<ServiceState>> = OnceLock::new();
    STATE.get_or_init(|| ServiceState::new().unwrap())
}

// ---------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------

#[test]
fn concurrent_same_key_lookups_compute_exactly_once() {
    const THREADS: usize = 8;
    let cache = Arc::new(DseCache::new());
    let computes = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache
                    .get_or_compute("shared-key", || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Stay in flight long enough for every other
                        // thread to arrive and coalesce.
                        std::thread::sleep(Duration::from_millis(100));
                        Ok(dummy_result("x"))
                    })
                    .unwrap()
            })
        })
        .collect();
    let outcomes: Vec<CacheOutcome> = handles.into_iter().map(|h| h.join().unwrap().1).collect();

    assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
    let misses = outcomes
        .iter()
        .filter(|o| **o == CacheOutcome::Miss)
        .count();
    assert_eq!(misses, 1, "exactly one leader: {outcomes:?}");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits + stats.coalesced, (THREADS - 1) as u64);
    assert_eq!(stats.entries, 1);
}

#[test]
fn a_panicking_leader_wakes_every_waiter_with_an_error() {
    const WAITERS: usize = 4;
    let cache = Arc::new(DseCache::new());
    let barrier = Arc::new(Barrier::new(WAITERS + 1));
    let leader = {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            cache.get_or_compute("k", || {
                barrier.wait(); // every waiter is queued behind us
                std::thread::sleep(Duration::from_millis(50));
                panic!("exploration bug");
            })
        })
    };
    let waiters: Vec<_> = (0..WAITERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_compute("k", || Ok(dummy_result("x")))
            })
        })
        .collect();

    let leader_result = leader.join().expect("leader thread must not die");
    let err = leader_result.unwrap_err();
    assert!(err.to_string().contains("panicked"), "{err}");
    for waiter in waiters {
        // Each waiter either coalesced onto the panicking leader (and
        // must observe its error, not hang) or arrived after the flight
        // was torn down and computed fresh.
        match waiter.join().expect("waiter thread must not die") {
            Ok((_, outcome)) => assert_ne!(outcome, CacheOutcome::Hit, "errors are not cached"),
            Err(e) => assert!(e.to_string().contains("panicked"), "{e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Duplicate-shape batches through the pool (the acceptance scenario)
// ---------------------------------------------------------------------

#[test]
fn concurrent_duplicate_shape_batch_computes_each_key_once() {
    const JOBS: u64 = 8;
    // A fresh state so the cache counters start at zero; the profiled
    // table memoization inside the factory is per-state and cheap after
    // the shared state has already profiled once.
    let state = ServiceState::new().unwrap();
    let pool = DsePool::new(Arc::clone(&state), 4);
    // Eight jobs, all carrying the *same layer shape* under different
    // names: every worker races on one cache key.
    let specs: Vec<JobSpec> = (0..JOBS)
        .map(|i| {
            let layer = Layer::conv(&format!("L{i}"), 8, 8, 16, 8, 3, 3, 1);
            JobSpec::layer(i + 1, EngineSpec::default(), layer)
        })
        .collect();
    let results: Vec<_> = pool
        .run_batch(&specs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();

    let stats = state.cache().stats();
    assert_eq!(stats.misses, 1, "one distinct key -> one computation");
    assert_eq!(stats.hits + stats.coalesced, JOBS - 1);
    assert_eq!(stats.entries, 1);

    // Every job reports its own layer name and the bit-identical result.
    let reference = &results[0].layers[0];
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.id, i as u64 + 1);
        let layer = &result.layers[0];
        assert_eq!(layer.name, format!("L{i}"));
        assert_eq!(
            layer.estimate.energy.to_bits(),
            reference.estimate.energy.to_bits()
        );
        assert_eq!(
            layer.estimate.cycles.to_bits(),
            reference.estimate.cycles.to_bits()
        );
        assert_eq!(layer.tiling, reference.tiling);
    }
    // The per-layer flags agree with the cache counters.
    let served: usize = results
        .iter()
        .map(|r| r.cache_hits() + r.coalesced_hits())
        .sum();
    assert_eq!(served, (JOBS - 1) as usize);
}

// ---------------------------------------------------------------------
// Bounded cache end-to-end
// ---------------------------------------------------------------------

#[test]
fn bounded_cache_never_exceeds_limits_and_stays_bit_identical() {
    let config = CacheConfig::unbounded().with_max_entries(2);
    let bounded = ServiceState::with_cache_config(config).unwrap();
    let pool = DsePool::new(Arc::clone(&bounded), 2);
    let spec = JobSpec::network(1, EngineSpec::default(), Network::alexnet());
    let served = pool.submit(&spec).wait().unwrap();

    let stats = bounded.cache().stats();
    assert!(stats.entries <= 2, "entry bound violated: {stats:?}");
    assert!(
        stats.evictions > 0,
        "alexnet has more distinct shapes than the bound: {stats:?}"
    );

    // Eviction affects only *retention*, never results: compare against
    // the unbounded shared state.
    let unbounded = shared_state();
    let reference = unbounded.run_job(&spec).unwrap();
    assert_eq!(
        served.total.energy.to_bits(),
        reference.total.energy.to_bits()
    );
    assert_eq!(
        served.total.cycles.to_bits(),
        reference.total.cycles.to_bits()
    );
    for (s, r) in served.layers.iter().zip(&reference.layers) {
        assert_eq!(s.estimate.energy.to_bits(), r.estimate.energy.to_bits());
        assert_eq!(s.tiling, r.tiling);
    }
}

// ---------------------------------------------------------------------
// Pipelined TCP protocol
// ---------------------------------------------------------------------

#[test]
fn pipelined_client_gets_all_eight_inflight_responses_by_id() {
    let server = JobServer::bind("127.0.0.1:0", 4).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    // Eight jobs in flight at once: two heavyweight networks first so
    // lighter jobs submitted *after* them can overtake on the wire.
    let mut specs = vec![
        JobSpec::network(1, EngineSpec::default(), Network::alexnet()),
        JobSpec::network(2, EngineSpec::default(), Network::squeezenet()),
    ];
    for id in 3..=8 {
        specs.push(JobSpec::network(id, EngineSpec::default(), Network::tiny()));
    }
    for spec in &specs {
        client
            .send(&Request::Submit(spec.clone()).to_json())
            .unwrap();
    }
    // Collect raw responses in completion order.
    let mut arrival = Vec::new();
    for _ in 0..specs.len() {
        let response = client.recv().unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let id = response.get("id").and_then(Json::as_u64).unwrap();
        let result = response.get("result").unwrap();
        assert_eq!(result.get("id").and_then(Json::as_u64), Some(id));
        arrival.push(id);
    }
    let mut sorted = arrival.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (1..=8).collect::<Vec<u64>>(), "every id answered");

    // The high-level pipelined API restores submission order and the
    // results are bit-identical to a direct engine run.
    let batch: Vec<_> = specs
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.id += 100;
            s
        })
        .collect();
    let results = client.submit_batch(&batch).unwrap();
    assert_eq!(results.len(), batch.len());
    let engine = shared_state().factory().engine(&EngineSpec::default());
    let direct = engine.explore_network(&Network::alexnet()).unwrap();
    let first = results[0].as_ref().unwrap();
    assert_eq!(first.id, 101);
    assert_eq!(first.total.energy.to_bits(), direct.total.energy.to_bits());
    for (spec, result) in batch.iter().zip(&results) {
        assert_eq!(result.as_ref().unwrap().id, spec.id);
    }

    // Per-job failures occupy their slot without sinking the batch.
    let mut mixed = vec![
        JobSpec::network(201, EngineSpec::default(), Network::tiny()),
        JobSpec::layer(
            202,
            EngineSpec::default(),
            Layer::conv("HUGE", 1, 1, 1, 1, 4096, 4096, 1),
        ),
        JobSpec::network(203, EngineSpec::default(), Network::tiny()),
    ];
    let outcomes = client.submit_batch(&mixed).unwrap();
    assert!(outcomes[0].is_ok());
    assert!(outcomes[1].is_err(), "infeasible layer fails its own slot");
    assert!(outcomes[2].is_ok());

    // Duplicate ids are rejected client-side before hitting the wire.
    mixed[2].id = 201;
    assert!(client.submit_batch(&mixed).is_err());

    client.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn inline_networks_round_trip_over_the_wire() {
    let server = JobServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();

    // A custom network serializes as a full inline layer list.
    let custom = Network::new(
        "inline-net",
        vec![
            Layer::conv("C1", 16, 16, 16, 3, 3, 3, 1),
            Layer::conv("C2", 8, 8, 32, 16, 3, 3, 2),
        ],
    )
    .unwrap();
    let inline_spec = JobSpec::network(7, EngineSpec::default(), custom);
    let inline = client.submit(&inline_spec).unwrap();
    assert_eq!(inline.id, 7);
    assert_eq!(inline.layers.len(), 2);

    // A zoo job in between on the same connection.
    let zoo = client
        .submit(&JobSpec::network(8, EngineSpec::default(), Network::tiny()))
        .unwrap();
    assert_eq!(zoo.id, 8);

    let again = client.submit(&inline_spec).unwrap();
    assert_eq!(again.cache_hits(), again.layers.len(), "warm resubmission");
    assert_eq!(
        again.total.energy.to_bits(),
        inline.total.energy.to_bits(),
        "the wire preserves float bits"
    );

    client.shutdown().unwrap();
    server_thread.join().unwrap();
}

// ---------------------------------------------------------------------
// Property: caching is invisible in the results
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary feasible conv layers, exploring through the cache
    /// (miss, then hit) returns results bit-identical to a direct
    /// engine call — the cache can change *when* work happens, never
    /// *what* comes out.
    #[test]
    fn cache_on_and_off_results_are_bit_identical(
        h in 4_usize..=12,
        w in 4_usize..=12,
        j in 1_usize..=32,
        i in 1_usize..=16,
        p in 1_usize..=3,
        q in 1_usize..=3,
        stride in 1_usize..=2,
    ) {
        let state = shared_state();
        let spec = EngineSpec::default();
        let engine = state.factory().engine(&spec);
        let tag = state.factory().engine_tag(&spec);
        let layer = Layer::conv("PROP", h, w, j, i, p, q, stride);

        let direct = engine.explore_layer(&layer);
        let cached_cold = state.explore_layer_cached(&engine, &tag, &layer);
        let cached_warm = state.explore_layer_cached(&engine, &tag, &layer);
        match direct {
            Ok(direct) => {
                let (cold, _) = cached_cold.unwrap();
                let (warm, warm_outcome) = cached_warm.unwrap();
                assert_eq!(warm_outcome, CacheOutcome::Hit);
                for served in [&cold, &warm] {
                    assert_eq!(served.best.tiling, direct.best.tiling);
                    assert_eq!(served.best.scheme, direct.best.scheme);
                    assert_eq!(
                        served.best.estimate.energy.to_bits(),
                        direct.best.estimate.energy.to_bits()
                    );
                    assert_eq!(
                        served.best.estimate.cycles.to_bits(),
                        direct.best.estimate.cycles.to_bits()
                    );
                    assert_eq!(served.evaluations, direct.evaluations);
                }
            }
            Err(_) => {
                // Infeasible layers fail identically through the cache.
                assert!(cached_cold.is_err());
                assert!(cached_warm.is_err());
            }
        }
    }
}

#[test]
fn a_batch_far_beyond_the_inflight_cap_completes_without_deadlock() {
    // 300 jobs is well over the server's 128-in-flight-per-connection
    // cap and the client's 64-job send window: the windowed submit
    // loop must interleave sends and receives instead of wedging both
    // sides on full socket buffers. Warm the cache first so the sheer
    // job count, not exploration time, dominates.
    let server = JobServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client
        .submit(&JobSpec::network(0, EngineSpec::default(), Network::tiny()))
        .unwrap();

    let batch: Vec<JobSpec> = (1..=300)
        .map(|id| JobSpec::network(id, EngineSpec::default(), Network::tiny()))
        .collect();
    let results = client.submit_batch(&batch).unwrap();
    assert_eq!(results.len(), 300);
    for (spec, result) in batch.iter().zip(&results) {
        let result = result.as_ref().unwrap();
        assert_eq!(result.id, spec.id);
        assert_eq!(result.cache_hits(), result.layers.len());
    }

    client.shutdown().unwrap();
    server_thread.join().unwrap();
}
