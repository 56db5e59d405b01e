//! Protocol-level integration tests: every `Request`/`Response`
//! variant must survive a round trip through **both** wire encodings
//! (NDJSON lines and length-prefixed binary frames), and everything a
//! server says — its answers to malformed and untyped messages included
//! — must decode as a typed response.

use std::io::BufReader;

use drmap_service::cache::{CacheStats, EvictionPolicy};
use drmap_service::engine::ServiceState;
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::proto::{capabilities, Request, Response, StatsReport, PROTOCOL_VERSION};
use drmap_service::server::handle_request;
use drmap_service::spec::{CacheMode, EngineSpec, JobOptions, JobResult, JobSpec, LayerOutcome};
use drmap_service::wire::{self, Encoding};
use drmap_store::store::{CompactReport, StoreStats};
use proptest::{proptest, ProptestConfig};

use drmap_cnn::layer::Layer;
use drmap_core::edp::EdpEstimate;
use drmap_core::pareto::DesignPoint;
use drmap_core::tiling::Tiling;

/// Push a request through one encoding and decode it back.
fn round_trip_request(request: &Request, encoding: Encoding) -> (Request, Encoding) {
    let mut bytes = Vec::new();
    wire::write_request(&mut bytes, request, encoding).unwrap();
    let (decoded, got_encoding) = wire::read_request(&mut BufReader::new(&bytes[..]))
        .unwrap()
        .expect("one message was written");
    (
        decoded.expect("a well-formed request decodes"),
        got_encoding,
    )
}

/// Push a response through one encoding and decode it back.
fn round_trip_response(response: &Response, encoding: Encoding) -> (Response, Encoding) {
    let mut bytes = Vec::new();
    wire::write_response(&mut bytes, response, encoding).unwrap();
    wire::read_response(&mut BufReader::new(&bytes[..]))
        .unwrap()
        .expect("one message was written")
}

/// Deterministically build one of every `Request` variant from fuzz
/// inputs.
fn request_variant(kind: usize, a: u64, b: u64, flag: bool) -> Request {
    let id = flag.then_some(a);
    match kind % 9 {
        0 => Request::Hello {
            version: a,
            client: flag.then(|| format!("client-{b}")),
        },
        1 => Request::Ping { id },
        2 => Request::Stats { id },
        3 => Request::Shutdown { id },
        4 => Request::SetPolicy {
            id,
            policy: if b.is_multiple_of(2) {
                EvictionPolicy::Lru
            } else {
                EvictionPolicy::Cost
            },
        },
        5 => Request::CacheClear { id },
        6 => Request::CacheWarm {
            id,
            limit: (b.is_multiple_of(2)).then_some(b as usize % 10_000),
        },
        7 => Request::StoreCompact {
            id,
            auto_ratio: (b.is_multiple_of(3)).then_some((b % 100) as f64 / 100.0),
        },
        _ => {
            let mut spec = JobSpec::layer(
                a,
                EngineSpec::default(),
                Layer::conv("P", 8, 8, 16, 8, 3, 3, 1),
            );
            spec.options = JobOptions {
                cache: match b % 3 {
                    0 => CacheMode::Default,
                    1 => CacheMode::Bypass,
                    _ => CacheMode::Refresh,
                },
                keep_points: flag,
                deadline_ms: (b.is_multiple_of(5)).then_some(b % 60_000 + 1),
            };
            Request::Submit(spec)
        }
    }
}

/// Deterministically build one of every `Response` variant from fuzz
/// inputs, exercising float bit-exactness through the job result.
fn response_variant(kind: usize, a: u64, b: u64, x: f64, flag: bool) -> Response {
    let id = flag.then_some(a);
    match kind % 9 {
        0 => Response::Hello {
            version: a,
            server: format!("drmap-service/{b}"),
            capabilities: capabilities(flag),
        },
        1 => Response::Pong { id },
        2 => Response::Stats {
            id,
            report: StatsReport {
                cache: CacheStats {
                    hits: a,
                    misses: b,
                    coalesced: a % 100,
                    bypasses: b % 13,
                    refreshes: a % 7,
                    evictions: b % 29,
                    cost_evictions: b % 5,
                    entries: a as usize % 1000,
                    bytes: b as usize % 1_000_000,
                    store_hits: a % 17,
                    store_misses: b % 19,
                    store_errors: a % 3,
                    compute_ns_min: a % 1_000_000,
                    compute_ns_max: b % 1_000_000_000,
                    compute_ns_total: a.min(1 << 50),
                },
                policy: if a.is_multiple_of(2) {
                    EvictionPolicy::Lru
                } else {
                    EvictionPolicy::Cost
                },
                max_entries: flag.then_some(a as usize % 10_000),
                max_bytes: (b.is_multiple_of(2)).then_some(b as usize % (1 << 30)),
                workers: b as usize % 64 + 1,
                store: flag.then_some(StoreStats {
                    live_entries: a as usize % 100,
                    records: b % 1000,
                    dead_records: b % 37,
                    file_bytes: a % (1 << 40),
                    live_value_bytes: b % (1 << 30),
                    dead_bytes: a % (1 << 20),
                    appends: b % 500,
                    gets: a % 800,
                    hits: b % 300,
                    compactions: a % 4,
                    recovered_bytes: b % 128,
                }),
                backends: (a.is_multiple_of(3)).then_some(a as usize % 16 + 1),
            },
        },
        3 => Response::Shutdown { id },
        4 => Response::PolicySet {
            id,
            policy: EvictionPolicy::Cost,
            previous: EvictionPolicy::Lru,
        },
        5 => Response::CacheCleared { id },
        6 => Response::CacheWarmed {
            id,
            loaded: b as usize % 5000,
        },
        7 => Response::StoreCompacted {
            id,
            report: CompactReport {
                live_records: a % 1000,
                dropped_records: b % 1000,
                bytes_before: a % (1 << 40),
                bytes_after: b % (1 << 40),
            },
        },
        _ => Response::Job {
            result: JobResult {
                id: a,
                workload: format!("net-{b}"),
                total: EdpEstimate {
                    cycles: x,
                    energy: x * 1.3e-9,
                    t_ck_ns: 1.25,
                },
                layers: vec![LayerOutcome {
                    name: "L".into(),
                    mapping: "Mapping-3 (DRMap)".into(),
                    scheme: "adaptive".into(),
                    tiling: Tiling::new(
                        a as usize % 32 + 1,
                        b as usize % 32 + 1,
                        a as usize % 16 + 1,
                        b as usize % 16 + 1,
                    ),
                    estimate: EdpEstimate {
                        cycles: x + 0.1,
                        energy: x * 7.7e-12,
                        t_ck_ns: 1.25,
                    },
                    evaluations: b,
                    cached: flag,
                    coalesced: !flag && b.is_multiple_of(2),
                    store_hit: !flag && b % 2 == 1,
                    pareto: if flag {
                        vec![DesignPoint::new(
                            format!("point-{a}"),
                            EdpEstimate {
                                cycles: x * 0.5,
                                energy: x * 1.1e-10,
                                t_ck_ns: 1.25,
                            },
                        )]
                    } else {
                        vec![]
                    },
                }],
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request variant survives NDJSON and binary framing with
    /// nothing lost: same variant, same fields, and the encoding
    /// auto-detected back.
    #[test]
    fn every_request_variant_round_trips_through_both_encodings(
        kind in 0_usize..9,
        a in 0_u64..1_000_000,
        b in 0_u64..1_000_000,
        flag in proptest::bool::ANY,
    ) {
        let request = request_variant(kind, a, b, flag);
        for encoding in [Encoding::Text, Encoding::Binary] {
            let (decoded, got) = round_trip_request(&request, encoding);
            assert_eq!(decoded, request);
            assert_eq!(got, encoding);
        }
    }

    /// Every response variant survives both encodings — including the
    /// job result's floats, bit for bit.
    #[test]
    fn every_response_variant_round_trips_through_both_encodings(
        kind in 0_usize..9,
        a in 0_u64..1_000_000,
        b in 0_u64..1_000_000,
        x in 0.0_f64..1.0e12,
        flag in proptest::bool::ANY,
    ) {
        let response = response_variant(kind, a, b, x, flag);
        for encoding in [Encoding::Text, Encoding::Binary] {
            let (decoded, got) = round_trip_response(&response, encoding);
            assert_eq!(decoded, response);
            assert_eq!(got, encoding);
        }
        if let Response::Job { result } = &response {
            let (Response::Job { result: decoded }, _) =
                round_trip_response(&response, Encoding::Binary)
            else {
                panic!("job response decoded as a different variant");
            };
            assert_eq!(
                decoded.total.energy.to_bits(),
                result.total.energy.to_bits(),
                "floats must survive bit-exactly"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The server end: typed answers to everything
// ---------------------------------------------------------------------

#[test]
fn submitted_jobs_answer_with_the_id_on_top_and_no_empty_pareto() {
    let pool = DsePool::new(ServiceState::new().unwrap(), 2);
    let (response, _) = handle_request(
        &pool,
        r#"{"type": "submit", "id": 5, "network": {"model": "tiny"}}"#,
    );
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(5));
    let rendered = response.render();
    assert!(
        rendered.starts_with(r#"{"type":"job","ok":true,"id":5,"result":"#),
        "job responses lead with the correlation id: {rendered}"
    );
    assert!(
        !rendered.contains("\"pareto\""),
        "point-free responses must not grow a pareto field"
    );
    let result = response.get("result").unwrap();
    assert_eq!(result.get("layers").unwrap().as_array().unwrap().len(), 3);
}

#[test]
fn typed_requests_through_handle_request_answer_typed() {
    let pool = DsePool::new(ServiceState::new().unwrap(), 2);
    let (hello, _) = handle_request(
        &pool,
        &format!(r#"{{"type":"hello","version":{PROTOCOL_VERSION}}}"#),
    );
    assert_eq!(hello.get("type").and_then(Json::as_str), Some("hello"));
    assert_eq!(
        hello.get("version").and_then(Json::as_u64),
        Some(PROTOCOL_VERSION)
    );

    // Unknown version: graceful reject naming the supported version.
    let (reject, stop) = handle_request(&pool, r#"{"type":"hello","version":99}"#);
    assert_eq!(reject.get("ok"), Some(&Json::Bool(false)));
    assert!(!stop, "a rejected hello must not kill the server");
    let message = reject.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("99"), "{message}");
    assert!(message.contains(&PROTOCOL_VERSION.to_string()), "{message}");

    // The typed stats carry the active configuration.
    let (stats, _) = handle_request(&pool, r#"{"type":"stats","id":8}"#);
    assert_eq!(stats.get("type").and_then(Json::as_str), Some("stats"));
    assert_eq!(stats.get("id").and_then(Json::as_u64), Some(8));
    let Ok(Response::Stats { report, .. }) = Response::decode(&stats) else {
        panic!("stats must decode as a typed response: {stats}");
    };
    assert_eq!(report.workers, 2);
    assert_eq!(report.policy, EvictionPolicy::Lru);
}

#[test]
fn old_binary_frames_still_work_over_a_live_socket() {
    use drmap_service::server::JobServer;
    use std::io::{BufReader as IoBufReader, BufWriter};
    use std::net::TcpStream;

    let pool = std::sync::Arc::new(DsePool::new(ServiceState::new().unwrap(), 2));
    let server = JobServer::with_pool("127.0.0.1:0", std::sync::Arc::clone(&pool)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // The frame layout predates the typed protocol and carries it
    // unchanged: raw payloads in binary frames, answered in kind.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = IoBufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    wire::write_message(&mut writer, r#"{"type":"ping"}"#, Encoding::Binary).unwrap();
    let (payload, encoding) = wire::read_message(&mut reader).unwrap().unwrap();
    assert_eq!(encoding, Encoding::Binary, "responses answer in kind");
    assert_eq!(payload, r#"{"type":"pong","ok":true}"#);

    wire::write_message(
        &mut writer,
        r#"{"type":"submit","id":1,"network":{"model":"tiny"}}"#,
        Encoding::Binary,
    )
    .unwrap();
    let (payload, encoding) = wire::read_message(&mut reader).unwrap().unwrap();
    assert_eq!(encoding, Encoding::Binary);
    let parsed = Json::parse(&payload).unwrap();
    assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(parsed.get("type").and_then(Json::as_str), Some("job"));

    wire::write_message(&mut writer, r#"{"type":"shutdown"}"#, Encoding::Binary).unwrap();
    let (payload, _) = wire::read_message(&mut reader).unwrap().unwrap();
    assert_eq!(payload, r#"{"type":"shutdown","ok":true,"shutdown":true}"#);
    handle.join().unwrap();
}

#[test]
fn every_error_a_live_server_emits_decodes_as_a_typed_response() {
    use drmap_service::server::JobServer;
    use std::io::{BufReader as IoBufReader, BufWriter};
    use std::net::TcpStream;

    let server = JobServer::bind("127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = IoBufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    // Garbage, a non-string "type", and an object with no "type" (what
    // used to be a bare job line): each must come back through the
    // typed reader — a peer such as the router's backend reader treats
    // an undecodable line as a dead connection.
    for (malformed, expect) in [
        ("{nope", "invalid JSON"),
        (r#"{"type":7,"id":3}"#, "\"type\" must be a string"),
        (
            r#"{"id":4,"network":{"model":"tiny"}}"#,
            "carries no \"type\"",
        ),
    ] {
        wire::write_message(&mut writer, malformed, Encoding::Text).unwrap();
        let (response, _) = wire::read_response(&mut reader)
            .unwrap_or_else(|e| panic!("{malformed} was answered undecodably: {e}"))
            .expect("the connection stays open");
        let Response::Error { message, .. } = response else {
            panic!("{malformed} must be answered with an error, got {response:?}");
        };
        assert!(message.contains(expect), "{malformed} -> {message}");
    }
    // The same connection still serves well-formed requests.
    wire::write_request(
        &mut writer,
        &Request::Shutdown { id: Some(9) },
        Encoding::Text,
    )
    .unwrap();
    let (response, _) = wire::read_response(&mut reader).unwrap().unwrap();
    assert_eq!(response, Response::Shutdown { id: Some(9) });
    handle.join().unwrap();
}

#[test]
fn mistyped_typed_requests_get_typed_errors() {
    let pool = DsePool::new(ServiceState::new().unwrap(), 2);
    for (bad, expect) in [
        (r#"{"type":"frobnicate","id":3}"#, "unknown request type"),
        (r#"{"type":"set-policy","policy":"mru"}"#, "eviction policy"),
        // A verb this build has retired is just an unknown verb.
        (
            r#"{"type":"set-shard-policy","id":5,"min_tilings":32}"#,
            "unknown request type",
        ),
        (r#"{"type":"cache-warm","limit":"many"}"#, "limit"),
        (r#"{"type":"hello"}"#, "version"),
    ] {
        let (response, stop) = handle_request(&pool, bad);
        assert!(!stop);
        assert_eq!(
            response.get("type").and_then(Json::as_str),
            Some("error"),
            "malformed requests get typed errors: {bad}"
        );
        let message = response.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains(expect), "{bad} -> {message}");
        let sent = Json::parse(bad).unwrap();
        assert_eq!(response.get("id"), sent.get("id"), "{bad} echoes its id");
        // ...and the next request is served as if nothing happened.
        let (pong, _) = handle_request(&pool, r#"{"type":"ping","id":6}"#);
        assert_eq!(
            Response::decode(&pong).ok(),
            Some(Response::Pong { id: Some(6) })
        );
    }
    // Admin verbs without a store answer errors, not panics.
    let (response, _) = handle_request(&pool, r#"{"type":"store-compact"}"#);
    assert_eq!(response.get("type").and_then(Json::as_str), Some("error"));
    let (response, _) = handle_request(&pool, r#"{"type":"cache-warm"}"#);
    assert_eq!(response.get("type").and_then(Json::as_str), Some("error"));
}
