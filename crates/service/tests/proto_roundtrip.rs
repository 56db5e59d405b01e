//! Protocol-level integration tests: every `Request`/`Response`
//! variant must survive a round trip through the wire codec (one NDJSON
//! line each), and everything a server says — its answers to malformed
//! and untyped messages included — must decode as a typed response.
//! The JSON layer underneath must parse in linear time, and a tree
//! parsed from its writer's text must render those bytes back.

use std::io::BufReader;

use drmap_service::cache::CacheStats;
use drmap_service::engine::ServiceState;
use drmap_service::faults::FaultPlan;
use drmap_service::json::{Json, JsonText};
use drmap_service::pool::DsePool;
use drmap_service::proto::{
    capabilities, BoundsUpdate, MetricsReport, Request, Response, StatsReport, PROTOCOL_VERSION,
};
use drmap_service::server::handle_request;
use drmap_service::spec::{
    CacheMode, EngineSpec, JobOptions, JobResult, JobSpec, LayerOutcome, Workload,
};
use drmap_service::wire;
use drmap_store::store::{CompactReport, StoreStats};
use drmap_telemetry::{HistogramSnapshot, MetricsSnapshot, SlowEntry};
use proptest::{proptest, ProptestConfig};

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_core::dse::Objective;
use drmap_core::edp::EdpEstimate;
use drmap_core::pareto::DesignPoint;
use drmap_core::tiling::Tiling;
use drmap_dram::timing::DramArch;

/// Push a request through the wire and decode it back.
fn round_trip_request(request: &Request) -> Request {
    let mut bytes = Vec::new();
    wire::write_request(&mut bytes, request).unwrap();
    let (line, _) = wire::read_message(&mut BufReader::new(&bytes[..]))
        .unwrap()
        .expect("one message was written");
    wire::decode_request(&line).expect("a well-formed request decodes")
}

/// Push a response through the wire, encoded as the connection writer
/// encodes it, and decode it back.
fn round_trip_response(response: &Response) -> Response {
    let mut bytes = Vec::new();
    wire::write_encoded(&mut bytes, &mut String::new(), |t| response.encode(t)).unwrap();
    wire::read_response(&mut BufReader::new(&bytes[..]))
        .unwrap()
        .expect("one message was written")
}

/// The number of `Request` variants: [`request_variant`] builds each.
const REQUESTS: usize = 12;

/// The number of `Response` variants: [`response_variant`] builds each.
const RESPONSES: usize = 14;

/// Deterministically build one of every `Request` variant from fuzz
/// inputs.
fn request_variant(kind: usize, a: u64, b: u64, flag: bool) -> Request {
    let id = flag.then_some(a);
    match kind {
        0 => Request::Hello {
            version: a,
            client: flag.then(|| format!("client-{b}")),
        },
        1 => Request::Ping { id },
        2 => Request::Stats { id },
        3 => Request::Shutdown { id },
        4 => Request::CacheClear { id },
        5 => Request::CacheWarm {
            id,
            limit: (b.is_multiple_of(2)).then_some(b as usize % 10_000),
        },
        6 => Request::StoreCompact {
            id,
            auto_ratio: (b.is_multiple_of(3)).then_some((b % 100) as f64 / 100.0),
        },
        7 => Request::Metrics { id },
        8 => Request::SetBounds {
            id,
            update: BoundsUpdate {
                max_entries: (!a.is_multiple_of(3)).then_some(a as usize % 5_000),
                max_bytes: (b.is_multiple_of(2)).then_some(b as usize),
            },
        },
        9 => Request::SetSlowLog {
            id,
            slow_ms: (!b.is_multiple_of(3)).then_some(b % 10_000),
            cap: (!a.is_multiple_of(2)).then_some(a as usize % 512 + 1),
        },
        10 => Request::SetFaults {
            id,
            spec: (!b.is_multiple_of(2)).then(|| fault_plan(a, b)),
        },
        _ => Request::Submit(job_spec(a, b)),
    }
}

/// A plan that injects something: each fraction is zero or a draw in
/// `0..=1`, each delay bound its default or not, `panic_job` absent or
/// 1-based.
fn fault_plan(a: u64, b: u64) -> FaultPlan {
    let fraction = |n: u64| {
        let hundredths = if n.is_multiple_of(3) { 0 } else { n % 101 };
        hundredths as f64 / 100.0
    };
    let bound = |n: u64, default| {
        if n.is_multiple_of(2) {
            default
        } else {
            n % 1_000
        }
    };
    let defaults = FaultPlan::default();
    FaultPlan {
        seed: a,
        store_fail: fraction(b),
        store_delay: fraction(b / 3),
        store_delay_ms: bound(b / 4, defaults.store_delay_ms),
        wire_drop: fraction(b / 9),
        wire_stall: fraction(b / 27),
        wire_stall_ms: bound(a, defaults.wire_stall_ms),
        // Never absent where every fraction is zero.
        panic_job: (!b.is_multiple_of(5) || fraction(b) == 0.0).then_some(b % 64 + 1),
    }
}

/// A job drawn from every arch × objective; a zoo network, a custom
/// one (conv, grouped and fc layers) or a single layer, under names
/// from [`NAMES`]; and every subset of the options.
fn job_spec(a: u64, b: u64) -> JobSpec {
    let pick = |n: u64, len: usize| n as usize % len;
    let name = |n: u64| NAMES[pick(n, NAMES.len())];
    let engine = EngineSpec {
        arch: DramArch::ALL[pick(b, 4)],
        objective: Objective::ALL[pick(b / 4, 4)],
    };
    let layers = [
        Layer::conv(name(a), 8, 8, 16, 8, 3, 3, 1),
        Layer::conv_grouped(name(a + 1), 8, 8, 16, 16, 3, 3, 2, 4),
        Layer::fully_connected(name(a + 2), 1024, 10),
    ];
    let zoo = Network::zoo();
    let workload = match a % 3 {
        0 => Workload::Network(zoo[pick(a / 3, zoo.len())].1()),
        1 => Workload::Network(Network::new(name(a + 3), layers.to_vec()).unwrap()),
        _ => Workload::Layer(layers[pick(a / 3, 3)].clone()),
    };
    let options = JobOptions {
        cache: CacheMode::ALL[pick(b / 16, 3)],
        keep_points: b / 48 % 2 == 1,
        deadline_ms: (b / 96 % 2 == 1).then_some(b % 60_000 + 1),
    };
    JobSpec {
        id: a,
        engine,
        workload,
        options,
    }
}

/// Deterministically build one of every `Response` variant from fuzz
/// inputs, exercising float bit-exactness through the job result.
fn response_variant(kind: usize, a: u64, b: u64, x: f64, flag: bool) -> Response {
    let id = flag.then_some(a);
    match kind {
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
                    entries: a as usize % 1000,
                    bytes: b as usize % 1_000_000,
                    store_hits: a % 17,
                    store_misses: b % 19,
                    store_errors: a % 3,
                    compute_ns_min: a % 1_000_000,
                    compute_ns_max: b % 1_000_000_000,
                    compute_ns_total: a.min(1 << 50),
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
        4 => Response::CacheCleared { id },
        5 => Response::CacheWarmed {
            id,
            loaded: b as usize % 5000,
        },
        6 => Response::StoreCompacted {
            id,
            report: CompactReport {
                live_records: a % 1000,
                dropped_records: b % 1000,
                bytes_before: a % (1 << 40),
                bytes_after: b % (1 << 40),
            },
        },
        7 => Response::Metrics {
            id,
            report: MetricsReport {
                snapshot: MetricsSnapshot {
                    counters: vec![(NAMES[a as usize % NAMES.len()].to_owned(), b)],
                    gauges: vec![("jobs_inflight".to_owned(), a as i64 - b as i64)],
                    histograms: vec![(
                        "request_ns".to_owned(),
                        HistogramSnapshot {
                            count: b % 1000 + 1,
                            sum: a * b,
                            min: a % 1000,
                            max: a % 1000 + b,
                            buckets: vec![(a as u32 % 300, b % 1000 + 1)],
                        },
                    )],
                },
                slow: flag
                    .then(|| SlowEntry {
                        trace_id: a,
                        total_ns: b,
                        stages: vec![("explore".to_owned(), b / 2)],
                    })
                    .into_iter()
                    .collect(),
            },
        },
        8 => Response::BoundsSet {
            id,
            max_entries: flag.then_some(a as usize),
            max_bytes: (b.is_multiple_of(2)).then_some(b as usize),
            previous_entries: (a.is_multiple_of(3)).then_some(b as usize),
            previous_bytes: (!b.is_multiple_of(3)).then_some(a as usize),
            evicted: b,
        },
        9 => Response::SlowLogSet {
            id,
            slow_ms: flag.then_some(b),
            cap: a as usize % 512 + 1,
            previous_ms: (b.is_multiple_of(3)).then_some(a),
            previous_cap: b as usize % 512,
        },
        10 => Response::FaultsSet {
            id,
            spec: (!b.is_multiple_of(2)).then(|| fault_plan(b, a)),
        },
        11 => Response::DeadlineExceeded {
            id,
            deadline_ms: b + 1,
        },
        12 => Response::Error {
            id,
            message: format!("{}: {b}", NAMES[a as usize % NAMES.len()]),
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

/// What the encoder writes: the bytes a connection sends.
fn text(encode: impl FnOnce(&mut JsonText<'_>)) -> String {
    let mut out = String::new();
    encode(&mut JsonText::new(&mut out));
    out
}

/// Names that need every kind of escape, and none.
const NAMES: [&str; 6] = [
    "CONV1",
    "say \"hi\"",
    "back\\slash",
    "ctl\u{1}\n\t\r\u{1f}",
    "ünï😀漢",
    "",
];

/// Numbers at the edges of the renderer: subnormal, integral at and
/// above 9e15 (where integers switch to `{:?}`), negative zero, NaN.
const NUMBERS: [f64; 9] = [
    5e-324,
    2.225e-309,
    9.0e15,
    9.007_199_254_740_992e15,
    1.8e19,
    -0.0,
    f64::NAN,
    0.1 + 0.2,
    -8_999_999_999_999_999.0,
];

/// A job result whose names and estimates come from [`NAMES`] and
/// [`NUMBERS`] (or `x`), picked by the bits of `pick`.
fn tricky_result(pick: u64, x: f64, layers: usize, with_points: bool) -> JobResult {
    let mut bits = pick;
    let mut next = |n: usize| {
        let i = (bits % n as u64) as usize;
        bits = bits.rotate_right(7) ^ 0x9E37_79B9_7F4A_7C15;
        i
    };
    let mut number = || match next(NUMBERS.len() + 1) {
        i if i < NUMBERS.len() => NUMBERS[i],
        _ => x,
    };
    let mut estimate = || EdpEstimate {
        cycles: number(),
        energy: number(),
        t_ck_ns: number(),
    };
    let total = estimate();
    let layers = (0..layers)
        .map(|l| LayerOutcome {
            name: NAMES[(pick as usize + l) % NAMES.len()].to_owned(),
            mapping: "Mapping-3 (DRMap)".into(),
            scheme: NAMES[(pick as usize / 7 + l) % NAMES.len()].to_owned(),
            tiling: Tiling::new(l + 1, 13, 16, 8),
            estimate: estimate(),
            evaluations: pick >> (l * 9),
            cached: l % 2 == 0,
            coalesced: false,
            store_hit: l % 3 == 0,
            pareto: if with_points {
                vec![DesignPoint::new(NAMES[l % NAMES.len()], estimate())]
            } else {
                vec![]
            },
        })
        .collect();
    JobResult {
        id: pick,
        workload: NAMES[pick as usize % NAMES.len()].to_owned(),
        total,
        layers,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tree `to_json` parses from the encoder's text renders those
    /// same bytes, whatever the names and numbers.
    #[test]
    fn the_text_sink_equals_the_rendered_tree_on_any_job_result(
        pick in 0_u64..u64::MAX,
        x in -1.0e12_f64..1.0e12,
        layers in 0_usize..4,
        with_points in proptest::bool::ANY,
    ) {
        let response = Response::Job { result: tricky_result(pick, x, layers, with_points) };
        assert_eq!(text(|t| response.encode(t)), response.to_json().render());
    }

    /// Every request variant survives the wire with nothing lost: same
    /// variant, same fields; and its tree renders the encoder's bytes.
    #[test]
    fn every_request_variant_round_trips_through_the_wire(
        a in 0_u64..1_000_000,
        b in 0_u64..1_000_000,
        flag in proptest::bool::ANY,
    ) {
        for kind in 0..REQUESTS {
            let request = request_variant(kind, a, b, flag);
            assert_eq!(text(|t| request.encode(t)), request.to_json().render());
            assert_eq!(round_trip_request(&request), request);
        }
    }

    /// Every response variant survives the wire — including the job
    /// result's floats, bit for bit — and its tree renders the
    /// encoder's bytes.
    #[test]
    fn every_response_variant_round_trips_through_the_wire(
        a in 0_u64..1_000_000,
        b in 0_u64..1_000_000,
        x in 0.0_f64..1.0e12,
        flag in proptest::bool::ANY,
    ) {
        for kind in 0..RESPONSES {
            let response = response_variant(kind, a, b, x, flag);
            assert_eq!(text(|t| response.encode(t)), response.to_json().render());
            let decoded = round_trip_response(&response);
            assert_eq!(decoded, response);
            if let Response::Job { result } = &response {
                let Response::Job { result: decoded } = decoded else {
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
}

// ---------------------------------------------------------------------
// The JSON layer under the codec
// ---------------------------------------------------------------------

#[test]
fn multi_byte_characters_next_to_escapes_parse_and_render() {
    let text = r#""é\"ü\\😀\né€\t漢""#;
    let expected = "é\"ü\\😀\né€\t漢";
    assert_eq!(Json::parse(text).unwrap(), Json::str(expected));
    let rendered = Json::str(expected).render();
    assert_eq!(rendered, r#""é\"ü\\😀\né€\t漢""#);
    assert_eq!(Json::parse(&rendered).unwrap(), Json::str(expected));
    // Unescaped control characters are refused (RFC 8259 §7); escaped,
    // they read back.
    assert_eq!(Json::parse("\"a\u{1}b\"").unwrap_err().offset, 2);
    assert_eq!(Json::parse(r#""a\u0001b""#).unwrap(), Json::str("a\u{1}b"));
}

#[test]
fn a_one_mebibyte_string_parses_in_linear_time() {
    // The parser once re-validated the whole rest of the input for
    // every character: minutes for this document, even in release.
    let body = "ab\\\"ü".repeat(1 << 18);
    let doc = format!(r#"{{"s":"{body}","n":1}}"#);
    assert!(doc.len() > 1 << 20);
    let start = std::time::Instant::now();
    let v = Json::parse(&doc).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(
        v.get("s").and_then(Json::as_str).map(str::len),
        Some(5 << 18)
    );
    assert!(elapsed.as_secs_f64() < 2.0, "{elapsed:?}");
}

#[test]
fn the_text_sink_writes_what_the_tree_renders() {
    let text = text(|t| {
        t.object(|o| {
            o.key("a").array(|a| {
                a.num(1.0);
                a.object(|_| {});
                a.array(|_| {});
                a.null();
                a.num(-0.0);
            });
            o.key("b\n").bool(false);
            o.key("c").object(|c| c.key("d").str("é\u{7}"));
            o.key("e").num(f64::NAN);
        });
    });
    assert_eq!(
        text,
        r#"{"a":[1,{},[],null,-0.0],"b\n":false,"c":{"d":"é\u0007"},"e":null}"#
    );
    assert_eq!(Json::parse(&text).unwrap().render(), text);
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
}

#[test]
fn binary_frames_are_refused_and_close_only_their_connection() {
    use drmap_service::error::ServiceError;
    use drmap_service::server::JobServer;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    let server = JobServer::bind("127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // A `0x00`-marked, length-prefixed ping — the retired binary frame
    // layout — is a transport error: no answer, the connection closes.
    let ping = br#"{"type":"ping"}"#;
    let mut frame = vec![0x00];
    frame.extend_from_slice(&(ping.len() as u32).to_be_bytes());
    frame.extend_from_slice(ping);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&frame).unwrap();
    match wire::read_message(&mut BufReader::new(&stream)) {
        // A clean close, or a reset if the frame's tail was unread.
        Ok(None) | Err(ServiceError::Io(_)) => {}
        other => panic!("a binary frame must close the connection unanswered: {other:?}"),
    }

    // The server itself is untouched: a fresh connection is served.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    wire::write_request(&mut writer, &Request::Ping { id: Some(3) }).unwrap();
    let response = wire::read_response(&mut reader).unwrap().unwrap();
    assert_eq!(response, Response::Pong { id: Some(3) });
    wire::write_request(&mut writer, &Request::Shutdown { id: None }).unwrap();
    assert!(wire::read_response(&mut reader).unwrap().is_some());
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
        wire::write_message(&mut writer, malformed, wire::Encoding::Text).unwrap();
        let response = wire::read_response(&mut reader)
            .unwrap_or_else(|e| panic!("{malformed} was answered undecodably: {e}"))
            .expect("the connection stays open");
        let Response::Error { message, .. } = response else {
            panic!("{malformed} must be answered with an error, got {response:?}");
        };
        assert!(message.contains(expect), "{malformed} -> {message}");
    }
    // The same connection still serves well-formed requests.
    wire::write_request(&mut writer, &Request::Shutdown { id: Some(9) }).unwrap();
    let response = wire::read_response(&mut reader).unwrap().unwrap();
    assert_eq!(response, Response::Shutdown { id: Some(9) });
    handle.join().unwrap();
}

#[test]
fn mistyped_typed_requests_get_typed_errors() {
    let pool = DsePool::new(ServiceState::new().unwrap(), 2);
    for (bad, expect) in [
        (r#"{"type":"frobnicate","id":3}"#, "unknown request type"),
        // A verb this build has retired is just an unknown verb.
        (
            r#"{"type":"set-policy","id":4,"policy":"cost"}"#,
            "unknown request type",
        ),
        (
            r#"{"type":"set-shard-policy","id":5,"min_tilings":32}"#,
            "unknown request type",
        ),
        (
            r#"{"type":"set-overload","id":7,"enabled":true}"#,
            "unknown request type",
        ),
        (
            r#"{"type":"metrics-history","id":8}"#,
            "unknown request type",
        ),
        (
            r#"{"type":"slow-traces","id":10,"limit":5}"#,
            "unknown request type",
        ),
        (r#"{"type":"cache-warm","limit":"many"}"#, "limit"),
        (r#"{"type":"set-bounds","max_entries":"x"}"#, "max_entries"),
        (r#"{"type":"set-slow-log","slow_ms":"fast"}"#, "slow_ms"),
        (r#"{"type":"set-slow-log","cap":0}"#, "must be positive"),
        (
            r#"{"type":"store-compact","auto_ratio":"now"}"#,
            "auto_ratio",
        ),
        (r#"{"type":"store-compact","auto_ratio":1.5}"#, "in [0, 1]"),
        (r#"{"type":"store-compact","auto_ratio":-0.1}"#, "in [0, 1]"),
        // A bad fault plan is named once, under its member: the client
        // adds the "protocol error: " prefix. The retired string form is
        // refused, never read as a disarm.
        (
            r#"{"type":"set-faults","id":11,"spec":"seed=7,store-fail=0.1"}"#,
            r#""spec": expected an object"#,
        ),
        (
            r#"{"type":"set-faults","spec":{"store_fail":1.5}}"#,
            r#""spec": "store_fail" must be a fraction in 0..=1, got 1.5"#,
        ),
        (
            r#"{"type":"set-faults","spec":{"store_fail":"yes"}}"#,
            r#""spec": "store_fail": expected a number"#,
        ),
        (
            r#"{"type":"set-faults","spec":{"wire_drop":0.5,"frobnicate":1}}"#,
            r#""spec": unknown fault plan member "frobnicate""#,
        ),
        (
            r#"{"type":"set-faults","spec":{"seed":"nope","wire_drop":0.5}}"#,
            r#""spec": "seed": expected a non-negative integer"#,
        ),
        (
            r#"{"type":"set-faults","id":12,"spec":{"seed":42}}"#,
            r#""spec": the fault plan injects nothing"#,
        ),
        (
            r#"{"type":"set-faults","spec":{"panic_job":0}}"#,
            r#""spec": "panic_job" is 1-based"#,
        ),
        // A job's nested field names its whole path.
        (
            r#"{"type":"submit","id":2,"engine":{"arch":"HBM3"},"network":{"model":"tiny"}}"#,
            r#""engine": "arch": unknown arch "HBM3" (expected one of DDR3/SALP-1/SALP-2/SALP-MASA)"#,
        ),
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
        assert!(!message.starts_with("protocol error"), "{bad} -> {message}");
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
