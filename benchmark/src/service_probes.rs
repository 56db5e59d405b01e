//! Per-layer probes of `service`, `store`, `router` and `telemetry`:
//! each public function timed from outside on the workload's own
//! catalogue, plus the request path replayed in process as
//! `request ⊃ {wire.read, json.parse, proto.decode, pool.job,
//! proto.encode, json.render, wire.write}`.

use std::io::BufReader;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use drmap_core::bytes::{decode_stored_result, encode_stored_result};
use drmap_core::dse::{layer_cache_key, DseConfig, LayerDseResult};
use drmap_service::cache::{CacheConfig, DseCache};
use drmap_service::engine::{EngineFactory, ServiceState};
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::proto::{Request, Response};
use drmap_service::server::handle_request;
use drmap_service::spec::{CacheMode, JobOptions, JobSpec};
use drmap_service::wire::{read_message, write_message, Encoding};
use drmap_store::store::Store;
use drmap_telemetry::{Histogram, Span};

use crate::client::{Conn, Entry};
use crate::probe::{probe_mix_ns, probe_ns, MIN_CALLS};
use crate::report::Values;
use crate::spans::{self_times, Recorder};
use crate::stats::fastest_decile_mean;

/// Calls per catalogue entry so that a probe over the whole catalogue
/// makes at least [`MIN_CALLS`] calls.
fn calls_per_entry(entries: usize) -> usize {
    MIN_CALLS.div_ceil(entries.max(1)).max(10)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// An in-process pool with every catalogue entry resident.
///
/// # Errors
///
/// Propagates pool construction and job failures.
pub fn resident_pool(entries: &[Entry], workers: usize) -> Result<DsePool, String> {
    let state = ServiceState::new().map_err(|e| e.to_string())?;
    let pool = DsePool::new(state, workers);
    for entry in entries {
        pool.submit(&entry.spec).wait().map_err(|e| e.to_string())?;
    }
    Ok(pool)
}

/// The stages of one request, in path order.
const STAGES: [&str; 7] = [
    "wire.read",
    "json.parse",
    "proto.decode",
    "pool.job",
    "proto.encode",
    "json.render",
    "wire.write",
];

/// Replay the request path in process for every catalogue entry and
/// set the stage metrics, weighting entries by `weights` (their share
/// of the workload's requests). Returns the mix-weighted time of one
/// whole in-process request in nanoseconds. `pool` holds every entry
/// resident.
///
/// # Errors
///
/// Propagates framing, decoding and job failures.
pub fn replay_request_path(
    rec: &mut Recorder,
    pool: &DsePool,
    entries: &[Entry],
    weights: &[f64],
    v: &mut Values,
) -> Result<f64, String> {
    let reps = calls_per_entry(entries.len());
    let total_weight: f64 = weights.iter().sum();
    // stage_ns[s]: mix-weighted fastest-decile time of stage s.
    let mut stage_ns = [0.0f64; STAGES.len()];
    let mut request_ns = 0.0;
    for (entry, weight) in entries.iter().zip(weights) {
        if *weight <= 0.0 {
            continue;
        }
        let mut wire_in = Vec::new();
        write_message(&mut wire_in, &entry.request(1), Encoding::Text)
            .map_err(|e| e.to_string())?;
        // A private recorder per entry, so spans can be read back by
        // position; merged into the run's trace afterwards.
        let mut local = Recorder::new(rec.epoch(), true);
        for rep in 0..reps {
            let req = rep as u64;
            local.enter("request", req);
            let payload = local.span("wire.read", req, || {
                read_message(&mut BufReader::new(&wire_in[..]))
            });
            let (payload, encoding) = payload
                .map_err(|e| e.to_string())?
                .ok_or("empty request frame")?;
            let json = local
                .span("json.parse", req, || Json::parse(&payload))
                .map_err(|e| e.to_string())?;
            let (request, dialect) = local
                .span("proto.decode", req, || Request::decode(&json))
                .map_err(|e| e.message)?;
            let Request::Submit(job) = request else {
                return Err("replayed request is not a job".to_owned());
            };
            let result = local
                .span("pool.job", req, || pool.submit(&job).wait())
                .map_err(|e| e.to_string())?;
            let response = Response::Job { result };
            let rendered = local.span("proto.encode", req, || response.render(dialect));
            let text = local.span("json.render", req, || rendered.render());
            let mut wire_out = Vec::with_capacity(text.len() + 1);
            local
                .span("wire.write", req, || {
                    write_message(&mut wire_out, &text, encoding)
                })
                .map_err(|e| e.to_string())?;
            local.exit();
            std::hint::black_box(wire_out);
        }
        let spans = local.finish();
        let selfs = self_times(&spans);
        let share = weight / total_weight;
        for (s, stage) in STAGES.iter().enumerate() {
            let samples: Vec<u64> = spans
                .iter()
                .zip(&selfs)
                .filter(|(span, _)| span.name == *stage)
                .map(|(_, self_ns)| *self_ns)
                .collect();
            stage_ns[s] += fastest_decile_mean(&samples) * share;
        }
        let whole: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        request_ns += fastest_decile_mean(&whole) * share;
        rec.absorb(spans);
    }
    v.set("service.json.parse_req_us", us(stage_ns[1]));
    v.set("service.proto.decode_us", us(stage_ns[2]));
    v.set("service.proto.encode_us", us(stage_ns[4]));
    v.set("service.json.render_resp_us", us(stage_ns[5]));
    v.set("service.wire.frame_us", us(stage_ns[0] + stage_ns[6]));
    Ok(request_ns)
}

/// The probes that call one `service`/`telemetry` function each, on
/// the catalogue's own jobs with every layer resident in `pool`.
///
/// # Errors
///
/// Propagates engine-factory failures.
pub fn probe_service_functions(
    rec: &mut Recorder,
    pool: &DsePool,
    entries: &[Entry],
    weights: &[f64],
    v: &mut Values,
) -> Result<(), String> {
    let state = Arc::clone(pool.state());
    let reps = calls_per_entry(entries.len());
    let total: f64 = weights.iter().sum();
    let mix = |per_entry: &dyn Fn(&Entry) -> f64| -> f64 {
        entries
            .iter()
            .zip(weights)
            .map(|(e, w)| per_entry(e) * w / total)
            .sum()
    };

    // Exact wire sizes of the mix.
    let responses: Vec<String> = entries
        .iter()
        .map(|e| {
            let (json, _) = handle_request(pool, &e.request(1));
            json.render()
        })
        .collect();
    v.set(
        "service.wire.bytes_per_req",
        mix(&|e| e.request(1).len() as f64 + 1.0),
    );
    v.set(
        "service.wire.bytes_per_resp",
        entries
            .iter()
            .zip(&responses)
            .zip(weights)
            .map(|((_, r), w)| (r.len() as f64 + 1.0) * w / total)
            .sum(),
    );

    let parse_resp = probe_mix_ns(rec, "service.json.parse_resp", reps, weights, |i| {
        std::hint::black_box(Json::parse(&responses[i]).is_ok());
    });
    v.set("service.json.parse_resp_us", us(parse_resp));

    let run_job = probe_mix_ns(rec, "service.engine.run_job", reps, weights, |i| {
        std::hint::black_box(state.run_job(&entries[i].spec).is_ok());
    });
    v.set("service.engine.run_job_hot_us", us(run_job));
    let pooled = probe_mix_ns(rec, "service.pool.submit_wait", reps, weights, |i| {
        std::hint::black_box(pool.submit(&entries[i].spec).wait().is_ok());
    });
    v.set("service.pool.hop_us", us(pooled - run_job));
    let handled = probe_mix_ns(rec, "service.server.handle_request", reps, weights, |i| {
        std::hint::black_box(handle_request(pool, &entries[i].request(1)));
    });
    v.set("service.server.handle_us", us(handled));

    // Per-layer cache operations, over every layer of the catalogue.
    let factory = EngineFactory::table_ii().map_err(|e| e.to_string())?;
    let acc = *factory.accelerator();
    let config = DseConfig::default();
    let layers: Vec<(String, &drmap_cnn::layer::Layer)> = entries
        .iter()
        .flat_map(|e| {
            let tag = factory.engine_tag(&e.spec.engine);
            e.spec
                .workload
                .layers()
                .iter()
                .map(move |l| (tag.clone(), l))
        })
        .collect();
    let keys: Vec<String> = layers
        .iter()
        .map(|(tag, l)| layer_cache_key(tag, l, &acc, &config))
        .collect();
    let mut at = 0usize;
    let key_ns = probe_ns(rec, "service.cache.key", MIN_CALLS, 16, || {
        let (tag, layer) = &layers[at % layers.len()];
        std::hint::black_box(layer_cache_key(tag, layer, &acc, &config));
        at += 1;
    });
    v.set("service.cache.key_ns", key_ns);
    let cache = state.cache();
    let hit_ns = probe_ns(rec, "service.cache.get", MIN_CALLS, 16, || {
        std::hint::black_box(cache.get(&keys[at % keys.len()]).is_some());
        at += 1;
    });
    v.set("service.cache.hit_ns", hit_ns);

    let hist = Arc::new(Histogram::new());
    let record_ns = probe_ns(rec, "telemetry.record", MIN_CALLS, 64, || {
        hist.record(std::hint::black_box(at as u64 * 977));
        at += 1;
    });
    v.set("telemetry.record_ns", record_ns);
    let span_ns = probe_ns(rec, "telemetry.span", MIN_CALLS, 64, || {
        drop(Span::enter("probe", &hist));
    });
    v.set("telemetry.span_ns", span_ns);
    Ok(())
}

/// Insert into a full 16-entry cache: every insert evicts.
pub fn probe_evicting_insert(rec: &mut Recorder, results: &[LayerDseResult], v: &mut Values) {
    let cache = DseCache::with_config(CacheConfig::unbounded().with_max_entries(16));
    let mut n = 0usize;
    let mut insert = || {
        let result = results[n % results.len()].clone();
        cache.insert(format!("probe-key-{n}"), result);
        n += 1;
    };
    (0..16).for_each(|_| insert());
    v.set(
        "service.cache.evict_insert_ns",
        probe_ns(rec, "service.cache.insert_evicting", MIN_CALLS, 8, insert),
    );
}

/// One oversized layer through the pool, bypassing the cache: time
/// with two workers over time with one.
///
/// # Errors
///
/// Propagates pool construction and job failures.
pub fn probe_shard_speedup(
    rec: &mut Recorder,
    heavy: &JobSpec,
    v: &mut Values,
) -> Result<(), String> {
    let job = heavy.clone().with_options(JobOptions {
        cache: CacheMode::Bypass,
        ..JobOptions::default()
    });
    let mut time_with = |workers: usize, name: &'static str| -> Result<f64, String> {
        let pool = DsePool::new(ServiceState::new().map_err(|e| e.to_string())?, workers);
        pool.submit(&job).wait().map_err(|e| e.to_string())?;
        Ok(probe_ns(rec, name, 12, 1, || {
            std::hint::black_box(pool.submit(&job).wait().is_ok());
        }))
    };
    let one = time_with(1, "service.pool.heavy_layer_1w")?;
    let two = time_with(2, "service.pool.heavy_layer_2w")?;
    v.set("service.pool.shard_speedup", one / two);
    Ok(())
}

/// `encode_stored_result` / `decode_stored_result` over the
/// catalogue's layer results.
pub fn probe_bytes_codec(rec: &mut Recorder, results: &[LayerDseResult], v: &mut Values) {
    let encoded: Vec<Vec<u8>> = results
        .iter()
        .filter_map(|r| encode_stored_result(r, 1_000).ok())
        .collect();
    let mut at = 0usize;
    let encode = probe_ns(rec, "core.bytes.encode", MIN_CALLS, 8, || {
        std::hint::black_box(encode_stored_result(&results[at % results.len()], 1_000).is_ok());
        at += 1;
    });
    let decode = probe_ns(rec, "core.bytes.decode", MIN_CALLS, 8, || {
        std::hint::black_box(decode_stored_result(&encoded[at % encoded.len()]).is_ok());
        at += 1;
    });
    v.set("core.bytes.encode_us", us(encode));
    v.set("core.bytes.decode_us", us(decode));
}

/// Store probes: `put`/`get` on a fresh log with the workload's own
/// records, then `open`, `bulk_load` and `compact` on (copies of) the
/// log the workload left behind at `wal`.
///
/// # Errors
///
/// Propagates store failures.
pub fn probe_store(
    rec: &mut Recorder,
    results: &[LayerDseResult],
    wal: &Path,
    scratch: &Path,
    v: &mut Values,
) -> Result<(), String> {
    let err = |e: drmap_store::error::StoreError| e.to_string();
    let records: Vec<(String, Vec<u8>)> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((format!("probe-{i}"), encode_stored_result(r, 1_000).ok()?)))
        .collect();
    {
        let store = Store::open(scratch.join("probe-put.wal")).map_err(err)?;
        let mut at = 0usize;
        let put = probe_ns(rec, "store.put", MIN_CALLS, 4, || {
            let (key, value) = &records[at % records.len()];
            std::hint::black_box(store.put(key, value).is_ok());
            at += 1;
        });
        let get = probe_ns(rec, "store.get", MIN_CALLS, 4, || {
            std::hint::black_box(store.get(&records[at % records.len()].0).is_ok());
            at += 1;
        });
        v.set("store.put_us", us(put));
        v.set("store.get_us", us(get));
    }

    let file_mb =
        std::fs::metadata(wal).map_err(|e| e.to_string())?.len() as f64 / (1 << 20) as f64;
    v.set("store.wal_mb_after", file_mb);
    let copy = scratch.join("probe-left-behind.wal");
    let fresh_copy = || {
        std::fs::copy(wal, &copy)
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    fresh_copy()?;
    let open = probe_ns(rec, "store.open", 10, 1, || {
        std::hint::black_box(Store::open(&copy).is_ok());
    });
    v.set("store.open_ms", open / 1e6);
    let store = Store::open(&copy).map_err(err)?;
    let stats = store.stats();
    v.set(
        "store.bytes_per_record",
        stats.file_bytes as f64 / stats.records.max(1) as f64,
    );
    let bulk = probe_ns(rec, "store.bulk_load", 10, 1, || {
        std::hint::black_box(store.bulk_load(None).is_ok());
    });
    v.set("store.bulk_load_ms", bulk / 1e6);
    drop(store);
    // Compaction rewrites the log, so every repetition needs the
    // uncompacted copy back.
    let mut samples = Vec::new();
    for rep in 0..5u64 {
        fresh_copy()?;
        let store = Store::open(&copy).map_err(err)?;
        rec.enter("store.compact", rep);
        let t0 = Instant::now();
        let done = store.compact();
        samples.push(t0.elapsed().as_nanos() as u64);
        rec.exit();
        done.map_err(err)?;
    }
    v.set("store.compact_ms", fastest_decile_mean(&samples) / 1e6);
    Ok(())
}

/// Window-1 round trips over loopback against a live server:
/// `(ping, mix-weighted job)` in nanoseconds.
///
/// # Errors
///
/// Propagates transport failures and wrong answers.
pub fn probe_round_trips(
    rec: &mut Recorder,
    addr: SocketAddr,
    entries: &[Entry],
    weights: &[f64],
) -> Result<(f64, f64), String> {
    let mut conn = Conn::open(addr)?;
    let mut failure = None;
    let ping_line = Request::Ping { id: Some(1) }.to_json().render();
    let ping = probe_ns(rec, "service.server.ping_rtt", MIN_CALLS, 1, || {
        if let Err(e) = conn.round_trip(ping_line.clone()) {
            failure.get_or_insert(e);
        }
    });
    let reps = calls_per_entry(entries.len());
    let mut id = 0u64;
    let job = probe_mix_ns(rec, "service.server.job_rtt", reps, weights, |i| {
        id += 1;
        let answer = conn
            .round_trip(entries[i].request(id))
            .and_then(|line| entries[i].check(id, line));
        if let Err(e) = answer {
            failure.get_or_insert(e);
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok((ping, job)),
    }
}
