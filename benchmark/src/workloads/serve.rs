//! `serve-hot` and `serve-cold` — one `drmap-serve --workers 2`
//! subprocess driven closed-loop over two connections.
//!
//! `serve-hot` (no store, window 8, zipf-1.1 mix over the default
//! catalogue, every layer resident): `json/proto/wire/server/cache-hit/
//! telemetry` do all the work and `core` none, so the protocol and
//! connection diet, and socket options, show here.
//!
//! `serve-cold` (WAL store, window 2, the 7 zoo networks × 4
//! architectures as whole-network `cache: refresh` jobs in
//! seeded-shuffled round robin): every layer is recomputed and both
//! cache tiers rewritten — the same `cache` and `store` layers used the
//! other way, plus `pool` fan-out over `core`. A cache or WAL change
//! that helps hits and hurts inserts shows as a split between the two.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use drmap_cnn::network::Network;
use drmap_dram::timing::DramArch;
use drmap_service::engine::EngineFactory;
use drmap_service::json::Json;
use drmap_service::loadgen::{default_catalog, SplitMix64, DEFAULT_ZIPF_EXPONENT};
use drmap_service::proto::{Request, Response, StatsReport};
use drmap_service::spec::{CacheMode, EngineSpec, JobOptions, JobSpec};

use super::{mix_cycle, shuffled, timed_setup, Config};
use crate::children::Server;
use crate::client::{closed_loop, Conn, Entry, LoadResult};
use crate::host;
use crate::report::{Outcome, Values};
use crate::service_probes as probes;
use crate::spans::Recorder;
use crate::stats::{highest_supported_percentile, quantile_sorted};

/// Length of `serve-hot`'s request cycle: long enough that the rarest
/// catalogue entry still appears dozens of times.
const HOT_CYCLE: usize = 8192;

/// A response slower than this counts as a stall.
pub const STALL_US: u32 = 30_000;

/// Which of the two single-server workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// All hits, no store.
    Hot,
    /// All recomputes, WAL store.
    Cold,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve-hot",
            Kind::Cold => "serve-cold",
        }
    }

    /// Requests each connection keeps in flight.
    fn window(self) -> usize {
        match self {
            Kind::Hot | Kind::Cold => 2,
        }
    }
}

/// The probability of each catalogue rank under the zipf mix.
pub fn zipf_weights(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n)
        .map(|r| 1.0 / ((r + 1) as f64).powf(DEFAULT_ZIPF_EXPONENT))
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Build the checked catalogue for `specs` with a direct engine.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn build_entries(specs: Vec<JobSpec>) -> Result<Vec<Entry>, String> {
    let factory = EngineFactory::table_ii().map_err(|e| e.to_string())?;
    specs
        .into_iter()
        .map(|spec| Entry::build(&factory, spec))
        .collect()
}

/// Send every entry once over one connection and check the answers:
/// the one-time warm/verification pass of a service workload's set-up.
///
/// # Errors
///
/// Fails on a transport error or a response that differs from the
/// direct engine.
pub fn prime(addr: SocketAddr, entries: &[Entry]) -> Result<(), String> {
    let mut conn = Conn::open(addr)?;
    for (id, entry) in entries.iter().enumerate() {
        let line = conn.round_trip(entry.request(id as u64))?;
        entry.check(id as u64, line)?;
    }
    Ok(())
}

/// The server's `stats` report.
///
/// # Errors
///
/// Propagates transport failures.
pub fn stats(addr: SocketAddr) -> Result<StatsReport, String> {
    match Conn::open(addr)?.control(&Request::Stats { id: None })? {
        Response::Stats { report, .. } => Ok(report),
        other => Err(format!("stats answered with {other:?}")),
    }
}

struct Stack {
    server: Server,
    entries: Vec<Entry>,
    wal: Option<PathBuf>,
}

fn cold_specs() -> Vec<JobSpec> {
    let refresh = JobOptions {
        cache: CacheMode::Refresh,
        ..JobOptions::default()
    };
    Network::zoo()
        .into_iter()
        .flat_map(|(_, build)| {
            DramArch::ALL.into_iter().map(move |arch| {
                JobSpec::network(0, EngineSpec::for_arch(arch), build()).with_options(refresh)
            })
        })
        .collect()
}

fn setup(kind: Kind, cfg: &Config, attempt: usize) -> Result<Stack, String> {
    let (specs, wal) = match kind {
        Kind::Hot => (default_catalog(), None),
        Kind::Cold => (
            cold_specs(),
            Some(cfg.tmp_dir().join(format!("serve-cold-{attempt}.wal"))),
        ),
    };
    let entries = build_entries(specs)?;
    let wal_arg = wal.as_ref().map(|p| p.display().to_string());
    let mut args = vec!["--workers", "2"];
    if let Some(path) = &wal_arg {
        args.extend(["--store", path]);
    }
    let server = Server::serve(&cfg.bin_dir, &args)?;
    prime(server.addr, &entries)?;
    Ok(Stack {
        server,
        entries,
        wal,
    })
}

/// What a load slice measured, whichever driver generated the load.
pub struct Measured {
    /// What the load threads saw.
    pub load: LoadResult,
    /// From the first send to the last response.
    pub elapsed_s: f64,
    /// The harness's CPU time and the host's CPU shares meanwhile.
    pub host: host::Metered,
}

impl Measured {
    /// Generate load with `generate` and meter the host around it.
    pub fn around(generate: impl FnOnce() -> LoadResult) -> Measured {
        let meter = host::Meter::start();
        let start = Instant::now();
        let load = generate();
        let end = load.finished.unwrap_or_else(Instant::now);
        Measured {
            elapsed_s: (end - start).as_secs_f64(),
            host: meter.stop(),
            load,
        }
    }

    /// Good responses.
    pub fn jobs(&self) -> f64 {
        self.load.latencies_us.len().max(1) as f64
    }

    /// The per-layer metrics every service workload reads off a slice.
    pub fn per_layer(&self, v: &mut Values) {
        v.set("jobs_per_s", self.jobs() / self.elapsed_s);
        v.set("service.server.stall_share", stall_share(&self.load));
        v.set(
            "loadgen.cpu_share",
            self.host.own_cpu_s / (self.elapsed_s * host::nproc() as f64),
        );
        v.set("host.busy_share", self.host.busy);
        v.set("host.steal_share", self.host.steal);
    }

    /// The cost of tracing a service workload: the harness's own CPU
    /// time per request in the `traced` slice over this untraced one,
    /// minus one. (Throughput cannot show it: the servers, not the
    /// harness, set it.)
    pub fn tracing_overhead(&self, traced: &Measured) -> f64 {
        let per_request = |m: &Measured| m.host.own_cpu_s / m.load.attempted.max(1) as f64;
        per_request(traced) / per_request(self).max(f64::MIN_POSITIVE) - 1.0
    }
}

/// One closed-loop slice over every load thread.
struct Slice {
    measured: Measured,
    before: StatsReport,
    after: StatsReport,
    server_cpu_s: f64,
}

fn drive(
    kind: Kind,
    stack: &Stack,
    seed: u64,
    duration: Duration,
    epoch: Instant,
    traced: bool,
    first_id: u64,
) -> Result<Slice, String> {
    let addr = stack.server.addr;
    let entries = &stack.entries;
    let conns = host::load_threads();
    // The order requests go out in: a long zipf-weighted cycle (hot) or
    // every job once (cold), shuffled by the seed. Connection `c` walks
    // the cycle from its own offset.
    let mut rng = SplitMix64::new(seed);
    let cycle = match kind {
        Kind::Hot => mix_cycle(&zipf_weights(entries.len()), HOT_CYCLE, &mut rng),
        Kind::Cold => shuffled(entries.len(), &mut rng),
    };
    let before = stats(addr)?;
    let server_cpu0 = stack.server.cpu_seconds();
    let measured = Measured::around(|| {
        std::thread::scope(|scope| {
            let mut load = LoadResult::default();
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let cycle = &cycle;
                    scope.spawn(move || {
                        let mut position = match kind {
                            Kind::Hot => c * cycle.len() / conns,
                            Kind::Cold => c,
                        };
                        let next_entry = move || {
                            let entry = cycle[position % cycle.len()];
                            position += match kind {
                                Kind::Hot => 1,
                                Kind::Cold => conns,
                            };
                            entry
                        };
                        closed_loop(
                            addr,
                            entries,
                            kind.window(),
                            duration,
                            first_id + c as u64 * 1_000_000_000,
                            Recorder::new(epoch, traced),
                            next_entry,
                        )
                    })
                })
                .collect();
            for handle in handles {
                load.absorb(handle.join().expect("a load thread panicked"));
            }
            load
        })
    });
    Ok(Slice {
        server_cpu_s: stack.server.cpu_seconds() - server_cpu0,
        after: stats(addr)?,
        before,
        measured,
    })
}

/// Exact latency quantiles and throughput of a load slice, as the
/// end-to-end metrics; a failed request has no latency and so counts
/// as missing.
pub fn load_end_to_end(out: &mut Outcome, measured: &Measured) {
    let (load, elapsed_s) = (&measured.load, measured.elapsed_s);
    out.attempted += load.attempted;
    out.failed += load.failed;
    for e in &load.errors {
        out.violation(e.clone());
    }
    let mut sorted = load.latencies_us.clone();
    sorted.sort_unstable();
    if sorted.is_empty() {
        out.violation("no request succeeded");
        return;
    }
    let v = &mut out.values;
    v.set("layers_per_s", load.served.layers() as f64 / elapsed_s);
    // Reported with every result, gated by none (see the README).
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
        let ms = f64::from(quantile_sorted(&sorted, q)) / 1e3;
        v.set(name, ms);
        out.facts.push((name, Json::Num(ms)));
    }
    out.facts.push(("samples", Json::num_usize(sorted.len())));
    out.facts.push((
        "tail_supported",
        Json::str(highest_supported_percentile(sorted.len()).map_or("none", |(label, _)| label)),
    ));
    out.facts.push(("elapsed_s", Json::Num(elapsed_s)));
    out.facts
        .push(("stall_share", Json::Num(stall_share(load))));
    out.facts
        .push(("jobs_per_s", Json::Num(sorted.len() as f64 / elapsed_s)));
}

/// Share of good responses slower than [`STALL_US`].
pub fn stall_share(load: &LoadResult) -> f64 {
    let stalls = load
        .latencies_us
        .iter()
        .filter(|&&us| us > STALL_US)
        .count();
    stalls as f64 / load.latencies_us.len().max(1) as f64
}

/// Gate: what the `stats` deltas over the measured interval must show
/// for the workload to be isolating the layers it claims to.
fn gate_isolation(kind: Kind, slice: &Slice, out: &mut Outcome) {
    let (b, a) = (&slice.before.cache, &slice.after.cache);
    let served = &slice.measured.load.served;
    let appends = |r: &StatsReport| r.store.map_or(0, |s| s.appends);
    let puts = appends(&slice.after) - appends(&slice.before);
    out.facts
        .push(("cache_hits", Json::num_u64(a.hits - b.hits)));
    out.facts
        .push(("cache_misses", Json::num_u64(a.misses - b.misses)));
    out.facts
        .push(("cache_refreshes", Json::num_u64(a.refreshes - b.refreshes)));
    out.facts.push(("store_puts", Json::num_u64(puts)));
    match kind {
        Kind::Hot => {
            if a.misses != b.misses || served.cached != served.layers() {
                out.violation("serve-hot saw a cache miss during the measured interval");
            }
            if slice.after.store.is_some() {
                out.violation("serve-hot has a store attached");
            }
        }
        Kind::Cold => {
            if a.hits != b.hits || served.computed != served.layers() {
                out.violation("serve-cold served a layer without recomputing it");
            }
            if puts == 0 {
                out.violation("serve-cold wrote nothing to the store");
            }
        }
    }
}

/// Run `serve-hot` or `serve-cold`.
pub fn run(kind: Kind, cfg: &Config) -> Outcome {
    let mut out = Outcome::new(kind.name());
    let mut attempt = 0;
    let built = timed_setup(|| {
        attempt += 1;
        setup(kind, cfg, attempt)
    });
    let (stack, setup_s) = match built {
        Ok(done) => done,
        Err(e) => {
            out.violation(format!("set-up failed: {e}"));
            return out;
        }
    };
    let epoch = Instant::now();
    // Warm-up: connections, allocator and branch predictors, not caches
    // (set-up made every layer resident already).
    let warm_up = Duration::from_secs_f64((cfg.seconds * 0.1).min(2.0));
    let slice = drive(kind, &stack, cfg.seed ^ 0x5eed, warm_up, epoch, false, 0)
        .and_then(|_| drive(kind, &stack, cfg.seed, cfg.slice(), epoch, false, 1 << 40));
    let slice = match slice {
        Ok(slice) => slice,
        Err(e) => {
            out.violation(format!("load failed: {e}"));
            return out;
        }
    };
    load_end_to_end(&mut out, &slice.measured);
    gate_isolation(kind, &slice, &mut out);
    let rss = stack.server.peak_rss_mb();
    out.values.set("peak_rss_mb", rss);
    out.facts.push(("peak_rss_mb", Json::Num(rss)));
    out.values.set("setup_s", setup_s);
    if !cfg.traced {
        return out;
    }

    let lookups = |r: &StatsReport| r.cache.hits + r.cache.misses + r.cache.coalesced;
    let looked = (lookups(&slice.after) - lookups(&slice.before)).max(1) as f64;
    let v = &mut out.values;
    slice.measured.per_layer(v);
    v.set(
        "service.server.cpu_ms_per_job",
        slice.server_cpu_s * 1e3 / slice.measured.jobs(),
    );
    v.set(
        "service.cache.hit_share",
        (slice.after.cache.hits - slice.before.cache.hits) as f64 / looked,
    );
    v.set(
        "service.cache.store_hit_share",
        (slice.after.cache.store_hits - slice.before.cache.store_hits) as f64 / looked,
    );

    // Traced slice: the same load with a span around every request.
    let traced = match drive(kind, &stack, cfg.seed, cfg.slice(), epoch, true, 1 << 41) {
        Ok(slice) => slice.measured,
        Err(e) => {
            out.violation(format!("traced load failed: {e}"));
            return out;
        }
    };
    out.attempted += traced.load.attempted;
    out.failed += traced.load.failed;
    v.set(
        "trace.overhead_share",
        slice.measured.tracing_overhead(&traced),
    );
    let mut rec = Recorder::new(epoch, true);
    rec.absorb(traced.load.spans);

    let entries = &stack.entries;
    let results: Vec<_> = entries
        .iter()
        .flat_map(|e| e.results.iter().cloned())
        .collect();
    let probed = match kind {
        Kind::Hot => {
            let weights = zipf_weights(entries.len());
            hot_probes(&mut rec, stack.server.addr, entries, &weights, &mut out)
        }
        Kind::Cold => {
            let v = &mut out.values;
            let slowest = results
                .iter()
                .max_by_key(|r| r.evaluations)
                .expect("the catalogue has layers");
            let heavy = entries
                .iter()
                .flat_map(|e| e.spec.workload.layers().iter().map(move |l| (e, l)))
                .find(|(_, l)| l.name == slowest.layer_name)
                .map(|(e, l)| JobSpec::layer(0, e.spec.engine, l.clone()))
                .expect("the heaviest layer belongs to an entry");
            probes::probe_evicting_insert(&mut rec, &results, v);
            probes::probe_bytes_codec(&mut rec, &results, v);
            let wal = stack.wal.clone().expect("serve-cold runs with a store");
            // Stop the server first: the log it leaves behind is the input.
            drop(stack);
            probes::probe_shard_speedup(&mut rec, &heavy, v)
                .and_then(|()| probes::probe_store(&mut rec, &results, &wal, &cfg.tmp_dir(), v))
        }
    };
    if let Err(e) = probed {
        out.violation(format!("probe failed: {e}"));
    }
    out.spans = rec.finish();
    out
}

/// `serve-hot`'s probes: every `service` function on the path, the
/// request path replayed in process, loopback round trips against the
/// live server, and the share of a round trip the stages leave
/// unexplained.
fn hot_probes(
    rec: &mut Recorder,
    addr: SocketAddr,
    entries: &[Entry],
    weights: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let v = &mut out.values;
    let pool = probes::resident_pool(entries, 2)?;
    probes::probe_service_functions(rec, &pool, entries, weights, v)?;
    let in_process_ns = probes::replay_request_path(rec, &pool, entries, weights, v)?;
    let (ping_ns, job_ns) = probes::probe_round_trips(rec, addr, entries, weights)?;
    v.set("service.server.ping_rtt_us", ping_ns / 1e3);
    v.set("service.server.job_rtt_us", job_ns / 1e3);
    v.set(
        "budget.unexplained_share",
        (job_ns - in_process_ns) / job_ns,
    );
    out.facts
        .push(("in_process_request_us", Json::Num(in_process_ns / 1e3)));
    Ok(())
}
