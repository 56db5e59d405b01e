//! `route-mixed` — `drmap-router` over two `drmap-serve --workers 1
//! --cache-entries 16 --store …` backends, **open loop** at a fixed
//! rate on one connection: zipf-1.1 catalogue mix with a seeded 5 % of
//! jobs marked `cache: bypass`.
//!
//! The only workload where every tier does some work and a queue can
//! form: steady state is resident hits + store hits (the 16-entry
//! bound evicts) + the 5 % recomputes. It is where `router` hop cost,
//! eviction and store reads appear, and where a throughput gain bought
//! with tail latency shows. Latency is timed from each request's *due*
//! time.

use std::time::{Duration, Instant};

use drmap_service::json::Json;
use drmap_service::loadgen::{default_catalog, SplitMix64};
use drmap_service::proto::StatsReport;
use drmap_service::spec::{CacheMode, JobOptions};

use super::serve::{build_entries, load_end_to_end, prime, stats, zipf_weights, Measured};
use super::{mix_cycle, timed_setup, Config};
use crate::children::Server;
use crate::client::{open_loop, Conn, Entry, Scheduled};
use crate::probe::{probe_ns, MIN_CALLS};
use crate::report::Outcome;
use crate::service_probes::probe_bytes_codec;
use crate::spans::Recorder;
use crate::stats::quantile_sorted;

/// Scheduled jobs per second, on [`DATA_CONNS`] router connections per
/// backend. With the router's default of two, the backends' Nagle
/// buffering and the router's delayed ACKs lock into a chain in which
/// every response is released only by the *next* request's
/// piggy-backed ACK: from ≈140 to ≈900 jobs/s the median then flips
/// between 0.5 ms and one inter-arrival gap (7–15 ms) from run to run.
/// At this rate the two vCPUs of the reference box are 10–20 % busy.
pub const RATE_PER_S: f64 = 300.0;

/// Pipelined data connections the router keeps to each backend:
/// enough that each one's request gap (≈107 ms at [`RATE_PER_S`]) is
/// well over the 40 ms delayed-ACK timer, so the chain described above
/// cannot sustain itself (with 8, one run in ten still locked in).
pub const DATA_CONNS: usize = 16;

/// Share of jobs that bypass the cache and are recomputed.
pub const BYPASS_SHARE: f64 = 0.05;

/// The run fails if fewer than this share of the schedule was achieved
/// — a growing backlog.
pub const MIN_ACHIEVED: f64 = 0.99;

/// The seeded open-loop plan: request `i` is due at `i / rate`. The
/// plan's *composition* is fixed — each of the `n` catalogue entries
/// appears in proportion to its zipf weight, [`BYPASS_SHARE`] of those
/// appearances as its bypass twin (`n + rank`) — and only the *order*
/// depends on the seed, so no seed sends more work than another.
pub fn plan(seed: u64, n: usize, rate: f64, seconds: f64) -> Vec<Scheduled> {
    let count = (rate * seconds).ceil().max(1.0) as usize;
    let zipf = zipf_weights(n);
    let weights: Vec<f64> = (zipf.iter().map(|w| w * (1.0 - BYPASS_SHARE)))
        .chain(zipf.iter().map(|w| w * BYPASS_SHARE))
        .collect();
    mix_cycle(&weights, count, &mut SplitMix64::new(seed))
        .into_iter()
        .enumerate()
        .map(|(i, entry)| Scheduled {
            entry,
            due: Duration::from_secs_f64(i as f64 / rate),
        })
        .collect()
}

/// Share of the scheduled rate the system kept up with. A system that
/// falls behind answers ever later, so the backlog it built is how
/// much later the last requests were answered than the first ones
/// (medians over the first and last twentieth, in arrival order — one
/// stalled response at either end is not a backlog); falling `x` s
/// behind over a `scheduled_s` s schedule is achieving `1 − x /
/// scheduled_s` of it.
pub fn achieved_share(latencies_us: &[u32], scheduled_s: f64) -> f64 {
    let edge = (latencies_us.len() / 20).max(1).min(latencies_us.len());
    let median_us = |window: &[u32]| {
        let mut sorted = window.to_vec();
        sorted.sort_unstable();
        sorted.get(sorted.len() / 2).copied().unwrap_or(0)
    };
    let first = median_us(&latencies_us[..edge]);
    let last = median_us(&latencies_us[latencies_us.len() - edge..]);
    1.0 - f64::from(last.saturating_sub(first)) / 1e6 / scheduled_s
}

struct Cluster {
    router: Server,
    backends: Vec<Server>,
    /// The catalogue, then its bypass twins.
    entries: Vec<Entry>,
    catalogue: usize,
}

fn setup(cfg: &Config, attempt: usize) -> Result<Cluster, String> {
    let catalogue = default_catalog();
    let n = catalogue.len();
    let bypass = JobOptions {
        cache: CacheMode::Bypass,
        ..JobOptions::default()
    };
    let twins: Vec<_> = catalogue
        .iter()
        .map(|spec| spec.clone().with_options(bypass))
        .collect();
    let entries = build_entries(catalogue.into_iter().chain(twins).collect())?;
    let backends = (0..2)
        .map(|b| {
            let wal = cfg.tmp_dir().join(format!("route-mixed-{attempt}-{b}.wal"));
            let wal = wal.display().to_string();
            Server::serve(
                &cfg.bin_dir,
                &["--workers", "1", "--cache-entries", "16", "--store", &wal],
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<_> = backends.iter().map(|b| b.addr).collect();
    let router = Server::router(&cfg.bin_dir, &addrs, DATA_CONNS)?;
    // Prime the whole catalogue through the router: every layer lands
    // in its owner's store; the 16-entry bound keeps only some resident.
    prime(router.addr, &entries[..n])?;
    Ok(Cluster {
        router,
        backends,
        entries,
        catalogue: n,
    })
}

struct Slice {
    measured: Measured,
    scheduled: usize,
    before: Vec<StatsReport>,
    after: Vec<StatsReport>,
    router_cpu_s: f64,
    backend_cpu_s: f64,
}

fn drive(
    cluster: &Cluster,
    seed: u64,
    seconds: f64,
    epoch: Instant,
    traced: bool,
) -> Result<Slice, String> {
    let schedule = plan(seed, cluster.catalogue, RATE_PER_S, seconds);
    let backend_stats = || {
        cluster
            .backends
            .iter()
            .map(|b| stats(b.addr))
            .collect::<Result<Vec<_>, _>>()
    };
    let backend_cpu = || {
        cluster
            .backends
            .iter()
            .map(Server::cpu_seconds)
            .sum::<f64>()
    };
    let before = backend_stats()?;
    let (router0, backends0) = (cluster.router.cpu_seconds(), backend_cpu());
    let measured = Measured::around(|| {
        open_loop(
            cluster.router.addr,
            &cluster.entries,
            &schedule,
            Recorder::new(epoch, traced),
        )
    });
    Ok(Slice {
        scheduled: schedule.len(),
        router_cpu_s: cluster.router.cpu_seconds() - router0,
        backend_cpu_s: backend_cpu() - backends0,
        after: backend_stats()?,
        before,
        measured,
    })
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new("route-mixed");
    let mut attempt = 0;
    let built = timed_setup(|| {
        attempt += 1;
        setup(cfg, attempt)
    });
    let (cluster, setup_s) = match built {
        Ok(done) => done,
        Err(e) => {
            out.violation(format!("set-up failed: {e}"));
            return out;
        }
    };
    let epoch = Instant::now();
    let warm_up = (cfg.seconds * 0.1).min(2.0);
    let slice = drive(&cluster, cfg.seed ^ 0x5eed, warm_up, epoch, false)
        .and_then(|_| drive(&cluster, cfg.seed, cfg.slice().as_secs_f64(), epoch, false));
    let slice = match slice {
        Ok(slice) => slice,
        Err(e) => {
            out.violation(format!("load failed: {e}"));
            return out;
        }
    };
    load_end_to_end(&mut out, &slice.measured);
    let load = &slice.measured.load;

    let children = cluster.backends.iter().chain([&cluster.router]);
    let rss = children.map(Server::peak_rss_mb).sum();
    out.values.set("peak_rss_mb", rss);
    out.facts.push(("peak_rss_mb", Json::Num(rss)));
    out.values.set("setup_s", setup_s);

    // A growing backlog is a failed run, not a slow one.
    let good = slice.measured.jobs();
    let achieved = achieved_share(&load.latencies_us, good / RATE_PER_S);
    out.facts.push(("scheduled_per_s", Json::Num(RATE_PER_S)));
    out.facts
        .push(("scheduled", Json::num_usize(slice.scheduled)));
    out.facts.push(("achieved_share", Json::Num(achieved)));
    if achieved < MIN_ACHIEVED {
        out.violation(format!(
            "achieved {achieved:.3} of the scheduled rate: the backlog is growing"
        ));
    }
    let mut late = load.lateness_us.clone();
    late.sort_unstable();
    let late_p99_ms = f64::from(quantile_sorted(&late, 0.99)) / 1e3;
    out.facts.push(("send_late_p99_ms", Json::Num(late_p99_ms)));

    // Every tier did some work.
    let delta = |f: fn(&StatsReport) -> u64| -> Vec<u64> {
        slice
            .after
            .iter()
            .zip(&slice.before)
            .map(|(a, b)| f(a) - f(b))
            .collect()
    };
    let hits: u64 = delta(|r| r.cache.hits).iter().sum();
    let store_hits: u64 = delta(|r| r.cache.store_hits).iter().sum();
    let bypasses: u64 = delta(|r| r.cache.bypasses).iter().sum();
    out.facts.push(("resident_hits", Json::num_u64(hits)));
    out.facts.push(("store_hits", Json::num_u64(store_hits)));
    out.facts.push(("recomputes", Json::num_u64(bypasses)));
    out.facts
        .push(("host_busy_share", Json::Num(slice.measured.host.busy)));
    if hits == 0 || store_hits == 0 || bypasses == 0 {
        out.violation(format!(
            "a tier did no work: {hits} resident hits, {store_hits} store hits, {bypasses} recomputes"
        ));
    }
    if !cfg.traced {
        return out;
    }

    let lookups = delta(|r| r.cache.hits + r.cache.misses + r.cache.coalesced + r.cache.bypasses);
    let looked = lookups.iter().sum::<u64>().max(1) as f64;
    let v = &mut out.values;
    slice.measured.per_layer(v);
    v.set("loadgen.late_p99_ms", late_p99_ms);
    v.set(
        "service.server.cpu_ms_per_job",
        slice.backend_cpu_s * 1e3 / good,
    );
    v.set("service.cache.hit_share", hits as f64 / looked);
    v.set("service.cache.store_hit_share", store_hits as f64 / looked);
    v.set("router.cpu_ms_per_job", slice.router_cpu_s * 1e3 / good);
    v.set(
        "router.busiest_share",
        lookups.iter().copied().max().unwrap_or(0) as f64 / looked,
    );

    let traced = match drive(&cluster, cfg.seed, cfg.slice().as_secs_f64(), epoch, true) {
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
    if let Err(e) = router_probes(&mut rec, &cluster, &mut out) {
        out.violation(format!("probe failed: {e}"));
    }
    out.spans = rec.finish();
    out
}

/// `router`'s probes: the hash pick, and the hop — a window-1 hot-job
/// round trip through the router minus the same job sent straight to
/// the backend that owns it.
fn router_probes(rec: &mut Recorder, cluster: &Cluster, out: &mut Outcome) -> Result<(), String> {
    let v = &mut out.values;
    let backends: Vec<String> = cluster
        .backends
        .iter()
        .map(|b| b.addr.to_string())
        .collect();
    let healthy = vec![true; backends.len()];
    let keys: Vec<String> = cluster.entries[..cluster.catalogue]
        .iter()
        .map(|e| drmap_service::engine::job_route_key(&e.spec))
        .collect();
    let mut at = 0usize;
    let pick = probe_ns(rec, "router.hash.pick", MIN_CALLS, 16, || {
        std::hint::black_box(drmap_router::hash::pick(
            &keys[at % keys.len()],
            &backends,
            &healthy,
        ));
        at += 1;
    });
    v.set("router.hash.pick_ns", pick);

    // The most popular job (rank 0): resident wherever it was last sent.
    let entry = &cluster.entries[0];
    let mut failure = None;
    let mut rtt = |name: &'static str, addr| -> Result<f64, String> {
        let mut conn = Conn::open(addr)?;
        let mut id = 0u64;
        Ok(probe_ns(rec, name, MIN_CALLS, 1, || {
            id += 1;
            let answer = conn
                .round_trip(entry.request(id))
                .and_then(|line| entry.check(id, line));
            if let Err(e) = answer {
                failure.get_or_insert(e);
            }
        }))
    };
    let via_router = rtt("router.job_rtt", cluster.router.addr)?;
    let mut direct = f64::INFINITY;
    for backend in &cluster.backends {
        direct = direct.min(rtt("router.direct_job_rtt", backend.addr)?);
    }
    if let Some(e) = failure {
        return Err(e);
    }
    v.set("router.hop_us", (via_router - direct) / 1e3);
    let results: Vec<_> = cluster.entries[..cluster.catalogue]
        .iter()
        .flat_map(|e| e.results.iter().cloned())
        .collect();
    probe_bytes_codec(rec, &results, v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_growing_backlog_lowers_the_achieved_share_and_one_stall_does_not() {
        // Steady 1 ms latencies with a 45 ms stall at each end: no backlog.
        let mut steady = vec![1_000u32; 2_000];
        steady[0] = 45_000;
        steady[1_999] = 45_000;
        assert_eq!(achieved_share(&steady, 20.0), 1.0);
        // Latency climbing to 1 s over a 20 s schedule: 5 % behind.
        let growing: Vec<u32> = (0..2_000).map(|i| 1_000 + i * 500).collect();
        let share = achieved_share(&growing, 20.0);
        assert!((0.94..0.96).contains(&share), "{share}");
        assert!(share < MIN_ACHIEVED);
    }

    #[test]
    fn plan_is_paced_seeded_in_order_only_and_mixes_in_bypass_twins() {
        let a = plan(3, 18, 100.0, 30.0);
        let b = plan(3, 18, 100.0, 30.0);
        let c = plan(4, 18, 100.0, 30.0);
        let entries = |p: &[Scheduled]| p.iter().map(|s| s.entry).collect::<Vec<_>>();
        assert_eq!(a.len(), 3000);
        assert_eq!(entries(&a), entries(&b));
        assert_ne!(entries(&a), entries(&c));
        // Another seed sends the same jobs in another order.
        let sorted = |p: &[Scheduled]| {
            let mut e = entries(p);
            e.sort_unstable();
            e
        };
        assert_eq!(sorted(&a), sorted(&c));
        // Request i is due at i / rate, whatever happened before it.
        assert_eq!(a[0].due, Duration::ZERO);
        assert_eq!(a[100].due, Duration::from_secs(1));
        assert!(a.windows(2).all(|w| w[0].due < w[1].due));
        // 5 % are bypass twins; every entry index is in range.
        let twins = a.iter().filter(|s| s.entry >= 18).count();
        assert!((145..=155).contains(&twins), "{twins}");
        assert!(a.iter().all(|s| s.entry < 36));
        // Rank 0 dominates a zipf-1.1 mix.
        let head = a.iter().filter(|s| s.entry % 18 == 0).count();
        assert!(head > a.len() / 5, "{head}");
    }
}
