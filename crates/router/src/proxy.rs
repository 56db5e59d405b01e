//! The proxy core: the pending-job multiplexer, rendezvous routing,
//! failover, and admin fan-out. Client connections are the service
//! tier's [`drmap_service::conn`] sessions, this module's
//! [`Service`] impl their dispatch — so a routed client gets the same
//! per-connection in-flight cap as a direct one.
//!
//! # Correlation
//!
//! Clients choose their own job ids, and two clients may choose the
//! same one — so the router rewrites every submitted job's id to a
//! router-unique sequence number before forwarding, and rewrites it
//! back on the way out. The pending map (`router id → Pending`) is the
//! single correlation point: backend reader threads resolve responses
//! through it and failover drains it.
//!
//! # Failover
//!
//! Jobs are pure (results are deterministic and memoized server-side),
//! so a job in flight on a backend that dies can be resent elsewhere
//! without observable effect. Death is detected at the data path (a
//! reader thread's connection drops, a write fails); the backend is
//! retired, its pending jobs drained, and each is re-dispatched to the
//! next-ranked healthy backend, at most `RETRY_ATTEMPTS` dispatches in
//! all, sleeping a decorrelated-jitter backoff before each resend. A
//! background probe loop re-admits the backend once it handshakes
//! again.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drmap_service::conn::{Listener, Reply, Service, Ticket};
use drmap_service::engine::job_route_key;
use drmap_service::error::ServiceError;
use drmap_service::loadgen::SplitMix64;
use drmap_service::proto::{
    router_capabilities, MetricsReport, Request, Response, StatsReport, PROTOCOL_VERSION,
};
use drmap_service::server::DEFAULT_MAX_INFLIGHT;
use drmap_service::spec::JobSpec;
use drmap_service::sync::lock_recovered;
use drmap_service::wire;
use drmap_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::backend::{self, Backend, DataConn};
use crate::hash;

/// How often the probe loop re-handshakes unhealthy backends.
const PROBE_INTERVAL: Duration = Duration::from_millis(500);

/// A failed-over job's total dispatch budget, counting the first try.
const RETRY_ATTEMPTS: u32 = 4;
/// Smallest failover sleep, and the lower bound of every jitter draw.
const RETRY_BASE_MS: u64 = 50;
/// Largest failover sleep; every draw is clamped here.
const RETRY_CAP_MS: u64 = 2_000;
/// Seed of the deterministic jitter stream (mixed with the first
/// orphan's router id).
const RETRY_SEED: u64 = 0x5eed;

/// The next failover sleep in milliseconds, by **decorrelated
/// jitter**: uniform in `[RETRY_BASE_MS, 3 × prev_ms]`, clamped to
/// [`RETRY_CAP_MS`], so jobs orphaned together spread out instead of
/// resending in lockstep. Updates `prev_ms` to the drawn value. The
/// draw is seeded, so a seed replays the same schedule.
fn next_backoff_ms(rng: &mut SplitMix64, prev_ms: &mut u64) -> u64 {
    let ceiling = prev_ms.saturating_mul(3).max(RETRY_BASE_MS);
    let span = ceiling - RETRY_BASE_MS;
    let drawn = if span == 0 {
        RETRY_BASE_MS
    } else {
        RETRY_BASE_MS + rng.next_u64() % (span + 1)
    };
    *prev_ms = drawn.min(RETRY_CAP_MS);
    *prev_ms
}

/// Everything tunable about the router tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses (`host:port`); the list's order is the
    /// tie-break order of the rendezvous ranking, so every router
    /// given the same list agrees on every pick.
    pub backends: Vec<String>,
    /// Pipelined data connections per backend.
    pub data_conns: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            data_conns: 2,
        }
    }
}

/// Cached handles for the router's own registry (fleet-wide names are
/// literals so `drmap-check`'s doc-drift lint can see them; the
/// per-backend family is indexed and documented as a pattern in
/// `docs/CLUSTER.md`).
#[derive(Debug)]
struct RouterMetrics {
    route_total: Arc<Counter>,
    failover_total: Arc<Counter>,
    probe_total: Arc<Counter>,
    backends_up: Arc<Gauge>,
    route_pick_ns: Arc<Histogram>,
    per_backend: Vec<PerBackendMetrics>,
}

/// The per-backend instrument family.
#[derive(Debug)]
struct PerBackendMetrics {
    route_total: Arc<Counter>,
    failover_total: Arc<Counter>,
    inflight: Arc<Gauge>,
    up: Arc<Gauge>,
}

impl RouterMetrics {
    fn new(registry: &MetricsRegistry, backends: usize) -> Self {
        let per_backend = (0..backends)
            .map(|i| PerBackendMetrics {
                // Indexed names cannot be literals; the family is
                // documented as a pattern in docs/CLUSTER.md.
                // check:allow(metrics-doc-drift)
                route_total: registry.counter(&format!("route_backend{i}_total")),
                // check:allow(metrics-doc-drift)
                failover_total: registry.counter(&format!("failover_backend{i}_total")),
                // check:allow(metrics-doc-drift)
                inflight: registry.gauge(&format!("backend{i}_inflight")),
                // check:allow(metrics-doc-drift)
                up: registry.gauge(&format!("backend{i}_up")),
            })
            .collect();
        RouterMetrics {
            route_total: registry.counter("route_total"),
            failover_total: registry.counter("failover_total"),
            probe_total: registry.counter("probe_total"),
            backends_up: registry.gauge("backends_up"),
            route_pick_ns: registry.histogram("route_pick_ns"),
            per_backend,
        }
    }
}

/// One in-flight job, keyed by its router-assigned id.
#[derive(Debug)]
struct Pending {
    /// The forwarded spec (`spec.id` is the router id), kept so
    /// failover can resend it verbatim.
    spec: JobSpec,
    /// The id the client chose, restored on the way out.
    client_id: u64,
    /// The client connection's in-flight slot, carrying the response
    /// to its writer.
    reply: Ticket,
    /// Index of the backend currently running the job.
    backend: usize,
    /// Dispatches so far (bounded by [`RETRY_ATTEMPTS`]).
    attempts: u32,
    /// Previous backoff sleep, for the decorrelated-jitter draw.
    prev_backoff_ms: u64,
}

/// Shared state behind every router thread.
pub struct RouterCore {
    cfg: RouterConfig,
    backends: Vec<Backend>,
    /// Denormalized addresses for the rendezvous ranking.
    addrs: Vec<String>,
    pending: Mutex<HashMap<u64, Pending>>,
    seq: AtomicU64,
    metrics: MetricsRegistry,
    m: RouterMetrics,
}

impl RouterCore {
    fn new(cfg: RouterConfig) -> Arc<Self> {
        let metrics = MetricsRegistry::new();
        let m = RouterMetrics::new(&metrics, cfg.backends.len());
        let backends: Vec<Backend> = cfg.backends.iter().cloned().map(Backend::new).collect();
        let addrs = cfg.backends.clone();
        Arc::new(RouterCore {
            cfg,
            backends,
            addrs,
            pending: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(1),
            metrics,
            m,
        })
    }

    /// The router's own telemetry registry (merged into aggregated
    /// `metrics` responses).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Indices of currently healthy backends.
    pub fn healthy(&self) -> Vec<usize> {
        (0..self.backends.len())
            .filter(|&i| self.backends[i].is_healthy())
            .collect()
    }

    fn next_id(&self) -> u64 {
        // ordering: Relaxed — the sequence only needs uniqueness, and
        // fetch_add is atomic under any ordering.
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn refresh_up_gauge(&self) {
        let up = self.healthy().len();
        self.m.backends_up.set(up as i64);
    }

    // -----------------------------------------------------------------
    // Admission / retirement
    // -----------------------------------------------------------------

    /// Connect, handshake, and admit backend `idx`: open the data
    /// connection pool and spawn one reader thread per connection.
    ///
    /// # Errors
    ///
    /// Whatever the handshake raised; the backend stays unhealthy.
    pub(crate) fn admit_backend(self: &Arc<Self>, idx: usize) -> Result<(), ServiceError> {
        let addr = &self.addrs[idx];
        let mut conns = Vec::new();
        let mut readers = Vec::new();
        let mut capabilities = Vec::new();
        for _ in 0..self.cfg.data_conns.max(1) {
            let (conn, reader, caps) = DataConn::open(addr)?;
            conns.push(Arc::new(conn));
            readers.push(reader);
            capabilities = caps;
        }
        let epoch = self.backends[idx].admit(conns, capabilities);
        self.m.per_backend[idx].up.set(1);
        self.refresh_up_gauge();
        for reader in readers {
            let core = Arc::clone(self);
            std::thread::spawn(move || core.backend_reader(idx, epoch, reader));
        }
        Ok(())
    }

    /// Probe every unhealthy backend once; a handshake that succeeds
    /// re-admits the node into the rendezvous ranking.
    fn probe(self: &Arc<Self>) {
        for idx in 0..self.backends.len() {
            if !self.backends[idx].is_healthy() {
                self.m.probe_total.inc();
                let _ = self.admit_backend(idx);
            }
        }
    }

    /// Drain one data connection's responses until it dies, then
    /// retire the backend (if the death is not stale) and fail its
    /// jobs over.
    fn backend_reader(self: Arc<Self>, idx: usize, epoch: u64, mut reader: BufReader<TcpStream>) {
        while let Ok(Some(response)) = wire::read_response(&mut reader) {
            self.on_backend_response(idx, response);
        }
        self.on_backend_down(idx, epoch);
    }

    /// Retire backend `idx` (stale epochs no-op) and re-dispatch every
    /// job that was in flight on it.
    fn on_backend_down(self: &Arc<Self>, idx: usize, epoch: u64) {
        if !self.backends[idx].retire(epoch) {
            return;
        }
        self.m.per_backend[idx].up.set(0);
        self.refresh_up_gauge();
        let orphans: Vec<(u64, Pending)> = {
            let mut pending = lock_recovered(&self.pending);
            let ids: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| p.backend == idx)
                .map(|(&id, _)| id)
                .collect();
            ids.into_iter()
                .filter_map(|id| pending.remove(&id).map(|p| (id, p)))
                .collect()
        };
        if orphans.is_empty() {
            return;
        }
        for _ in &orphans {
            self.m.per_backend[idx].inflight.dec();
        }
        // Backoff sleeps must not stall the thread that detected the
        // death (it may be a reader with more connections to report).
        let core = Arc::clone(self);
        std::thread::spawn(move || core.redispatch(orphans));
    }

    // -----------------------------------------------------------------
    // Routing
    // -----------------------------------------------------------------

    /// Route one client job: rewrite its id, register it pending, and
    /// forward it to the rendezvous pick.
    fn submit(self: &Arc<Self>, mut spec: JobSpec, reply: Ticket) {
        let client_id = spec.id;
        let router_id = self.next_id();
        spec.id = router_id;
        let pending = Pending {
            spec,
            client_id,
            reply,
            backend: usize::MAX,
            attempts: 0,
            prev_backoff_ms: 0,
        };
        self.dispatch(router_id, pending);
    }

    /// Send `pending` to the rendezvous pick of its job's cache
    /// fingerprint; a dead pick fails over immediately.
    fn dispatch(self: &Arc<Self>, router_id: u64, mut pending: Pending) {
        let key = job_route_key(&pending.spec);
        let started = Instant::now();
        let healthy: Vec<bool> = self.backends.iter().map(Backend::is_healthy).collect();
        let picked = hash::pick(&key, &self.addrs, &healthy);
        self.m
            .route_pick_ns
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let Some(idx) = picked else {
            reply_error(pending, "no healthy backend available");
            return;
        };
        pending.backend = idx;
        pending.attempts += 1;
        let epoch = self.backends[idx].current_epoch();
        let request = Request::Submit(pending.spec.clone());
        self.m.route_total.inc();
        self.m.per_backend[idx].route_total.inc();
        self.m.per_backend[idx].inflight.inc();
        lock_recovered(&self.pending).insert(router_id, pending);
        if self.backends[idx].send(&request).is_err() {
            // The write failed: demote (stale epochs no-op) and rescue
            // our own entry if the demotion path did not already.
            self.on_backend_down(idx, epoch);
            if let Some(p) = lock_recovered(&self.pending).remove(&router_id) {
                self.m.per_backend[idx].inflight.dec();
                let core = Arc::clone(self);
                std::thread::spawn(move || core.redispatch(vec![(router_id, p)]));
            }
        }
    }

    /// Re-dispatch drained jobs after a failure: bounded attempts,
    /// decorrelated-jitter backoff.
    fn redispatch(self: &Arc<Self>, orphans: Vec<(u64, Pending)>) {
        let seed = RETRY_SEED ^ orphans.first().map_or(0, |(id, _)| *id);
        let mut rng = SplitMix64::new(seed);
        for (router_id, mut pending) in orphans {
            if pending.attempts >= RETRY_ATTEMPTS {
                let message = format!(
                    "job gave up after {} attempts across backends",
                    pending.attempts
                );
                reply_error(pending, &message);
                continue;
            }
            let mut prev = pending.prev_backoff_ms;
            let sleep_ms = next_backoff_ms(&mut rng, &mut prev);
            pending.prev_backoff_ms = prev;
            std::thread::sleep(Duration::from_millis(sleep_ms));
            self.m.failover_total.inc();
            if pending.backend < self.m.per_backend.len() {
                self.m.per_backend[pending.backend].failover_total.inc();
            }
            self.dispatch(router_id, pending);
        }
    }

    /// Resolve one data-path response against the pending map.
    fn on_backend_response(self: &Arc<Self>, idx: usize, response: Response) {
        match response {
            Response::Job { mut result } => {
                let Some(pending) = lock_recovered(&self.pending).remove(&result.id) else {
                    return; // stale: the job already failed over
                };
                self.m.per_backend[idx].inflight.dec();
                result.id = pending.client_id;
                pending.reply.send(Response::Job { result });
            }
            Response::DeadlineExceeded {
                id: Some(id),
                deadline_ms,
            } => {
                let Some(pending) = lock_recovered(&self.pending).remove(&id) else {
                    return;
                };
                self.m.per_backend[idx].inflight.dec();
                pending.reply.send(Response::DeadlineExceeded {
                    id: Some(pending.client_id),
                    deadline_ms,
                });
            }
            Response::Error {
                id: Some(id),
                message,
            } => {
                let Some(pending) = lock_recovered(&self.pending).remove(&id) else {
                    return;
                };
                self.m.per_backend[idx].inflight.dec();
                reply_error(pending, &message);
            }
            // Handshake echoes, pongs, and uncorrelatable errors carry
            // no router id to resolve; drop them.
            _ => {}
        }
    }

    // -----------------------------------------------------------------
    // Admin verbs
    // -----------------------------------------------------------------

    /// The capability list the router advertises: the intersection of
    /// its healthy backends' lists (minus per-node diagnostics), plus
    /// `router`.
    fn capabilities(&self) -> Vec<String> {
        let backend_caps: Vec<Vec<String>> = self
            .backends
            .iter()
            .filter(|b| b.is_healthy())
            .map(Backend::capabilities)
            .collect();
        router_capabilities(&backend_caps)
    }

    /// Send `request` to every healthy backend over its admin channel
    /// and collect the answers `expect` accepts. The first backend that
    /// fails, refuses, or answers with anything else fails the whole
    /// verb with a message naming it, so the fleet never drifts into
    /// split configuration.
    fn fan_out<T>(
        &self,
        request: &Request,
        expect: impl Fn(Response) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.backends
            .iter()
            .filter(|b| b.is_healthy())
            .map(|backend| {
                backend
                    .admin_request(request)
                    .map_err(|e| e.to_string())
                    .and_then(&expect)
                    .map_err(|why| format!("backend {}: {why}", backend.addr))
            })
            .collect()
    }

    /// Answer one decoded client request; `true` stops the router.
    /// `stats` and `metrics` aggregate across the healthy backends,
    /// configuration verbs broadcast, jobs are routed.
    fn respond(self: &Arc<Self>, request: Request, reply: &Reply) -> bool {
        let id = request.id();
        let unexpected = |other: Response| format!("answered {other:?}");
        let fanned = match request {
            Request::Hello { version, .. } => Ok(if version == PROTOCOL_VERSION {
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    server: backend::identity(),
                    capabilities: self.capabilities(),
                }
            } else {
                Response::Error {
                    id: None,
                    message: format!(
                        "unsupported protocol version {version} (this router speaks \
                         {PROTOCOL_VERSION})"
                    ),
                }
            }),
            Request::Ping { id } => Ok(Response::Pong { id }),
            Request::Shutdown { id } => {
                reply.send(Response::Shutdown { id });
                return true;
            }
            Request::Submit(spec) => {
                self.submit(spec, reply.reserve());
                return false;
            }
            Request::Stats { .. } => self
                .fan_out(&request, |answer| match answer {
                    Response::Stats { report, .. } => Ok(report),
                    other => Err(unexpected(other)),
                })
                .map(|reports| fold_stats(id, reports)),
            Request::Metrics { .. } => self
                .fan_out(&request, |answer| match answer {
                    Response::Metrics { report, .. } => Ok(report),
                    other => Err(unexpected(other)),
                })
                .map(|reports| self.fold_metrics(id, reports)),
            other => self
                .fan_out(&other, Ok)
                .map(|answers| fold_broadcast(id, answers)),
        };
        reply.send(fanned.unwrap_or_else(|message| Response::Error { id, message }));
        false
    }

    /// The router's own registry merged with every backend's; slow
    /// logs concatenate.
    fn fold_metrics(&self, id: Option<u64>, reports: Vec<MetricsReport>) -> Response {
        let mut snapshot = self.metrics.snapshot();
        let mut slow = Vec::new();
        for report in reports {
            snapshot.merge(&report.snapshot);
            slow.extend(report.slow);
        }
        Response::Metrics {
            id,
            report: MetricsReport { snapshot, slow },
        }
    }
}

impl Service for RouterCore {
    fn dispatch(self: &Arc<Self>, line: &str, reply: &Reply) -> bool {
        match wire::decode_request(line) {
            Ok(request) => self.respond(request, reply),
            Err(e) => {
                reply.send(Response::Error {
                    id: e.id,
                    message: e.message,
                });
                false
            }
        }
    }
}

/// Deliver a terminal error for one pending entry.
fn reply_error(pending: Pending, message: &str) {
    pending.reply.send(Response::Error {
        id: Some(pending.client_id),
        message: message.to_owned(),
    });
}

fn no_healthy_backend(id: Option<u64>) -> Response {
    Response::Error {
        id,
        message: "no healthy backend available".to_owned(),
    }
}

/// Stats across the fleet: counters sum, configuration comes from the
/// first backend, `backends` is the cluster size.
fn fold_stats(id: Option<u64>, reports: Vec<StatsReport>) -> Response {
    let backends = reports.len();
    match reports
        .into_iter()
        .reduce(|acc, report| sum_stats(acc, &report))
    {
        Some(mut report) => {
            report.backends = Some(backends);
            Response::Stats { id, report }
        }
        None => no_healthy_backend(id),
    }
}

/// A broadcast verb's answer: the first backend's, with the countable
/// acknowledgements (`loaded` entries warmed, compaction reports)
/// summed over the fleet.
fn fold_broadcast(id: Option<u64>, answers: Vec<Response>) -> Response {
    let mut rest = answers.into_iter();
    let Some(first) = rest.next() else {
        return no_healthy_backend(id);
    };
    match first {
        Response::CacheWarmed { id, mut loaded } => {
            for answer in rest {
                if let Response::CacheWarmed { loaded: more, .. } = answer {
                    loaded += more;
                }
            }
            Response::CacheWarmed { id, loaded }
        }
        Response::StoreCompacted { id, mut report } => {
            for answer in rest {
                if let Response::StoreCompacted { report: more, .. } = answer {
                    report.live_records += more.live_records;
                    report.dropped_records += more.dropped_records;
                    report.bytes_before += more.bytes_before;
                    report.bytes_after += more.bytes_after;
                }
            }
            Response::StoreCompacted { id, report }
        }
        first => first,
    }
}

/// Field-wise sum of two stats reports (configuration fields keep the
/// accumulator's — i.e. the first healthy backend's — values).
fn sum_stats(mut acc: StatsReport, other: &StatsReport) -> StatsReport {
    let c = &mut acc.cache;
    let o = &other.cache;
    c.hits += o.hits;
    c.misses += o.misses;
    c.coalesced += o.coalesced;
    c.bypasses += o.bypasses;
    c.refreshes += o.refreshes;
    c.evictions += o.evictions;
    c.entries += o.entries;
    c.bytes += o.bytes;
    c.store_hits += o.store_hits;
    c.store_misses += o.store_misses;
    c.store_errors += o.store_errors;
    c.compute_ns_min = if c.compute_ns_min == 0 {
        o.compute_ns_min
    } else if o.compute_ns_min == 0 {
        c.compute_ns_min
    } else {
        c.compute_ns_min.min(o.compute_ns_min)
    };
    c.compute_ns_max = c.compute_ns_max.max(o.compute_ns_max);
    c.compute_ns_total += o.compute_ns_total;
    acc.workers += other.workers;
    acc.store = match (acc.store, &other.store) {
        (Some(mut a), Some(b)) => {
            a.live_entries += b.live_entries;
            a.records += b.records;
            a.dead_records += b.dead_records;
            a.file_bytes += b.file_bytes;
            a.live_value_bytes += b.live_value_bytes;
            a.dead_bytes += b.dead_bytes;
            a.appends += b.appends;
            a.gets += b.gets;
            a.hits += b.hits;
            a.compactions += b.compactions;
            a.recovered_bytes += b.recovered_bytes;
            Some(a)
        }
        (None, Some(b)) => Some(*b),
        (a, None) => a,
    };
    acc
}

// ---------------------------------------------------------------------
// The listener
// ---------------------------------------------------------------------

/// A bound router, ready to serve.
pub struct Router {
    core: Arc<RouterCore>,
    listener: Listener,
}

impl Router {
    /// Bind `addr` and prepare (but do not yet connect) the backends.
    ///
    /// # Errors
    ///
    /// Bind failures, or a config with no backends.
    pub fn bind(addr: &str, cfg: RouterConfig) -> Result<Router, ServiceError> {
        if cfg.backends.is_empty() {
            return Err(ServiceError::protocol(
                "router needs at least one --backend",
            ));
        }
        Ok(Router {
            listener: Listener::bind(addr)?,
            core: RouterCore::new(cfg),
        })
    }

    /// The bound address (for `--addr 127.0.0.1:0` in tests).
    ///
    /// # Errors
    ///
    /// Never fails; the address was resolved at bind time.
    pub fn local_addr(&self) -> Result<SocketAddr, ServiceError> {
        Ok(self.listener.local_addr())
    }

    /// The shared core (tests use it to reach the registry and the
    /// health view).
    pub fn core(&self) -> Arc<RouterCore> {
        Arc::clone(&self.core)
    }

    /// Connect the backends, start the probe loop, and serve client
    /// connections until a `shutdown` verb arrives. Backends that are
    /// down at boot stay unhealthy until a probe readmits them; at
    /// least one must handshake for startup to succeed.
    ///
    /// # Errors
    ///
    /// Accept failures, and a startup error when no backend at all is
    /// reachable.
    pub fn run(self) -> Result<(), ServiceError> {
        let mut last_err = None;
        for idx in 0..self.core.backends.len() {
            if let Err(e) = self.core.admit_backend(idx) {
                last_err = Some(e);
            }
        }
        if self.core.healthy().is_empty() {
            return Err(last_err
                .unwrap_or_else(|| ServiceError::protocol("no backend reachable at startup")));
        }
        let core = Arc::clone(&self.core);
        self.listener.every(PROBE_INTERVAL, move || core.probe());
        self.listener.serve(&self.core, DEFAULT_MAX_INFLIGHT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, draws: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut prev = RETRY_BASE_MS;
        (0..draws)
            .map(|_| next_backoff_ms(&mut rng, &mut prev))
            .collect()
    }

    #[test]
    fn decorrelated_jitter_stays_within_bounds_and_replays_by_seed() {
        let mut rng = SplitMix64::new(RETRY_SEED);
        let mut prev = RETRY_BASE_MS;
        let mut sleeps = Vec::new();
        for _ in 0..256 {
            let before = prev;
            let sleep = next_backoff_ms(&mut rng, &mut prev);
            assert!(sleep >= RETRY_BASE_MS, "below base: {sleep}");
            assert!(sleep <= RETRY_CAP_MS, "above cap: {sleep}");
            assert!(
                sleep <= before.saturating_mul(3).max(RETRY_BASE_MS),
                "exceeded the decorrelated ceiling: {sleep} after {before}"
            );
            assert_eq!(sleep, prev, "the recurrence feeds the drawn value back");
            sleeps.push(sleep);
        }
        // Same seed → byte-identical schedule; different seeds → two
        // orphan batches do not resend in lockstep.
        assert_eq!(sleeps, schedule(RETRY_SEED, 256));
        assert_ne!(sleeps, schedule(RETRY_SEED + 1, 256));
    }
}
