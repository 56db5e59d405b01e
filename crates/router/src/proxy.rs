//! The proxy core: client sessions, the pending-job multiplexer,
//! rendezvous routing, failover, and admin fan-out.
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
//! next-ranked healthy backend under the client tier's
//! [`RetryPolicy`] (decorrelated-jitter backoff, bounded attempts). A
//! background probe loop re-admits the backend once it handshakes
//! again.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use drmap_service::client::{ClientConfig, RetryPolicy};
use drmap_service::engine::job_route_key;
use drmap_service::error::ServiceError;
use drmap_service::loadgen::SplitMix64;
use drmap_service::proto::{router_capabilities, Request, Response, StatsReport, PROTOCOL_VERSION};
use drmap_service::spec::JobSpec;
use drmap_service::wire;
use drmap_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::backend::{self, lock_recovered, Backend};
use crate::hash;

/// Everything tunable about the router tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses (`host:port`); the list's order is the
    /// tie-break order of the rendezvous ranking, so every router
    /// given the same list agrees on every pick.
    pub backends: Vec<String>,
    /// Backoff/attempt budget for failing a job over between backends.
    pub retry: RetryPolicy,
    /// How often the probe loop re-checks unhealthy backends.
    pub probe_interval: Duration,
    /// Pipelined data connections per backend.
    pub data_conns: usize,
    /// Bound on establishing any backend connection.
    pub connect_timeout: Duration,
    /// Socket timeouts for the synchronous admin fan-out channels.
    pub admin_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            retry: RetryPolicy::default(),
            probe_interval: Duration::from_millis(500),
            data_conns: 2,
            connect_timeout: Duration::from_secs(2),
            admin_timeout: Duration::from_secs(10),
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

/// Where a job's eventual response goes: the client session's writer
/// thread.
type ReplyTx = mpsc::Sender<Response>;

/// One in-flight job, keyed by its router-assigned id.
#[derive(Debug)]
struct Pending {
    /// The forwarded spec (`spec.id` is the router id), kept so
    /// failover can resend it verbatim.
    spec: JobSpec,
    /// The id the client chose, restored on the way out.
    client_id: u64,
    reply: ReplyTx,
    /// Index of the backend currently running the job.
    backend: usize,
    /// Dispatches so far (bounded by [`RetryPolicy::max_attempts`]).
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
    shutdown: AtomicBool,
    local_addr: Mutex<Option<SocketAddr>>,
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
            shutdown: AtomicBool::new(false),
            local_addr: Mutex::new(None),
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

    fn is_shutting_down(&self) -> bool {
        // ordering: Acquire pairs with the Release in
        // `trigger_shutdown`; the flag guards no other data.
        self.shutdown.load(Ordering::Acquire)
    }

    fn trigger_shutdown(&self) {
        // ordering: Release pairs with the Acquire in the accept and
        // probe loops; nothing besides the flag is published.
        self.shutdown.store(true, Ordering::Release);
        // Wake the listener so a blocked `accept` observes the flag.
        let addr = *lock_recovered(&self.local_addr);
        if let Some(addr) = addr {
            wire::wake_listener(addr);
        }
    }

    fn next_id(&self) -> u64 {
        // ordering: Relaxed — the sequence only needs uniqueness, and
        // fetch_add is atomic under any ordering.
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn admin_config(&self) -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(self.cfg.connect_timeout),
            read_timeout: Some(self.cfg.admin_timeout),
            write_timeout: Some(self.cfg.admin_timeout),
        }
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
    pub fn admit_backend(self: &Arc<Self>, idx: usize) -> Result<(), ServiceError> {
        let addr = &self.addrs[idx];
        let mut conns = Vec::new();
        let mut readers = Vec::new();
        let mut capabilities = Vec::new();
        for _ in 0..self.cfg.data_conns.max(1) {
            let (conn, reader, caps) = backend::open_data_conn(addr, self.cfg.connect_timeout)?;
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
    fn submit(self: &Arc<Self>, mut spec: JobSpec, reply: &ReplyTx) {
        let client_id = spec.id;
        let router_id = self.next_id();
        spec.id = router_id;
        let pending = Pending {
            spec,
            client_id,
            reply: reply.clone(),
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
            self.reply_error(&pending, "no healthy backend available");
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
        let seed = self.cfg.retry.seed ^ orphans.first().map_or(0, |(id, _)| *id);
        let mut rng = SplitMix64::new(seed);
        for (router_id, mut pending) in orphans {
            if pending.attempts >= self.cfg.retry.max_attempts {
                self.reply_error(
                    &pending,
                    &format!(
                        "job gave up after {} attempts across backends",
                        pending.attempts
                    ),
                );
                continue;
            }
            let mut prev = pending.prev_backoff_ms;
            let sleep_ms = self.cfg.retry.next_backoff_ms(&mut rng, &mut prev);
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
                let _ = pending.reply.send(Response::Job { result });
            }
            Response::DeadlineExceeded {
                id: Some(id),
                deadline_ms,
            } => {
                let Some(pending) = lock_recovered(&self.pending).remove(&id) else {
                    return;
                };
                self.m.per_backend[idx].inflight.dec();
                let _ = pending.reply.send(Response::DeadlineExceeded {
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
                self.reply_error(&pending, &message);
            }
            // Handshake echoes, pongs, and uncorrelatable errors carry
            // no router id to resolve; drop them.
            _ => {}
        }
    }

    /// Deliver a terminal error for one pending entry.
    fn reply_error(&self, pending: &Pending, message: &str) {
        let _ = pending.reply.send(Response::Error {
            id: Some(pending.client_id),
            message: message.to_owned(),
        });
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

    /// Aggregate `stats` across healthy backends: counters sum,
    /// configuration comes from the first, `backends` is the cluster
    /// size.
    fn aggregate_stats(&self, id: Option<u64>) -> Response {
        let mut merged: Option<StatsReport> = None;
        let mut reached = 0usize;
        for backend in self.backends.iter().filter(|b| b.is_healthy()) {
            let report = match backend
                .admin_request(&Request::Stats { id: None }, &self.admin_config())
            {
                Ok(Response::Stats { report, .. }) => report,
                Ok(Response::Error { message, .. }) => {
                    return Response::Error {
                        id,
                        message: format!("backend {}: {message}", backend.addr),
                    }
                }
                Ok(other) => {
                    return Response::Error {
                        id,
                        message: format!("backend {} answered stats with {other:?}", backend.addr),
                    }
                }
                Err(e) => {
                    return Response::Error {
                        id,
                        message: format!("backend {} unreachable: {e}", backend.addr),
                    }
                }
            };
            reached += 1;
            merged = Some(match merged {
                None => report,
                Some(acc) => sum_stats(acc, &report),
            });
        }
        match merged {
            Some(mut report) => {
                report.backends = Some(reached);
                Response::Stats { id, report }
            }
            None => Response::Error {
                id,
                message: "no healthy backend available".to_owned(),
            },
        }
    }

    /// Aggregate `metrics` across healthy backends plus the router's
    /// own registry; slow logs concatenate.
    fn aggregate_metrics(&self, id: Option<u64>) -> Response {
        let mut snapshot = self.metrics.snapshot();
        let mut slow = Vec::new();
        for backend in self.backends.iter().filter(|b| b.is_healthy()) {
            match backend.admin_request(&Request::Metrics { id: None }, &self.admin_config()) {
                Ok(Response::Metrics { report, .. }) => {
                    snapshot.merge(&report.snapshot);
                    slow.extend(report.slow);
                }
                Ok(Response::Error { message, .. }) => {
                    return Response::Error {
                        id,
                        message: format!("backend {}: {message}", backend.addr),
                    }
                }
                Ok(other) => {
                    return Response::Error {
                        id,
                        message: format!(
                            "backend {} answered metrics with {other:?}",
                            backend.addr
                        ),
                    }
                }
                Err(e) => {
                    return Response::Error {
                        id,
                        message: format!("backend {} unreachable: {e}", backend.addr),
                    }
                }
            }
        }
        Response::Metrics {
            id,
            report: drmap_service::proto::MetricsReport { snapshot, slow },
        }
    }

    /// Broadcast a configuration verb to every healthy backend; any
    /// failure fails the verb. Countable acknowledgements (`loaded`
    /// entries warmed, compaction reports) aggregate; the rest answer
    /// with the first backend's response.
    fn broadcast(&self, request: &Request) -> Response {
        let id = request.id();
        let mut first: Option<Response> = None;
        let mut warmed = 0usize;
        let mut compact: Option<drmap_store::store::CompactReport> = None;
        for backend in self.backends.iter().filter(|b| b.is_healthy()) {
            match backend.admin_request(request, &self.admin_config()) {
                Ok(Response::Error { message, .. }) => {
                    return Response::Error {
                        id,
                        message: format!("backend {}: {message}", backend.addr),
                    }
                }
                Ok(response) => {
                    if let Response::CacheWarmed { loaded, .. } = &response {
                        warmed += loaded;
                    }
                    if let Response::StoreCompacted { report, .. } = &response {
                        let acc = compact.get_or_insert(drmap_store::store::CompactReport {
                            live_records: 0,
                            dropped_records: 0,
                            bytes_before: 0,
                            bytes_after: 0,
                        });
                        acc.live_records += report.live_records;
                        acc.dropped_records += report.dropped_records;
                        acc.bytes_before += report.bytes_before;
                        acc.bytes_after += report.bytes_after;
                    }
                    if first.is_none() {
                        first = Some(response);
                    }
                }
                Err(e) => {
                    return Response::Error {
                        id,
                        message: format!("backend {} unreachable: {e}", backend.addr),
                    }
                }
            }
        }
        match first {
            None => Response::Error {
                id,
                message: "no healthy backend available".to_owned(),
            },
            Some(Response::CacheWarmed { id, .. }) => Response::CacheWarmed { id, loaded: warmed },
            Some(Response::StoreCompacted { id, report: _ }) => match compact {
                Some(report) => Response::StoreCompacted { id, report },
                None => Response::Error {
                    id,
                    message: "store compaction lost its report".to_owned(),
                },
            },
            Some(response) => response,
        }
    }

    /// Answer one decoded client request; `true` ends the session.
    fn handle_request(self: &Arc<Self>, request: Request, reply: &ReplyTx) -> bool {
        let response = match request {
            Request::Hello { version, .. } => {
                if version == PROTOCOL_VERSION {
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
                }
            }
            Request::Ping { id } => Response::Pong { id },
            Request::Shutdown { id } => {
                // The session flushes this acknowledgement and *then*
                // triggers the shutdown — the process may exit moments
                // after the accept loop observes the flag.
                let _ = reply.send(Response::Shutdown { id });
                return true;
            }
            Request::Submit(spec) => {
                self.submit(spec, reply);
                return false;
            }
            Request::Stats { id } => self.aggregate_stats(id),
            Request::Metrics { id } => self.aggregate_metrics(id),
            other => self.broadcast(&other),
        };
        let _ = reply.send(response);
        false
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
    listener: TcpListener,
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
        let listener = TcpListener::bind(addr)?;
        Ok(Router {
            core: RouterCore::new(cfg),
            listener,
        })
    }

    /// The bound address (for `--addr 127.0.0.1:0` in tests).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> Result<SocketAddr, ServiceError> {
        Ok(self.listener.local_addr()?)
    }

    /// The shared core (tests use it to reach the registry and the
    /// health view).
    pub fn core(&self) -> Arc<RouterCore> {
        Arc::clone(&self.core)
    }

    /// Connect the backends, start the probe loop, and serve client
    /// sessions until a `shutdown` verb arrives. Backends that are
    /// down at boot stay unhealthy until a probe readmits them; at
    /// least one must handshake for startup to succeed.
    ///
    /// # Errors
    ///
    /// Accept failures, and a startup error when no backend at all is
    /// reachable.
    pub fn run(self) -> Result<(), ServiceError> {
        *lock_recovered(&self.core.local_addr) = Some(self.listener.local_addr()?);
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
        let probe_core = Arc::clone(&self.core);
        std::thread::spawn(move || probe_loop(&probe_core));
        for stream in self.listener.incoming() {
            if self.core.is_shutting_down() {
                break;
            }
            let stream = stream?;
            let core = Arc::clone(&self.core);
            std::thread::spawn(move || {
                let _ = client_session(&core, stream);
            });
        }
        Ok(())
    }
}

/// Periodically re-handshake unhealthy backends; a success re-admits
/// the node into the rendezvous ranking.
fn probe_loop(core: &Arc<RouterCore>) {
    loop {
        std::thread::sleep(core.cfg.probe_interval);
        if core.is_shutting_down() {
            break;
        }
        for idx in 0..core.backends.len() {
            if core.backends[idx].is_healthy() {
                continue;
            }
            core.m.probe_total.inc();
            let _ = core.admit_backend(idx);
        }
    }
}

/// Serve one client connection: a reader loop on this thread, a writer
/// thread draining the outbound channel (backend reader threads feed
/// job responses into the same channel, preserving one-writer framing).
fn client_session(core: &Arc<RouterCore>, stream: TcpStream) -> Result<(), ServiceError> {
    wire::configure_socket(&stream, None, None)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = std::thread::spawn(move || {
        let mut writer = stream;
        while let Ok(response) = rx.recv() {
            if wire::write_response(&mut writer, &response).is_err() {
                break;
            }
        }
    });
    let mut stop = false;
    while let Ok(Some(message)) = wire::read_request(&mut reader) {
        match message {
            Err(decode) => {
                let response = Response::Error {
                    id: decode.id,
                    message: decode.message,
                };
                let _ = tx.send(response);
            }
            Ok(request) => {
                if core.handle_request(request, &tx) {
                    stop = true;
                    break;
                }
            }
        }
    }
    // Drop our sender so the writer drains and exits once the pending
    // map's clones are gone too, then join it: a shutdown request must
    // have its acknowledgement on the wire before the accept loop is
    // told to stop, because the process may exit right after.
    drop(tx);
    let _ = writer.join();
    if stop {
        core.trigger_shutdown();
    }
    Ok(())
}
