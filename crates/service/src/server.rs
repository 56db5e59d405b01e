//! The job server: the typed protocol of [`crate::proto`] over the
//! pipelined connection layer of [`crate::conn`].
//!
//! A connection costs two threads — its reader and its writer — however
//! many jobs it has in flight. Job execution happens on the shared
//! [`DsePool`], so many light connections share the same workers and
//! memo cache, and it is **completion-driven**: the reader hands the
//! pool a completion and moves on; whichever thread supplies the job's
//! last layer (a pool worker, or the reader itself for a job whose
//! layers are all resident in the cache) builds the response and queues
//! it for the writer. The protocol is **pipelined**: a client may submit
//! many requests without waiting, and job responses are delivered **as
//! jobs complete — possibly out of submission order** — matched back to
//! requests by their client-chosen `id`. In particular a fully resident
//! job is answered at submission and overtakes cold jobs queued ahead of
//! it.
//!
//! Requests are typed `{"type": …}` messages, one per line (see
//! [`crate::wire`]); anything that does not decode — unparsable JSON,
//! no `"type"`, an unknown verb — is answered with a typed error on a
//! connection that stays open. Dispatch is an exhaustive `match` over
//! [`Request`] — adding a verb without handling it does not compile.
//!
//! Control and admin requests (`hello`, `ping`, `stats`, `set-bounds`,
//! `set-slow-log`, `set-faults`, `cache-clear`, `cache-warm`,
//! `store-compact`, `metrics`, `shutdown`) answer inline in arrival
//! order, but they may overtake or be overtaken by in-flight *job*
//! responses. See `docs/PROTOCOL.md` for every verb with example
//! request/response pairs.
//!
//! Every layer of the request path is instrumented through the pool's
//! [`drmap_telemetry::MetricsRegistry`]: frame decode/encode, cache
//! lookup, explore, and total request time all feed latency
//! histograms, and each job carries a per-request trace (keyed by its
//! wire `id`) whose stage breakdown lands in the slow-request log when
//! the job crosses the configured threshold
//! ([`ServerConfig::slow_ms`]). The `metrics` verb dumps all of it;
//! see `docs/OBSERVABILITY.md`.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drmap_telemetry::{Counter, Gauge, Span, Trace};

use crate::conn::{Listener, Reply, Service};
use crate::engine::ServiceState;
use crate::error::ServiceError;
use crate::faults::{FaultAction, FaultPlan};
use crate::json::Json;
use crate::pool::DsePool;
use crate::proto::{capabilities, MetricsReport, Request, Response, StatsReport, PROTOCOL_VERSION};
use crate::spec::{JobResult, JobSpec};
use crate::wire;

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Default cap on in-flight requests per connection (see
/// [`ServerConfig::max_inflight`]); `drmap-router` applies it to its
/// client connections too.
pub const DEFAULT_MAX_INFLIGHT: usize = 128;

/// Bound on the graceful-shutdown drain: after the accept loop stops,
/// [`JobServer::run`] waits up to this long for in-flight jobs to finish
/// and their responses to be queued before syncing the store and
/// returning. Jobs still running at the bound are abandoned (their
/// connections die with the process).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunable limits of a [`JobServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Cap on in-flight requests per connection, counting a request
    /// from the moment it is accepted until its response has been
    /// written to the socket. Submissions beyond the cap block the
    /// connection's reader until a slot frees — back-pressure, not an
    /// error — so one client can neither queue unbounded work on the
    /// pool nor, by refusing to read responses, queue unbounded
    /// response memory server-side.
    pub max_inflight: usize,
    /// Slow-request threshold in milliseconds: any job whose total
    /// request time reaches it is captured — with its per-stage span
    /// breakdown — in the slow-request ring buffer the `metrics` verb
    /// dumps. `Some(0)` logs every job; `None` (the default) disables
    /// the log.
    pub slow_ms: Option<u64>,
    /// Cadence of the background tick, whose one job is the store's
    /// auto-compaction check ([`ServiceState::maybe_auto_compact`]).
    /// The tick thread is spawned only when a store is attached;
    /// `None` (the default) never spawns it.
    pub sample_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_inflight: DEFAULT_MAX_INFLIGHT,
            slow_ms: None,
            sample_interval: None,
        }
    }
}

/// A running job server bound to a TCP address.
#[derive(Debug)]
pub struct JobServer {
    listener: Listener,
    pool: Arc<DsePool>,
    config: ServerConfig,
}

impl JobServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) with a fresh
    /// pool of `workers` workers.
    ///
    /// # Errors
    ///
    /// Propagates bind and engine-construction failures.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> Result<Self, ServiceError> {
        let state = crate::engine::ServiceState::new()?;
        let pool = Arc::new(DsePool::new(state, workers));
        Self::with_pool(addr, pool)
    }

    /// Bind to `addr`, serving jobs on an existing pool with default
    /// limits.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn with_pool(addr: impl ToSocketAddrs, pool: Arc<DsePool>) -> Result<Self, ServiceError> {
        Self::with_config(addr, pool, ServerConfig::default())
    }

    /// Bind to `addr`, serving jobs on an existing pool with the given
    /// limits.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects a zero in-flight cap.
    pub fn with_config(
        addr: impl ToSocketAddrs,
        pool: Arc<DsePool>,
        config: ServerConfig,
    ) -> Result<Self, ServiceError> {
        if config.max_inflight == 0 {
            return Err(ServiceError::protocol(
                "the in-flight cap must be at least 1 (a zero cap would deadlock every request)",
            ));
        }
        if config.sample_interval == Some(Duration::ZERO) {
            return Err(ServiceError::protocol(
                "the background tick interval must be nonzero (use None to disable it)",
            ));
        }
        if let Some(ms) = config.slow_ms {
            pool.state().slow_log().set_threshold_ms(ms);
        }
        Ok(JobServer {
            listener: Listener::bind(addr)?,
            pool,
            config,
        })
    }

    /// The server's configured limits.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Never fails; the address was resolved at bind time.
    pub fn local_addr(&self) -> Result<SocketAddr, ServiceError> {
        Ok(self.listener.local_addr())
    }

    /// The pool serving this server's jobs.
    pub fn pool(&self) -> &Arc<DsePool> {
        &self.pool
    }

    /// Accept and serve connections until a `shutdown` request arrives,
    /// then drain: wait (at most 5 s) for every in-flight job to
    /// answer, and make the store durable before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept failures (per-connection I/O errors only end
    /// that connection).
    pub fn run(self) -> Result<(), ServiceError> {
        let state = self.pool.state();
        if let Some(interval) = self.config.sample_interval {
            if state.cache().store().is_some() {
                let state = Arc::clone(state);
                // Cheap (one stats read) when disarmed or under
                // threshold.
                self.listener.every(interval, move || {
                    state.maybe_auto_compact();
                });
            }
        }
        let metrics = state.metrics();
        let jobs = Arc::new(Jobs {
            pool: Arc::clone(&self.pool),
            frames_in: metrics.counter("frames_text_total"),
            connections_total: metrics.counter("connections_total"),
            connections_open: metrics.gauge("connections_open"),
        });
        self.listener.serve(&jobs, self.config.max_inflight)?;
        // Graceful drain: the accept loop has stopped, so no new work
        // arrives; wait (bounded) for every in-flight job to answer,
        // give the per-connection writer threads a moment to flush
        // those queued responses onto their sockets, then make the
        // store durable before the process goes away.
        let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
        while state.stages().jobs_inflight.get() > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(20));
        if let Some(store) = state.cache().store() {
            // Sync failures must not mask a clean drain; the WAL
            // replays unsynced tails on the next open anyway.
            let _ = store.sync();
        }
        Ok(())
    }
}

/// The job server's side of a connection: decode each request, answer
/// control verbs inline, hand jobs to the pool with a completion that
/// queues the response — run by the worker that finishes the job, or
/// right here when every layer is resident.
#[derive(Debug)]
struct Jobs {
    pool: Arc<DsePool>,
    frames_in: Arc<Counter>,
    connections_total: Arc<Counter>,
    connections_open: Arc<Gauge>,
}

impl Service for Jobs {
    fn dispatch(self: &Arc<Self>, line: &str, reply: &Reply) -> bool {
        self.frames_in.inc();
        match route(&self.pool, line) {
            Routed::Answer(response, stop) => {
                reply.send(response);
                stop
            }
            Routed::Job(job, decode_ns) => {
                let ticket = reply.reserve();
                start_job(&self.pool, &job, decode_ns, move |response| {
                    ticket.send(response);
                });
                false
            }
        }
    }

    /// The wire fault site: an armed plan may drop the frame outright
    /// (the client sees a stall, then its read timeout) or delay it by
    /// the plan's jitter before writing.
    fn write_frame(&self, write: &mut dyn FnMut()) {
        let state = self.pool.state();
        if let Some(action) = state.faults().wire_action() {
            state.stages().fault_wire_total.inc();
            match action {
                FaultAction::Fail => return,
                FaultAction::Delay(stall) => std::thread::sleep(stall),
            }
        }
        let _encode = Span::enter("frame_encode", &state.stages().frame_encode_ns);
        write();
    }

    fn connection(&self, open: bool) {
        if open {
            self.connections_total.inc();
            self.connections_open.inc();
        } else {
            self.connections_open.dec();
        }
    }
}

/// A request after the steps every front-end shares — parse, decode,
/// control dispatch: either answered already (the boolean asks the
/// caller to shut the server down after responding), or a job cleared
/// to run, with the time its decode took.
enum Routed {
    Answer(Response, bool),
    Job(JobSpec, u64),
}

fn route(pool: &DsePool, payload: &str) -> Routed {
    let state = pool.state();
    let decode_start = Instant::now();
    let request = match wire::decode_request(payload) {
        Ok(request) => request,
        Err(e) => {
            state.metrics().counter("protocol_errors_total").inc();
            let response = Response::Error {
                id: e.id,
                message: e.message,
            };
            return Routed::Answer(response, false);
        }
    };
    let decode_ns = elapsed_ns(decode_start);
    state.stages().frame_decode_ns.record(decode_ns);
    // Everything but a job answers inline through the exhaustive
    // control match.
    match request {
        Request::Submit(job) => Routed::Job(job, decode_ns),
        control => {
            let (response, stop) = control_response(pool, &control);
            Routed::Answer(response, stop)
        }
    }
}

/// Count the job in flight, open its trace, and submit it to the pool;
/// when it completes — on a pool worker, or on this thread before
/// returning if every layer was resident — `respond` is handed the
/// finished response, and only then does `jobs_inflight` fall: the
/// graceful drain waits on that gauge, so it must not drop before the
/// response is delivered.
fn start_job(
    pool: &DsePool,
    job: &JobSpec,
    decode_ns: u64,
    respond: impl FnOnce(Response) + Send + 'static,
) {
    // The completion may run on a pool worker, so it holds the shared
    // state, never the pool itself.
    let state = Arc::clone(pool.state());
    state.stages().jobs_inflight.inc();
    let id = job.id;
    let trace = Trace::new(id);
    trace.add("frame_decode", decode_ns);
    pool.submit_then(job, Some(Arc::clone(&trace)), move |result| {
        respond(finish_job(&state, id, &trace, result));
        state.stages().jobs_inflight.dec();
    });
}

/// Account for a completed job (request histogram, slow log) and build
/// its response: results and the typed `deadline_exceeded` failure map
/// to their structured responses, everything else to a generic error.
fn finish_job(
    state: &ServiceState,
    id: u64,
    trace: &Trace,
    result: Result<JobResult, ServiceError>,
) -> Response {
    let response = match result {
        Ok(result) => Response::Job { result },
        Err(ServiceError::DeadlineExceeded { deadline_ms }) => Response::DeadlineExceeded {
            id: Some(id),
            deadline_ms,
        },
        Err(e) => Response::Error {
            id: Some(id),
            message: e.to_string(),
        },
    };
    let total_ns = state.slow_log().observe(trace);
    state.stages().request_ns.record(total_ns);
    response
}

/// A [`SlowLog`](drmap_telemetry::SlowLog) threshold in wire form:
/// nanoseconds → whole milliseconds, `u64::MAX` (disabled) → `None`.
fn threshold_ms(threshold_ns: u64) -> Option<u64> {
    (threshold_ns != u64::MAX).then_some(threshold_ns / 1_000_000)
}

/// A consistent snapshot of the server's counters and **active**
/// configuration (live cache bounds), as carried by the typed `stats`
/// response.
pub(crate) fn stats_report(pool: &DsePool) -> StatsReport {
    let cache = pool.state().cache();
    let (max_entries, max_bytes) = cache.bounds();
    StatsReport {
        cache: cache.stats(),
        max_entries,
        max_bytes,
        workers: pool.workers(),
        store: cache.store().map(|s| s.stats()),
        backends: None,
    }
}

/// Answer one non-job request — an **exhaustive** match over
/// [`Request`], so a verb added to the protocol without a handler here
/// is a compile error. The boolean asks the caller to shut the server
/// down after responding.
fn control_response(pool: &DsePool, request: &Request) -> (Response, bool) {
    let response = match request {
        Request::Hello { version, client: _ } => {
            if *version == PROTOCOL_VERSION {
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    server: concat!("drmap-service/", env!("CARGO_PKG_VERSION")).to_owned(),
                    capabilities: capabilities(pool.state().cache().store().is_some()),
                }
            } else {
                // Graceful reject: name the version we do speak and
                // keep the connection open so the client can downgrade.
                Response::Error {
                    id: None,
                    message: format!(
                        "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                    ),
                }
            }
        }
        Request::Ping { id } => Response::Pong { id: *id },
        Request::Stats { id } => Response::Stats {
            id: *id,
            report: stats_report(pool),
        },
        Request::Shutdown { id } => return (Response::Shutdown { id: *id }, true),
        Request::CacheClear { id } => {
            pool.state().cache().clear();
            Response::CacheCleared { id: *id }
        }
        Request::CacheWarm { id, limit } => match pool.state().cache().store() {
            Some(_) => Response::CacheWarmed {
                id: *id,
                loaded: pool.state().cache().warm_from_store(*limit),
            },
            None => Response::Error {
                id: *id,
                message: "cache-warm needs a persistent store (start with --store)".to_owned(),
            },
        },
        Request::StoreCompact { id, auto_ratio } => match pool.state().cache().store() {
            Some(store) => match auto_ratio {
                // Retune the background check; compact now only if the
                // store is already past the (non-zero) threshold.
                Some(ratio) => {
                    let state = pool.state();
                    state.set_auto_compact_ratio(Some(*ratio).filter(|r| *r > 0.0));
                    let before = store.stats();
                    let compacted = state.maybe_auto_compact();
                    let after = store.stats();
                    Response::StoreCompacted {
                        id: *id,
                        report: drmap_store::store::CompactReport {
                            live_records: after.records,
                            dropped_records: if compacted { before.dead_records } else { 0 },
                            bytes_before: before.file_bytes,
                            bytes_after: after.file_bytes,
                        },
                    }
                }
                None => match store.compact() {
                    Ok(report) => Response::StoreCompacted { id: *id, report },
                    Err(e) => Response::Error {
                        id: *id,
                        message: format!("compaction failed: {e}"),
                    },
                },
            },
            None => Response::Error {
                id: *id,
                message: "store-compact needs a persistent store (start with --store)".to_owned(),
            },
        },
        Request::Metrics { id } => {
            let state = pool.state();
            Response::Metrics {
                id: *id,
                report: MetricsReport {
                    snapshot: state.metrics().snapshot(),
                    slow: state.slow_log().entries(),
                },
            }
        }
        Request::SetSlowLog { id, slow_ms, cap } => {
            if slow_ms.is_none() && cap.is_none() {
                Response::Error {
                    id: *id,
                    message: "set-slow-log needs at least one of slow_ms or cap".to_owned(),
                }
            } else {
                let log = pool.state().slow_log();
                let previous_ms = threshold_ms(log.threshold_ns());
                let previous_cap = log.capacity();
                if let Some(ms) = slow_ms {
                    log.set_threshold_ms(*ms);
                }
                if let Some(cap) = cap {
                    log.set_capacity(*cap);
                }
                Response::SlowLogSet {
                    id: *id,
                    slow_ms: threshold_ms(log.threshold_ns()),
                    cap: log.capacity(),
                    previous_ms,
                    previous_cap,
                }
            }
        }
        Request::SetBounds { id, update } => {
            if update.is_empty() {
                Response::Error {
                    id: *id,
                    message: "set-bounds needs at least one of max_entries or max_bytes".to_owned(),
                }
            } else {
                let cache = pool.state().cache();
                let ((previous_entries, previous_bytes), evicted) =
                    cache.set_bounds(update.entries_action(), update.bytes_action());
                let (max_entries, max_bytes) = cache.bounds();
                Response::BoundsSet {
                    id: *id,
                    max_entries,
                    max_bytes,
                    previous_entries,
                    previous_bytes,
                    evicted,
                }
            }
        }
        Request::SetFaults { id, spec } => {
            let parsed = match spec {
                None => Ok(None),
                Some(spec) => FaultPlan::parse(spec).map(Some),
            };
            match parsed.and_then(|plan| {
                pool.state().faults().set_plan(plan)?;
                Ok(plan)
            }) {
                Ok(plan) => Response::FaultsSet {
                    id: *id,
                    spec: plan.map(|p| p.render()),
                },
                Err(e) => Response::Error {
                    id: *id,
                    message: e.to_string(),
                },
            }
        }
        Request::Submit(_) => unreachable!("job submissions are dispatched before control verbs"),
    };
    (response, false)
}

/// Dispatch one request line to a response, blocking until the job (if
/// any) completes. The boolean asks the caller to shut the server down
/// after responding. This is the sequential form of the pipelined
/// connection handler — the same `route → start_job → finish_job` path,
/// with a completion that hands the response back to the caller instead
/// of to a writer thread; it is exposed for direct testing and
/// embedding.
pub fn handle_request(pool: &DsePool, line: &str) -> (Json, bool) {
    match route(pool, line) {
        Routed::Answer(response, stop) => (response.to_json(), stop),
        Routed::Job(job, decode_ns) => {
            let (done, response) = channel();
            start_job(pool, &job, decode_ns, move |response| {
                let _ = done.send(response);
            });
            let response = response.recv().unwrap_or_else(|_| Response::Error {
                id: Some(job.id),
                message: "worker pool shut down mid-job".to_owned(),
            });
            (response.to_json(), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceState;

    fn test_pool() -> Arc<DsePool> {
        Arc::new(DsePool::new(ServiceState::new().unwrap(), 2))
    }

    #[test]
    fn dispatches_control_commands() {
        let pool = test_pool();
        let (pong, stop) = handle_request(&pool, r#"{"type": "ping"}"#);
        assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        assert!(!stop);

        let (stats, _) = handle_request(&pool, r#"{"type": "stats"}"#);
        let stats = stats.get("stats").unwrap();
        assert_eq!(stats.get("workers").unwrap().as_usize(), Some(2));
        for counter in ["hits", "misses", "coalesced", "evictions", "bytes"] {
            assert!(stats.get(counter).is_some(), "stats missing {counter}");
        }

        let (down, stop) = handle_request(&pool, r#"{"type": "shutdown"}"#);
        assert_eq!(down.get("ok"), Some(&Json::Bool(true)));
        assert!(stop);

        let (unknown, stop) = handle_request(&pool, r#"{"type": "reboot"}"#);
        assert_eq!(unknown.get("ok"), Some(&Json::Bool(false)));
        assert!(!stop);
    }

    #[test]
    fn metrics_and_bounds_verbs_answer_inline() {
        let pool = test_pool();
        pool.state().slow_log().set_threshold_ms(0); // log everything
        let (job, _) = handle_request(
            &pool,
            r#"{"type": "submit", "id": 1, "network": {"model": "tiny"}}"#,
        );
        assert_eq!(job.get("ok"), Some(&Json::Bool(true)));

        let (metrics, stop) = handle_request(&pool, r#"{"type":"metrics","id":2}"#);
        assert!(!stop);
        assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)));
        let counters = metrics.get("counters").unwrap();
        assert_eq!(counters.get("jobs_total").and_then(Json::as_u64), Some(1));
        let request_ns = metrics
            .get("histograms")
            .unwrap()
            .get("request_ns")
            .unwrap();
        assert_eq!(request_ns.get("count").and_then(Json::as_u64), Some(1));
        let slow = metrics.get("slow").unwrap().as_array().unwrap();
        assert_eq!(slow.len(), 1, "threshold 0 logs every job");
        assert_eq!(slow[0].get("trace_id").and_then(Json::as_u64), Some(1));

        let (bounds, _) = handle_request(&pool, r#"{"type":"set-bounds","max_entries":8}"#);
        assert_eq!(bounds.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(bounds.get("max_entries").and_then(Json::as_u64), Some(8));
        // The live bound shows up in stats (not the boot-time config).
        let (stats, _) = handle_request(&pool, r#"{"type":"stats"}"#);
        let stats = stats.get("stats").unwrap();
        assert_eq!(stats.get("max_entries").and_then(Json::as_u64), Some(8));
        // An empty update is a usage error, not a silent no-op.
        let (err, _) = handle_request(&pool, r#"{"type":"set-bounds"}"#);
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn runs_jobs_and_reports_errors() {
        let pool = test_pool();
        let (response, _) = handle_request(
            &pool,
            r#"{"type": "submit", "id": 5, "network": {"model": "tiny"}}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        // The job id is echoed at the top level (the pipelining
        // correlation key) as well as inside the result.
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(5));
        let result = response.get("result").unwrap();
        assert_eq!(result.get("id").and_then(Json::as_u64), Some(5));
        assert_eq!(result.get("layers").unwrap().as_array().unwrap().len(), 3);

        // Every failure — unparsable JSON and an object that names no
        // verb included — is a typed error a typed peer can decode.
        for malformed in ["{nope", r#"{"id": 5, "network": {"model": "tiny"}}"#] {
            let (response, _) = handle_request(&pool, malformed);
            assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
            assert!(matches!(
                Response::decode(&response),
                Ok(Response::Error { .. })
            ));
        }

        let (bad_model, _) = handle_request(
            &pool,
            r#"{"type": "submit", "id": 6, "network": {"model": "no-such"}}"#,
        );
        assert_eq!(bad_model.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(bad_model.get("id").and_then(Json::as_u64), Some(6));
        assert!(bad_model
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("no-such"));
    }
}
