//! # drmap-service
//!
//! A batched, cached DSE job server over the DRMap reproduction.
//!
//! The core crates answer one question at a time — "what is the best
//! DRAM mapping for this layer/network?". This crate turns that into a
//! *service*: many jobs, from many clients, answered concurrently from
//! a shared worker pool with a memoization cache over per-layer results.
//!
//! ## Architecture
//!
//! ```text
//!  drmap-batch (CLI) ── TCP ──► drmap-serve (NDJSON)
//!                                    │
//!                                    v
//!        JobSpec ──► DsePool (N workers, one shared layer queue)
//!                        │ per-layer tasks
//!                        v
//!        ServiceState ── EngineFactory (cost table per DramArch)
//!                   └─── DseCache (canonical shape-keyed memo)
//!                            └─── Store (WAL-backed persistent tier,
//!                                 optional: --store PATH)
//! ```
//!
//! * [`spec`] — typed [`JobSpec`](spec::JobSpec)/[`JobResult`](spec::JobResult)
//!   covering network- and layer-level jobs across every
//!   [`DramArch`](drmap_dram::timing::DramArch) and
//!   [`Objective`](drmap_core::dse::Objective);
//! * [`pool`] — the worker-pool engine: every job is split into
//!   per-layer tasks on one queue, so batches saturate all workers; a
//!   worker that panics surfaces a job error instead of hanging the
//!   submitter;
//! * [`cache`] — the shared memo cache keyed by
//!   [`layer_cache_key`](drmap_core::dse::layer_cache_key) (layer
//!   *shape* + accelerator + substrate + sweep config): a bounded LRU
//!   (entry and approximate-byte caps) with single-flight coalescing of
//!   concurrent identical lookups, hit/miss/coalesced/eviction
//!   counters, per-entry compute-duration tracking, and an optional
//!   persistent second tier (a [`drmap_store`] WAL):
//!   resident misses consult the store before computing, fresh results
//!   write through, and restarts warm-start from disk — each
//!   fingerprint is explored once, *ever*;
//! * [`proto`] — the typed, versioned protocol: [`Request`](proto::Request)
//!   /[`Response`](proto::Response) enums whose wire shapes are each
//!   declared once, as a field table both codec directions are
//!   generated from; a `hello` handshake advertising
//!   [`PROTOCOL_VERSION`](proto::PROTOCOL_VERSION) and capabilities,
//!   admin verbs (`set-bounds`, `cache-clear`/`cache-warm`,
//!   `store-compact`, `metrics`), and per-job options;
//! * [`server`]/[`client`] — a hand-rolled, std-only, **pipelined**
//!   TCP front-end: submit many jobs tagged by `id`, receive responses
//!   out of order as they complete; the client sends any typed
//!   [`Request`](proto::Request) and wraps the common ones (`hello`,
//!   `stats`, `metrics`, …);
//! * [`cli`] — the binaries' flag-value helper;
//! * [`conn`] — the connection layer the server and `drmap-router`
//!   share: one accept loop, one reader/writer session per connection
//!   (the reader writes what it answers itself, as far as the socket
//!   takes it at once; the writer the rest and what other threads
//!   queue), and one per-connection in-flight gate whose slot travels
//!   with each response;
//! * [`wire`] — the one codec: newline-delimited JSON text, one message
//!   per line;
//! * [`json`] — the dependency-free JSON layer (floats round-trip
//!   bit-exactly);
//! * [`loadgen`] — what `benchmark/` builds its load plans from: the
//!   seedable [`SplitMix64`](loadgen::SplitMix64) stream and the
//!   cheap-to-expensive default job catalog;
//! * [`faults`] — seeded, deterministic fault injection into the
//!   store, the wire, and the pool (armed live by `set-faults`),
//!   compiled out of release builds unless the `faults` feature is on;
//!   paired with per-job deadlines (`deadline_ms`). See
//!   `docs/RELIABILITY.md`.
//!
//! Every layer is threaded with [`drmap_telemetry`]: lock-free latency
//! histograms and counters for each request stage (frame decode, cache
//! lookup, store read, single-flight wait, explore, frame encode),
//! per-request traces keyed by the wire `id`, and a slow-request ring
//! buffer — all dumped by the `metrics` admin verb, structured or as
//! Prometheus-style text. See `docs/OBSERVABILITY.md` for the metric
//! taxonomy.
//!
//! Results are **bit-identical** across every path — direct
//! [`DseEngine`](drmap_core::dse::DseEngine) call, sequential
//! [`ServiceState::run_job`](engine::ServiceState::run_job), pooled
//! execution, cache hit, or a TCP round trip.
//!
//! ## Example
//!
//! ```
//! use drmap_service::prelude::*;
//!
//! let state = ServiceState::new()?;
//! let pool = DsePool::new(state, 2);
//! let job = JobSpec::network(1, EngineSpec::default(), Network::tiny());
//! let result = pool.submit(&job).wait()?;
//! assert_eq!(result.layers.len(), 3);
//! // Resubmission is answered from the memo cache, bit-identically.
//! let again = pool.submit(&job).wait()?;
//! assert_eq!(again.cache_hits(), 3);
//! assert_eq!(again.total.energy.to_bits(), result.total.energy.to_bits());
//! # Ok::<(), drmap_service::error::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod client;
pub mod conn;
pub mod engine;
pub mod error;
pub mod faults;
pub mod json;
pub mod loadgen;
pub mod pool;
pub mod proto;
pub mod server;
pub mod spec;
pub mod wire;

/// What this build calls itself in a `hello`, as client and as server.
pub(crate) const IDENTITY: &str = concat!("drmap-service/", env!("CARGO_PKG_VERSION"));

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::engine::ServiceState;
    pub use crate::pool::DsePool;
    pub use crate::proto::Request;
    pub use crate::spec::{EngineSpec, JobSpec};
    pub use drmap_cnn::network::Network;
}
