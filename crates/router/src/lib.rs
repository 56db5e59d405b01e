//! `drmap-router` — a consistent-hashing cluster tier over N
//! `drmap-serve` backends.
//!
//! The router speaks the typed protocol v1 on both sides: clients
//! connect to it exactly as they would to a single `drmap-serve`, and
//! it holds a small connection pool to every configured backend. Each
//! job is routed by rendezvous (highest-random-weight) hashing of its
//! cache fingerprint ([`drmap_service::engine::job_route_key`]), so
//! every backend's memo cache and WAL store stay hot for a stable
//! slice of the key space and membership changes reshuffle only the
//! keys they must (see [`hash`]).
//!
//! Jobs are pure computations, so failover is safe: when a backend
//! dies mid-flight its jobs are retried on the next-ranked healthy
//! node under a fixed attempt budget with decorrelated-jitter backoff
//! (see [`proxy`]), and health probes gate the dead node's
//! readmission. Admin verbs fan out:
//! `stats`/`metrics` aggregate, configuration verbs broadcast. A job
//! is always forwarded whole — one layer, one node. See
//! `docs/CLUSTER.md` for the full semantics.

#![forbid(unsafe_code)]

pub mod backend;
pub mod hash;
pub mod proxy;
