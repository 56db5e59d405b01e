//! # drmap-store
//!
//! An embedded, append-only, content-addressed persistence subsystem
//! for DSE results — the durable second tier beneath the service's
//! in-memory cache.
//!
//! DRMap's exploration results are deterministic functions of a
//! `(layer shape, accelerator config, DRAM architecture, objective)`
//! fingerprint, so once a configuration has been explored *anywhere*,
//! no process ever needs to explore it again. This crate makes that
//! "compute once, ever" contract durable:
//!
//! * [`record`] — the on-disk format: a fixed header plus
//!   length-prefixed, CRC-32-checksummed `(key, value)` records;
//! * [`store`] — the [`Store`](store::Store): write-ahead log +
//!   in-memory index with crash recovery (truncate at the first torn or
//!   corrupt record), concurrent positioned reads, explicit
//!   [`compact()`](store::Store::compact) with an atomic swap, and
//!   counters for operating it;
//! * [`verify`] — the read-only integrity scan behind
//!   `drmap-store verify`.
//!
//! Values are opaque bytes at this layer. The service stores results in
//! the versioned binary codec of [`drmap_core::bytes`] (compute
//! duration + bit-exact result), which the `drmap-store` CLI's
//! `get`/`verify --decode` subcommands also understand.
//!
//! ## Example
//!
//! ```no_run
//! use drmap_store::store::Store;
//!
//! let store = Store::open("/var/lib/drmap/results.wal")?;
//! store.put("fingerprint", b"encoded result")?;
//! assert_eq!(store.get("fingerprint")?.as_deref(), Some(&b"encoded result"[..]));
//! let report = store.compact()?;
//! println!("compacted: {} -> {} bytes", report.bytes_before, report.bytes_after);
//! # Ok::<(), drmap_store::error::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod record;
pub mod store;
pub mod verify;
