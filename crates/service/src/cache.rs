//! The shared per-layer memoization cache: a bounded, single-flight LRU.
//!
//! Keys come from [`drmap_core::dse::layer_cache_key`]: a canonical
//! string over the layer *shape*, accelerator configuration, sweep
//! configuration, and the profiled substrate. Because the key ignores
//! layer names, repeated shapes hit the cache whether they recur within
//! one network (VGG-16's duplicated conv blocks), across jobs, or on
//! resubmission of a whole batch. Values are full
//! [`LayerDseResult`]s, cloned out on hit, so a cached answer is
//! bit-identical to the original computation.
//!
//! Four properties make the cache safe for long-running service use:
//!
//! * **Bounded.** [`CacheConfig`] caps the entry count and/or the
//!   approximate resident bytes; when a bound is exceeded the
//!   least-recently-used entry is evicted, and every eviction is
//!   counted in [`CacheStats::evictions`]. An unbounded cache (the
//!   default) never evicts.
//! * **Single-flight.** [`DseCache::get_or_compute`] coalesces
//!   concurrent lookups of the same key: one caller (the *leader*)
//!   computes while the rest block on its result instead of missing and
//!   recomputing. Coalesced lookups are counted separately from plain
//!   hits.
//! * **Tiered.** A cache built with `DseCache::with_store` backs the
//!   resident LRU tier with a persistent [`Store`]: a leader that
//!   misses memory consults the store before computing (a *store hit*
//!   repopulates the LRU without any exploration), and every fresh
//!   computation writes through, so results survive process restarts.
//!   Store failures degrade to recomputation — they are counted, never
//!   propagated.
//! * **Panic-safe.** A leader whose computation panics wakes every
//!   waiter with an error instead of leaving them blocked forever, and
//!   a panic while any lock is held never cascades: poisoned mutexes
//!   are recovered (the guarded state is a memo cache plus counters,
//!   which every code path leaves structurally valid).
//!
//! The resident tier is two `std` maps under the cache's one mutex:
//! key → entry (the value, the bytes it is charged, the stamp of its
//! last use) and stamp → key, oldest first. A hit or an insert moves
//! its key to a fresh stamp, and eviction pops the oldest, each in
//! O(log n).
//!
//! Each fresh exploration is timed and the duration persisted alongside
//! its result; [`CacheStats`] exposes min/max/total over every recorded
//! measurement.

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use drmap_core::bytes::{decode_stored_result, encode_stored_result};
use drmap_core::dse::LayerDseResult;
use drmap_core::error::DseError;
use drmap_store::store::Store;
use drmap_telemetry::{elapsed_ns, lock_recovered, Histogram};

use crate::error::panic_message;
use crate::spec::CacheMode;

/// Run `compute`, timed, with a panic converted into a [`DseError`].
fn run_timed<F>(compute: F) -> (Result<LayerDseResult, DseError>, u64)
where
    F: FnOnce() -> Result<LayerDseResult, DseError>,
{
    let started = Instant::now();
    let result = std::panic::catch_unwind(AssertUnwindSafe(compute)).unwrap_or_else(|payload| {
        Err(DseError::new(format!(
            "layer exploration panicked: {}",
            panic_message(payload.as_ref())
        )))
    });
    (result, elapsed_ns(started))
}

/// Capacity bounds for a [`DseCache`]. `None` means unbounded.
///
/// These are only the *initial* bounds: a live cache can be retuned at
/// runtime via `DseCache::set_bounds` (the `set-bounds` admin verb);
/// [`DseCache::bounds`] reports the ones currently in force.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of resident entries.
    pub max_entries: Option<usize>,
    /// Maximum approximate resident bytes (keys + values).
    pub max_bytes: Option<usize>,
}

impl CacheConfig {
    /// An unbounded cache (the default).
    pub fn unbounded() -> Self {
        CacheConfig::default()
    }

    /// Bound the entry count.
    pub fn with_max_entries(mut self, n: usize) -> Self {
        self.max_entries = Some(n);
        self
    }
}

/// How a [`DseCache::get_or_compute`] lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a resident entry.
    Hit,
    /// Served by blocking on another caller's in-flight computation.
    Coalesced,
    /// Served from the persistent store tier (no exploration ran; the
    /// result was also promoted into the resident tier).
    StoreHit,
    /// This caller computed the value (and populated the cache).
    Miss,
}

/// Counters and current size, captured in one consistent snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that fell through the resident tier. Store hits are a
    /// subset: `store_hits <= misses`.
    pub misses: u64,
    /// Lookups answered by waiting on an in-flight computation.
    pub coalesced: u64,
    /// Lookups that skipped the cache entirely ([`CacheMode::Bypass`]):
    /// computed fresh, stored nothing, counted in no other bucket.
    pub bypasses: u64,
    /// Lookups that skipped the read path but kept the write path
    /// ([`CacheMode::Refresh`]): computed fresh and replaced the cached
    /// entry. A subset of `misses`.
    pub refreshes: u64,
    /// Entries evicted to satisfy the capacity bounds.
    pub evictions: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
    /// Approximate bytes currently resident (keys + values).
    pub bytes: usize,
    /// Resident-tier misses served from the persistent store (no
    /// exploration ran).
    pub store_hits: u64,
    /// Resident-tier misses the persistent store also missed.
    pub store_misses: u64,
    /// Store reads/writes that failed or produced undecodable bytes
    /// (each degraded to recomputation, never an error).
    pub store_errors: u64,
    /// Shortest exploration duration recorded since the cache was
    /// created or cleared (fresh computations and store-revived
    /// measurements), in nanoseconds; 0 before the first measurement.
    pub compute_ns_min: u64,
    /// Longest recorded exploration duration, in nanoseconds.
    pub compute_ns_max: u64,
    /// Sum of all recorded exploration durations, in nanoseconds —
    /// the compute time this cache's contents represent.
    pub compute_ns_total: u64,
}

/// The smaller of two recorded durations, where 0 means "no
/// measurement yet" and so never wins.
fn min_measured(a: u64, b: u64) -> u64 {
    match (a, b) {
        (0, x) | (x, 0) => x,
        (a, b) => a.min(b),
    }
}

impl CacheStats {
    /// Fold `other` (another cache's snapshot) into `self`: every
    /// count, size and duration total sums, `compute_ns_max` takes the
    /// larger and `compute_ns_min` the smaller measured duration.
    pub fn merge(&mut self, other: &CacheStats) {
        let CacheStats {
            hits,
            misses,
            coalesced,
            bypasses,
            refreshes,
            evictions,
            entries,
            bytes,
            store_hits,
            store_misses,
            store_errors,
            compute_ns_min,
            compute_ns_max,
            compute_ns_total,
        } = *other;
        self.hits += hits;
        self.misses += misses;
        self.coalesced += coalesced;
        self.bypasses += bypasses;
        self.refreshes += refreshes;
        self.evictions += evictions;
        self.entries += entries;
        self.bytes += bytes;
        self.store_hits += store_hits;
        self.store_misses += store_misses;
        self.store_errors += store_errors;
        self.compute_ns_min = min_measured(self.compute_ns_min, compute_ns_min);
        self.compute_ns_max = self.compute_ns_max.max(compute_ns_max);
        self.compute_ns_total += compute_ns_total;
    }

    /// Fraction of lookups served without a fresh computation
    /// (0 when no lookups yet). Coalesced and store-served lookups
    /// count as served.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced + self.store_hits) as f64 / total as f64
        }
    }
}

/// One resident entry: the value, the bytes it is charged, and the
/// stamp of its last use (its key in [`Inner::recency`]).
#[derive(Debug)]
struct Entry {
    value: LayerDseResult,
    bytes: usize,
    stamp: u64,
}

/// The state a leader publishes to its waiters.
#[derive(Debug)]
struct Flight {
    done: Mutex<Option<Result<LayerDseResult, DseError>>>,
    cv: Condvar,
}

/// Everything guarded by the cache's one mutex: the resident tier
/// (`map` and its recency order), the in-flight table, the live bounds
/// and the counters. Keeping the counters here (not in separate
/// atomics) makes [`DseCache::stats`] a single consistent snapshot: it
/// can never report, say, resident entries with zero recorded misses.
#[derive(Debug, Default)]
struct Inner {
    /// key → resident entry.
    map: HashMap<String, Entry>,
    /// Last-use stamp → key, oldest first: the LRU order. Each resident
    /// key appears once, under its entry's `stamp`.
    recency: BTreeMap<u64, String>,
    /// The last stamp handed out; every use takes the next one, so
    /// stamps order uses.
    clock: u64,
    /// key → in-flight computation for single-flight coalescing.
    inflight: HashMap<String, Arc<Flight>>,
    /// The entry cap currently in force (initialized from
    /// [`CacheConfig::max_entries`], retunable at runtime via
    /// [`DseCache::set_bounds`]).
    max_entries: Option<usize>,
    /// The approximate-byte cap currently in force (initialized from
    /// [`CacheConfig::max_bytes`], retunable at runtime via
    /// [`DseCache::set_bounds`]).
    max_bytes: Option<usize>,
    /// The counters, and in `bytes` the approximate resident bytes;
    /// `entries` is filled in by [`DseCache::stats`].
    stats: CacheStats,
}

/// Make `entry` the most recently used: move its key in `recency` from
/// its old stamp to `stamp`.
fn restamp(recency: &mut BTreeMap<u64, String>, entry: &mut Entry, stamp: u64) {
    let old = std::mem::replace(&mut entry.stamp, stamp);
    if let Some(key) = recency.remove(&old) {
        recency.insert(stamp, key);
    }
}

impl Inner {
    fn new(config: &CacheConfig) -> Self {
        Inner {
            max_entries: config.max_entries,
            max_bytes: config.max_bytes,
            ..Inner::default()
        }
    }

    /// Serve `key` from the resident tier if it is there: count the
    /// hit, refresh the entry's recency, clone the value out. A miss
    /// changes nothing — the caller decides what a miss counts as.
    fn hit(&mut self, key: &str) -> Option<LayerDseResult> {
        let entry = self.map.get_mut(key)?;
        self.stats.hits += 1;
        self.clock += 1;
        restamp(&mut self.recency, entry, self.clock);
        Some(entry.value.clone())
    }

    /// Store `value` under `key` as the most-recently-used entry, then
    /// evict least-recently-used entries until the bounds hold. If the
    /// new entry alone exceeds the byte bound it is evicted too — the
    /// cache never exceeds its configured limits.
    fn insert(&mut self, key: String, value: LayerDseResult, compute_ns: u64) {
        // A nonzero duration is a measurement (fresh computation or
        // store revival): fold it into the monotonic aggregates. Kept
        // O(1) here so `stats()` never has to walk the entries under
        // the cache's one mutex.
        if compute_ns > 0 {
            self.stats.compute_ns_total += compute_ns;
            self.stats.compute_ns_max = self.stats.compute_ns_max.max(compute_ns);
            self.stats.compute_ns_min = min_measured(self.stats.compute_ns_min, compute_ns);
        }
        let bytes = approx_entry_bytes(&key, &value);
        self.clock += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            self.stats.bytes = self.stats.bytes - entry.bytes + bytes;
            entry.value = value;
            entry.bytes = bytes;
            restamp(&mut self.recency, entry, self.clock);
        } else {
            let stamp = self.clock;
            self.stats.bytes += bytes;
            self.recency.insert(stamp, key.clone());
            self.map.insert(
                key,
                Entry {
                    value,
                    bytes,
                    stamp,
                },
            );
        }
        self.enforce_bounds();
    }

    fn over_bounds(&self) -> bool {
        self.max_entries.is_some_and(|n| self.map.len() > n)
            || self.max_bytes.is_some_and(|n| self.stats.bytes > n)
    }

    /// Evict least-recently-used entries until the **live** bounds
    /// hold — the construction-time config is consulted only at
    /// [`Inner::new`]; `set-bounds` retunes the copies kept here.
    fn enforce_bounds(&mut self) {
        while self.over_bounds() {
            let Some((_, key)) = self.recency.pop_first() else {
                break;
            };
            if let Some(entry) = self.map.remove(&key) {
                self.stats.bytes -= entry.bytes;
            }
            self.stats.evictions += 1;
        }
    }
}

/// Latency histograms the cache records into once
/// [`DseCache::attach_metrics`] is called: store-tier read/write
/// durations (as the cache sees them, decode/encode included) and time
/// spent blocked on another caller's in-flight computation.
#[derive(Debug)]
pub(crate) struct CacheMetrics {
    /// Store-tier consultation on a resident miss (`store.get` +
    /// decode), nanoseconds.
    pub store_read_ns: Arc<Histogram>,
    /// Write-through of a fresh result (encode + `store.put`),
    /// nanoseconds.
    pub store_write_ns: Arc<Histogram>,
    /// Time a caller spent blocked on an in-flight computation it
    /// coalesced onto (or that a refresh waited out), nanoseconds.
    pub singleflight_wait_ns: Arc<Histogram>,
}

/// A thread-safe, capacity-bounded, single-flight memoization cache for
/// single-layer DSE results, optionally backed by a persistent store
/// tier.
#[derive(Debug, Default)]
pub struct DseCache {
    inner: Mutex<Inner>,
    store: Option<Arc<Store>>,
    metrics: OnceLock<CacheMetrics>,
}

impl DseCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_config(CacheConfig::unbounded())
    }

    /// An empty cache with the given capacity bounds.
    pub fn with_config(config: CacheConfig) -> Self {
        DseCache {
            inner: Mutex::new(Inner::new(&config)),
            store: None,
            metrics: OnceLock::new(),
        }
    }

    /// An empty cache with the given bounds over a persistent store
    /// tier: resident-tier misses consult `store` before computing, and
    /// fresh computations write through. The resident tier stays empty
    /// until lookups (or [`DseCache::warm_from_store`]) promote stored
    /// results.
    pub(crate) fn with_store(config: CacheConfig, store: Arc<Store>) -> Self {
        DseCache {
            store: Some(store),
            ..Self::with_config(config)
        }
    }

    /// Attach latency histograms. Until this is called the cache runs
    /// unobserved at zero cost; a second attachment is ignored.
    pub(crate) fn attach_metrics(&self, metrics: CacheMetrics) {
        let _ = self.metrics.set(metrics);
    }

    /// The `(max_entries, max_bytes)` bounds currently in force.
    pub fn bounds(&self) -> (Option<usize>, Option<usize>) {
        let inner = lock_recovered(&self.inner);
        (inner.max_entries, inner.max_bytes)
    }

    /// Retune the live capacity bounds, effective immediately: if the
    /// resident set exceeds a shrunk cap, least-recently-used entries
    /// are evicted until the new bounds hold — no
    /// restart, no flush of what still fits. For each bound, `None`
    /// keeps the current value, `Some(None)` removes the cap, and
    /// `Some(Some(n))` sets it. Returns the previous
    /// `(max_entries, max_bytes)` and how many entries the shrink
    /// evicted. This is the `set-bounds` admin verb's backing
    /// operation.
    pub(crate) fn set_bounds(
        &self,
        max_entries: Option<Option<usize>>,
        max_bytes: Option<Option<usize>>,
    ) -> ((Option<usize>, Option<usize>), u64) {
        let mut inner = lock_recovered(&self.inner);
        let previous = (inner.max_entries, inner.max_bytes);
        if let Some(entries) = max_entries {
            inner.max_entries = entries;
        }
        if let Some(bytes) = max_bytes {
            inner.max_bytes = bytes;
        }
        let evictions_before = inner.stats.evictions;
        inner.enforce_bounds();
        (previous, inner.stats.evictions - evictions_before)
    }

    /// The persistent store tier, if one is attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Look up a key, counting the outcome and refreshing its recency.
    /// The stored result's `layer_name` is whatever layer populated the
    /// entry first; callers overwrite it with the requesting layer's
    /// name.
    pub fn get(&self, key: &str) -> Option<LayerDseResult> {
        let mut inner = lock_recovered(&self.inner);
        let hit = inner.hit(key);
        if hit.is_none() {
            inner.stats.misses += 1;
        }
        hit
    }

    /// [`DseCache::get`] that is **silent on a miss**: a resident entry
    /// is counted as a hit and refreshed exactly as `get` would, an
    /// absent one moves no counter. This is the pool's submit-time fast
    /// path — a layer that misses here goes on to the full
    /// [`DseCache::get_or_compute_with`] lookup on a worker, which
    /// counts it once, there.
    pub(crate) fn get_resident(&self, key: &str) -> Option<LayerDseResult> {
        lock_recovered(&self.inner).hit(key)
    }

    /// Store a result, evicting least-recently-used entries as needed
    /// to keep the cache within its bounds. Concurrent computations of
    /// the same key may both insert; they computed identical values, so
    /// last-write-wins is deterministic. Entries inserted this way carry
    /// no compute-duration measurement.
    pub fn insert(&self, key: String, result: LayerDseResult) {
        lock_recovered(&self.inner).insert(key, result, 0);
    }

    /// Block (without the cache lock) until a flight's leader publishes
    /// a result or an error, and return a copy of it. The time spent
    /// blocked is recorded in the `singleflight_wait_ns` histogram when
    /// metrics are attached.
    fn await_flight(&self, flight: &Flight) -> Result<LayerDseResult, DseError> {
        let start = Instant::now();
        let mut done = lock_recovered(&flight.done);
        while done.is_none() {
            done = flight.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(metrics) = self.metrics.get() {
            metrics.singleflight_wait_ns.record(elapsed_ns(start));
        }
        done.clone().expect("loop exits only when done is set")
    }

    /// Look up `key`; on a miss, compute it exactly once across all
    /// concurrent callers. The first caller to miss (the leader) first
    /// consults the persistent store tier (when attached): a store hit
    /// is decoded, promoted into the resident tier, and shared with
    /// waiters without any exploration. Otherwise the leader runs
    /// `compute` with no cache lock held — timing it, so the stats and
    /// the stored record carry its exploration cost — and writes the
    /// result through to the store; callers that arrive while the computation is in
    /// flight block until it finishes and share its result (or its
    /// error). A leader that *panics* wakes every waiter with an error
    /// — waiters never hang — and the panic is converted into a
    /// [`DseError`] for the leader's caller as well, so a single
    /// poisoned computation cannot take down a worker thread.
    ///
    /// Errors are not cached: the next lookup after a failure computes
    /// afresh. Store failures (I/O, corruption, undecodable bytes) are
    /// counted in [`CacheStats::store_errors`] and degrade to
    /// recomputation — persistence can never make a lookup fail.
    ///
    /// # Errors
    ///
    /// Propagates `compute` failures (to the leader and every waiter
    /// coalesced onto it).
    pub fn get_or_compute<F>(
        &self,
        key: &str,
        compute: F,
    ) -> Result<(LayerDseResult, CacheOutcome), DseError>
    where
        F: FnOnce() -> Result<LayerDseResult, DseError>,
    {
        self.get_or_compute_with(key, CacheMode::Default, compute).0
    }

    /// [`DseCache::get_or_compute`] with an explicit [`CacheMode`] —
    /// the per-job cache-option hook:
    ///
    /// * [`CacheMode::Default`] — the documented lookup above.
    /// * [`CacheMode::Bypass`] — run `compute` directly: no resident or
    ///   store lookup, no insertion, no write-through, no single-flight
    ///   registration (a bypassing caller must not block Default
    ///   callers, nor serve them a result the cache never saw). Counted
    ///   only in [`CacheStats::bypasses`].
    /// * [`CacheMode::Refresh`] — skip the read path (resident entry
    ///   and store tier are ignored) but keep the write path: the fresh
    ///   result replaces the resident entry and is written through.
    ///   A refresh **always performs its own computation**: if another
    ///   computation of the same key is already in flight, the refresh
    ///   waits for it to finish and then recomputes anyway (the
    ///   in-flight one may be serving the very stale result the refresh
    ///   exists to replace). Until the refresh lands, Default lookups
    ///   that still find the old resident entry are served it — refresh
    ///   replaces, it does not invalidate-in-advance; Default lookups
    ///   that *miss* the resident tier coalesce onto the refreshed
    ///   computation. Counted in [`CacheStats::refreshes`] (and
    ///   `misses`).
    ///
    /// Alongside the lookup's result comes how many nanoseconds
    /// `compute` ran for, when this call ran it: the one measurement
    /// behind the compute-duration stats, the stored record and the
    /// service's `explore` stage. The result carries `compute`'s
    /// failures, to the leader and every waiter coalesced onto it.
    pub(crate) fn get_or_compute_with<F>(
        &self,
        key: &str,
        mode: CacheMode,
        compute: F,
    ) -> (
        Result<(LayerDseResult, CacheOutcome), DseError>,
        Option<u64>,
    )
    where
        F: FnOnce() -> Result<LayerDseResult, DseError>,
    {
        if mode == CacheMode::Bypass {
            lock_recovered(&self.inner).stats.bypasses += 1;
            let (result, compute_ns) = run_timed(compute);
            return (
                result.map(|value| (value, CacheOutcome::Miss)),
                Some(compute_ns),
            );
        }
        let (flight, is_leader) = loop {
            let existing = {
                let mut inner = lock_recovered(&self.inner);
                if mode == CacheMode::Default {
                    if let Some(value) = inner.hit(key) {
                        return (Ok((value, CacheOutcome::Hit)), None);
                    }
                }
                match inner.inflight.get(key).map(Arc::clone) {
                    Some(flight) if mode != CacheMode::Refresh => {
                        inner.stats.coalesced += 1;
                        break (flight, false);
                    }
                    Some(flight) => Some(flight),
                    None => {
                        inner.stats.misses += 1;
                        if mode == CacheMode::Refresh {
                            inner.stats.refreshes += 1;
                        }
                        let flight = Arc::new(Flight {
                            done: Mutex::new(None),
                            cv: Condvar::new(),
                        });
                        inner.inflight.insert(key.to_owned(), Arc::clone(&flight));
                        break (flight, true);
                    }
                }
            };
            // Refresh found a computation already in flight. Coalescing
            // onto it would silently serve whatever that leader produces
            // — possibly the very stale store-served value this refresh
            // exists to replace. Wait it out (result discarded, errors
            // included) and retry for leadership of a fresh computation.
            if let Some(flight) = existing {
                let _ = self.await_flight(&flight);
            }
        };

        if !is_leader {
            let shared = self.await_flight(&flight);
            return (shared.map(|value| (value, CacheOutcome::Coalesced)), None);
        }

        // Leader: consult the store tier, then compute if needed — all
        // with no cache lock held. A panic is converted into an error
        // so waiters are woken and the calling worker survives.
        let mut outcome = CacheOutcome::Miss;
        let compute_ns;
        let computed = 'produce: {
            // A refresh exists to *replace* what the tiers hold, so
            // only a Default-mode leader may be served from the store.
            if let (CacheMode::Default, Some(store)) = (mode, &self.store) {
                let read_start = Instant::now();
                let fetched = store.get(key);
                let decoded = match &fetched {
                    Ok(Some(bytes)) => Some(decode_stored_result(bytes)),
                    _ => None,
                };
                if let Some(metrics) = self.metrics.get() {
                    metrics.store_read_ns.record(elapsed_ns(read_start));
                }
                match (fetched, decoded) {
                    (Ok(Some(_)), Some(Ok((value, stored_ns)))) => {
                        lock_recovered(&self.inner).stats.store_hits += 1;
                        outcome = CacheOutcome::StoreHit;
                        compute_ns = stored_ns;
                        break 'produce Ok(value);
                    }
                    (Ok(Some(_)), _) => lock_recovered(&self.inner).stats.store_errors += 1,
                    (Ok(None), _) => lock_recovered(&self.inner).stats.store_misses += 1,
                    (Err(_), _) => lock_recovered(&self.inner).stats.store_errors += 1,
                }
            }
            let (result, ns) = run_timed(compute);
            compute_ns = ns;
            result
        };
        {
            let mut inner = lock_recovered(&self.inner);
            if let Ok(value) = &computed {
                inner.insert(key.to_owned(), value.clone(), compute_ns);
            }
            inner.inflight.remove(key);
        }
        // Publish to waiters after the cache is updated: a thread that
        // misses the in-flight entry now finds the resident one.
        let mut done = lock_recovered(&flight.done);
        *done = Some(computed.clone());
        drop(done);
        flight.cv.notify_all();
        // Write freshly computed results through to the store, after
        // waiters are already unblocked (persistence is off the
        // latency path). Failures degrade to "compute again next
        // restart".
        if outcome == CacheOutcome::Miss {
            if let (Some(store), Ok(value)) = (&self.store, &computed) {
                let write_start = Instant::now();
                let wrote = encode_stored_result(value, compute_ns)
                    .map_err(|_| ())
                    .and_then(|bytes| store.put(key, &bytes).map_err(|_| ()));
                if let Some(metrics) = self.metrics.get() {
                    metrics.store_write_ns.record(elapsed_ns(write_start));
                }
                if wrote.is_err() {
                    lock_recovered(&self.inner).stats.store_errors += 1;
                }
            }
        }
        let ran = (outcome == CacheOutcome::Miss).then_some(compute_ns);
        (computed.map(|value| (value, outcome)), ran)
    }

    /// Current counters and size, captured atomically under one lock.
    /// The compute-duration aggregates cover every measurement recorded
    /// since creation/clear — fresh explorations plus durations revived
    /// from the store — independent of what is still resident.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_recovered(&self.inner);
        CacheStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }

    /// Promote up to `limit` of the store tier's most recently written
    /// results into the resident tier (all of them when `limit` is
    /// `None` and the cache is unbounded; a bounded cache never warms
    /// past its entry cap). Returns how many entries were loaded.
    /// Without an attached store this is a no-op. Lookup counters are
    /// untouched — warming is not traffic.
    ///
    /// The hot set arrives via one offset-ordered sweep of the log
    /// ([`Store::bulk_load`]) rather than a locked, positioned read per
    /// key. A value damaged on disk is skipped (the rest of the hot set
    /// still warms) and counted in [`CacheStats::store_errors`], so
    /// corruption stays visible at warm-start time; an I/O failure
    /// counts one store error and warms nothing.
    pub fn warm_from_store(&self, limit: Option<usize>) -> usize {
        let Some(store) = &self.store else { return 0 };
        // The *live* entry bound, so a warm start after `set-bounds`
        // never loads more than the retuned cap would keep.
        let entry_bound = lock_recovered(&self.inner).max_entries;
        let budget = limit.or(entry_bound).unwrap_or(usize::MAX).min(store.len());
        let entries = match store.bulk_load(Some(budget)) {
            Ok(loaded) => {
                if loaded.damaged > 0 {
                    lock_recovered(&self.inner).stats.store_errors += loaded.damaged;
                }
                loaded.entries
            }
            Err(_) => {
                lock_recovered(&self.inner).stats.store_errors += 1;
                return 0;
            }
        };
        let mut loaded = 0usize;
        // Oldest-first within the hot set, so the most recently written
        // key ends up most recently used.
        for (key, bytes) in entries.into_iter().rev() {
            match decode_stored_result(&bytes) {
                Ok((value, compute_ns)) => {
                    lock_recovered(&self.inner).insert(key, value, compute_ns);
                    loaded += 1;
                }
                Err(_) => lock_recovered(&self.inner).stats.store_errors += 1,
            }
        }
        loaded
    }

    /// Drop every resident entry and zero the counters. In-flight
    /// computations are unaffected: they complete, wake their waiters,
    /// and repopulate the (now empty) cache. The persistent store tier
    /// is untouched — clearing memory does not forget durable results.
    pub(crate) fn clear(&self) {
        let mut inner = lock_recovered(&self.inner);
        inner.map.clear();
        inner.recency.clear();
        inner.stats = CacheStats::default();
    }
}

/// Fixed per-entry overhead the byte accounting charges on top of the
/// structures it can measure directly: the `HashMap`'s slack (a
/// power-of-two bucket count, grown further by eviction's tombstones),
/// the `BTreeMap`'s (nodes about half full), and malloc's header and
/// rounding on the entry's three heap allocations (two key `String`s
/// and the value's `Vec`s). A counting allocator over tiers of
/// 16–2,000 entries churned by eviction measured 249–511 bytes beyond
/// the sized parts, 340 on average. A single constant keeps the
/// accounting O(1) and honest on average; see
/// `byte_bound_is_never_exceeded` for the invariant it protects.
const PER_ENTRY_OVERHEAD_BYTES: usize = 340;

/// Approximate resident footprint of one entry: both copies of the key
/// (the map's key and the recency copy), the map's `(key, Entry)` slot
/// and the recency map's `(stamp, key)` slot, every heap allocation
/// hanging off the value, and the fixed [`PER_ENTRY_OVERHEAD_BYTES`]
/// for what the allocator and the two maps add beyond them.
fn approx_entry_bytes(key: &str, value: &LayerDseResult) -> usize {
    let fixed = std::mem::size_of::<(String, Entry)>()
        + std::mem::size_of::<(u64, String)>()
        + key.len() * 2
        + PER_ENTRY_OVERHEAD_BYTES;
    let pareto: usize = value
        .pareto
        .iter()
        .map(|p| std::mem::size_of_val(p) + p.label.len())
        .sum();
    fixed + value.layer_name.len() + pareto
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_core::dse::DseCandidate;
    use drmap_core::edp::EdpEstimate;
    use drmap_core::mapping::MappingPolicy;
    use drmap_core::schedule::ReuseScheme;
    use drmap_core::tiling::Tiling;

    fn result(name: &str) -> LayerDseResult {
        LayerDseResult {
            layer_name: name.to_owned(),
            best: DseCandidate {
                mapping: MappingPolicy::drmap(),
                tiling: Tiling::new(1, 1, 1, 1),
                scheme: ReuseScheme::OfmsReuse,
                estimate: EdpEstimate {
                    cycles: 1.0,
                    energy: 2.0,
                    t_ck_ns: 1.25,
                },
            },
            evaluations: 7,
            pareto: vec![],
        }
    }

    #[test]
    fn counts_hits_misses_and_entries() {
        let cache = DseCache::new();
        assert!(cache.get("k").is_none());
        cache.insert("k".into(), result("a"));
        let hit = cache.get("k").unwrap();
        assert_eq!(hit.evaluations, 7);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert!(stats.bytes > 0, "insertions are byte-accounted");
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = DseCache::new();
        cache.insert("k".into(), result("a"));
        cache.get("k");
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats, CacheStats::default());
        assert_eq!(stats.hit_rate(), 0.0);
        // The cache still works after a clear.
        cache.insert("k".into(), result("b"));
        assert_eq!(cache.get("k").unwrap().layer_name, "b");
    }

    #[test]
    fn is_shareable_across_threads() {
        let cache = std::sync::Arc::new(DseCache::new());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    let key = format!("k{}", i % 2);
                    cache.insert(key.clone(), result("x"));
                    cache.get(&key).expect("just inserted")
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().hits, 8);
    }

    #[test]
    fn entry_bound_evicts_least_recently_used_first() {
        let cache = DseCache::with_config(CacheConfig::unbounded().with_max_entries(2));
        cache.insert("k1".into(), result("a"));
        cache.insert("k2".into(), result("b"));
        // Touch k1 so k2 becomes the LRU entry.
        assert!(cache.get("k1").is_some());
        cache.insert("k3".into(), result("c"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.get("k2").is_none(), "LRU entry was evicted");
        assert!(cache.get("k1").is_some(), "recently used entry survives");
        assert!(cache.get("k3").is_some(), "new entry survives");
    }

    #[test]
    fn reinserting_a_key_updates_in_place_without_eviction() {
        let cache = DseCache::with_config(CacheConfig::unbounded().with_max_entries(2));
        cache.insert("k1".into(), result("a"));
        cache.insert("k2".into(), result("b"));
        cache.insert("k1".into(), result("a2"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.get("k1").unwrap().layer_name, "a2");
    }

    #[test]
    fn byte_bound_is_never_exceeded() {
        let one_entry = approx_entry_bytes("k00", &result("x"));
        // Room for two entries but not three.
        let cache = DseCache::with_config(CacheConfig {
            max_entries: None,
            max_bytes: Some(one_entry * 2 + 1),
        });
        for i in 0..16 {
            cache.insert(format!("k{i:02}"), result("x"));
            let stats = cache.stats();
            assert!(
                stats.bytes <= one_entry * 2 + 1,
                "byte bound exceeded: {stats:?}"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 14);
    }

    #[test]
    fn an_oversized_entry_is_evicted_rather_than_kept() {
        let cache = DseCache::with_config(CacheConfig {
            max_entries: None,
            max_bytes: Some(8),
        });
        cache.insert("way-too-big".into(), result("x"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn zero_entry_bound_keeps_nothing_but_still_serves() {
        let cache = DseCache::with_config(CacheConfig::unbounded().with_max_entries(0));
        let (value, outcome) = cache.get_or_compute("k", || Ok(result("x"))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(value.layer_name, "x");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn get_or_compute_hits_after_a_miss() {
        let cache = DseCache::new();
        let (_, first) = cache.get_or_compute("k", || Ok(result("x"))).unwrap();
        let (again, second) = cache
            .get_or_compute("k", || panic!("must not recompute"))
            .unwrap();
        assert_eq!(first, CacheOutcome::Miss);
        assert_eq!(second, CacheOutcome::Hit);
        assert_eq!(again.layer_name, "x");
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = DseCache::new();
        let err = cache
            .get_or_compute("k", || Err(DseError::new("no feasible tiling")))
            .unwrap_err();
        assert!(err.to_string().contains("no feasible tiling"));
        // The failed key computes afresh on the next lookup.
        let (_, outcome) = cache.get_or_compute("k", || Ok(result("x"))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn bypass_mode_neither_reads_nor_writes_the_cache() {
        let store = temp_store();
        let cache = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        cache.get_or_compute("k", || Ok(result("cached"))).unwrap();
        let baseline = cache.stats();

        // Bypass computes fresh even though a resident entry exists…
        let (value, outcome) = cache
            .get_or_compute_with("k", CacheMode::Bypass, || Ok(result("fresh")))
            .0
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(value.layer_name, "fresh");
        // …leaves the resident entry and the store untouched…
        assert_eq!(cache.get("k").unwrap().layer_name, "cached");
        let (stored, _) = decode_stored_result(&store.get("k").unwrap().unwrap()).unwrap();
        assert_eq!(stored.layer_name, "cached");
        // …and is invisible to every counter except its own.
        let stats = cache.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.misses, baseline.misses);
        assert_eq!(stats.entries, baseline.entries);
        // A bypass panic is converted, not propagated.
        let err = cache
            .get_or_compute_with("k", CacheMode::Bypass, || panic!("bug"))
            .0
            .unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn refresh_mode_replaces_the_cached_and_persisted_entry() {
        let store = temp_store();
        let cache = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        cache.get_or_compute("k", || Ok(result("stale"))).unwrap();

        let (value, outcome) = cache
            .get_or_compute_with("k", CacheMode::Refresh, || Ok(result("fresh")))
            .0
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "refresh recomputes");
        assert_eq!(value.layer_name, "fresh");
        // Both tiers now hold the refreshed value.
        assert_eq!(cache.get("k").unwrap().layer_name, "fresh");
        let (stored, _) = decode_stored_result(&store.get("k").unwrap().unwrap()).unwrap();
        assert_eq!(stored.layer_name, "fresh");
        let stats = cache.stats();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.entries, 1);
        // A later Default lookup is a plain hit on the fresh value.
        let (_, outcome) = cache
            .get_or_compute("k", || panic!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    #[test]
    fn refresh_never_coalesces_onto_an_inflight_computation() {
        use std::sync::Barrier;
        // A leader is mid-flight producing the value the operator wants
        // replaced; the refresh must NOT ride along and return it — it
        // waits the leader out and computes its own.
        let cache = Arc::new(DseCache::new());
        let barrier = Arc::new(Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                cache.get_or_compute("k", move || {
                    barrier.wait(); // the refresher is now on its way
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Ok(result("stale"))
                })
            })
        };
        barrier.wait();
        let (value, outcome) = cache
            .get_or_compute_with("k", CacheMode::Refresh, || Ok(result("fresh")))
            .0
            .unwrap();
        leader.join().unwrap().unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(value.layer_name, "fresh", "refresh computed its own value");
        assert_eq!(cache.stats().refreshes, 1);
        assert_eq!(
            cache.get("k").unwrap().layer_name,
            "fresh",
            "the refreshed value replaced the in-flight leader's"
        );
    }

    #[test]
    fn byte_accounting_charges_keys_map_slot_and_overhead() {
        let bytes = approx_entry_bytes("0123456789", &result("x"));
        assert!(
            bytes
                >= std::mem::size_of::<Entry>()
                    + std::mem::size_of::<(String, usize)>()
                    + 20
                    + PER_ENTRY_OVERHEAD_BYTES,
            "{bytes} undercounts the fixed footprint"
        );
        // Longer keys cost more: both resident copies are charged.
        let longer = approx_entry_bytes("0123456789abcdef", &result("x"));
        assert_eq!(longer - bytes, 12);
    }

    fn temp_store() -> Arc<Store> {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "drmap-cache-tier-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.wal");
        let _ = std::fs::remove_file(&path);
        Arc::new(Store::open(path).unwrap())
    }

    #[test]
    fn computed_entries_record_their_duration() {
        let cache = DseCache::new();
        cache
            .get_or_compute("slow", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok(result("x"))
            })
            .unwrap();
        cache.get_or_compute("fast", || Ok(result("y"))).unwrap();
        let stats = cache.stats();
        assert!(stats.compute_ns_max >= 2_000_000, "{stats:?}");
        assert!(stats.compute_ns_min > 0, "{stats:?}");
        assert!(stats.compute_ns_min <= stats.compute_ns_max);
        assert!(stats.compute_ns_total >= stats.compute_ns_max + stats.compute_ns_min);
        // Direct inserts carry no measurement and do not disturb min.
        cache.insert("unmeasured".into(), result("z"));
        let with_unmeasured = cache.stats();
        assert_eq!(with_unmeasured.compute_ns_total, stats.compute_ns_total);
    }

    #[test]
    fn a_fresh_computation_writes_through_and_a_restart_reads_back() {
        let store = temp_store();
        let first = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        let (value, outcome) = first.get_or_compute("k", || Ok(result("x"))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(first.stats().store_misses, 1);
        assert_eq!(store.len(), 1, "write-through persisted the result");

        // "Restart": a brand-new resident tier over the same store.
        let second = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        let (revived, outcome) = second
            .get_or_compute("k", || panic!("store hit must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::StoreHit);
        assert_eq!(revived.layer_name, value.layer_name);
        assert_eq!(
            revived.best.estimate.energy.to_bits(),
            value.best.estimate.energy.to_bits()
        );
        let stats = second.stats();
        assert_eq!((stats.store_hits, stats.store_misses), (1, 0));
        assert_eq!(stats.misses, 1, "store hits are a subset of misses");
        assert!(stats.compute_ns_total > 0, "stored duration was revived");
        // The promoted entry now serves from memory.
        let (_, outcome) = second
            .get_or_compute("k", || panic!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        // Both lookups were served without exploration: one from disk,
        // one from memory.
        assert!((second.stats().hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn errors_are_not_written_through() {
        let store = temp_store();
        let cache = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        let _ = cache.get_or_compute("k", || Err(DseError::new("no feasible tiling")));
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn warm_start_promotes_the_most_recent_entries() {
        let store = temp_store();
        let writer = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        for i in 0..6 {
            writer
                .get_or_compute(&format!("k{i}"), || Ok(result(&format!("r{i}"))))
                .unwrap();
        }
        // A bounded cache warms only up to its cap, newest first.
        let warmed = DseCache::with_store(
            CacheConfig::unbounded().with_max_entries(3),
            Arc::clone(&store),
        );
        assert_eq!(warmed.warm_from_store(None), 3);
        let stats = warmed.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!((stats.hits, stats.misses), (0, 0), "warming is not traffic");
        for i in 3..6 {
            let (_, outcome) = warmed
                .get_or_compute(&format!("k{i}"), || panic!("warmed key recomputed"))
                .unwrap();
            assert_eq!(outcome, CacheOutcome::Hit, "k{i} should be resident");
        }
        // An explicit limit wins over the cap.
        let partial = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        assert_eq!(partial.warm_from_store(Some(2)), 2);
        assert_eq!(partial.stats().entries, 2);
        // No store: warming is a no-op.
        assert_eq!(DseCache::new().warm_from_store(None), 0);
    }

    #[test]
    fn undecodable_store_bytes_degrade_to_recomputation() {
        let store = temp_store();
        store.put("k", b"definitely not a stored result").unwrap();
        let cache = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        let (_, outcome) = cache.get_or_compute("k", || Ok(result("x"))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let stats = cache.stats();
        assert_eq!(stats.store_errors, 1);
        // The recomputed value overwrote the garbage record.
        let (_, compute_ns) = decode_stored_result(&store.get("k").unwrap().unwrap()).unwrap();
        assert!(compute_ns > 0);
    }

    #[test]
    fn injected_store_faults_degrade_to_recomputation() {
        use drmap_store::store::{FaultDirective, StoreOp};
        let store = temp_store();
        store.attach_fault_hook(Box::new(|op| {
            // Reads and writes both fail; the cache must absorb it.
            matches!(op, StoreOp::Get | StoreOp::Put).then_some(FaultDirective::Fail)
        }));
        let cache = DseCache::with_store(CacheConfig::unbounded(), Arc::clone(&store));
        let (_, outcome) = cache.get_or_compute("k", || Ok(result("x"))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "faulted store is not a hit");
        // One error from the failed read-through, one from the failed
        // write-through; the caller saw neither.
        assert_eq!(cache.stats().store_errors, 2);
        // The resident tier still serves the entry.
        let (_, outcome) = cache
            .get_or_compute("k", || panic!("resident entry recomputed"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    /// The resident keys, least recently used first.
    fn resident_keys(cache: &DseCache) -> Vec<String> {
        lock_recovered(&cache.inner)
            .recency
            .values()
            .cloned()
            .collect()
    }

    /// A naive reference LRU, least recently used first: each resident
    /// key with its value and the bytes [`approx_entry_bytes`] charges.
    type Reference = Vec<(String, LayerDseResult, usize)>;

    /// Evict the reference's oldest entries until `bounds` hold,
    /// counting them in `stats`; returns how many went.
    fn evict(
        lru: &mut Reference,
        stats: &mut CacheStats,
        bounds: (Option<usize>, Option<usize>),
    ) -> u64 {
        let mut evicted = 0;
        while !lru.is_empty()
            && (bounds.0.is_some_and(|n| lru.len() > n)
                || bounds.1.is_some_and(|n| stats.bytes > n))
        {
            stats.bytes -= lru.remove(0).2;
            evicted += 1;
        }
        stats.evictions += evicted;
        evicted
    }

    /// Random sequences of `get`, `get_resident`, `insert`, `set_bounds`
    /// (entry and byte caps set, lifted or kept) and `clear` against the
    /// cache and a [`Reference`]: after every step the returned values,
    /// the resident keys in recency order and the counters agree.
    #[test]
    fn the_resident_tier_matches_a_reference_lru() {
        use crate::loadgen::SplitMix64;
        use drmap_core::pareto::DesignPoint;
        let typical = approx_entry_bytes("k0", &result("v0")) as u64;
        for seed in 0..24 {
            let mut rng = SplitMix64::new(seed);
            let cache = DseCache::new();
            let (mut lru, mut stats, mut bounds) =
                (Reference::new(), CacheStats::default(), (None, None));
            for step in 0..600u64 {
                let i = rng.next_u64() % 12;
                let key = format!("k{i}{}", "-".repeat(i as usize));
                let at = lru.iter().position(|(k, ..)| *k == key);
                match rng.next_u64() % 20 {
                    op @ 0..=9 => {
                        let got = if op < 7 {
                            cache.get(&key)
                        } else {
                            cache.get_resident(&key)
                        };
                        let want = at.map(|at| {
                            let entry = lru.remove(at);
                            let value = entry.1.clone();
                            lru.push(entry);
                            value
                        });
                        stats.hits += u64::from(want.is_some());
                        stats.misses += u64::from(op < 7 && want.is_none());
                        assert_eq!(
                            format!("{got:?}"),
                            format!("{want:?}"),
                            "seed {seed} step {step}"
                        );
                    }
                    10..=16 => {
                        let mut value = result(&format!("v{step}"));
                        let estimate = value.best.estimate;
                        value.pareto = (0..rng.next_u64() % 4)
                            .map(|p| DesignPoint::new(format!("p{p}"), estimate))
                            .collect();
                        cache.insert(key.clone(), value.clone());
                        if let Some(at) = at {
                            stats.bytes -= lru.remove(at).2;
                        }
                        let bytes = approx_entry_bytes(&key, &value);
                        stats.bytes += bytes;
                        lru.push((key, value, bytes));
                        evict(&mut lru, &mut stats, bounds);
                    }
                    17..=18 => {
                        let mut draw = |cap: u64| match rng.next_u64() % 3 {
                            0 => None,
                            1 => Some(None),
                            _ => Some(Some((rng.next_u64() % cap) as usize)),
                        };
                        let (entries, bytes) = (draw(12), draw(typical * 8));
                        let (previous, evicted) = cache.set_bounds(entries, bytes);
                        assert_eq!(previous, bounds, "seed {seed} step {step}");
                        bounds = (entries.unwrap_or(bounds.0), bytes.unwrap_or(bounds.1));
                        assert_eq!(
                            evicted,
                            evict(&mut lru, &mut stats, bounds),
                            "seed {seed} step {step}"
                        );
                    }
                    _ => {
                        cache.clear();
                        (lru, stats) = (Reference::new(), CacheStats::default());
                    }
                }
                let keys: Vec<String> = lru.iter().map(|(k, ..)| k.clone()).collect();
                assert_eq!(resident_keys(&cache), keys, "seed {seed} step {step}");
                let entries = lru.len();
                assert_eq!(
                    cache.stats(),
                    CacheStats { entries, ..stats },
                    "seed {seed} step {step}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_computation_becomes_an_error() {
        let cache = DseCache::new();
        let err = cache
            .get_or_compute("k", || panic!("exploration bug"))
            .unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(err.to_string().contains("exploration bug"), "{err}");
        // The cache is still fully usable afterwards (no poisoning).
        let (_, outcome) = cache.get_or_compute("k", || Ok(result("x"))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.stats().entries, 1);
    }
}
