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
//! Each fresh exploration is timed and the duration persisted alongside
//! its result; [`CacheStats`] exposes min/max/total over every recorded
//! measurement.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use drmap_core::bytes::{decode_stored_result, encode_stored_result};
use drmap_core::dse::LayerDseResult;
use drmap_core::error::DseError;
use drmap_store::store::Store;
use drmap_telemetry::Histogram;

use crate::error::panic_message;
use crate::spec::CacheMode;
use crate::sync::lock_recovered;

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

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

impl CacheStats {
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

/// Sentinel index for "no node" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// One resident entry: the value plus its LRU-list links.
#[derive(Debug)]
struct Entry {
    key: String,
    value: LayerDseResult,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// A slab slot: occupied by an entry or a link in the free list.
#[derive(Debug)]
enum Slot {
    Occupied(Entry),
    Free { next_free: usize },
}

/// The state a leader publishes to its waiters.
#[derive(Debug)]
struct Flight {
    done: Mutex<Option<Result<LayerDseResult, DseError>>>,
    cv: Condvar,
}

/// Everything guarded by the cache's one mutex. Keeping the counters
/// here (not in separate atomics) makes [`DseCache::stats`] a single
/// consistent snapshot: it can never report, say, resident entries with
/// zero recorded misses.
#[derive(Debug, Default)]
struct Inner {
    /// key → slab index of the resident entry.
    map: HashMap<String, usize>,
    /// Entry storage; freed slots are chained into a free list.
    slab: Vec<Slot>,
    /// Most-recently-used entry (head of the intrusive list).
    head: usize,
    /// Least-recently-used entry (tail of the intrusive list).
    tail: usize,
    /// Head of the slab free list.
    free: usize,
    /// Approximate resident bytes.
    bytes: usize,
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
    hits: u64,
    misses: u64,
    coalesced: u64,
    bypasses: u64,
    refreshes: u64,
    evictions: u64,
    store_hits: u64,
    store_misses: u64,
    store_errors: u64,
    compute_ns_min: u64,
    compute_ns_max: u64,
    compute_ns_total: u64,
}

impl Inner {
    fn new(config: &CacheConfig) -> Self {
        Inner {
            head: NIL,
            tail: NIL,
            free: NIL,
            max_entries: config.max_entries,
            max_bytes: config.max_bytes,
            ..Inner::default()
        }
    }

    fn entry(&self, index: usize) -> &Entry {
        match &self.slab[index] {
            Slot::Occupied(e) => e,
            Slot::Free { .. } => unreachable!("LRU list points at a free slot"),
        }
    }

    fn entry_mut(&mut self, index: usize) -> &mut Entry {
        match &mut self.slab[index] {
            Slot::Occupied(e) => e,
            Slot::Free { .. } => unreachable!("LRU list points at a free slot"),
        }
    }

    /// Detach `index` from the LRU list (it must be linked).
    fn unlink(&mut self, index: usize) {
        let (prev, next) = {
            let e = self.entry(index);
            (e.prev, e.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.entry_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entry_mut(next).prev = prev;
        }
    }

    /// Link `index` at the head (most recently used).
    fn push_front(&mut self, index: usize) {
        let old_head = self.head;
        {
            let e = self.entry_mut(index);
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.entry_mut(old_head).prev = index;
        }
        self.head = index;
        if self.tail == NIL {
            self.tail = index;
        }
    }

    /// Move an already-resident entry to the head.
    fn touch(&mut self, index: usize) {
        if self.head != index {
            self.unlink(index);
            self.push_front(index);
        }
    }

    /// Serve `key` from the resident tier if it is there: count the
    /// hit, refresh the entry's recency, clone the value out. A miss
    /// changes nothing — the caller decides what a miss counts as.
    fn hit(&mut self, key: &str) -> Option<LayerDseResult> {
        let index = self.map.get(key).copied()?;
        self.hits += 1;
        self.touch(index);
        Some(self.entry(index).value.clone())
    }

    /// Remove the entry at `index` entirely, returning its slot to the
    /// free list and its bytes to the budget.
    fn remove(&mut self, index: usize) {
        self.unlink(index);
        let free = self.free;
        let slot = std::mem::replace(&mut self.slab[index], Slot::Free { next_free: free });
        self.free = index;
        match slot {
            Slot::Occupied(e) => {
                self.bytes -= e.bytes;
                self.map.remove(&e.key);
            }
            Slot::Free { .. } => unreachable!("removed a free slot"),
        }
    }

    /// Store `value` under `key` as the most-recently-used entry, then
    /// evict least-recently-used entries until the bounds hold. If the
    /// new entry alone exceeds the byte bound it is evicted too — the
    /// cache never exceeds its configured limits.
    fn insert(&mut self, key: String, value: LayerDseResult, compute_ns: u64) {
        // A nonzero duration is a measurement (fresh computation or
        // store revival): fold it into the monotonic aggregates. Kept
        // O(1) here so `stats()` never has to walk the slab under the
        // cache's one mutex.
        if compute_ns > 0 {
            self.compute_ns_total += compute_ns;
            self.compute_ns_max = self.compute_ns_max.max(compute_ns);
            self.compute_ns_min = if self.compute_ns_min == 0 {
                compute_ns
            } else {
                self.compute_ns_min.min(compute_ns)
            };
        }
        if let Some(&index) = self.map.get(&key) {
            let bytes = approx_entry_bytes(&key, &value);
            let e = self.entry_mut(index);
            let old_bytes = e.bytes;
            e.value = value;
            e.bytes = bytes;
            self.bytes = self.bytes - old_bytes + bytes;
            self.touch(index);
        } else {
            let bytes = approx_entry_bytes(&key, &value);
            let entry = Entry {
                key: key.clone(),
                value,
                bytes,
                prev: NIL,
                next: NIL,
            };
            let index = if self.free != NIL {
                let index = self.free;
                match self.slab[index] {
                    Slot::Free { next_free } => self.free = next_free,
                    Slot::Occupied(_) => unreachable!("free list points at an occupied slot"),
                }
                self.slab[index] = Slot::Occupied(entry);
                index
            } else {
                self.slab.push(Slot::Occupied(entry));
                self.slab.len() - 1
            };
            self.map.insert(key, index);
            self.bytes += bytes;
            self.push_front(index);
        }
        self.enforce_bounds();
    }

    fn over_bounds(&self) -> bool {
        self.max_entries.is_some_and(|n| self.map.len() > n)
            || self.max_bytes.is_some_and(|n| self.bytes > n)
    }

    /// Evict least-recently-used entries until the **live** bounds
    /// hold — the construction-time config is consulted only at
    /// [`Inner::new`]; `set-bounds` retunes the copies kept here.
    fn enforce_bounds(&mut self) {
        while self.over_bounds() && self.tail != NIL {
            self.remove(self.tail);
            self.evictions += 1;
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
            inner: Mutex::new(Inner::new(&config)),
            store: Some(store),
            metrics: OnceLock::new(),
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
        let evictions_before = inner.evictions;
        inner.enforce_bounds();
        (previous, inner.evictions - evictions_before)
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
            inner.misses += 1;
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
            lock_recovered(&self.inner).bypasses += 1;
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
                        inner.coalesced += 1;
                        break (flight, false);
                    }
                    Some(flight) => Some(flight),
                    None => {
                        inner.misses += 1;
                        if mode == CacheMode::Refresh {
                            inner.refreshes += 1;
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
                        lock_recovered(&self.inner).store_hits += 1;
                        outcome = CacheOutcome::StoreHit;
                        compute_ns = stored_ns;
                        break 'produce Ok(value);
                    }
                    (Ok(Some(_)), _) => lock_recovered(&self.inner).store_errors += 1,
                    (Ok(None), _) => lock_recovered(&self.inner).store_misses += 1,
                    (Err(_), _) => lock_recovered(&self.inner).store_errors += 1,
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
                    lock_recovered(&self.inner).store_errors += 1;
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
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            bypasses: inner.bypasses,
            refreshes: inner.refreshes,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
            store_hits: inner.store_hits,
            store_misses: inner.store_misses,
            store_errors: inner.store_errors,
            compute_ns_min: inner.compute_ns_min,
            compute_ns_max: inner.compute_ns_max,
            compute_ns_total: inner.compute_ns_total,
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
                    lock_recovered(&self.inner).store_errors += loaded.damaged;
                }
                loaded.entries
            }
            Err(_) => {
                lock_recovered(&self.inner).store_errors += 1;
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
                Err(_) => lock_recovered(&self.inner).store_errors += 1,
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
        inner.slab.clear();
        inner.head = NIL;
        inner.tail = NIL;
        inner.free = NIL;
        inner.bytes = 0;
        inner.hits = 0;
        inner.misses = 0;
        inner.coalesced = 0;
        inner.bypasses = 0;
        inner.refreshes = 0;
        inner.evictions = 0;
        inner.store_hits = 0;
        inner.store_misses = 0;
        inner.store_errors = 0;
        inner.compute_ns_min = 0;
        inner.compute_ns_max = 0;
        inner.compute_ns_total = 0;
    }
}

/// Fixed per-entry overhead the byte accounting charges on top of the
/// structures it can measure directly: the `HashMap`'s load-factor
/// slack (hashbrown keeps at most 7/8 of its slots occupied, so every
/// resident entry drags ~1/7 of a spare `(String, usize)` slot plus
/// control bytes), and malloc rounding on the entry's three heap
/// allocations (two key `String`s and the value's `Vec`s, each rounded
/// up to an allocator size class — typically up to 16 bytes each).
/// A single constant keeps the accounting O(1) and honest on average;
/// see `byte_bound_is_never_exceeded` for the invariant it protects.
const PER_ENTRY_OVERHEAD_BYTES: usize = 56;

/// Approximate resident footprint of one entry: both copies of the key
/// (map key + reverse-lookup copy in the entry), the map slot that
/// holds the key copy and slab index, the fixed-size parts, every heap
/// allocation hanging off the value, and the fixed
/// [`PER_ENTRY_OVERHEAD_BYTES`] for what the allocator and `HashMap`
/// add beyond them.
fn approx_entry_bytes(key: &str, value: &LayerDseResult) -> usize {
    let fixed = std::mem::size_of::<Entry>()
        + std::mem::size_of::<(String, usize)>() // the map's (key, index) slot
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
