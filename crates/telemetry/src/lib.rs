//! # drmap-telemetry
//!
//! Std-only, low-overhead metrics and tracing for the DRMap service
//! stack. No globals, no background threads, no external crates: a
//! [`MetricsRegistry`] is plain data owned by whoever builds the
//! service, and every recording primitive is a handful of relaxed
//! atomic operations.
//!
//! Four pieces:
//!
//! * [`Counter`] / [`Gauge`] — monotonic and up/down atomics;
//! * [`Histogram`] — a fixed-bucket **log-linear** latency histogram
//!   (64 octaves × 8 sub-buckets over `u64` nanoseconds, ≤12.5%
//!   relative bucket error). `record` is lock-free; `Histogram::snapshot`
//!   yields a mergeable [`HistogramSnapshot`] exposing
//!   p50/p95/p99/p999;
//! * [`Span`] — an RAII timer (`Span::enter("explore", &hist)`) that
//!   records its elapsed nanoseconds into a histogram on drop, and
//!   optionally into a per-request [`Trace`] stage breakdown;
//! * [`SlowLog`] — a bounded ring buffer of the slowest requests
//!   (those whose [`Trace`] total exceeded a runtime threshold), each
//!   with its per-stage span breakdown.
//!
//! Snapshots are plain vectors of `(name, value)` pairs so any codec
//! can serialize them; [`MetricsSnapshot::to_prometheus`] renders the
//! conventional text exposition client-side.
//!
//! ```
//! use drmap_telemetry::{MetricsRegistry, Span};
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("requests_total");
//! let latency = registry.histogram("request_ns");
//! {
//!     let _span = Span::enter("request", &latency);
//!     requests.inc();
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("requests_total"), Some(1));
//! assert_eq!(snap.histogram("request_ns").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Every structure here is a bag of atomics or append-only state, so a
/// poisoned lock never implies a broken invariant.
fn lock_recovered<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a value that can go up and down (open connections,
/// queue depth, live cache bounds).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub(crate) fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power-of-two
/// octave, bounding the relative quantile error at 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: values below
/// `SUB` get one exact bucket each, every octave above contributes
/// `SUB` linear sub-buckets.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Map a recorded value to its bucket index.
///
/// Values below `SUB` map to themselves (exact). For larger values the
/// index is `(octave - SUB_BITS + 1) * SUB + sub` where `octave` is the
/// position of the highest set bit and `sub` the next `SUB_BITS` bits —
/// the classic HdrHistogram-style log-linear layout.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
    (octave - SUB_BITS + 1) as usize * SUB + sub
}

/// The largest value that maps to bucket `index` (saturating at
/// `u64::MAX` for the top octave).
fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let octave = index / SUB - 1 + SUB_BITS as usize;
    let sub = index % SUB;
    let upper = ((SUB + sub + 1) as u128) << (octave as u32 - SUB_BITS);
    u64::try_from(upper - 1).unwrap_or(u64::MAX)
}

/// A fixed-bucket log-linear histogram over `u64` samples
/// (nanoseconds, by convention). [`Histogram::record`] is lock-free —
/// one relaxed `fetch_add` per bucket/count/sum, plus `fetch_min`/
/// `fetch_max` for a sample past a value already read — so it is safe
/// on the DSE hot path.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = match buckets.into_boxed_slice().try_into() {
            Ok(array) => array,
            Err(_) => unreachable!("vector was built with exactly BUCKETS elements"),
        };
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // `min` only falls and `max` only rises, so a sample no more
        // extreme than a value already read cannot move them: skip the
        // read-modify-write (a locked compare-exchange loop) then.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the distribution. Concurrent `record`
    /// calls may straddle the copy (a sample visible in `count` but not
    /// yet its bucket, or vice versa); the snapshot normalizes `count`
    /// to the bucket total so quantile walks are always consistent.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (index, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((index as u32, n));
            }
        }
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A mergeable point-in-time copy of a [`Histogram`]: the non-empty
/// buckets as sparse `(index, count)` pairs plus count/sum/min/max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples across all buckets.
    pub count: u64,
    /// Sum of all recorded values (wrapping add on overflow).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Sparse non-empty buckets, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The quantile `q` in `[0, 1]`, as the upper bound of the bucket
    /// containing that rank, clamped to the observed `[min, max]`. The
    /// log-linear layout bounds the relative error at 12.5%. Returns 0
    /// for an empty snapshot.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(index as usize).clamp(self.min, self.max.max(self.min));
            }
        }
        self.max
    }

    /// Median (see `HistogramSnapshot::quantile`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another snapshot into this one (elementwise bucket sums;
    /// min/max/count/sum combine the obvious way). Merging is
    /// commutative and associative, so per-shard snapshots can be
    /// folded in any order.
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = match (self.count - other.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
    }
}

// ---------------------------------------------------------------------------
// Registry + snapshot
// ---------------------------------------------------------------------------

/// A global-free registry of named counters, gauges, and histograms.
///
/// Handles are `Arc`s: resolve them **once** at startup (the maps are
/// behind mutexes) and record through the handle on hot paths.
/// [`MetricsRegistry::snapshot`] copies everything into a plain,
/// serializable [`MetricsSnapshot`].
#[derive(Debug)]
pub struct MetricsRegistry {
    start: Instant,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            start: Instant::now(),
            counters: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
        }
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Milliseconds since the registry was created — the process uptime
    /// for a registry built at boot.
    pub(crate) fn uptime_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            lock_recovered(&self.counters)
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            lock_recovered(&self.gauges)
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            lock_recovered(&self.histograms)
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// A point-in-time copy of every metric, sorted by name. Each
    /// snapshot refreshes the `uptime_seconds` gauge first, so every
    /// scrape carries the process age without a background updater.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.gauge("uptime_seconds")
            .set(i64::try_from(self.uptime_ms() / 1000).unwrap_or(i64::MAX));
        MetricsSnapshot {
            counters: lock_recovered(&self.counters)
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: lock_recovered(&self.gauges)
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: lock_recovered(&self.histograms)
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A serializable point-in-time copy of a [`MetricsRegistry`]: plain
/// name/value vectors, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Merge another snapshot into this one: same-name metrics combine
    /// (counters add, gauges add, histograms merge), new names are
    /// inserted in sorted position. Associative and commutative, so
    /// per-worker or per-process snapshots fold in any order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn fold<V: Clone>(
            into: &mut Vec<(String, V)>,
            from: &[(String, V)],
            combine: impl Fn(&mut V, &V),
        ) {
            for (name, value) in from {
                match into.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                    Ok(i) => combine(&mut into[i].1, value),
                    Err(i) => into.insert(i, (name.clone(), value.clone())),
                }
            }
        }
        fold(&mut self.counters, &other.counters, |a, b| *a += *b);
        fold(&mut self.gauges, &other.gauges, |a, b| *a += *b);
        fold(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// Render the snapshot as a Prometheus-style text exposition: each
    /// metric prefixed `drmap_`, counters and gauges as single samples,
    /// histograms as summaries (`quantile` labels plus `_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "# TYPE drmap_{name} counter\ndrmap_{name} {value}\n"
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "# TYPE drmap_{name} gauge\ndrmap_{name} {value}\n"
            ));
        }
        // Derived convenience gauge: scrapers get the cache hit ratio
        // without dividing raw counters themselves. Never registered
        // (it is computed per exposition), so it lives outside the
        // taxonomy tables.
        if let (Some(hits), Some(misses)) = (
            self.counter("cache_hits_total"),
            self.counter("cache_misses_total"),
        ) {
            let lookups = hits + misses;
            if lookups > 0 {
                out.push_str(&format!(
                    "# TYPE drmap_cache_hit_ratio gauge\ndrmap_cache_hit_ratio {:.6}\n",
                    hits as f64 / lookups as f64
                ));
            }
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE drmap_{name} summary\n"));
            for (label, q) in [
                ("0.5", 0.50),
                ("0.95", 0.95),
                ("0.99", 0.99),
                ("0.999", 0.999),
            ] {
                out.push_str(&format!(
                    "drmap_{name}{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("drmap_{name}_sum {}\n", h.sum));
            out.push_str(&format!("drmap_{name}_count {}\n", h.count));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Span + Trace
// ---------------------------------------------------------------------------

/// An RAII timer: created with [`Span::enter`], it records its elapsed
/// nanoseconds into the given [`Histogram`] when dropped — and, if
/// attached to a [`Trace`] via [`Span::traced`], adds the duration to
/// that request's per-stage breakdown under the span's name. It borrows
/// both, so it costs two clock reads and a record, no reference counting.
#[must_use = "a span records on drop; binding it to _ discards the timing immediately"]
pub struct Span<'a> {
    name: &'static str,
    hist: &'a Histogram,
    trace: Option<&'a Trace>,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Start a named span recording into `hist` on drop.
    pub fn enter(name: &'static str, hist: &'a Histogram) -> Span<'a> {
        Span {
            name,
            hist,
            trace: None,
            start: Instant::now(),
        }
    }

    /// Attach the span to a per-request trace (no-op when `None`, so
    /// untraced paths pay nothing extra).
    pub fn traced(mut self, trace: Option<&'a Arc<Trace>>) -> Span<'a> {
        self.trace = trace.map(|trace| &**trace);
        self
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(ns);
        if let Some(trace) = &self.trace {
            trace.add(self.name, ns);
        }
    }
}

/// A per-request trace: the wire `id`, a start instant, and an
/// aggregated per-stage nanosecond breakdown fed by [`Span::traced`].
#[derive(Debug)]
pub struct Trace {
    id: u64,
    start: Instant,
    stages: Mutex<Vec<(&'static str, u64)>>,
}

impl Trace {
    /// Start a trace for request `id` (the wire job id).
    pub fn new(id: u64) -> Arc<Trace> {
        Arc::new(Trace {
            id,
            start: Instant::now(),
            stages: Mutex::new(Vec::new()),
        })
    }

    /// The request id this trace belongs to.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Nanoseconds since the trace started.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Add `ns` to stage `name` (same-name stages aggregate, e.g. one
    /// `cache_lookup` per layer of a network job).
    pub fn add(&self, name: &'static str, ns: u64) {
        let mut stages = lock_recovered(&self.stages);
        match stages.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += ns,
            None => stages.push((name, ns)),
        }
    }

    /// The aggregated per-stage breakdown, in first-recorded order.
    pub(crate) fn stages(&self) -> Vec<(&'static str, u64)> {
        lock_recovered(&self.stages).clone()
    }
}

// ---------------------------------------------------------------------------
// Slow-request log
// ---------------------------------------------------------------------------

/// One slow request: its trace id, total latency, and per-stage span
/// breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// The wire `id` of the slow job.
    pub trace_id: u64,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Aggregated `(stage, nanoseconds)` pairs from the trace.
    pub stages: Vec<(String, u64)>,
}

/// A bounded ring buffer of the most recent slow requests. The
/// threshold **and** the ring capacity are runtime-tunable;
/// `u64::MAX` (the default threshold) disables logging entirely, `0`
/// logs every observed request.
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: AtomicU64,
    capacity: AtomicUsize,
    entries: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    /// A disabled slow log keeping at most `capacity` entries once a
    /// threshold is set.
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            threshold_ns: AtomicU64::new(u64::MAX),
            capacity: AtomicUsize::new(capacity.max(1)),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Set the slow threshold in milliseconds (`0` logs everything).
    pub fn set_threshold_ms(&self, ms: u64) {
        self.threshold_ns
            .store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// The current threshold in nanoseconds (`u64::MAX` = disabled).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// The current ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Retune the ring capacity live (clamped to at least 1).
    /// Shrinking evicts the oldest entries immediately.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut entries = lock_recovered(&self.entries);
        while entries.len() > capacity {
            entries.pop_front();
        }
    }

    /// Record a finished request if it crossed the threshold; returns
    /// its total nanoseconds either way. The oldest entry is evicted
    /// once the ring is full.
    pub fn observe(&self, trace: &Trace) -> u64 {
        let total_ns = trace.elapsed_ns();
        if total_ns >= self.threshold_ns.load(Ordering::Relaxed) {
            let entry = SlowEntry {
                trace_id: trace.id(),
                total_ns,
                stages: trace
                    .stages()
                    .into_iter()
                    .map(|(name, ns)| (name.to_owned(), ns))
                    .collect(),
            };
            let capacity = self.capacity.load(Ordering::Relaxed);
            let mut entries = lock_recovered(&self.entries);
            while entries.len() >= capacity {
                entries.pop_front();
            }
            entries.push_back(entry);
        }
        total_ns
    }

    /// The logged entries, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        lock_recovered(&self.entries).iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

    #[test]
    fn bucket_index_and_bounds_agree_across_the_range() {
        // Every probe value must land in a bucket whose upper bound is
        // >= the value, and the *previous* bucket's bound must be < it.
        let probes: Vec<u64> = (0..=20)
            .flat_map(|p| {
                let base = 1u64 << p;
                [base.saturating_sub(1), base, base + 1, base * 3 / 2]
            })
            .chain([u64::MAX / 2, u64::MAX - 1, u64::MAX])
            .collect();
        for v in probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(
                bucket_upper_bound(i) >= v,
                "upper bound {} < value {v}",
                bucket_upper_bound(i)
            );
            if i > 0 {
                assert!(
                    bucket_upper_bound(i - 1) < v,
                    "value {v} should not fit bucket {}",
                    i - 1
                );
            }
        }
    }

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        // Exact p50 is 500; log-linear error is bounded at 12.5%.
        let p50 = snap.p50();
        assert!((500..=563).contains(&p50), "p50 {p50}");
        let p99 = snap.p99();
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert!(snap.p50() <= snap.p95());
        assert!(snap.p95() <= snap.p99());
        assert!(snap.p99() <= snap.p999());
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn registry_handles_are_shared_and_snapshots_sorted() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("b_second");
        let b = registry.counter("b_second");
        a.inc();
        b.add(2);
        registry.counter("a_first").inc();
        registry.gauge("depth").set(-3);
        registry.histogram("lat_ns").record(7);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_first".to_owned(), 1), ("b_second".to_owned(), 3)]
        );
        assert_eq!(snap.gauge("depth"), Some(-3));
        assert_eq!(snap.histogram("lat_ns").unwrap().count, 1);
    }

    #[test]
    fn span_records_into_histogram_and_trace() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("stage_ns");
        let trace = Trace::new(42);
        {
            let _span = Span::enter("stage", &hist).traced(Some(&trace));
        }
        {
            let _span = Span::enter("stage", &hist).traced(Some(&trace));
        }
        assert_eq!(hist.snapshot().count, 2);
        let stages = trace.stages();
        assert_eq!(stages.len(), 1, "same-name stages aggregate");
        assert_eq!(stages[0].0, "stage");
        assert_eq!(trace.id(), 42);
    }

    #[test]
    fn slow_log_honors_threshold_and_capacity() {
        let log = SlowLog::new(2);
        // Disabled by default: nothing is recorded.
        log.observe(&Trace::new(1));
        assert!(log.entries().is_empty());
        // Threshold 0 records everything; the ring keeps the last 2.
        log.set_threshold_ms(0);
        for id in 2..=4 {
            let trace = Trace::new(id);
            trace.add("stage", 5);
            log.observe(&trace);
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].trace_id, 3);
        assert_eq!(entries[1].trace_id, 4);
        assert_eq!(entries[1].stages, vec![("stage".to_owned(), 5)]);
    }

    #[test]
    fn slow_log_capacity_retunes_live() {
        let log = SlowLog::new(4);
        assert_eq!(log.capacity(), 4);
        log.set_threshold_ms(0);
        for id in 1..=4 {
            log.observe(&Trace::new(id));
        }
        assert_eq!(log.entries().len(), 4);
        // Shrinking evicts the oldest immediately …
        log.set_capacity(2);
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].trace_id, 3);
        // … growing admits more, and 0 clamps to 1.
        log.set_capacity(3);
        for id in 5..=9 {
            log.observe(&Trace::new(id));
        }
        assert_eq!(log.entries().len(), 3);
        log.set_capacity(0);
        assert_eq!(log.capacity(), 1);
        assert_eq!(log.entries().len(), 1);
    }

    #[test]
    fn uptime_gauge_appears_on_every_snapshot() {
        let registry = MetricsRegistry::new();
        let snap = registry.snapshot();
        assert!(snap.gauge("uptime_seconds").is_some());
        assert!(snap.gauge("uptime_seconds").unwrap() >= 0);
    }

    #[test]
    fn cache_hit_ratio_is_derived_in_the_exposition() {
        let registry = MetricsRegistry::new();
        registry.counter("cache_hits_total").add(3);
        registry.counter("cache_misses_total").add(1);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE drmap_cache_hit_ratio gauge"));
        assert!(text.contains("drmap_cache_hit_ratio 0.750000"));
        // No lookups yet → no ratio line (avoid 0/0).
        let empty = MetricsRegistry::new();
        empty.counter("cache_hits_total");
        empty.counter("cache_misses_total");
        assert!(!empty.snapshot().to_prometheus().contains("cache_hit_ratio"));
    }

    #[test]
    fn prometheus_exposition_covers_every_metric() {
        let registry = MetricsRegistry::new();
        registry.counter("requests_total").add(3);
        registry.gauge("connections_open").set(1);
        registry.histogram("request_ns").record(1000);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE drmap_requests_total counter"));
        assert!(text.contains("drmap_requests_total 3"));
        assert!(text.contains("# TYPE drmap_connections_open gauge"));
        assert!(text.contains("drmap_connections_open 1"));
        assert!(text.contains("# TYPE drmap_request_ns summary"));
        assert!(text.contains("drmap_request_ns{quantile=\"0.5\"}"));
        assert!(text.contains("drmap_request_ns_count 1"));
    }

    /// Exact quantile of a sorted sample vector, matching the
    /// ceil-rank convention the snapshot uses.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Recorded-sample quantiles agree with exact quantiles to
        /// within the documented 12.5% bucket error.
        #[test]
        fn histogram_quantiles_are_within_bucket_error(
            samples in proptest::collection::vec(1u64..1_000_000_000, 1..300),
            q in 0.01f64..1.0,
        ) {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let snap = h.snapshot();
            prop_assert_eq!(snap.count, samples.len() as u64);
            let exact = exact_quantile(&sorted, q);
            let estimate = snap.quantile(q);
            // The estimate is a bucket upper bound clamped to the
            // observed max: never below the exact value's bucket lower
            // bound, never more than one sub-bucket (12.5%) above it.
            prop_assert!(
                estimate >= exact || bucket_index(estimate) >= bucket_index(exact),
                "estimate {} under exact {}", estimate, exact
            );
            prop_assert!(
                estimate <= exact + exact / 8 + 1,
                "estimate {} overshoots exact {}", estimate, exact
            );
        }

        /// Snapshot merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c),
        /// and merging equals recording everything into one histogram.
        #[test]
        fn snapshot_merge_is_associative(
            a in proptest::collection::vec(0u64..1_000_000, 0..100),
            b in proptest::collection::vec(0u64..1_000_000, 0..100),
            c in proptest::collection::vec(0u64..1_000_000, 0..100),
        ) {
            let hist = |samples: &[u64]| {
                let h = Histogram::new();
                for &v in samples {
                    h.record(v);
                }
                h.snapshot()
            };
            let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));

            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);

            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);

            prop_assert_eq!(&left, &right);

            let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
            prop_assert_eq!(&left, &hist(&all));
        }
    }
}
