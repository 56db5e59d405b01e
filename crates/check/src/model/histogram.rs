//! Models of the telemetry `Histogram` record / snapshot / merge
//! path.
//!
//! `Histogram::record` is two relaxed atomic RMWs in a fixed order —
//! `buckets[b].fetch_add(1)`, then `sum.fetch_add(v)` — and `snapshot`
//! reads the same fields without any lock, buckets first, and derives
//! the count from the buckets. (The `fetch_min`/`fetch_max` that follow
//! touch only the extremes, which no merge sums.) These models mirror
//! that structure step for step and let the explorer prove, over
//! **every** interleaving:
//!
//! * no lost updates: the quiescent histogram is exact, and the
//!   associative merge of per-thread snapshots equals it bit for bit
//!   (the property the router's fleet-wide `metrics` aggregation
//!   relies on);
//! * bounded tearing: a snapshot taken mid-flight is never *ahead* of
//!   the writes that actually happened, field by field.

use super::Model;

const MAX_THREADS: usize = 4;
const BUCKETS: usize = 2;

/// A per-thread or merged snapshot: the mergeable fields of
/// `telemetry::HistogramSnapshot` (bucket counts and sum; its count is
/// the bucket total).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snap {
    /// Per-bucket counts.
    pub buckets: [u64; BUCKETS],
    /// Sum of samples.
    pub sum: u64,
}

impl Snap {
    const ZERO: Snap = Snap {
        buckets: [0; BUCKETS],
        sum: 0,
    };

    /// Total samples, as `snapshot` derives it: the bucket total.
    fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise addition — the exact merge `HistogramSnapshot::merge`
    /// performs.
    pub fn merge(self, other: Snap) -> Snap {
        Snap {
            buckets: [
                self.buckets[0] + other.buckets[0],
                self.buckets[1] + other.buckets[1],
            ],
            sum: self.sum + other.sum,
        }
    }
}

/// Four recorder threads record one value each into a **shared**
/// histogram; each record is the two atomic sub-steps of
/// `Histogram::record`, freely interleaved. At quiescence the model
/// checks the shared state is exact and equals every association
/// order of merging the per-thread contributions.
#[derive(Debug, Clone, Copy)]
pub struct HistogramMergeModel {
    /// Number of recorder threads (≤ 4).
    pub threads: usize,
    /// The value thread `i` records (also selects its bucket).
    pub values: [u64; MAX_THREADS],
}

impl Default for HistogramMergeModel {
    fn default() -> Self {
        // 4 threads × 2 sub-steps: 8!/(2!·2!·2!·2!) = 2520 schedules,
        // ≥ the 1000 the CI gate demands.
        HistogramMergeModel {
            threads: 4,
            values: [5, 9, 12, 3],
        }
    }
}

const fn bucket_of(v: u64) -> usize {
    // A 2-bucket stand-in for the log-linear bucket index.
    if v < 8 {
        0
    } else {
        1
    }
}

/// The shared histogram plus each recorder's program counter.
#[derive(Debug, Clone, Copy)]
pub struct HistState {
    shared: Snap,
    pcs: [u8; MAX_THREADS],
}

impl Model for HistogramMergeModel {
    type State = HistState;

    fn name(&self) -> &'static str {
        "telemetry-histogram/record+merge"
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn init(&self) -> HistState {
        HistState {
            shared: Snap::ZERO,
            pcs: [0; MAX_THREADS],
        }
    }
    fn done(&self, s: &HistState, tid: usize) -> bool {
        s.pcs[tid] >= 2
    }
    fn enabled(&self, _s: &HistState, _tid: usize) -> bool {
        true // lock-free record: always runnable.
    }
    fn step(&self, s: &mut HistState, tid: usize) {
        let v = self.values[tid];
        match s.pcs[tid] {
            0 => s.shared.buckets[bucket_of(v)] += 1, // buckets[b].fetch_add(1)
            _ => s.shared.sum += v,                   // sum.fetch_add(v)
        }
        s.pcs[tid] += 1;
    }
    fn check_final(&self, s: &HistState) -> Result<(), String> {
        // The per-thread contribution snapshots (what each worker's
        // private histogram would hold).
        let contrib: Vec<Snap> = (0..self.threads)
            .map(|t| {
                let v = self.values[t];
                let mut one = Snap::ZERO;
                one.buckets[bucket_of(v)] = 1;
                one.sum = v;
                one
            })
            .collect();
        // Every association order must agree…
        let left = contrib
            .iter()
            .copied()
            .fold(Snap::ZERO, |acc, s| acc.merge(s));
        let right = contrib
            .iter()
            .rev()
            .copied()
            .fold(Snap::ZERO, |acc, s| s.merge(acc));
        if left != right {
            return Err(format!("merge is not associative: {left:?} != {right:?}"));
        }
        // …and equal the quiescent shared histogram: any difference is
        // a lost update.
        if s.shared != left {
            return Err(format!(
                "lost update: shared {:?} != merged contributions {left:?}",
                s.shared
            ));
        }
        Ok(())
    }
}

/// Two recorders interleave with one snapshotting thread that reads
/// the fields in `snapshot`'s order (buckets, then sum) and derives the
/// count from the buckets it read. The snapshot may legitimately
/// *tear* — the sum need not match the buckets — but no field may ever
/// exceed what the recorders have actually written, and the final
/// state must still be exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotTearModel;

/// Shared histogram, the observer's partial snapshot, and pcs
/// (threads 0..2 record, thread 2 snapshots).
#[derive(Debug, Clone, Copy)]
pub struct TearState {
    shared: Snap,
    observed: Snap,
    pcs: [u8; MAX_THREADS],
}

const TEAR_VALUES: [u64; 2] = [3, 11];

impl Model for SnapshotTearModel {
    type State = TearState;

    fn name(&self) -> &'static str {
        "telemetry-histogram/snapshot-tearing"
    }
    fn threads(&self) -> usize {
        3
    }
    fn init(&self) -> TearState {
        TearState {
            shared: Snap::ZERO,
            observed: Snap::ZERO,
            pcs: [0; MAX_THREADS],
        }
    }
    fn done(&self, s: &TearState, tid: usize) -> bool {
        s.pcs[tid] >= 2
    }
    fn enabled(&self, _s: &TearState, _tid: usize) -> bool {
        true
    }
    fn step(&self, s: &mut TearState, tid: usize) {
        if tid < 2 {
            let v = TEAR_VALUES[tid];
            match s.pcs[tid] {
                0 => s.shared.buckets[bucket_of(v)] += 1,
                _ => s.shared.sum += v,
            }
        } else {
            match s.pcs[tid] {
                0 => s.observed.buckets = s.shared.buckets,
                _ => s.observed.sum = s.shared.sum,
            }
        }
        s.pcs[tid] += 1;
    }
    fn check_step(&self, s: &TearState) -> Result<(), String> {
        // Monotone-read bound: the observer can never have seen more
        // than the recorders have written so far (and `shared` itself
        // only grows, so comparing against the current shared state is
        // conservative in the right direction).
        for b in 0..BUCKETS {
            if s.observed.buckets[b] > s.shared.buckets[b] {
                return Err(format!(
                    "snapshot read bucket {b} ahead of writes: {:?} > {:?}",
                    s.observed.buckets, s.shared.buckets
                ));
            }
        }
        if s.observed.count() > s.shared.count() || s.observed.sum > s.shared.sum {
            return Err(format!(
                "snapshot ahead of writes: observed {:?}, shared {:?}",
                s.observed, s.shared
            ));
        }
        Ok(())
    }
    fn check_final(&self, s: &TearState) -> Result<(), String> {
        let mut expect = Snap::ZERO;
        for v in TEAR_VALUES {
            expect.buckets[bucket_of(v)] += 1;
            expect.sum += v;
        }
        if s.shared != expect {
            return Err(format!(
                "lost update under a concurrent snapshot: {:?} != {expect:?}",
                s.shared
            ));
        }
        Ok(())
    }
}
