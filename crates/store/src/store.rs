//! The embedded store: an append-only log plus an in-memory index.
//!
//! [`Store::open`] replays the log front to back, keeping the **last**
//! record per key (append-only updates supersede, never overwrite) and
//! truncating at the first torn or corrupt record — the crash-recovery
//! contract of the record format. After open, the index maps every live
//! key to its value's file offset; [`Store::get`] reads exactly the
//! value bytes back (re-verifying their checksum against bit rot) and
//! [`Store::put`] appends a new record and repoints the index.
//!
//! Concurrency: the store is `Send + Sync`. Reads share one `RwLock`
//! read guard and use positioned reads, so any number of threads can
//! `get` concurrently; `put` and [`Store::compact`] take the write
//! guard. Appends go through a single handle whose offset only the
//! write guard advances, so records can never interleave.
//!
//! Durability: a `put` hands the record to the OS immediately but does
//! not `fsync`; a crash can lose the most recent appends yet never
//! corrupts the survivors (recovery truncates the torn tail).
//! [`Store::sync`] forces the log to stable storage; `compact` always
//! syncs before atomically swapping the rewritten log into place.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use drmap_telemetry::{elapsed_ns, Histogram};

use crate::error::StoreError;
use crate::record::{
    check_header, encode_record, header, read_record, record_len, RecordRead, HEADER_LEN,
    MAX_KEY_BYTES, MAX_VALUE_BYTES,
};

/// Key prefix reserved for system records. Nothing writes one today,
/// but logs from older servers hold `~slow/` slow-trace records, so
/// every reader treats the prefix as outside input: reserved keys live
/// in the same log and index as data keys, but the warm-start surface,
/// [`Store::bulk_load`], skips them,
/// so a cache warming from the store never tries to decode a system
/// record as a cached result.
pub const RESERVED_KEY_PREFIX: &str = "~";

/// Where a live key's value lives in the log.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Offset of the value payload (not the record header).
    value_offset: u64,
    /// Value payload length.
    value_len: u32,
    /// CRC-32 of the value payload alone, re-checked on every `get`.
    value_crc: u32,
    /// Append sequence, for recency ordering across restarts.
    seq: u64,
}

/// Everything the store's one `RwLock` guards.
#[derive(Debug)]
struct State {
    file: File,
    index: HashMap<String, IndexEntry>,
    end_offset: u64,
    next_seq: u64,
    records: u64,
    dead_records: u64,
    dead_bytes: u64,
    live_value_bytes: u64,
    appends: u64,
    compactions: u64,
    recovered_bytes: u64,
}

/// Counters and sizes, captured in one consistent snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct live keys.
    pub live_entries: usize,
    /// Records currently in the log (live + superseded).
    pub records: u64,
    /// Superseded records still occupying log space.
    pub dead_records: u64,
    /// Log size in bytes (header + records).
    pub file_bytes: u64,
    /// Bytes of live value payloads.
    pub live_value_bytes: u64,
    /// Bytes occupied by superseded records.
    pub dead_bytes: u64,
    /// Records appended since open.
    pub appends: u64,
    /// Lookups since open.
    pub gets: u64,
    /// Lookups that found a live key.
    pub hits: u64,
    /// Compactions run since open.
    pub compactions: u64,
    /// Torn/corrupt tail bytes truncated during open (read-only opens
    /// leave the file alone and merely skip these bytes).
    pub recovered_bytes: u64,
}

impl StoreStats {
    /// Fold `other` (another store's snapshot) into `self`: every
    /// field sums.
    pub fn merge(&mut self, other: &StoreStats) {
        let StoreStats {
            live_entries,
            records,
            dead_records,
            file_bytes,
            live_value_bytes,
            dead_bytes,
            appends,
            gets,
            hits,
            compactions,
            recovered_bytes,
        } = *other;
        self.live_entries += live_entries;
        self.records += records;
        self.dead_records += dead_records;
        self.file_bytes += file_bytes;
        self.live_value_bytes += live_value_bytes;
        self.dead_bytes += dead_bytes;
        self.appends += appends;
        self.gets += gets;
        self.hits += hits;
        self.compactions += compactions;
        self.recovered_bytes += recovered_bytes;
    }
}

/// What [`Store::bulk_load`] recovered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BulkLoad {
    /// Live `(key, value)` pairs, newest first.
    pub entries: Vec<(String, Vec<u8>)>,
    /// Live values skipped because they failed their checksum (on-disk
    /// bit rot since the log was opened) — surface these to operators
    /// so corruption is visible at warm-start time, not first query.
    pub damaged: u64,
}

/// What [`Store::compact`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Live records carried into the rewritten log.
    pub live_records: u64,
    /// Superseded records dropped.
    pub dropped_records: u64,
    /// Log size before, in bytes.
    pub bytes_before: u64,
    /// Log size after, in bytes.
    pub bytes_after: u64,
}

impl CompactReport {
    /// Fold `other` (another store's compaction) into `self`: every
    /// field sums.
    pub fn merge(&mut self, other: &CompactReport) {
        let CompactReport {
            live_records,
            dropped_records,
            bytes_before,
            bytes_after,
        } = *other;
        self.live_records += live_records;
        self.dropped_records += dropped_records;
        self.bytes_before += bytes_before;
        self.bytes_after += bytes_after;
    }
}

/// WAL latency histograms attached by [`Store::attach_metrics`]:
/// positioned-read, append, and compaction durations in nanoseconds.
#[derive(Debug)]
struct StoreMetrics {
    read_ns: Arc<Histogram>,
    write_ns: Arc<Histogram>,
    compact_ns: Arc<Histogram>,
}

/// Which public store operation a `FaultHook` is being consulted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// [`Store::get`].
    Get,
    /// [`Store::put`].
    Put,
    /// [`Store::compact`].
    Compact,
}

impl StoreOp {
    /// Stable lowercase name, for error messages and metrics labels.
    pub(crate) fn label(self) -> &'static str {
        match self {
            StoreOp::Get => "get",
            StoreOp::Put => "put",
            StoreOp::Compact => "compact",
        }
    }
}

/// What an attached `FaultHook` asks an operation to do: fail with an
/// [`StoreError::Injected`] error, or stall by the given jitter before
/// proceeding. `None` from the hook means proceed untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirective {
    /// Fail the operation with an injected error.
    Fail,
    /// Sleep this long, then run the operation normally.
    Delay(Duration),
}

/// A fault-injection callback consulted at the top of [`Store::get`],
/// [`Store::put`], and [`Store::compact`]. The store itself holds no
/// fault policy — the hook decides (deterministically seeded, in the
/// service layer), the store only obeys.
pub(crate) type FaultHook = Box<dyn Fn(StoreOp) -> Option<FaultDirective> + Send + Sync>;

/// A WAL-backed, content-addressed, crash-recovering key→bytes store.
pub struct Store {
    path: PathBuf,
    read_only: bool,
    state: RwLock<State>,
    gets: AtomicU64,
    hits: AtomicU64,
    metrics: OnceLock<StoreMetrics>,
    fault_hook: OnceLock<FaultHook>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual impl: the fault hook is an opaque closure.
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("read_only", &self.read_only)
            .finish_non_exhaustive()
    }
}

fn read_locked(lock: &RwLock<State>) -> RwLockReadGuard<'_, State> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_locked(lock: &RwLock<State>) -> RwLockWriteGuard<'_, State> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Read exactly `buf.len()` bytes at `offset` without moving any shared
/// cursor, so concurrent readers never race.
#[cfg(unix)]
fn read_exact_at(file: &File, _path: &Path, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Portable fallback: open a private handle and seek it.
#[cfg(not(unix))]
fn read_exact_at(_file: &File, path: &Path, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::Read;
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Write all of `buf` at `offset` in one positioned write, without
/// moving the handle's cursor: every write names its offset.
#[cfg(unix)]
fn write_all_at(file: &mut File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Portable fallback: seek the handle, then write.
#[cfg(not(unix))]
fn write_all_at(file: &mut File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

impl Store {
    /// Open (or create) the log at `path`, replaying it into an
    /// in-memory index. A torn or corrupt tail is truncated away —
    /// every record before it survives intact.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a file that is not a drmap-store log
    /// (wrong magic/version).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, false)
    }

    /// Open an existing log without any right to modify it: the file is
    /// never created, a torn/corrupt tail is *ignored* rather than
    /// truncated (the bytes are reported in
    /// [`StoreStats::recovered_bytes`]), and [`Store::put`],
    /// [`Store::compact`], and [`Store::sync`] return errors. This is
    /// the mode for inspecting a log another process may be writing.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including a missing file) or a file that
    /// is not a drmap-store log.
    pub fn open_read_only(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, true)
    }

    fn open_with(path: impl AsRef<Path>, read_only: bool) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(!read_only)
            .create(!read_only)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let mut recovered_bytes = 0u64;
        if file_len == 0 {
            if !read_only {
                file.write_all(&header())?;
                file.sync_all()?;
            }
        } else {
            let mut head = vec![0u8; HEADER_LEN.min(file_len) as usize];
            read_exact_at(&file, &path, &mut head, 0)?;
            check_header(&head).map_err(StoreError::Corrupt)?;
        }

        // Replay: last record per key wins; earlier ones are dead.
        let mut index: HashMap<String, IndexEntry> = HashMap::new();
        let mut offset = HEADER_LEN;
        let mut records = 0u64;
        let mut dead_records = 0u64;
        let mut dead_bytes = 0u64;
        let mut live_value_bytes = 0u64;
        let mut seq = 0u64;
        if file_len > HEADER_LEN {
            let mut scan = file.try_clone()?;
            scan.seek(SeekFrom::Start(HEADER_LEN))?;
            let mut reader = BufReader::new(scan);
            loop {
                match read_record(&mut reader)? {
                    RecordRead::Record { key, value } => {
                        let footprint = record_len(key.len(), value.len());
                        let entry = IndexEntry {
                            value_offset: offset + 12 + key.len() as u64,
                            value_len: value.len() as u32,
                            value_crc: crate::record::crc32(&[&value]),
                            seq,
                        };
                        seq += 1;
                        records += 1;
                        live_value_bytes += value.len() as u64;
                        if let Some(old) = index.insert(key.clone(), entry) {
                            dead_records += 1;
                            dead_bytes += record_len(key.len(), old.value_len as usize);
                            live_value_bytes -= u64::from(old.value_len);
                        }
                        offset += footprint;
                    }
                    RecordRead::Eof => break,
                    RecordRead::Corrupt { .. } => {
                        // Crash recovery: drop the bad tail. Everything
                        // at `offset` and beyond is gone; the index
                        // already holds only records before it. A
                        // read-only open must not touch the file — the
                        // "tail" may be another process's append still
                        // in flight — so it only skips the bytes.
                        recovered_bytes = file_len - offset;
                        if !read_only {
                            file.set_len(offset)?;
                            file.sync_all()?;
                        }
                        break;
                    }
                }
            }
        }
        Ok(Store {
            path,
            read_only,
            state: RwLock::new(State {
                file,
                index,
                end_offset: offset,
                next_seq: seq,
                records,
                dead_records,
                dead_bytes,
                live_value_bytes,
                appends: 0,
                compactions: 0,
                recovered_bytes,
            }),
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            metrics: OnceLock::new(),
            fault_hook: OnceLock::new(),
        })
    }

    /// Attach WAL latency histograms (read / append / compaction
    /// durations, nanoseconds). Recording is lock-free and the store
    /// runs unobserved — at zero cost — until this is called. A second
    /// attachment is ignored: the first handles win.
    pub fn attach_metrics(
        &self,
        read_ns: Arc<Histogram>,
        write_ns: Arc<Histogram>,
        compact_ns: Arc<Histogram>,
    ) {
        let _ = self.metrics.set(StoreMetrics {
            read_ns,
            write_ns,
            compact_ns,
        });
    }

    /// Attach a fault-injection hook consulted at the top of
    /// [`Store::get`], [`Store::put`], and [`Store::compact`]. Like
    /// [`Store::attach_metrics`], the first attachment wins and the
    /// store runs hook-free — at zero cost — until one is attached.
    pub fn attach_fault_hook(&self, hook: FaultHook) {
        let _ = self.fault_hook.set(hook);
    }

    /// Consult the fault hook (if any) for `op`: sleeps out a `Delay`
    /// directive, surfaces `Fail` as [`StoreError::Injected`].
    fn injected_fault(&self, op: StoreOp) -> Result<(), StoreError> {
        match self.fault_hook.get().and_then(|hook| hook(op)) {
            None => Ok(()),
            Some(FaultDirective::Delay(jitter)) => {
                std::thread::sleep(jitter);
                Ok(())
            }
            Some(FaultDirective::Fail) => Err(StoreError::injected(format!(
                "fault plan failed this {}",
                op.label()
            ))),
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        read_locked(&self.state).index.len()
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the value last stored under `key`. Concurrent callers
    /// proceed in parallel (shared read lock, positioned reads).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a checksum mismatch on the value bytes
    /// (on-disk bit rot since the log was opened).
    pub fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.injected_fault(StoreOp::Get)?;
        let start = Instant::now();
        let result = self.get_inner(key);
        if let Some(m) = self.metrics.get() {
            m.read_ns.record(elapsed_ns(start));
        }
        result
    }

    fn get_inner(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        // ordering: Relaxed — `gets`/`hits` are statistics counters
        // only; no reader infers anything about the log from them.
        self.gets.fetch_add(1, Ordering::Relaxed);
        let state = read_locked(&self.state);
        let Some(entry) = state.index.get(key).copied() else {
            return Ok(None);
        };
        let mut value = vec![0u8; entry.value_len as usize];
        read_exact_at(&state.file, &self.path, &mut value, entry.value_offset)?;
        drop(state);
        let crc = crate::record::crc32(&[&value]);
        if crc != entry.value_crc {
            return Err(StoreError::corrupt(format!(
                "value of key {key:?} fails its checksum (stored {:#010x}, read {crc:#010x})",
                entry.value_crc
            )));
        }
        // ordering: Relaxed — statistics counter, see `gets` above.
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(value))
    }

    /// Append `value` under `key`, superseding any earlier record. The
    /// bytes reach the OS before `put` returns but are not `fsync`ed
    /// (see the module docs on durability).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, payloads beyond the format's size caps, or
    /// a store opened read-only.
    pub fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.injected_fault(StoreOp::Put)?;
        let start = Instant::now();
        let result = self.put_inner(key, value);
        if let Some(m) = self.metrics.get() {
            m.write_ns.record(elapsed_ns(start));
        }
        result
    }

    fn put_inner(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.check_writable()?;
        if key.len() > MAX_KEY_BYTES {
            return Err(StoreError::invalid(format!(
                "key of {} bytes exceeds the {MAX_KEY_BYTES}-byte cap",
                key.len()
            )));
        }
        if value.len() > MAX_VALUE_BYTES {
            return Err(StoreError::invalid(format!(
                "value of {} bytes exceeds the {MAX_VALUE_BYTES}-byte cap",
                value.len()
            )));
        }
        let record = encode_record(key, value);
        let mut state = write_locked(&self.state);
        let offset = state.end_offset;
        write_all_at(&mut state.file, &record, offset)?;
        state.end_offset += record.len() as u64;
        let entry = IndexEntry {
            value_offset: offset + 12 + key.len() as u64,
            value_len: value.len() as u32,
            value_crc: crate::record::crc32(&[value]),
            seq: state.next_seq,
        };
        state.next_seq += 1;
        state.records += 1;
        state.appends += 1;
        state.live_value_bytes += value.len() as u64;
        if let Some(old) = state.index.insert(key.to_owned(), entry) {
            state.dead_records += 1;
            state.dead_bytes += record_len(key.len(), old.value_len as usize);
            state.live_value_bytes -= u64::from(old.value_len);
        }
        Ok(())
    }

    /// Force the log to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the `fsync` failure; fails on a store opened
    /// read-only.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.check_writable()?;
        write_locked(&self.state).file.sync_all()?;
        Ok(())
    }

    fn check_writable(&self) -> Result<(), StoreError> {
        if self.read_only {
            return Err(StoreError::invalid(format!(
                "store {:?} was opened read-only",
                self.path
            )));
        }
        Ok(())
    }

    /// Bulk-load up to `limit` of the most recently written live
    /// entries as `(key, value)` pairs, newest first, under **one read
    /// lock** and **one forward pass** over the log instead of one
    /// locked, positioned lookup per key — the fast path for warm
    /// starts, where a cache wants the store's whole hot set at once.
    /// `None` loads every live entry.
    ///
    /// The in-memory index picks the hot set (so only `limit` values
    /// are ever held in memory, and dead records are never read), and
    /// the selected values are read in ascending offset order — a
    /// monotone sweep the OS read-ahead treats as sequential I/O.
    /// Value checksums are verified exactly as [`Store::get`] verifies
    /// them; a value that fails (on-disk bit rot since open) is
    /// *skipped* — counted in [`BulkLoad::damaged`], never allowed to
    /// abort the rest of the warm start. Lookup counters are untouched
    /// — a bulk load is not query traffic.
    ///
    /// # Errors
    ///
    /// Fails on genuine I/O errors only.
    pub fn bulk_load(&self, limit: Option<usize>) -> Result<BulkLoad, StoreError> {
        let state = read_locked(&self.state);
        // The hot set: top-`limit` live *data* keys by recency —
        // reserved system records are not warm-start material.
        let mut picked: Vec<(&String, IndexEntry)> = state
            .index
            .iter()
            .filter(|(k, _)| !k.starts_with(RESERVED_KEY_PREFIX))
            .map(|(k, e)| (k, *e))
            .collect();
        picked.sort_by_key(|&(_, e)| std::cmp::Reverse(e.seq));
        picked.truncate(limit.unwrap_or(usize::MAX));
        // Read in ascending offset order: one forward sweep of the log.
        picked.sort_by_key(|&(_, e)| e.value_offset);
        let mut loaded: Vec<(u64, String, Vec<u8>)> = Vec::with_capacity(picked.len());
        let mut damaged = 0u64;
        for (key, entry) in picked {
            let mut value = vec![0u8; entry.value_len as usize];
            read_exact_at(&state.file, &self.path, &mut value, entry.value_offset)?;
            if crate::record::crc32(&[&value]) == entry.value_crc {
                loaded.push((entry.seq, key.clone(), value));
            } else {
                damaged += 1;
            }
        }
        drop(state);
        loaded.sort_by_key(|&(seq, _, _)| std::cmp::Reverse(seq));
        Ok(BulkLoad {
            entries: loaded
                .into_iter()
                .map(|(_, key, value)| (key, value))
                .collect(),
            damaged,
        })
    }

    /// Live `(key, value-length)` pairs, sorted by key.
    pub fn entries(&self) -> Vec<(String, u32)> {
        let state = read_locked(&self.state);
        let mut entries: Vec<(String, u32)> = state
            .index
            .iter()
            .map(|(k, e)| (k.clone(), e.value_len))
            .collect();
        entries.sort();
        entries
    }

    /// Current counters and sizes.
    pub fn stats(&self) -> StoreStats {
        let state = read_locked(&self.state);
        StoreStats {
            live_entries: state.index.len(),
            records: state.records,
            dead_records: state.dead_records,
            file_bytes: state.end_offset,
            live_value_bytes: state.live_value_bytes,
            dead_bytes: state.dead_bytes,
            appends: state.appends,
            // ordering: Relaxed — statistics snapshot; a slightly stale
            // count is fine and the state mutex orders everything else.
            gets: self.gets.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, as `gets` above.
            hits: self.hits.load(Ordering::Relaxed),
            compactions: state.compactions,
            recovered_bytes: state.recovered_bytes,
        }
    }

    /// Rewrite the log to contain exactly the live records (preserving
    /// their recency order), sync it, and atomically swap it into
    /// place. Readers and writers block for the duration; a crash at
    /// any point leaves either the old or the new log intact — never a
    /// mix.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a store opened read-only; the original
    /// log is untouched on failure.
    pub fn compact(&self) -> Result<CompactReport, StoreError> {
        self.injected_fault(StoreOp::Compact)?;
        let start = Instant::now();
        let result = self.compact_inner();
        if let Some(m) = self.metrics.get() {
            m.compact_ns.record(elapsed_ns(start));
        }
        result
    }

    fn compact_inner(&self) -> Result<CompactReport, StoreError> {
        self.check_writable()?;
        let mut state = write_locked(&self.state);
        let bytes_before = state.end_offset;
        let dropped_records = state.dead_records;

        // Oldest-first, so append order (and thus recency) survives.
        let mut live: Vec<(String, IndexEntry)> =
            state.index.iter().map(|(k, e)| (k.clone(), *e)).collect();
        live.sort_by_key(|(_, e)| e.seq);

        let tmp_path = PathBuf::from(format!("{}.compact", self.path.display()));
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&header())?;
        let mut new_index: HashMap<String, IndexEntry> = HashMap::with_capacity(live.len());
        let mut offset = HEADER_LEN;
        let mut live_value_bytes = 0u64;
        for (seq, (key, entry)) in live.iter().enumerate() {
            let mut value = vec![0u8; entry.value_len as usize];
            read_exact_at(&state.file, &self.path, &mut value, entry.value_offset)?;
            let crc = crate::record::crc32(&[&value]);
            if crc != entry.value_crc {
                return Err(StoreError::corrupt(format!(
                    "compaction read a damaged value for key {key:?}"
                )));
            }
            let record = encode_record(key, &value);
            tmp.write_all(&record)?;
            new_index.insert(
                key.clone(),
                IndexEntry {
                    value_offset: offset + 12 + key.len() as u64,
                    value_len: entry.value_len,
                    value_crc: entry.value_crc,
                    seq: seq as u64,
                },
            );
            live_value_bytes += u64::from(entry.value_len);
            offset += record.len() as u64;
        }
        tmp.sync_all()?;
        // Swap our open handle to the rewritten log *before* the
        // rename: Windows refuses to rename over a path the process
        // still holds open, and the `tmp` handle remains valid across
        // its own rename on every platform — no reopen needed.
        let old = std::mem::replace(&mut state.file, tmp);
        drop(old);
        if let Err(rename_error) = std::fs::rename(&tmp_path, &self.path) {
            // The original log on disk is intact; point the handle
            // back at it and surface the failure.
            state.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
            return Err(rename_error.into());
        }
        // Make the rename itself durable where the platform allows.
        if let Some(parent) = self.path.parent() {
            if let Ok(dir) = File::open(if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            }) {
                let _ = dir.sync_all();
            }
        }

        let live_records = new_index.len() as u64;
        state.index = new_index;
        state.end_offset = offset;
        state.next_seq = live_records;
        state.records = live_records;
        state.dead_records = 0;
        state.dead_bytes = 0;
        state.live_value_bytes = live_value_bytes;
        state.compactions += 1;
        Ok(CompactReport {
            live_records,
            dropped_records,
            bytes_before,
            bytes_after: offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Live data keys, most recently written first: the order a warm
    /// start loads them in.
    fn keys_by_recency(store: &Store) -> Vec<String> {
        let loaded = store.bulk_load(None).unwrap();
        loaded.entries.into_iter().map(|(k, _)| k).collect()
    }

    fn temp_store_path(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("drmap-store-unit-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.wal")
    }

    #[test]
    fn store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Store>();
    }

    #[test]
    fn fault_hook_fails_and_delays_the_ops_it_targets() {
        let path = temp_store_path("fault-hook");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        store.put("live", b"before-hook").unwrap();
        store.attach_fault_hook(Box::new(|op| match op {
            StoreOp::Put => Some(FaultDirective::Fail),
            StoreOp::Get => Some(FaultDirective::Delay(Duration::from_millis(1))),
            StoreOp::Compact => None,
        }));
        assert!(matches!(store.put("k", b"v"), Err(StoreError::Injected(_))));
        // A delayed get still answers correctly.
        assert_eq!(store.get("live").unwrap().unwrap(), b"before-hook");
        // Untargeted ops are untouched.
        store.compact().unwrap();
        // A second attachment is ignored, like attach_metrics.
        store.attach_fault_hook(Box::new(|_| None));
        assert!(store.put("k", b"v").is_err());
    }

    #[test]
    fn put_get_survive_reopen() {
        let path = temp_store_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let store = Store::open(&path).unwrap();
            store.put("a", b"alpha").unwrap();
            store.put("b", b"beta").unwrap();
            store.put("a", b"alpha-2").unwrap();
            assert_eq!(store.len(), 2);
            let stats = store.stats();
            assert_eq!(
                (stats.records, stats.dead_records, stats.appends),
                (3, 1, 3)
            );
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("a").unwrap().unwrap(), b"alpha-2");
        assert_eq!(store.get("b").unwrap().unwrap(), b"beta");
        assert_eq!(store.get("c").unwrap(), None);
        let stats = store.stats();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.dead_records, 1);
        assert_eq!(stats.gets, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.recovered_bytes, 0);
        assert_eq!(
            keys_by_recency(&store),
            vec!["a".to_owned(), "b".to_owned()]
        );
    }

    #[test]
    fn concurrent_readers_and_a_writer_agree() {
        let path = temp_store_path("concurrent");
        let _ = std::fs::remove_file(&path);
        let store = std::sync::Arc::new(Store::open(&path).unwrap());
        for i in 0..32 {
            store
                .put(&format!("k{i}"), format!("v{i}").as_bytes())
                .unwrap();
        }
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    for round in 0..64 {
                        let i = (t * 64 + round) % 32;
                        let got = store.get(&format!("k{i}")).unwrap().unwrap();
                        assert_eq!(got, format!("v{i}").as_bytes());
                    }
                    if t == 0 {
                        store.put("extra", b"late write").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.get("extra").unwrap().unwrap(), b"late write");
        assert_eq!(store.len(), 33);
    }

    #[test]
    fn read_only_opens_never_create_truncate_or_write() {
        // A missing file is an error, not a fresh log.
        let path = temp_store_path("ro-missing");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            Store::open_read_only(&path),
            Err(StoreError::Io(_))
        ));
        assert!(!path.exists(), "read-only open must not create the file");

        // A torn tail is skipped, not truncated.
        let store = Store::open(&path).unwrap();
        store.put("a", b"alpha").unwrap();
        store.put("b", b"beta").unwrap();
        drop(store);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();

        let ro = Store::open_read_only(&path).unwrap();
        assert_eq!(ro.len(), 1, "only the intact record is indexed");
        assert_eq!(ro.get("a").unwrap().unwrap(), b"alpha");
        assert!(ro.stats().recovered_bytes > 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len - 2,
            "the torn tail is left on disk for the writer to recover"
        );
        assert!(matches!(
            ro.put("c", b"gamma"),
            Err(StoreError::InvalidInput(_))
        ));
        assert!(matches!(ro.compact(), Err(StoreError::InvalidInput(_))));
        assert!(matches!(ro.sync(), Err(StoreError::InvalidInput(_))));

        // A writable reopen then performs the real recovery.
        let rw = Store::open(&path).unwrap();
        assert_eq!(rw.len(), 1);
        rw.put("b", b"beta-again").unwrap();
        assert_eq!(rw.len(), 2);
    }

    #[test]
    fn oversized_inputs_are_rejected() {
        let path = temp_store_path("oversized");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        let huge_key = "k".repeat(MAX_KEY_BYTES + 1);
        assert!(matches!(
            store.put(&huge_key, b"v"),
            Err(StoreError::InvalidInput(_))
        ));
        assert!(store.is_empty());
    }

    #[test]
    fn bulk_load_returns_live_entries_newest_first() {
        let path = temp_store_path("bulk");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        for i in 0..6 {
            store.put(&format!("k{i}"), b"stale").unwrap();
        }
        // Rewrite k1 so its recency jumps ahead and the old record dies.
        store.put("k1", b"fresh").unwrap();
        let gets_before = store.stats().gets;

        let all = store.bulk_load(None).unwrap();
        assert_eq!(all.damaged, 0);
        let all = all.entries;
        assert_eq!(all.len(), 6, "one live entry per key");
        assert_eq!(all[0].0, "k1", "rewritten key is newest");
        assert_eq!(all[0].1, b"fresh");
        assert_eq!(all[1].0, "k5");
        assert_eq!(all.last().unwrap().0, "k0");

        let top = store.bulk_load(Some(2)).unwrap().entries;
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "k1");
        assert_eq!(top[1].0, "k5");
        assert_eq!(
            store.stats().gets,
            gets_before,
            "bulk loads are not query traffic"
        );

        // The sequential scan agrees with the positioned-read path.
        for (key, value) in &all {
            assert_eq!(store.get(key).unwrap().unwrap(), *value);
        }
        assert!(Store::open(&path)
            .unwrap()
            .bulk_load(Some(0))
            .unwrap()
            .entries
            .is_empty());
    }

    #[test]
    fn bulk_load_survives_bit_rot_in_dead_and_live_records() {
        let path = temp_store_path("bulk-rot");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        store.put("k0", b"value-zero-unique").unwrap();
        store.put("k1", b"dead-value-unique").unwrap();
        store.put("k2", b"rotten-value-unique").unwrap();
        store.put("k1", b"live-value-unique").unwrap(); // supersedes the dead record

        // Bit rot strikes *after* open (recovery never saw it): flip a
        // byte inside the dead k1 value and inside the live k2 value.
        let mut bytes = std::fs::read(&path).unwrap();
        for needle in [b"dead-value-unique".as_slice(), b"rotten-value-unique"] {
            let at = bytes
                .windows(needle.len())
                .position(|w| w == needle)
                .unwrap();
            bytes[at] ^= 0xFF;
        }
        std::fs::write(&path, &bytes).unwrap();

        // The damaged dead record is never read; the damaged live value
        // is skipped without aborting the rest of the hot set.
        let loaded = store.bulk_load(None).unwrap();
        assert_eq!(loaded.damaged, 1, "the rotten live value is counted");
        let keys: Vec<&str> = loaded.entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["k1", "k0"], "k2 skipped, dead k1 ignored");
        assert_eq!(loaded.entries[0].1, b"live-value-unique");
        assert!(
            store.get("k2").is_err(),
            "the positioned path agrees k2 is damaged"
        );
    }

    #[test]
    fn bulk_load_of_a_read_only_store_skips_the_torn_tail() {
        let path = temp_store_path("bulk-ro");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        store.put("a", b"alpha").unwrap();
        store.put("b", b"beta").unwrap();
        drop(store);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let ro = Store::open_read_only(&path).unwrap();
        let loaded = ro.bulk_load(None).unwrap();
        assert_eq!(loaded.entries, vec![("a".to_owned(), b"alpha".to_vec())]);
        assert_eq!(loaded.damaged, 0);
    }

    #[test]
    fn reserved_keys_skip_warm_start_but_list_by_prefix() {
        let path = temp_store_path("reserved");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        // Slow-trace records as older servers persisted them.
        let (trace_0, trace_1) = (
            format!("{RESERVED_KEY_PREFIX}slow/0"),
            format!("{RESERVED_KEY_PREFIX}slow/1"),
        );
        store.put("data-a", b"alpha").unwrap();
        store.put(&trace_0, b"trace-0").unwrap();
        store.put("data-b", b"beta").unwrap();
        store.put(&trace_1, b"trace-1").unwrap();

        // The warm-start surface sees only data keys.
        assert_eq!(keys_by_recency(&store), ["data-b", "data-a"]);
        // A limit counts data entries, never silently spent on traces.
        assert_eq!(store.bulk_load(Some(2)).unwrap().entries.len(), 2);

        // The full listing (`drmap-store ls`) still shows them under
        // their prefix.
        let reserved = |store: &Store| -> Vec<String> {
            store
                .entries()
                .into_iter()
                .map(|(k, _)| k)
                .filter(|k| k.starts_with(RESERVED_KEY_PREFIX))
                .collect()
        };
        assert_eq!(reserved(&store), vec![trace_0.clone(), trace_1.clone()]);
        // They remain ordinary records: readable, compactable, durable.
        assert_eq!(store.get(&trace_0).unwrap().unwrap(), b"trace-0");
        store.compact().unwrap();
        assert_eq!(reserved(&store).len(), 2);
        assert_eq!(keys_by_recency(&store).len(), 2);
    }

    #[test]
    fn compaction_drops_dead_records_and_preserves_recency() {
        let path = temp_store_path("compact");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).unwrap();
        for i in 0..8 {
            store.put(&format!("k{i}"), b"old-value-bytes").unwrap();
        }
        for i in 0..8 {
            store
                .put(&format!("k{i}"), format!("new-{i}").as_bytes())
                .unwrap();
        }
        let before = store.stats();
        assert_eq!(before.dead_records, 8);
        let report = store.compact().unwrap();
        assert_eq!(report.live_records, 8);
        assert_eq!(report.dropped_records, 8);
        assert!(report.bytes_after < report.bytes_before);
        let after = store.stats();
        assert_eq!(after.dead_records, 0);
        assert_eq!(after.live_entries, 8);
        for i in 0..8 {
            assert_eq!(
                store.get(&format!("k{i}")).unwrap().unwrap(),
                format!("new-{i}").as_bytes()
            );
        }
        // Recency order survives the rewrite and the next reopen.
        assert_eq!(keys_by_recency(&store)[0], "k7");
        drop(store);
        let reopened = Store::open(&path).unwrap();
        assert_eq!(keys_by_recency(&reopened)[0], "k7");
        assert_eq!(reopened.stats().records, 8);
    }
}
