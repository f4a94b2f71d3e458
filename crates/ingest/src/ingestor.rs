//! The [`Ingestor`]: live appends through the WAL into per-series heads,
//! generation-swapped sealing, and the stitched sealed + head query
//! surface.

use crate::head::Head;
use crate::manifest::{self, Manifest};
use crate::wal::{FsyncPolicy, Wal, WalOp};
use neats_core::NeaTSBuilder;
use neats_store::histogram::AtomicHistogram;
use neats_store::{
    check_stamps, RangeScratch, SeriesSummary, Store, StoreConfig, StoreError, StoreMode,
    StoreOptions, StoreWriter,
};
use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};
use timeseries::TimeSeries;

/// Configuration for an [`Ingestor`].
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Points per compressed head chunk: the head's raw tail is compressed
    /// with [`Self::builder`] whenever it reaches this size.
    pub chunk_points: usize,
    /// Background auto-seal threshold: seal when the compressed (chunked)
    /// head points across all series reach this count.
    pub seal_points: usize,
    /// When WAL appends are forced to disk (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// The compression pipeline for head chunks and sealed segments.
    pub builder: NeaTSBuilder,
    /// Segment-view cache capacity of the sealed [`Store`] (see
    /// [`StoreOptions::cache_capacity`]).
    pub cache_capacity: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            chunk_points: 4096,
            seal_points: 16384,
            fsync: FsyncPolicy::Always,
            builder: neats_core::NeaTS::builder(),
            cache_capacity: 256,
        }
    }
}

/// Configuration for [`Ingestor::start_background`].
#[derive(Clone, Copy, Debug)]
pub struct BackgroundConfig {
    /// How often the worker cuts full head chunks and checks the seal
    /// threshold.
    pub interval: Duration,
    /// First retry delay after the ingestor enters degraded mode (the
    /// schedule doubles per failed retry, with jitter).
    pub retry_base: Duration,
    /// Cap on the degraded-mode retry delay.
    pub retry_cap: Duration,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(200),
            retry_base: Duration::from_millis(100),
            retry_cap: Duration::from_secs(5),
        }
    }
}

/// What tripped degraded mode — each kind has its own recovery action in
/// [`Ingestor::try_recover`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultKind {
    /// A WAL append failed: the file may carry a torn tail past the last
    /// acknowledged record. Recovery truncates it ([`Wal::repair`]) —
    /// which needs no free space, so it works under `ENOSPC` too.
    WalAppend,
    /// A seal (or flush) failed partway: the old generation is still the
    /// committed truth. Recovery retries the seal; its stepwise file
    /// writes recreate any strays from the failed attempt.
    Seal,
}

/// The typed read-only state: why writes are rejected, and what the
/// background worker should retry.
struct DegradedState {
    kind: FaultKind,
    reason: String,
}

/// One sealed generation: the epoch and its immutable pack view.
struct Generation {
    epoch: u64,
    store: Arc<Store>,
}

/// Everything readers snapshot: swapped as a unit under the write lock so
/// one read lock always yields a mutually consistent `(store, heads)`.
struct Shared {
    gen: Generation,
    /// Heads in first-ingest order. Replaced (not mutated in place) at each
    /// seal, so a reader's snapshot stays internally consistent forever.
    heads: Vec<(String, Arc<Mutex<Head>>)>,
}

/// One reader's consistent view of a series: the generation's store and
/// the series' head, if it has one.
type Snapshot = (Arc<Store>, Option<Arc<Mutex<Head>>>);

impl Shared {
    fn head(&self, series: &str) -> Option<Arc<Mutex<Head>>> {
        self.heads
            .iter()
            .find(|(n, _)| n == series)
            .map(|(_, h)| h.clone())
    }
}

/// Mutator-side state, serialised by one mutex: the WAL handle and the
/// current generation's file names (for cleanup after a swap).
struct WriterState {
    wal: Wal,
    pack_file: String,
    wal_file: String,
}

fn lockm<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lockr<'a, T>(l: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn lockw<'a, T>(l: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Writes `bytes` to `path` and syncs the file and its directory. The
/// directory sync must succeed for the write to count as durable — a new
/// file whose directory entry never reaches disk vanishes on power loss.
fn write_file_durable(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    if let Some(dir) = path.parent() {
        manifest::sync_dir(dir)?;
    }
    Ok(())
}

/// Write-path instrumentation handles. The `Arc`s are shared with the WAL
/// (latency sinks) and the metrics registry (samples), so a `/metrics`
/// scrape reads the very atomics the hot path bumps.
#[derive(Default)]
struct IngestMetrics {
    wal_append_ns: Arc<AtomicHistogram>,
    wal_sync_ns: Arc<AtomicHistogram>,
    seal_ns: Arc<AtomicHistogram>,
    chunk_build_ns: Arc<AtomicHistogram>,
    seals: Arc<AtomicU64>,
    degraded_transitions: Arc<AtomicU64>,
    replayed_ops: Arc<AtomicU64>,
    repairs: Arc<AtomicU64>,
}

/// A live, crash-safe, concurrently-readable ingestion directory.
///
/// See the crate docs for the architecture. All mutations (`append`,
/// `seal`, `flush`) serialise on one internal writer mutex; queries never
/// take it and never block on mutations beyond a brief per-series head
/// lock.
pub struct Ingestor {
    dir: PathBuf,
    cfg: IngestConfig,
    /// `cfg.builder` pinned to one thread: chunk compression runs on the
    /// single writer thread (output is thread-count-invariant anyway).
    builder: NeaTSBuilder,
    writer: Mutex<WriterState>,
    shared: RwLock<Shared>,
    background_errors: AtomicU64,
    /// `Some` while in read-only degraded mode (entered on WAL-append or
    /// seal I/O failures, cleared by a successful recovery). The flag
    /// mirrors `is_some()` so the append fast path never takes the lock.
    degraded: Mutex<Option<DegradedState>>,
    degraded_flag: AtomicBool,
    metrics: IngestMetrics,
}

impl Ingestor {
    fn store_cfg(&self) -> StoreConfig {
        StoreConfig {
            segment_points: neats_store::DEFAULT_SEGMENT_POINTS,
            builder: self.cfg.builder.clone(),
            mode: StoreMode::Lossless,
            threads: 1,
        }
    }

    fn store_opts(&self) -> StoreOptions {
        StoreOptions { cache_capacity: self.cfg.cache_capacity }
    }

    /// Opens (or initialises) an ingest directory and recovers its state:
    /// the manifest names the live pack and WAL, the WAL is replayed into
    /// heads (truncating any torn suffix), and stray files from an
    /// interrupted seal are removed. Replayed points stay raw: the heads
    /// answer at once, and their chunks are cut by the next append to the
    /// series, seal, flush or background tick. A WAL holding a series
    /// delete, which only an earlier build wrote, is refused with
    /// [`StoreError::Corrupt`] and left as it is (see [`crate::wal`]).
    pub fn open(dir: impl Into<PathBuf>, cfg: IngestConfig) -> Result<Self, StoreError> {
        assert!(cfg.chunk_points >= 1, "chunk_points must be at least 1");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let manifest = match Manifest::read_from(&dir)? {
            Some(m) => m,
            None => {
                // Fresh directory: a sealed empty pack, an empty WAL, and
                // the manifest committing them as generation 0.
                let pack_file = manifest::pack_name(0);
                let wal_file = manifest::wal_name(0);
                let empty = StoreWriter::new(StoreConfig::default()).finish()?;
                write_file_durable(&dir.join(&pack_file), &empty)?;
                drop(Wal::create(dir.join(&wal_file), FsyncPolicy::Always)?);
                let m = Manifest {
                    epoch: 0,
                    pack: pack_file,
                    wal: wal_file,
                };
                m.write_to(&dir)?;
                m
            }
        };
        let pack_bytes = fs::read(dir.join(&manifest.pack))?;
        let store = Arc::new(Store::open_with(
            pack_bytes,
            StoreOptions { cache_capacity: cfg.cache_capacity },
        )?);
        let (mut wal, ops) = Wal::open_replay(dir.join(&manifest.wal), cfg.fsync)?;
        let metrics = IngestMetrics::default();
        metrics
            .replayed_ops
            .store(ops.len() as u64, Ordering::Relaxed);
        wal.instrument(
            Arc::clone(&metrics.wal_append_ns),
            Arc::clone(&metrics.wal_sync_ns),
        );

        // Replay the WAL into heads. Points at or below a series' sealed
        // floor are already in the pack (defensive: the commit protocol
        // rotates the WAL with the pack, so overlap should not occur).
        let mut heads: Vec<(String, Arc<Mutex<Head>>)> = Vec::new();
        for WalOp::Append { series, stamps, values } in ops {
            let arc = match heads.iter().find(|(n, _)| n == &series) {
                Some((_, h)) => h.clone(),
                None => {
                    let (fi, floor) = store
                        .series(&series)
                        .map(|e| (e.len(), Some(e.t_max())))
                        .unwrap_or((0, None));
                    let h = Arc::new(Mutex::new(Head::new(fi, floor)));
                    heads.push((series.clone(), h.clone()));
                    h
                }
            };
            let mut head = lockm(&arc);
            let from = match head.last_stamp() {
                Some(f) => stamps.partition_point(|&t| t <= f),
                None => 0,
            };
            if from < stamps.len() {
                head.append(&stamps[from..], &values[from..]);
            }
        }

        // Remove generation files the manifest does not name (left by a
        // seal that crashed before its commit point).
        if let Ok(entries) = fs::read_dir(&dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let Some(name) = name.to_str() else { continue };
                if (name.starts_with("pack-") || name.starts_with("wal-"))
                    && name != manifest.pack
                    && name != manifest.wal
                {
                    let _ = fs::remove_file(e.path());
                }
            }
        }

        let builder = cfg.builder.clone().threads(1);
        let ing = Self {
            dir,
            builder,
            writer: Mutex::new(WriterState {
                wal,
                pack_file: manifest.pack.clone(),
                wal_file: manifest.wal.clone(),
            }),
            shared: RwLock::new(Shared {
                gen: Generation {
                    epoch: manifest.epoch,
                    store,
                },
                heads,
            }),
            background_errors: AtomicU64::new(0),
            degraded: Mutex::new(None),
            degraded_flag: AtomicBool::new(false),
            metrics,
            cfg,
        };
        Ok(ing)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Appends points to `series` (creating it on first sight). Timestamps
    /// must strictly increase within the batch and continue past the
    /// series' last timestamp. On `Ok`, the batch is in the WAL (durably,
    /// under [`FsyncPolicy::Always`]) and visible to queries; the batch is
    /// all-or-nothing. An empty batch is a no-op.
    pub fn append(&self, series: &str, stamps: &[u64], values: &[i64]) -> Result<(), StoreError> {
        if series.is_empty() {
            return Err(StoreError::EmptyName);
        }
        if stamps.len() != values.len() {
            return Err(StoreError::LengthMismatch {
                timestamps: stamps.len(),
                values: values.len(),
            });
        }
        if stamps.is_empty() {
            return Ok(());
        }
        // Fast-fail before any validation work; the authoritative check
        // happens again under the writer lock below.
        if self.degraded_flag.load(Ordering::SeqCst) {
            return Err(self.degraded_error());
        }
        // Before the WAL: a logged batch is an acknowledged one, so it must
        // be one a seal can encode. The floor is checked under the lock.
        check_stamps(series, stamps, None)?;

        let mut w = lockm(&self.writer);
        // Degraded mode is entered and cleared under this lock, so this
        // check is the authoritative one: while the mode holds, nothing
        // touches the WAL and acknowledged data cannot be disturbed.
        if self.degraded_flag.load(Ordering::SeqCst) {
            return Err(self.degraded_error());
        }
        // Resolve the ordering floor (and reject lossy sealed series)
        // before logging anything.
        let (existing, fi, floor) = {
            let s = lockr(&self.shared);
            match s.head(series) {
                Some(h) => {
                    let last = lockm(&h).last_stamp();
                    (Some(h), 0, last)
                }
                None => {
                    if let Some(e) = s.gen.store.series(series) {
                        if e.mode() != StoreMode::Lossless {
                            return Err(StoreError::ModeMismatch {
                                series: series.to_string(),
                            });
                        }
                        (None, e.len(), Some(e.t_max()))
                    } else {
                        (None, 0, None)
                    }
                }
            }
        };
        if let Some(f) = floor {
            if stamps[0] <= f {
                return Err(StoreError::TimestampOrder {
                    series: series.to_string(),
                    index: 0,
                });
            }
        }

        // The WAL append precedes every head mutation, so a failure here
        // leaves the in-memory state exactly equal to the acknowledged
        // state: flip to degraded (read-only) and reject the batch. The
        // file may carry a torn tail; `try_recover` truncates it.
        if let Err(e) = w.wal.append(&WalOp::Append {
            series: series.to_string(),
            stamps: stamps.to_vec(),
            values: values.to_vec(),
        }) {
            self.enter_degraded(FaultKind::WalAppend, &e);
            return Err(self.degraded_error());
        }

        let arc = match existing {
            Some(h) => {
                lockm(&h).append(stamps, values);
                h
            }
            None => {
                // Build the head fully before publishing it, so readers
                // never observe an empty phantom series.
                let mut head = Head::new(fi, floor);
                head.append(stamps, values);
                let h = Arc::new(Mutex::new(head));
                lockw(&self.shared)
                    .heads
                    .push((series.to_string(), h.clone()));
                h
            }
        };
        self.roll_chunks(&w, &arc);
        Ok(())
    }

    /// Compresses full `chunk_points`-sized slices of `head`'s raw tail into
    /// chunks, cut from the head's sealed boundary.
    fn roll_chunks(&self, w: &MutexGuard<'_, WriterState>, head: &Arc<Mutex<Head>>) {
        while self.cut_chunk(w, head, self.cfg.chunk_points) {}
    }

    fn roll_all_heads(&self, w: &MutexGuard<'_, WriterState>) {
        let heads: Vec<Arc<Mutex<Head>>> = lockr(&self.shared)
            .heads
            .iter()
            .map(|(_, h)| h.clone())
            .collect();
        for h in &heads {
            self.roll_chunks(w, h);
        }
    }

    /// Compresses the oldest `n` raw points of `head` into one chunk;
    /// `false` when the tail is shorter. Compression runs outside the head
    /// lock, so readers are never blocked behind the compressor — which is
    /// why the writer guard is required: two cutters between `tail_prefix`
    /// and `install_chunk` would both install the same prefix.
    fn cut_chunk(
        &self,
        _w: &MutexGuard<'_, WriterState>,
        head: &Arc<Mutex<Head>>,
        n: usize,
    ) -> bool {
        let Some(raw) = lockm(head).tail_prefix(n) else {
            return false;
        };
        let started = Instant::now();
        let chunk = self.builder.build(&TimeSeries::from_values(raw));
        self.metrics
            .chunk_build_ns
            .record(started.elapsed().as_nanos() as u64);
        lockm(head).install_chunk(chunk);
        true
    }

    /// Seals every compressed head chunk into a new pack generation:
    /// segments move verbatim (no recompression), a rotated WAL re-logs
    /// only the raw tails, the `MANIFEST` rename commits, and the readers'
    /// view swaps. Returns the epoch afterwards
    /// (unchanged if there was nothing to seal).
    pub fn seal(&self) -> Result<u64, StoreError> {
        let mut w = lockm(&self.writer);
        self.seal_locked(&mut w)
            .inspect_err(|e| self.enter_degraded(FaultKind::Seal, e))
    }

    /// Force-compresses every raw tail into a (possibly short) chunk, then
    /// seals — afterwards the WAL is empty and every point is in the pack.
    pub fn flush(&self) -> Result<u64, StoreError> {
        let mut w = lockm(&self.writer);
        let heads: Vec<Arc<Mutex<Head>>> = lockr(&self.shared)
            .heads
            .iter()
            .map(|(_, h)| h.clone())
            .collect();
        for h in &heads {
            self.roll_chunks(&w, h);
            let n = lockm(h).tail_len();
            self.cut_chunk(&w, h, n);
        }
        self.seal_locked(&mut w)
            .inspect_err(|e| self.enter_degraded(FaultKind::Seal, e))
    }

    fn seal_locked(&self, w: &mut MutexGuard<'_, WriterState>) -> Result<u64, StoreError> {
        // Heads replayed raw at open hold full chunks no append has cut yet.
        self.roll_all_heads(w);
        let started = Instant::now();
        let (epoch, store, heads) = {
            let s = lockr(&self.shared);
            (s.gen.epoch, s.gen.store.clone(), s.heads.clone())
        };
        if heads.iter().all(|(_, h)| lockm(h).chunked_len() == 0) {
            return Ok(epoch);
        }

        // Build the successor pack: old pack verbatim, plus every head
        // chunk as a pre-compressed segment.
        let mut sw = StoreWriter::append_to(store.as_bytes(), self.store_cfg())?;
        for (name, h) in &heads {
            for (frame, stamps) in lockm(h).sealed_parts() {
                sw.append_compressed_segment(name, &frame, &stamps)?;
            }
        }
        let pack = sw.finish()?;

        let new_epoch = epoch + 1;
        let pack_file = manifest::pack_name(new_epoch);
        let wal_file = manifest::wal_name(new_epoch);
        if neats_store::failpoint::triggered("seal.pack") {
            return Err(neats_store::failpoint::io_error("seal.pack").into());
        }
        write_file_durable(&self.dir.join(&pack_file), &pack)?;

        // The rotated WAL carries exactly the unsealed raw tails.
        let mut new_wal = Wal::create(self.dir.join(&wal_file), self.cfg.fsync)?;
        new_wal.instrument(
            Arc::clone(&self.metrics.wal_append_ns),
            Arc::clone(&self.metrics.wal_sync_ns),
        );
        for (name, h) in &heads {
            let (stamps, values) = lockm(h).tail_parts();
            if !stamps.is_empty() {
                new_wal.append(&WalOp::Append {
                    series: name.clone(),
                    stamps,
                    values,
                })?;
            }
        }
        new_wal.sync()?;

        let new_store = Arc::new(Store::open_with(pack, self.store_opts())?);

        // COMMIT POINT: after this rename the new generation is the truth.
        Manifest {
            epoch: new_epoch,
            pack: pack_file.clone(),
            wal: wal_file.clone(),
        }
        .write_to(&self.dir)?;

        // Swap the readers' view: new store and fresh trimmed heads
        // (copy-on-seal — readers holding the old snapshot keep a
        // consistent old world).
        {
            let mut s = lockw(&self.shared);
            s.gen = Generation {
                epoch: new_epoch,
                store: new_store,
            };
            s.heads = heads
                .iter()
                .filter_map(|(n, h)| {
                    let t = lockm(h).trimmed_after_seal();
                    (!t.is_empty()).then(|| (n.clone(), Arc::new(Mutex::new(t))))
                })
                .collect();
        }
        let old_pack = std::mem::replace(&mut w.pack_file, pack_file);
        let old_wal = std::mem::replace(&mut w.wal_file, wal_file);
        w.wal = new_wal;
        let _ = fs::remove_file(self.dir.join(old_pack));
        let _ = fs::remove_file(self.dir.join(old_wal));
        // A committed seal is a full recovery whatever tripped degraded
        // mode: the WAL was rotated fresh (no torn tail can survive) and
        // every pending chunk is now in the pack.
        self.clear_degraded();
        self.metrics
            .seal_ns
            .record(started.elapsed().as_nanos() as u64);
        self.metrics.seals.fetch_add(1, Ordering::Relaxed);
        Ok(new_epoch)
    }

    // ------------------------------------------------------------------
    // Query path
    // ------------------------------------------------------------------

    /// One consistent `(store, head)` snapshot for a series.
    fn snap(&self, series: &str) -> Result<Snapshot, StoreError> {
        let s = lockr(&self.shared);
        let head = s.head(series);
        if head.is_none() && s.gen.store.series(series).is_none() {
            return Err(StoreError::UnknownSeries(series.to_string()));
        }
        Ok((s.gen.store.clone(), head))
    }

    /// The value at series-global position `idx`.
    pub fn get(&self, series: &str, idx: usize) -> Result<i64, StoreError> {
        let (store, head) = self.snap(series)?;
        match &head {
            Some(h) => {
                let g = lockm(h);
                if idx < g.first_index {
                    drop(g);
                    store.get(series, idx)
                } else if idx - g.first_index < g.len() {
                    Ok(g.value(idx - g.first_index))
                } else {
                    Err(StoreError::OutOfRange {
                        index: idx,
                        len: g.first_index + g.len(),
                    })
                }
            }
            None => store.get(series, idx),
        }
    }

    /// Total points in `series`, sealed + head.
    pub fn len(&self, series: &str) -> Result<usize, StoreError> {
        let (store, head) = self.snap(series)?;
        Ok(match &head {
            Some(h) => {
                let g = lockm(h);
                g.first_index + g.len()
            }
            None => store.series(series).map(|e| e.len()).unwrap_or(0),
        })
    }

    /// The value recorded exactly at timestamp `t`, if any.
    pub fn at_time(&self, series: &str, t: u64) -> Result<Option<i64>, StoreError> {
        let (store, head) = self.snap(series)?;
        if let Some(h) = &head {
            let g = lockm(h);
            match g.first_stamp() {
                Some(first) if t >= first => return Ok(g.index_of_time(t).map(|k| g.value(k))),
                _ => {
                    if g.first_index == 0 {
                        // No sealed data visible for this series.
                        return Ok(None);
                    }
                }
            }
        }
        store.at_time(series, t)
    }

    /// Appends the values at series-global positions `range` to `out`.
    pub fn range(
        &self,
        series: &str,
        range: Range<usize>,
        out: &mut Vec<i64>,
    ) -> Result<(), StoreError> {
        self.range_chunks_in(&mut RangeScratch::default(), series, range, |chunk| {
            out.extend_from_slice(chunk)
        })
    }

    /// Streams the values at series-global positions `range` to `f` in
    /// bounded chunks — sealed segments first, decoded into the caller's
    /// `scratch` (see [`Store::range_chunks_in`]), then the head part as
    /// one chunk, copied out under the head lock into a buffer of its own.
    /// `range` is checked against the total series length.
    pub fn range_chunks_in(
        &self,
        scratch: &mut RangeScratch,
        series: &str,
        range: Range<usize>,
        mut f: impl FnMut(&[i64]),
    ) -> Result<(), StoreError> {
        let (store, head) = self.snap(series)?;
        let check = |len: usize| {
            if range.start > range.end || range.end > len {
                return Err(StoreError::BadRange { start: range.start, end: range.end, len });
            }
            Ok(())
        };
        let (sealed_len, head_vals) = match &head {
            Some(h) => {
                let g = lockm(h);
                let sealed_len = g.first_index;
                check(sealed_len + g.len())?;
                let mut vals = Vec::new();
                if range.end > sealed_len {
                    let lo = range.start.max(sealed_len) - sealed_len;
                    g.values_range(lo, range.end - sealed_len, &mut vals);
                }
                (sealed_len, vals)
            }
            None => {
                let total = store.series(series).map(|e| e.len()).unwrap_or(0);
                check(total)?;
                (total, Vec::new())
            }
        };
        if range.start < sealed_len {
            store.range_chunks_in(scratch, series, range.start..range.end.min(sealed_len), &mut f)?;
        }
        if !head_vals.is_empty() {
            f(&head_vals);
        }
        Ok(())
    }

    /// Streams all `(timestamp, value)` pairs with timestamp in
    /// `[t_lo, t_hi]` to `f` in bounded chunks, sealed part first (decoded
    /// into the caller's `scratch`, see
    /// [`Store::range_by_time_chunks_in`]). Sealed and head timestamps are
    /// disjoint (head stamps are strictly above the sealed floor), so the
    /// concatenation is time-ordered.
    pub fn range_by_time_chunks_in(
        &self,
        scratch: &mut RangeScratch,
        series: &str,
        t_lo: u64,
        t_hi: u64,
        mut f: impl FnMut(&[(u64, i64)]),
    ) -> Result<(), StoreError> {
        let (store, head) = self.snap(series)?;
        if t_hi < t_lo {
            return Ok(());
        }
        let (pairs, sealed_visible) = match &head {
            Some(h) => {
                let g = lockm(h);
                let a = g.lower_bound(t_lo);
                let b = g.count_leq(t_hi);
                let mut vals = Vec::new();
                if b > a {
                    g.values_range(a, b, &mut vals);
                }
                let pairs: Vec<(u64, i64)> = (a..b).map(|k| (g.stamp(k), vals[k - a])).collect();
                (pairs, g.first_index > 0)
            }
            None => (Vec::new(), true),
        };
        if sealed_visible {
            store.range_by_time_chunks_in(scratch, series, t_lo, t_hi, &mut f)?;
        }
        if !pairs.is_empty() {
            f(&pairs);
        }
        Ok(())
    }

    /// Catalog-style summaries of every live series, sealed + head, sorted
    /// by name. (Sorted rather than catalog order: a series' catalog
    /// position depends on *when* its first chunk was sealed, so insertion
    /// order would not survive recovery; sorted order is deterministic
    /// across seals and reopens.)
    pub fn series_summaries(&self) -> Vec<SeriesSummary> {
        let s = lockr(&self.shared);
        let mut out = Vec::new();
        for e in s.gen.store.entries() {
            let mut sum = e.summary();
            if let Some(h) = s.head(e.name()) {
                let g = lockm(&h);
                sum.points += g.len();
                sum.segments += g.chunk_count() + usize::from(g.tail_len() > 0);
                if !g.is_empty() {
                    sum.t_max = g.stamp(g.len() - 1);
                }
            }
            out.push(sum);
        }
        for (n, h) in &s.heads {
            if out.iter().any(|x| &x.name == n) {
                continue;
            }
            let g = lockm(h);
            let (t_min, t_max) = if g.is_empty() {
                (0, 0)
            } else {
                (g.stamp(0), g.stamp(g.len() - 1))
            };
            out.push(SeriesSummary {
                name: n.clone(),
                mode: StoreMode::Lossless,
                points: g.len(),
                segments: g.chunk_count() + usize::from(g.tail_len() > 0),
                t_min,
                t_max,
            });
        }
        out.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Points currently held in heads (not yet sealed).
    pub fn head_points(&self) -> usize {
        let s = lockr(&self.shared);
        s.heads.iter().map(|(_, h)| lockm(h).len()).sum()
    }

    /// The current generation counter.
    pub fn epoch(&self) -> u64 {
        lockr(&self.shared).gen.epoch
    }

    /// The sealed store of the current generation: its cache,
    /// verification and quarantine counters. A seal swaps in a fresh
    /// `Store`, whose counters start at zero and whose segments all start
    /// unverified; the returned `Arc` keeps the old one readable.
    pub fn store(&self) -> Arc<Store> {
        lockr(&self.shared).gen.store.clone()
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        lockm(&self.writer).wal.len()
    }

    /// Errors swallowed by the background worker so far.
    pub fn background_errors(&self) -> u64 {
        self.background_errors.load(Ordering::Relaxed)
    }

    /// Registers the ingestor's write-path metric families into `reg`:
    /// WAL append / fsync, seal and chunk-build latency histograms, event
    /// counters (seals, degraded transitions, replayed ops, repairs), and
    /// scrape-time gauges over live state (head points, epoch, WAL length,
    /// degraded flag). The histograms and counters are the very atomics the
    /// write path bumps — no sampling, no copies. The registered closures
    /// hold an `Arc` to the ingestor, keeping it alive as long as the
    /// registry.
    pub fn register_metrics(self: &Arc<Self>, reg: &neats_store::obs::Registry) {
        let m = &self.metrics;
        reg.histogram_shared(
            "neats_ingest_wal_append_ns",
            "WAL append wall time (encode + write + policy-driven fsync), nanoseconds.",
            &[],
            Arc::clone(&m.wal_append_ns),
        );
        reg.histogram_shared(
            "neats_ingest_wal_sync_ns",
            "WAL fsync time, nanoseconds.",
            &[],
            Arc::clone(&m.wal_sync_ns),
        );
        reg.histogram_shared(
            "neats_ingest_seal_ns",
            "Seal duration, successor-pack build through commit, nanoseconds.",
            &[],
            Arc::clone(&m.seal_ns),
        );
        reg.histogram_shared(
            "neats_ingest_chunk_build_ns",
            "Head chunk compression time (one NeaTS build of a raw-tail slice), nanoseconds.",
            &[],
            Arc::clone(&m.chunk_build_ns),
        );
        reg.counter_shared(
            "neats_ingest_seals_total",
            "Committed seals (generation swaps moving head chunks into the pack).",
            &[],
            Arc::clone(&m.seals),
        );
        reg.counter_shared(
            "neats_ingest_degraded_transitions_total",
            "Healthy-to-degraded transitions (I/O faults tripping read-only mode).",
            &[],
            Arc::clone(&m.degraded_transitions),
        );
        reg.counter_shared(
            "neats_ingest_wal_replayed_ops_total",
            "WAL records replayed into heads when the directory was opened.",
            &[],
            Arc::clone(&m.replayed_ops),
        );
        reg.counter_shared(
            "neats_ingest_wal_repairs_total",
            "Torn-tail truncations performed by degraded-mode recovery.",
            &[],
            Arc::clone(&m.repairs),
        );
        let me = Arc::clone(self);
        reg.counter_fn(
            "neats_ingest_background_errors_total",
            "Errors swallowed (and retried) by the background worker.",
            &[],
            move || me.background_errors(),
        );
        let me = Arc::clone(self);
        reg.gauge_fn(
            "neats_ingest_head_points",
            "Points currently held in mutable heads (not yet sealed).",
            &[],
            move || me.head_points() as f64,
        );
        let me = Arc::clone(self);
        reg.gauge_fn(
            "neats_ingest_epoch",
            "Current generation counter.",
            &[],
            move || me.epoch() as f64,
        );
        let me = Arc::clone(self);
        reg.gauge_fn(
            "neats_ingest_wal_bytes",
            "Current WAL length in bytes (header + committed records).",
            &[],
            move || me.wal_len() as f64,
        );
        let me = Arc::clone(self);
        reg.gauge_fn(
            "neats_ingest_degraded",
            "1 while in read-only degraded mode, else 0.",
            &[],
            move || f64::from(me.is_degraded()),
        );
    }

    // ------------------------------------------------------------------
    // Degraded mode
    // ------------------------------------------------------------------

    fn enter_degraded(&self, kind: FaultKind, e: &StoreError) {
        let mut g = lockm(&self.degraded);
        if g.is_none() {
            // Count healthy→degraded edges only; a refreshed reason while
            // already degraded is the same incident.
            self.metrics
                .degraded_transitions
                .fetch_add(1, Ordering::Relaxed);
        }
        *g = Some(DegradedState {
            kind,
            reason: e.to_string(),
        });
        self.degraded_flag.store(true, Ordering::SeqCst);
    }

    fn clear_degraded(&self) {
        *lockm(&self.degraded) = None;
        self.degraded_flag.store(false, Ordering::SeqCst);
    }

    fn degraded_error(&self) -> StoreError {
        StoreError::Degraded {
            reason: lockm(&self.degraded)
                .as_ref()
                .map_or_else(|| "i/o fault".to_string(), |s| s.reason.clone()),
        }
    }

    /// Whether the ingestor is in read-only degraded mode: an I/O fault
    /// (WAL append or seal) was hit, reads keep serving, and
    /// [`Self::append`] fails with [`StoreError::Degraded`] until a
    /// recovery succeeds.
    pub fn is_degraded(&self) -> bool {
        self.degraded_flag.load(Ordering::SeqCst)
    }

    /// The fault description while degraded, `None` when healthy.
    pub fn degraded_reason(&self) -> Option<String> {
        lockm(&self.degraded).as_ref().map(|s| s.reason.clone())
    }

    /// Attempts to leave degraded mode with the recovery action matching
    /// the recorded fault: truncate the WAL's torn tail after a failed
    /// append, or retry the seal after a failed one. Returns `Ok(true)` on
    /// recovery (or when already healthy); on `Err` the ingestor stays
    /// degraded for the next retry. The background worker calls this on a
    /// capped exponential backoff; it is also safe to call directly.
    pub fn try_recover(&self) -> Result<bool, StoreError> {
        let kind = match *lockm(&self.degraded) {
            Some(ref s) => s.kind,
            None => return Ok(true),
        };
        match kind {
            FaultKind::WalAppend => {
                let mut w = lockm(&self.writer);
                w.wal.repair()?;
                self.metrics.repairs.fetch_add(1, Ordering::Relaxed);
                self.clear_degraded();
                Ok(true)
            }
            FaultKind::Seal => {
                // `seal` re-enters degraded (refreshing the reason) when
                // the retry fails, and clears it at the commit point.
                self.seal()?;
                self.clear_degraded();
                Ok(true)
            }
        }
    }

    // ------------------------------------------------------------------
    // Background worker
    // ------------------------------------------------------------------

    /// Starts a background thread that periodically cuts full head chunks
    /// and seals once chunked head points reach `cfg.seal_points`. While
    /// the ingestor is degraded, the worker instead retries
    /// [`Self::try_recover`] on a capped exponential backoff with jitter
    /// (`cfg.retry_base` / `cfg.retry_cap`) — it never dies on an I/O
    /// error, and degraded mode clears automatically once a retry
    /// succeeds. The worker stops when the returned handle drops.
    pub fn start_background(self: &Arc<Self>, cfg: BackgroundConfig) -> BackgroundHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let me = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut backoff = crate::backoff::Backoff::new(cfg.retry_base, cfg.retry_cap);
            let mut next_retry = Instant::now();
            while !flag.load(Ordering::Relaxed) {
                // Sleep in small quanta so handle drop is prompt.
                let woke = Instant::now();
                while woke.elapsed() < cfg.interval {
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10).min(cfg.interval));
                }
                if !me.is_degraded() {
                    backoff.reset();
                    // Should this tick degrade the ingestor, the first
                    // recovery retry runs without delay.
                    next_retry = Instant::now();
                    me.tick();
                } else if Instant::now() >= next_retry {
                    // Degraded: don't hammer a failing disk — retry
                    // recovery on the backoff schedule only.
                    match me.try_recover() {
                        Ok(_) => backoff.reset(),
                        Err(_) => {
                            me.background_errors.fetch_add(1, Ordering::Relaxed);
                            next_retry = Instant::now() + backoff.next_delay();
                        }
                    }
                }
            }
        });
        BackgroundHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// One background pass over a healthy ingestor: cut every full head
    /// chunk (the chunks of heads replayed raw at open are cut here), then
    /// seal if the threshold is met. Errors are counted in
    /// [`Self::background_errors`]; a failed seal has also tripped
    /// degraded mode, which the worker's retry loop owns.
    fn tick(&self) {
        self.roll_all_heads(&lockm(&self.writer));
        let chunked: usize = {
            let s = lockr(&self.shared);
            s.heads.iter().map(|(_, h)| lockm(h).chunked_len()).sum()
        };
        if chunked >= self.cfg.seal_points && self.seal().is_err() {
            self.background_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Stops the background worker when dropped (joining its thread).
pub struct BackgroundHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl BackgroundHandle {
    /// Stops the worker and waits for it to finish.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for BackgroundHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neats_store::MAX_TIMESTAMP;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn ingestor_is_send_and_sync() {
        assert_send_sync::<Ingestor>();
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("neats-ingestor-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_cfg() -> IngestConfig {
        IngestConfig {
            chunk_points: 64,
            seal_points: 128,
            ..IngestConfig::default()
        }
    }

    #[test]
    fn lifecycle_append_seal_reopen() {
        let dir = tmp_dir("lifecycle");
        let stamps: Vec<u64> = (0..500u64).map(|i| 10 + i * 3).collect();
        let values: Vec<i64> = (0..500).map(|k: i64| k * k % 211 - 40).collect();
        {
            let ing = Ingestor::open(&dir, small_cfg()).unwrap();
            for chunk in 0..10 {
                let r = chunk * 50..(chunk + 1) * 50;
                ing.append("s", &stamps[r.clone()], &values[r]).unwrap();
            }
            assert_eq!(ing.len("s").unwrap(), 500);
            // Everything answers before any seal…
            assert_eq!(ing.get("s", 499).unwrap(), values[499]);
            let e0 = ing.epoch();
            let e1 = ing.seal().unwrap();
            assert_eq!(e1, e0 + 1);
            // …and identically after: 7 full 64-chunks sealed, 52 in head.
            assert_eq!(ing.head_points(), 500 - 448);
            let mut out = Vec::new();
            ing.range("s", 0..500, &mut out).unwrap();
            assert_eq!(out, values);
            assert_eq!(ing.at_time("s", stamps[470]).unwrap(), Some(values[470]));
            let mut pairs = Vec::new();
            ing.range_by_time_chunks_in(&mut RangeScratch::default(), "s", 0, u64::MAX, |c| {
                pairs.extend_from_slice(c)
            })
            .unwrap();
            assert_eq!(pairs, stamps.iter().copied().zip(values.iter().copied()).collect::<Vec<_>>());
        }
        // Reopen: the tail comes back from the WAL.
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        assert_eq!(ing.len("s").unwrap(), 500);
        let mut out = Vec::new();
        ing.range("s", 0..500, &mut out).unwrap();
        assert_eq!(out, values);
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A WAL that an earlier build left holding a delete record (kind 2)
    /// does not open: replaying past the record would resurrect the series,
    /// and truncating at it would lose the append logged behind it. The
    /// refusal leaves the file as it found it.
    #[test]
    fn open_refuses_a_delete_record_and_leaves_the_wal_intact() {
        let dir = tmp_dir("kind2");
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        ing.append("a", &[1, 2], &[10, 20]).unwrap();
        drop(ing);
        let mut payload = succinct::WireWriter::new();
        payload.u8(2);
        payload.bytes(b"a");
        let payload = payload.finish();
        let path = dir.join(manifest::wal_name(0));
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend((payload.len() as u32).to_le_bytes());
        bytes.extend(succinct::crc64(&payload).to_le_bytes());
        bytes.extend(&payload);
        bytes.extend(crate::wal::encode_record(&WalOp::Append {
            series: "b".into(),
            stamps: vec![5],
            values: vec![50],
        }));
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(Ingestor::open(&dir, small_cfg()), Err(StoreError::Corrupt(_))));
        assert!(fs::read(&path).unwrap() == bytes, "the refused WAL was modified");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An acknowledged batch must be sealable. A span of `u64::MAX` is not:
    /// its Elias-Fano universe overflows, so the seal would panic under the
    /// writer lock or write a timestamp blob that never verifies (the series
    /// `Quarantined` for ever, across reopens).
    #[test]
    fn timestamp_u64_max_is_rejected_before_the_wal() {
        let dir = tmp_dir("stamp_max");
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        assert_eq!(
            ing.append("s", &[0, u64::MAX], &[1, 2]),
            Err(StoreError::TimestampUnrepresentable { series: "s".into(), index: 1 })
        );
        assert!(ing.series_summaries().is_empty(), "a rejected batch leaves no trace");
        // The widest span there is seals, reopens and reads back.
        ing.append("s", &[0, MAX_TIMESTAMP], &[1, 2]).unwrap();
        assert_eq!(ing.flush().unwrap(), 1);
        drop(ing);
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        assert_eq!(ing.len("s").unwrap(), 2);
        assert_eq!(ing.get("s", 1).unwrap(), 2);
        assert_eq!(ing.at_time("s", MAX_TIMESTAMP).unwrap(), Some(2));
        assert_eq!(ing.at_time("s", u64::MAX).unwrap(), None);
        let mut out = Vec::new();
        ing.range_by_time_chunks_in(&mut RangeScratch::default(), "s", 1, u64::MAX, |c| {
            out.extend_from_slice(c)
        })
        .unwrap();
        assert_eq!(out, vec![(MAX_TIMESTAMP, 2)]);
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One series of the byte-identity property: its points, the end of
    /// every chunk the write path must have cut, with the batch build of
    /// exactly that slice, and how many points the last seal left sealed.
    #[derive(Default)]
    struct Tiled {
        name: String,
        stamps: Vec<u64>,
        values: Vec<i64>,
        tiles: Vec<(usize, Vec<u8>)>,
        sealed: usize,
    }

    impl Tiled {
        fn cut_end(&self) -> usize {
            self.tiles.last().map_or(0, |t| t.0)
        }

        fn cut(&mut self, end: usize, builder: &NeaTSBuilder) {
            let slice = self.values[self.cut_end()..end].to_vec();
            self.tiles.push((end, builder.build(&TimeSeries::from_values(slice)).to_bytes()));
        }

        /// The tiles inside `lo..hi`, in the shape [`Head::sealed_parts`]
        /// and [`StoreWriter::append_compressed_segment`] speak.
        fn parts(&self, lo: usize, hi: usize) -> Vec<(Vec<u8>, Vec<u64>)> {
            let starts = std::iter::once(0).chain(self.tiles.iter().map(|t| t.0));
            starts
                .zip(&self.tiles)
                .filter(|&(start, &(end, _))| lo <= start && end <= hi)
                .map(|(start, (end, frame))| (frame.clone(), self.stamps[start..*end].to_vec()))
                .collect()
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum TileStep {
        /// Append `count` points to series `sid`; `to_boundary` stretches or
        /// trims the batch so it ends exactly on a chunk boundary.
        Append { sid: usize, count: usize, to_boundary: bool },
        Seal,
        Flush,
        Reopen,
    }

    /// The pack a seal must commit: the `prev` pack, appended with each
    /// series' newly sealed tiles in the catalog order of the ingestor's
    /// new generation.
    fn expected_pack_after_seal(ing: &Ingestor, prev: &[u8], model: &mut [Tiled]) -> Vec<u8> {
        let s = lockr(&ing.shared);
        let mut w = StoreWriter::append_to(prev, ing.store_cfg()).unwrap();
        for e in s.gen.store.entries() {
            let m = model.iter_mut().find(|m| m.name == e.name()).expect("sealed series in model");
            for (frame, stamps) in m.parts(m.sealed, e.len()) {
                w.append_compressed_segment(e.name(), &frame, &stamps).unwrap();
            }
            m.sealed = e.len();
        }
        w.finish().unwrap()
    }

    /// The sealed pack is byte for byte the `pack` built from the model's
    /// tiles, every head chunk, in order, is the tile the model cut, and
    /// the raw tail is what is left.
    fn assert_chunks_are_batch_builds(ing: &Ingestor, model: &[Tiled], pack: &[u8]) {
        let s = lockr(&ing.shared);
        assert!(s.gen.store.as_bytes() == pack, "sealed pack");
        for m in model.iter().filter(|m| !m.values.is_empty()) {
            let name = &m.name;
            let sealed = s.gen.store.series(name).map_or(0, |e| e.len());
            let Some(head) = s.head(name) else {
                assert_eq!(sealed, m.values.len(), "{name}: no head, so all sealed");
                continue;
            };
            let head = lockm(&head);
            assert_eq!(head.first_index, sealed, "{name}: head anchor");
            assert!(head.sealed_parts() == m.parts(sealed, m.cut_end()), "{name}: head chunk frames");
            let tail = (m.stamps[m.cut_end()..].to_vec(), m.values[m.cut_end()..].to_vec());
            assert_eq!(head.tail_parts(), tail, "{name}: raw tail");
        }
    }

    /// Right after a reopen nothing is compressed: every head is the raw
    /// replay of exactly what the model has not sealed.
    fn assert_replayed_raw(ing: &Ingestor, model: &[Tiled]) {
        let s = lockr(&ing.shared);
        for m in model.iter().filter(|m| !m.values.is_empty()) {
            let name = &m.name;
            let sealed = s.gen.store.series(name).map_or(0, |e| e.len());
            let Some(head) = s.head(name) else {
                assert_eq!(sealed, m.values.len(), "{name}: no head, so all sealed");
                continue;
            };
            let head = lockm(&head);
            assert_eq!(head.chunked_len(), 0, "{name}: replay built a chunk");
            assert_eq!(head.first_index, sealed, "{name}: head anchor");
            let unsealed = (m.stamps[sealed..].to_vec(), m.values[sealed..].to_vec());
            assert_eq!(head.tail_parts(), unsealed, "{name}: raw tail after replay");
        }
    }

    fn run_tiled_trace(tag: &str, steps: &[TileStep], chunk_points: usize, sneats: bool, seed: u64) {
        let dir = tmp_dir(tag);
        let builder = if sneats { neats_core::NeaTS::sneats() } else { neats_core::NeaTS::builder() };
        let cfg = IngestConfig {
            chunk_points,
            fsync: FsyncPolicy::Never,
            builder: builder.clone(),
            ..IngestConfig::default()
        };
        let mut ing = Ingestor::open(&dir, cfg.clone()).unwrap();
        let mut model = [0, 1].map(|sid| Tiled { name: format!("s{sid}"), ..Tiled::default() });
        let mut pack = StoreWriter::new(StoreConfig::default()).finish().unwrap();
        let mut epoch = ing.epoch();
        let mut x = seed | 1;
        let mut rng = move || {
            x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
            x >> 33
        };
        for &step in steps {
            match step {
                TileStep::Append { sid, count, to_boundary } => {
                    let m = &mut model[sid];
                    let from = m.values.len();
                    let count = if to_boundary {
                        count.next_multiple_of(chunk_points) - (from - m.cut_end())
                    } else {
                        count
                    };
                    for _ in 0..count {
                        m.stamps.push(m.stamps.last().map_or(1_000, |t| t + 1 + rng() % 9));
                        m.values.push(m.values.last().map_or(0, |v| v + (rng() % 41) as i64 - 20));
                    }
                    ing.append(&m.name, &m.stamps[from..], &m.values[from..]).unwrap();
                    while m.values.len() - m.cut_end() >= chunk_points {
                        m.cut(m.cut_end() + chunk_points, &builder);
                    }
                }
                TileStep::Seal => {
                    ing.seal().unwrap();
                }
                TileStep::Flush => {
                    ing.flush().unwrap();
                    for m in &mut model {
                        if m.values.len() > m.cut_end() {
                            m.cut(m.values.len(), &builder);
                        }
                    }
                }
                TileStep::Reopen => {
                    drop(ing);
                    ing = Ingestor::open(&dir, cfg.clone()).unwrap();
                    assert_replayed_raw(&ing, &model);
                    // One background tick cuts the chunks the replay left raw.
                    ing.tick();
                }
            }
            if ing.epoch() != epoch {
                epoch = ing.epoch();
                pack = expected_pack_after_seal(&ing, &pack, &mut model);
            }
            assert_chunks_are_batch_builds(&ing, &model, &pack);
        }
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The human-checkable case: 64-point chunks, a flush after 100 points
    /// (tiles 64 | 36) and another 300 later (64 × 4 | 44), a raw replay of
    /// unsealed chunks and of a bare tail — with both builders.
    #[test]
    fn flush_forced_short_chunks_are_batch_builds() {
        use TileStep::*;
        let append = |count| Append { sid: 0, count, to_boundary: false };
        let steps =
            [append(100), Flush, append(200), Reopen, append(100), Flush, append(70), Seal, Reopen];
        for sneats in [false, true] {
            run_tiled_trace("tiles-fixed", &steps, 64, sneats, 7);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// A chunk cut from the live stream is the offline build of the same
        /// slice: after every step of a trace of appends (any batch size,
        /// ending on and off chunk boundaries), seals, flushes and reopens,
        /// every sealed segment frame and every head chunk is byte-identical
        /// to `builder.build` of the slice it covers, and the chunk
        /// boundaries are where `chunk_points` and `flush` put them. A
        /// reopen replays the unsealed points raw; the next background tick
        /// cuts the same chunks.
        #[test]
        fn every_chunk_is_the_batch_build_of_its_slice(
            raw in proptest::collection::vec((0u8..=255, 0u16..=999), 4..28),
            chunk_points in 4usize..40,
            sneats in proptest::prelude::any::<bool>(),
            seed in 1u64..u64::MAX,
        ) {
            let steps: Vec<TileStep> = raw
                .iter()
                .map(|&(kind, a)| match kind % 10 {
                    0..=5 => TileStep::Append {
                        sid: (a % 2) as usize,
                        count: 1 + a as usize % (3 * chunk_points),
                        to_boundary: kind % 10 == 5,
                    },
                    6 | 7 => TileStep::Seal,
                    8 => TileStep::Flush,
                    _ => TileStep::Reopen,
                })
                .collect();
            run_tiled_trace("tiles-prop", &steps, chunk_points, sneats, seed);
        }
    }

    /// A WAL holding more than two chunk-widths per series reopens without
    /// a single build, answers every acknowledged point from the raw tail,
    /// and an explicit seal still cuts and seals the full chunks.
    #[test]
    fn reopen_answers_raw_and_seal_cuts_the_chunks() {
        let dir = tmp_dir("raw-replay");
        let stamps: Vec<u64> = (0..150u64).map(|i| 7 + i * 2).collect();
        let values: Vec<i64> = (0..150).map(|k: i64| k * k % 97 - 30).collect();
        let names = ["a", "b"];
        {
            let ing = Ingestor::open(&dir, small_cfg()).unwrap();
            for name in names {
                ing.append(name, &stamps, &values).unwrap();
            }
        }
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        assert_eq!(ing.metrics.chunk_build_ns.count(), 0, "replay built a chunk");
        let check = |ing: &Ingestor| {
            for name in names {
                assert_eq!(ing.len(name).unwrap(), 150);
                for k in [0, 63, 64, 127, 128, 149] {
                    assert_eq!(ing.get(name, k).unwrap(), values[k], "{name}[{k}]");
                    assert_eq!(ing.at_time(name, stamps[k]).unwrap(), Some(values[k]));
                }
                let mut out = Vec::new();
                ing.range(name, 0..150, &mut out).unwrap();
                assert_eq!(out, values, "{name}");
            }
        };
        check(&ing);
        let e = ing.epoch();
        assert_eq!(ing.seal().unwrap(), e + 1);
        // Two 64-point chunks per series built and sealed; 22 points stay raw.
        assert_eq!(ing.metrics.chunk_build_ns.count(), 4);
        assert_eq!(ing.head_points(), 2 * 22);
        check(&ing);
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_validation() {
        let dir = tmp_dir("validation");
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        assert!(matches!(
            ing.append("", &[1], &[1]),
            Err(StoreError::EmptyName)
        ));
        assert!(matches!(
            ing.append("s", &[1, 2], &[1]),
            Err(StoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            ing.append("s", &[5, 5], &[1, 2]),
            Err(StoreError::TimestampOrder { index: 1, .. })
        ));
        ing.append("s", &[], &[]).unwrap(); // no-op, creates nothing
        assert!(ing.series_summaries().is_empty());
        ing.append("s", &[10], &[1]).unwrap();
        assert!(matches!(
            ing.append("s", &[10], &[2]),
            Err(StoreError::TimestampOrder { index: 0, .. })
        ));
        // The floor persists across a seal.
        ing.flush().unwrap();
        assert!(matches!(
            ing.append("s", &[10], &[2]),
            Err(StoreError::TimestampOrder { index: 0, .. })
        ));
        ing.append("s", &[11], &[2]).unwrap();
        assert!(matches!(
            ing.get("nope", 0),
            Err(StoreError::UnknownSeries(_))
        ));
        assert!(matches!(
            ing.get("s", 2),
            Err(StoreError::OutOfRange { index: 2, len: 2 })
        ));
        assert!(matches!(
            ing.range("s", 0..3, &mut Vec::new()),
            Err(StoreError::BadRange { .. })
        ));
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_worker_seals() {
        let dir = tmp_dir("background");
        let cfg = IngestConfig {
            chunk_points: 32,
            seal_points: 64,
            ..IngestConfig::default()
        };
        let ing = Arc::new(Ingestor::open(&dir, cfg).unwrap());
        let handle = ing.start_background(BackgroundConfig {
            interval: Duration::from_millis(20),
            ..Default::default()
        });
        let stamps: Vec<u64> = (0..256).collect();
        let values: Vec<i64> = (0..256).map(|k: i64| k * 7 % 97).collect();
        ing.append("s", &stamps, &values).unwrap();
        let t0 = Instant::now();
        while ing.epoch() == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(ing.epoch() > 0, "background seal never ran");
        let mut out = Vec::new();
        ing.range("s", 0..256, &mut out).unwrap();
        assert_eq!(out, values);
        handle.stop();
        assert_eq!(ing.background_errors(), 0);
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summaries_cover_sealed_and_head() {
        let dir = tmp_dir("summaries");
        let ing = Ingestor::open(&dir, small_cfg()).unwrap();
        let stamps: Vec<u64> = (0..100u64).map(|i| 5 + i).collect();
        let values: Vec<i64> = (0..100).collect();
        ing.append("s", &stamps, &values).unwrap();
        ing.seal().unwrap(); // 64 sealed, 36 in head
        let sums = ing.series_summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].points, 100);
        assert_eq!(sums[0].t_min, 5);
        assert_eq!(sums[0].t_max, 104);
        drop(ing);
        fs::remove_dir_all(&dir).unwrap();
    }
}
