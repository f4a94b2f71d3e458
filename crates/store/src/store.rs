//! The concurrent reader: open a pack once, serve many series zero-copy.

use crate::cache::{CacheStats, SegmentCache};
use crate::format::{self, SeriesEntry};
use crate::obs::{stage, Stage};
use crate::segment::SegmentView;
use crate::StoreError;
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Options for [`Store::open_with`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Target number of opened segment views kept cached across all series
    /// (`0` disables caching: every query re-parses its segment's headers;
    /// the O(bytes) verification still runs only once per segment). The
    /// budget is divided over the cache's shards, so an uneven working set
    /// can briefly hold up to `shards − 1` more entries than this.
    pub cache_capacity: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { cache_capacity: 256 }
    }
}

/// The decode buffers of the chunked range accessors
/// ([`Store::range_chunks_in`], [`Store::range_by_time_chunks_in`]): one
/// segment's decoded values and its `(timestamp, value)` pairs. Owned by the
/// caller and lent per call, so a loop of range queries — a serving worker —
/// decodes into the same two allocations every time; each grows to the
/// largest segment chunk it has held, never to a requested range. Contents
/// between calls are unspecified.
#[derive(Debug, Default)]
pub struct RangeScratch {
    /// The values of the chunk being handed to the callback.
    pub values: Vec<i64>,
    /// The `(timestamp, value)` pairs of the chunk being handed to the
    /// callback (time ranges only).
    pub pairs: Vec<(u64, i64)>,
}

impl RangeScratch {
    /// Bytes of buffer capacity currently held.
    pub fn retained_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<i64>()
            + self.pairs.capacity() * std::mem::size_of::<(u64, i64)>()
    }
}

/// A read-only, thread-safe view over a pack.
///
/// The pack bytes are held once in an `Arc<[u8]>`; every query runs through
/// a borrowed [`neats_core::ArchiveView`] over a slice of that buffer — no
/// per-query copy of archive data. Opened segment views are kept in a
/// sharded LRU cache, so a working set of hot segments is served without
/// even re-parsing headers. `Store` is `Send + Sync`; share it behind an
/// `Arc` and query from any number of threads.
///
/// **Verify once, parse per miss.** Opening a segment is a *parse*
/// (O(sections): headers and counts) plus a *verify* (O(bytes): two CRCs,
/// rank/select directories, fragment geometry, timestamp monotonicity). The
/// pack bytes are immutable for the life of a `Store` value, so bytes that
/// passed verification cannot stop passing it: the first touch of a segment
/// runs both halves and records the outcome, and every later cache miss on
/// it runs the parse alone. A new generation after a seal is a new `Store`
/// over new bytes and starts with every segment unverified.
pub struct Store {
    data: Arc<[u8]>,
    series: Vec<SeriesEntry>,
    index: HashMap<String, usize>,
    cache: SegmentCache,
    /// One [`state`] per segment of the pack, flat in catalog order; series
    /// `si`'s segments start at `state_base[si]`.
    seg_state: Box<[AtomicU8]>,
    state_base: Vec<usize>,
    /// Times the O(bytes) verification ran (pass or fail).
    verifications: AtomicU64,
}

/// What the store knows about one segment's bytes (the values of
/// `Store::seg_state`).
///
/// The state is a fact about immutable bytes, not a guard for data
/// published between threads, so `Relaxed` accesses suffice: whichever
/// thread reads `VERIFIED`, *some* thread finished verifying those very
/// bytes.
mod state {
    /// Never opened: the next miss runs parse + verify.
    pub(super) const UNVERIFIED: u8 = 0;
    /// Passed verification: a miss runs the parse alone.
    pub(super) const VERIFIED: u8 = 1;
    /// Failed to open: sticky for the life of this `Store` value, so one
    /// bad segment fails fast instead of re-running (and re-failing) its
    /// checksum on every query, while every other segment keeps serving.
    pub(super) const QUARANTINED: u8 = 2;
}

impl Store {
    /// Opens a pack from bytes with default [`StoreOptions`], validating
    /// the header, footer, catalog checksum, and every catalog invariant.
    pub fn open(data: impl Into<Arc<[u8]>>) -> Result<Self, StoreError> {
        Self::open_with(data, StoreOptions::default())
    }

    /// [`Self::open`] with explicit options.
    pub fn open_with(
        data: impl Into<Arc<[u8]>>,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let data = data.into();
        let (series, _) = format::parse_pack(&data)?;
        let index = series
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        let state_base: Vec<usize> = series
            .iter()
            .scan(0, |next, s| {
                let base = *next;
                *next += s.segments().len();
                Some(base)
            })
            .collect();
        let total_segments: usize = series.iter().map(|s| s.segments().len()).sum();
        Ok(Self {
            data,
            series,
            index,
            cache: SegmentCache::new(options.cache_capacity),
            seg_state: (0..total_segments)
                .map(|_| AtomicU8::new(state::UNVERIFIED))
                .collect(),
            state_base,
            verifications: AtomicU64::new(0),
        })
    }

    /// Opens a pack file from disk (one read into the shared buffer).
    pub fn open_path(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open(std::fs::read(path)?)
    }

    /// The pack bytes the store serves from.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The catalog entry for `name`, if present.
    pub fn series(&self, name: &str) -> Option<&SeriesEntry> {
        self.index.get(name).map(|&i| &self.series[i])
    }

    /// All catalog entries, in catalog order.
    pub fn entries(&self) -> &[SeriesEntry] {
        &self.series
    }

    /// Hit/miss counters of the segment-view cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn entry(&self, name: &str) -> Result<(usize, &SeriesEntry), StoreError> {
        match self.index.get(name) {
            Some(&i) => Ok((i, &self.series[i])),
            None => Err(StoreError::UnknownSeries(name.to_string())),
        }
    }

    /// Opens (or fetches from cache) segment `seg` of series `si`. The
    /// first miss on a segment verifies it; later misses only re-parse it
    /// (see the type docs). A segment that fails to open is quarantined:
    /// this and every later query touching it get
    /// [`StoreError::Quarantined`] without re-running the checksum, and all
    /// other segments keep serving.
    fn open_segment(&self, si: usize, seg: usize) -> Result<Arc<SegmentView>, StoreError> {
        let slot = &self.seg_state[self.state_base[si] + seg];
        if Self::is_quarantined(slot) {
            return Err(self.quarantine_error(si, seg));
        }
        let (mode, meta) = (self.series[si].mode(), &self.series[si].segments()[seg]);
        let opened = self.cache.get_or_open((si as u32, seg as u32), || {
            if crate::failpoint::triggered("store.open_segment") {
                return Err(StoreError::Corrupt(
                    "injected failpoint: store.open_segment",
                ));
            }
            if slot.load(Ordering::Relaxed) == state::VERIFIED {
                return SegmentView::parse(&self.data, meta, mode);
            }
            self.verifications.fetch_add(1, Ordering::Relaxed);
            let view = SegmentView::open(&self.data, meta, mode)?;
            // Leaves a quarantine set by a racing (injected) failure alone.
            let _ = slot.compare_exchange(
                state::UNVERIFIED,
                state::VERIFIED,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            Ok(view)
        });
        match opened {
            Ok(view) => Ok(view),
            Err(StoreError::Corrupt(_) | StoreError::Wire(_)) => {
                slot.store(state::QUARANTINED, Ordering::Relaxed);
                Err(self.quarantine_error(si, seg))
            }
            Err(e) => Err(e),
        }
    }

    fn quarantine_error(&self, si: usize, seg: usize) -> StoreError {
        StoreError::Quarantined {
            series: self.series[si].name().to_string(),
            segment: seg,
        }
    }

    fn is_quarantined(slot: &AtomicU8) -> bool {
        slot.load(Ordering::Relaxed) == state::QUARANTINED
    }

    /// Number of quarantined segments (segments that failed to open and now
    /// fail fast; see [`StoreError::Quarantined`]). One pass over the
    /// per-segment states. Quarantine is sticky for the life of the `Store`
    /// and each segment enters it once, so this count never falls: it is
    /// also the number of times a segment entered quarantine.
    pub fn quarantined_count(&self) -> usize {
        self.seg_state
            .iter()
            .filter(|s| Self::is_quarantined(s))
            .count()
    }

    /// Total times the O(bytes) segment verification ran since open, pass
    /// or fail: once per segment touched. Threads racing the very first
    /// touch of one segment may each verify it; once any of them has
    /// passed, no later miss does. Cache misses minus this count is the
    /// number of parse-only reopens.
    pub fn segment_verifications(&self) -> u64 {
        self.verifications.load(Ordering::Relaxed)
    }

    /// Index of the segment of `s` covering point `idx` (caller checks
    /// `idx < s.len()`; segments tile the index space contiguously).
    fn segment_of_index(s: &SeriesEntry, idx: usize) -> usize {
        s.segments()
            .partition_point(|m| m.first_index + m.count <= idx)
    }

    /// Index of the first segment of `s` whose span may contain `t`
    /// (`segments().len()` when `t` is past the last segment).
    fn segment_of_time(s: &SeriesEntry, t: u64) -> usize {
        s.segments().partition_point(|m| m.t_max < t)
    }

    fn check_range(s: &SeriesEntry, range: &Range<usize>) -> Result<(), StoreError> {
        if range.start > range.end || range.end > s.len() {
            return Err(StoreError::BadRange {
                start: range.start,
                end: range.end,
                len: s.len(),
            });
        }
        Ok(())
    }

    /// The value at series-global position `idx` (exact for lossless
    /// series, ε-bounded for lossy ones).
    pub fn get(&self, name: &str, idx: usize) -> Result<i64, StoreError> {
        let (si, s) = self.entry(name)?;
        if idx >= s.len() {
            return Err(StoreError::OutOfRange {
                index: idx,
                len: s.len(),
            });
        }
        let seg = Self::segment_of_index(s, idx);
        let view = self.open_segment(si, seg)?;
        Ok(view.archive().at(idx - s.segments()[seg].first_index))
    }

    /// The value recorded exactly at timestamp `t`, if any.
    pub fn at_time(&self, name: &str, t: u64) -> Result<Option<i64>, StoreError> {
        let (si, s) = self.entry(name)?;
        let seg = Self::segment_of_time(s, t);
        if seg == s.segments().len() || t < s.segments()[seg].t_min {
            return Ok(None);
        }
        let view = self.open_segment(si, seg)?;
        Ok(view.index_of_time(t).map(|i| view.archive().at(i)))
    }

    /// Appends the values at series-global positions `range` to `out`,
    /// stitching across segment boundaries.
    pub fn range(
        &self,
        name: &str,
        range: Range<usize>,
        out: &mut Vec<i64>,
    ) -> Result<(), StoreError> {
        let (si, s) = self.entry(name)?;
        Self::check_range(s, &range)?;
        self.for_each_overlap(si, s, &range, |view, local| {
            view.archive().range(local, out);
            Ok(())
        })
    }

    /// Streams the values at series-global positions `range` to `f` in
    /// segment-sized chunks, in order, without materialising the whole
    /// range. [`Self::range_chunks_in`] with buffers of its own: one
    /// allocation per call, bounded by the segment size.
    pub fn range_chunks(
        &self,
        name: &str,
        range: Range<usize>,
        f: impl FnMut(&[i64]),
    ) -> Result<(), StoreError> {
        self.range_chunks_in(&mut RangeScratch::default(), name, range, f)
    }

    /// Streams the values at series-global positions `range` to `f` in
    /// segment-sized chunks, in order: each chunk is decoded from the
    /// segment's zero-copy view into `scratch.values`, which is reserved
    /// per chunk — only once the range has passed the bounds check, and
    /// never for more than one segment — so a caller that keeps `scratch`
    /// allocates nothing in steady state and `0..N` cannot ask for an
    /// N-sized buffer. This is the accessor the serving layer renders
    /// `idx=A..B` responses from; each chunk's decode is one
    /// [`Stage::Decode`] span of the request trace.
    pub fn range_chunks_in(
        &self,
        scratch: &mut RangeScratch,
        name: &str,
        range: Range<usize>,
        mut f: impl FnMut(&[i64]),
    ) -> Result<(), StoreError> {
        let (si, s) = self.entry(name)?;
        Self::check_range(s, &range)?;
        let values = &mut scratch.values;
        self.for_each_overlap(si, s, &range, |view, local| {
            {
                let _decode = stage(Stage::Decode);
                values.clear();
                values.reserve(local.len());
                view.archive().range(local, values);
            }
            f(values);
            Ok(())
        })
    }

    /// Streams all `(timestamp, value)` pairs with timestamp in
    /// `[t_lo, t_hi]` to `f` in segment-sized chunks, in order.
    /// [`Self::range_by_time_chunks_in`] with buffers of its own.
    pub fn range_by_time_chunks(
        &self,
        name: &str,
        t_lo: u64,
        t_hi: u64,
        f: impl FnMut(&[(u64, i64)]),
    ) -> Result<(), StoreError> {
        self.range_by_time_chunks_in(&mut RangeScratch::default(), name, t_lo, t_hi, f)
    }

    /// Streams all `(timestamp, value)` pairs with timestamp in
    /// `[t_lo, t_hi]` to `f` in segment-sized chunks, in order — the
    /// time-indexed counterpart of [`Self::range_chunks_in`], with the same
    /// ownership of `scratch`. Per overlapping segment: two rank queries
    /// locate the window, the values are decoded in one sequential scan,
    /// and the timestamps come from one sequential cursor over the
    /// Elias-Fano column (a single `select` to seek, then a forward scan)
    /// zipped with them — reading `k` stamps costs one random access, not
    /// `k`. Window search, value decode and timestamp scan are one
    /// [`Stage::Decode`] span per segment.
    pub fn range_by_time_chunks_in(
        &self,
        scratch: &mut RangeScratch,
        name: &str,
        t_lo: u64,
        t_hi: u64,
        mut f: impl FnMut(&[(u64, i64)]),
    ) -> Result<(), StoreError> {
        let (si, s) = self.entry(name)?;
        if t_hi < t_lo {
            return Ok(());
        }
        let RangeScratch { values, pairs } = scratch;
        let mut seg = Self::segment_of_time(s, t_lo);
        while seg < s.segments().len() && s.segments()[seg].t_min <= t_hi {
            let view = self.open_segment(si, seg)?;
            let decode = stage(Stage::Decode);
            let first = view.lower_bound(t_lo);
            let end = view.stamps_leq(t_hi);
            if first < end {
                values.clear();
                values.reserve(end - first);
                view.archive().range(first..end, values);
                pairs.clear();
                pairs.reserve(end - first);
                pairs.extend(view.stamps_from(first).zip(values.iter().copied()));
                drop(decode);
                f(pairs);
            }
            seg += 1;
        }
        Ok(())
    }

    /// Folds `f` over every segment overlapping `range`, passing the opened
    /// view and the segment-local subrange — the shared walk under every
    /// stitched index-range query.
    fn for_each_overlap(
        &self,
        si: usize,
        s: &SeriesEntry,
        range: &Range<usize>,
        mut f: impl FnMut(&SegmentView, Range<usize>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        if range.is_empty() {
            return Ok(());
        }
        let mut seg = Self::segment_of_index(s, range.start);
        let mut pos = range.start;
        while pos < range.end {
            let meta = &s.segments()[seg];
            let to = range.end.min(meta.first_index + meta.count);
            let view = self.open_segment(si, seg)?;
            f(&view, pos - meta.first_index..to - meta.first_index)?;
            pos = to;
            seg += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::SegmentMeta;
    use crate::{StoreConfig, StoreMode, StoreWriter};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn store_is_send_and_sync() {
        assert_send_sync::<Store>();
    }

    fn demo_pack(segment_points: usize) -> (Vec<u64>, Vec<i64>, Vec<u8>) {
        let stamps: Vec<u64> = (0..1000u64).map(|i| 1_000 + i * 3).collect();
        let values: Vec<i64> = (0..1000).map(|k: i64| (k * k) / 37 - k).collect();
        let mut w = StoreWriter::new(StoreConfig {
            segment_points,
            ..StoreConfig::default()
        });
        w.ingest("demo", &stamps, &values).unwrap();
        let pack = w.finish().unwrap();
        (stamps, values, pack)
    }

    #[test]
    fn point_and_range_queries_stitch_across_segments() {
        let (stamps, values, pack) = demo_pack(128);
        let store = Store::open(pack).unwrap();
        let s = store.series("demo").unwrap();
        assert_eq!(s.len(), 1000);
        assert_eq!(s.segments().len(), 1000usize.div_ceil(128));
        for k in (0..1000).step_by(37) {
            assert_eq!(store.get("demo", k).unwrap(), values[k]);
            assert_eq!(store.at_time("demo", stamps[k]).unwrap(), Some(values[k]));
        }
        // Gap timestamps resolve to None.
        assert_eq!(store.at_time("demo", stamps[10] + 1).unwrap(), None);
        assert_eq!(store.at_time("demo", 0).unwrap(), None);
        assert_eq!(store.at_time("demo", u64::MAX).unwrap(), None);
        // A range spanning several segment boundaries.
        let mut out = Vec::new();
        store.range("demo", 100..900, &mut out).unwrap();
        assert_eq!(out, &values[100..900]);
        // The whole series by time pairs every stamp with its value.
        let mut pairs = Vec::new();
        store
            .range_by_time_chunks("demo", 0, u64::MAX, |c| pairs.extend_from_slice(c))
            .unwrap();
        let want: Vec<(u64, i64)> = stamps.iter().copied().zip(values.iter().copied()).collect();
        assert_eq!(pairs, want);
    }

    #[test]
    fn range_chunks_streams_the_same_values() {
        let (stamps, values, pack) = demo_pack(128);
        let store = Store::open(pack).unwrap();
        // Chunked streaming concatenates to exactly the materialised range,
        // and each chunk is bounded by the segment size.
        let mut streamed = Vec::new();
        let mut chunks = 0usize;
        store
            .range_chunks("demo", 100..900, |chunk| {
                assert!(!chunk.is_empty() && chunk.len() <= 128);
                streamed.extend_from_slice(chunk);
                chunks += 1;
            })
            .unwrap();
        assert_eq!(streamed, &values[100..900]);
        assert!(
            chunks >= 800 / 128,
            "expected one chunk per overlapped segment"
        );
        // Empty range: no callback at all.
        store
            .range_chunks("demo", 500..500, |_| panic!("no chunks for empty range"))
            .unwrap();
        // Errors mirror range().
        assert!(matches!(
            store.range_chunks("nope", 0..1, |_| {}),
            Err(StoreError::UnknownSeries(_))
        ));
        assert!(matches!(
            store.range_chunks("demo", 5..2000, |_| {}),
            Err(StoreError::BadRange { .. })
        ));
        // The time-indexed counterpart streams the same window's pairs.
        let mut streamed_t = Vec::new();
        store
            .range_by_time_chunks("demo", stamps[100], stamps[899], |chunk| {
                assert!(!chunk.is_empty() && chunk.len() <= 128);
                streamed_t.extend_from_slice(chunk)
            })
            .unwrap();
        let want: Vec<(u64, i64)> = stamps[100..900].iter().copied().zip(values[100..900].iter().copied()).collect();
        assert_eq!(streamed_t, want);
    }

    #[test]
    fn range_by_time_matches_filter() {
        let (stamps, values, pack) = demo_pack(100);
        let store = Store::open(pack).unwrap();
        for (t_lo, t_hi) in [
            (0, u64::MAX),
            (stamps[50], stamps[750]),
            (stamps[99] + 1, stamps[400]),
        ] {
            let mut got = Vec::new();
            store
                .range_by_time_chunks("demo", t_lo, t_hi, |c| got.extend_from_slice(c))
                .unwrap();
            let want: Vec<(u64, i64)> = stamps
                .iter()
                .zip(&values)
                .filter(|(&t, _)| t >= t_lo && t <= t_hi)
                .map(|(&t, &v)| (t, v))
                .collect();
            assert_eq!(got, want, "[{t_lo}, {t_hi}]");
        }
        store
            .range_by_time_chunks("demo", 10, 5, |_| panic!("no chunks for an inverted window"))
            .unwrap();
    }

    #[test]
    fn errors_are_structured() {
        let (_, _, pack) = demo_pack(128);
        let store = Store::open(pack).unwrap();
        assert!(matches!(
            store.get("nope", 0),
            Err(StoreError::UnknownSeries(_))
        ));
        assert!(matches!(
            store.get("demo", 1000),
            Err(StoreError::OutOfRange {
                index: 1000,
                len: 1000
            })
        ));
        assert!(matches!(
            store.range("demo", 5..2000, &mut Vec::new()),
            Err(StoreError::BadRange { .. })
        ));
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = store.range("demo", 9..3, &mut Vec::new());
        assert!(matches!(inverted, Err(StoreError::BadRange { .. })));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let (_, values, pack) = demo_pack(128);
        let store = Store::open_with(
            pack.clone(),
            StoreOptions {
                cache_capacity: 4,
            },
        )
        .unwrap();
        for _ in 0..3 {
            assert_eq!(store.get("demo", 5).unwrap(), values[5]);
        }
        let stats = store.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert!(stats.entries >= 1);
        assert!(stats.hit_rate() > 0.6);

        // capacity 0 disables caching: every lookup is a miss (a re-parse;
        // `uncached_store_verifies_each_segment_once` counts the verifies).
        let cold = Store::open_with(
            pack,
            StoreOptions {
                cache_capacity: 0,
            },
        )
        .unwrap();
        for _ in 0..3 {
            cold.get("demo", 5).unwrap();
        }
        let stats = cold.cache_stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn uncached_store_verifies_each_segment_once() {
        let (stamps, values, pack) = demo_pack(128);
        let cold = Store::open_with(
            pack.clone(),
            StoreOptions {
                cache_capacity: 0,
            },
        )
        .unwrap();
        let warm = Store::open(pack).unwrap();
        let segments = cold.series("demo").unwrap().segments().len();
        assert_eq!(cold.segment_verifications(), 0, "nothing verified at mount");

        // Three passes of every kind of query over every segment.
        let mut queries = 0u64;
        for pass in 0..3 {
            for k in (pass..1000).step_by(7) {
                assert_eq!(cold.get("demo", k).unwrap(), warm.get("demo", k).unwrap());
                assert_eq!(cold.get("demo", k).unwrap(), values[k]);
                assert_eq!(
                    cold.at_time("demo", stamps[k]).unwrap(),
                    warm.at_time("demo", stamps[k]).unwrap()
                );
                queries += 3;
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            cold.range("demo", 0..1000, &mut a).unwrap();
            warm.range("demo", 0..1000, &mut b).unwrap();
            assert_eq!(a, b);
        }

        // Every lookup missed, yet each segment was verified exactly once:
        // all the other misses re-parsed already-verified bytes.
        let stats = cold.cache_stats();
        assert_eq!(stats.hits, 0);
        assert!(
            stats.misses >= queries,
            "{} misses for {queries} queries",
            stats.misses
        );
        assert_eq!(cold.segment_verifications(), segments as u64);
        // The default store verified on its (only) miss per segment too.
        assert_eq!(warm.segment_verifications(), segments as u64);
        assert_eq!(warm.cache_stats().misses, segments as u64);
    }

    #[test]
    fn append_extends_a_series() {
        let mut w = StoreWriter::new(StoreConfig {
            segment_points: 64,
            ..Default::default()
        });
        let s1: Vec<u64> = (0..200).collect();
        let v1: Vec<i64> = (0..200).map(|k: i64| k % 17).collect();
        w.ingest("s", &s1, &v1).unwrap();
        let pack = w.finish().unwrap();

        let mut w = StoreWriter::append_to(
            &pack,
            StoreConfig {
                segment_points: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let s2: Vec<u64> = (200..300).collect();
        let v2: Vec<i64> = (0..100).map(|k: i64| -k).collect();
        w.ingest("s", &s2, &v2).unwrap();
        let pack2 = w.finish().unwrap();
        let store = Store::open(pack2).unwrap();
        let all: Vec<i64> = v1.iter().chain(&v2).copied().collect();
        let mut out = Vec::new();
        store.range("s", 0..300, &mut out).unwrap();
        assert_eq!(out, all);
        assert_eq!(store.at_time("s", 250).unwrap(), Some(v2[50]));
    }

    /// A byte of `blob` (a range of `pack` inside segment `meta`) whose
    /// corruption the O(sections) parse cannot see — only the verify can.
    /// The quarantine tests corrupt *these*, so a store that skipped
    /// verification would serve an answer where they expect an error.
    fn parse_invisible_flip(pack: &[u8], meta: &SegmentMeta, blob: Range<usize>) -> usize {
        let mid = blob.start + blob.len() / 2;
        (mid..blob.end)
            .find(|&pos| {
                let mut bad = pack.to_vec();
                bad[pos] ^= 0x40;
                let bad: Arc<[u8]> = bad.into();
                SegmentView::parse(&bad, meta, StoreMode::Lossless).is_ok()
                    && SegmentView::open(&bad, meta, StoreMode::Lossless).is_err()
            })
            .expect("a payload byte past the blob's midpoint")
    }

    #[test]
    fn corrupt_timestamp_blob_is_caught_by_the_one_verification() {
        let (_, values, mut pack) = demo_pack(128);
        let (bad_off, bad_first) = {
            let probe = Store::open(pack.clone()).unwrap();
            let m = &probe.series("demo").unwrap().segments()[1];
            let off = parse_invisible_flip(&pack, m, m.ts_offset..m.ts_offset + m.ts_len);
            (off, m.first_index)
        };
        pack[bad_off] ^= 0x40;
        // Caching off: were the verdict not remembered per segment, the
        // second query would re-parse the bad blob and answer from it.
        let store = Store::open_with(
            pack,
            StoreOptions {
                cache_capacity: 0,
            },
        )
        .unwrap();
        for _ in 0..3 {
            assert!(matches!(
                store.get("demo", bad_first + 5),
                Err(StoreError::Quarantined { segment: 1, .. })
            ));
            assert_eq!(store.get("demo", 5).unwrap(), values[5]);
        }
        assert_eq!(store.segment_verifications(), 2);
        assert_eq!(store.quarantined_count(), 1);
    }

    #[test]
    fn corrupt_segment_is_quarantined_not_fatal() {
        let stamps: Vec<u64> = (0..512u64).map(|i| 1_000 + i * 3).collect();
        let va: Vec<i64> = (0..512).map(|k: i64| k * k % 91).collect();
        let vb: Vec<i64> = (0..512).map(|k: i64| 7 - k).collect();
        let mut w = StoreWriter::new(StoreConfig {
            segment_points: 128,
            ..Default::default()
        });
        w.ingest("a", &stamps, &va).unwrap();
        w.ingest("b", &stamps, &vb).unwrap();
        let mut pack = w.finish().unwrap();

        // Flip one payload byte inside segment 2 of series "a": the pack
        // still opens (segment blobs are validated lazily) and the segment
        // still *parses*, but its checksum can no longer pass.
        let (bad_off, bad_first) = {
            let probe = Store::open(pack.clone()).unwrap();
            let m = &probe.series("a").unwrap().segments()[2];
            let off = parse_invisible_flip(&pack, m, m.data_offset..m.data_offset + m.data_len);
            (off, m.first_index)
        };
        pack[bad_off] ^= 0x40;
        let store = Store::open(pack).unwrap();

        // A query into the bad segment quarantines it — typed, per-segment.
        let hit = store.get("a", bad_first + 1);
        assert_eq!(
            hit,
            Err(StoreError::Quarantined {
                series: "a".into(),
                segment: 2
            }),
            "expected a quarantine, got {hit:?}"
        );
        assert_eq!(store.quarantined_count(), 1);
        assert_eq!(store.segment_verifications(), 1, "the failed verify counts");

        // Repeats fail fast with the same error (no re-verification churn).
        assert!(matches!(
            store.get("a", bad_first),
            Err(StoreError::Quarantined { segment: 2, .. })
        ));
        assert_eq!(store.segment_verifications(), 1, "sticky: no second verify");
        // A range crossing the bad segment reports the quarantine too.
        let mut out = Vec::new();
        assert!(matches!(
            store.range("a", 0..512, &mut out),
            Err(StoreError::Quarantined { .. })
        ));

        // Every other segment of "a" and the whole of "b" keep serving.
        out.clear();
        store.range("a", 0..128, &mut out).unwrap();
        assert_eq!(out, &va[0..128]);
        assert_eq!(store.get("a", 500).unwrap(), va[500]);
        out.clear();
        store.range("b", 0..512, &mut out).unwrap();
        assert_eq!(out, vb);
        // 3 good segments of "a" + 4 of "b" + the bad one, once each.
        assert_eq!(store.segment_verifications(), 8);
        // Still quarantined, still counted once.
        assert_eq!(store.quarantined_count(), 1);
    }
    #[test]
    fn segment_built_under_another_mode_is_quarantined() {
        use neats_core::NeaTS;
        use timeseries::TimeSeries;

        // A lossy series advertised as ε = 1, four segments.
        let stamps: Vec<u64> = (0..512u64).map(|i| 50 + i * 2).collect();
        let values: Vec<i64> = (0..512).map(|k: i64| (k * 37 % 101) * 40 + k).collect();
        let mut w = StoreWriter::new(StoreConfig {
            segment_points: 128,
            mode: StoreMode::Lossy { eps: 1 },
            ..Default::default()
        });
        w.ingest("s", &stamps, &values).unwrap();
        let pack = w.finish().unwrap();

        // What some other writer could have produced: segment 1's frame
        // replaced by one built from the same values under ε = 1000, or by a
        // lossless one, with the catalog and footer checksums recomputed —
        // every byte of the pack checks out, only the promise does not.
        let chunk = TimeSeries::from_values(values[128..256].to_vec());
        let wrong_eps = NeaTS::builder().build_lossy(&chunk, 1000);
        assert!(wrong_eps.view().max_error(&chunk) > 2, "the spliced frame must actually be looser");
        for frame in [wrong_eps.to_bytes(), NeaTS::compress(&chunk).to_bytes()] {
            let (mut entries, catalog_offset) = format::parse_pack(&pack).unwrap();
            let mut data = pack[..catalog_offset].to_vec();
            let meta = &mut entries[0].segments[1];
            meta.data_offset = data.len();
            meta.data_len = frame.len();
            data.extend_from_slice(&frame);
            let store = Store::open(format::seal(data, &entries)).unwrap();
            assert_eq!(store.series("s").unwrap().mode(), StoreMode::Lossy { eps: 1 });

            assert_eq!(
                store.get("s", 130),
                Err(StoreError::Quarantined { series: "s".into(), segment: 1 })
            );
            // Its neighbours keep serving, inside the advertised bound.
            for k in (0..128).chain(256..512) {
                assert!(store.get("s", k).unwrap().abs_diff(values[k]) <= 2, "get({k})");
            }
            assert_eq!(store.quarantined_count(), 1);
        }
    }
}
