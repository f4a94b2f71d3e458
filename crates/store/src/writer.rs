//! Building packs: batch ingestion, segmentation, and parallel compression.

use crate::format::{self, SegmentMeta, SeriesEntry, StoreMode};
use crate::{StoreError, MAX_TIMESTAMP};
use neats_core::parallel::{effective_threads, parallel_map_indexed};
use neats_core::{ArchiveView, NeaTSBuilder};
use succinct::{crc64, EliasFano, Wire, WireWriter};
use timeseries::TimeSeries;

/// Default maximum points per segment. Small enough that a point query
/// validates (on a cache miss) and caches a bounded amount of state, large
/// enough that per-segment overheads (frame header, parameter tables)
/// amortise.
pub const DEFAULT_SEGMENT_POINTS: usize = 8192;

/// Configuration for [`StoreWriter`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Maximum points per segment (must be ≥ 1).
    pub segment_points: usize,
    /// The compression pipeline for segment value columns.
    pub builder: NeaTSBuilder,
    /// Lossless archives, or lossy archives under an error bound.
    pub mode: StoreMode,
    /// Worker threads for the segment-compression fan-out at
    /// [`StoreWriter::finish`] (`0` = automatic, like
    /// [`neats_core::parallel::effective_threads`]).
    pub threads: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_points: DEFAULT_SEGMENT_POINTS,
            builder: neats_core::NeaTS::builder(),
            mode: StoreMode::Lossless,
            threads: 0,
        }
    }
}

struct WriterSeries {
    name: String,
    mode: StoreMode,
    /// Segments already present in the base bytes (append mode).
    committed: Vec<SegmentMeta>,
    /// Pre-compressed `(frame, stamps)` segments accepted by
    /// [`StoreWriter::append_compressed_segment`], emitted between the
    /// committed segments and any raw pending batch.
    pending_sealed: Vec<(Vec<u8>, Vec<u64>)>,
    pending_t: Vec<u64>,
    pending_v: Vec<i64>,
}

impl WriterSeries {
    fn last_timestamp(&self) -> Option<u64> {
        self.pending_t
            .last()
            .copied()
            .or_else(|| self.pending_sealed.last().and_then(|(_, t)| t.last().copied()))
            .or_else(|| self.committed.last().map(|m| m.t_max))
    }
}

/// The timestamp rules of every write path, for one batch of `name`: each
/// stamp must exceed its predecessor (`last`, the series' newest stored
/// stamp, for the first) and none may exceed [`MAX_TIMESTAMP`].
pub fn check_stamps(name: &str, stamps: &[u64], mut last: Option<u64>) -> Result<(), StoreError> {
    for (index, &t) in stamps.iter().enumerate() {
        if last.is_some_and(|p| t <= p) {
            return Err(StoreError::TimestampOrder { series: name.to_string(), index });
        }
        if t > MAX_TIMESTAMP {
            return Err(StoreError::TimestampUnrepresentable { series: name.to_string(), index });
        }
        last = Some(t);
    }
    Ok(())
}

/// A segment's timestamp blob: its first stamp, then the stamps rebased to
/// it as an Elias-Fano sequence (the universe is the time *span*).
fn timestamp_blob(stamps: &[u64]) -> Vec<u8> {
    let base_t = stamps[0];
    let rebased: Vec<u64> = stamps.iter().map(|&x| x - base_t).collect();
    let mut w = WireWriter::new();
    w.u64(base_t);
    EliasFano::new(&rebased).write(&mut w);
    w.finish()
}

/// Builds a pack: ingests `(series, timestamps, values)` batches, splits
/// them into bounded-size segments, and compresses all segments in parallel
/// at [`Self::finish`].
///
/// A writer can start fresh ([`Self::new`]) or from an existing pack
/// ([`Self::append_to`]); in the latter case existing segment bytes are
/// carried over verbatim and new batches append behind them.
pub struct StoreWriter {
    cfg: StoreConfig,
    /// Header + data region accumulated so far (committed blobs verbatim).
    base: Vec<u8>,
    series: Vec<WriterSeries>,
}

impl StoreWriter {
    /// A writer for a fresh pack.
    pub fn new(cfg: StoreConfig) -> Self {
        assert!(cfg.segment_points >= 1, "segment_points must be at least 1");
        Self { cfg, base: format::empty_pack(), series: Vec::new() }
    }

    /// A writer that appends to an existing pack: its catalog is parsed,
    /// its data region is kept verbatim, and new ingests extend the listed
    /// series or add new ones.
    pub fn append_to(pack: &[u8], cfg: StoreConfig) -> Result<Self, StoreError> {
        assert!(cfg.segment_points >= 1, "segment_points must be at least 1");
        let (entries, catalog_offset) = format::parse_pack(pack)?;
        let base = pack[..catalog_offset].to_vec();
        let series = entries
            .into_iter()
            .map(|e| WriterSeries {
                name: e.name,
                mode: e.mode,
                committed: e.segments,
                pending_sealed: Vec::new(),
                pending_t: Vec::new(),
                pending_v: Vec::new(),
            })
            .collect();
        Ok(Self { cfg, base, series })
    }

    /// The names of all series the writer currently holds, in catalog order.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.iter().map(|s| s.name.as_str()).collect()
    }

    /// Ingests one batch for `name` (creating the series on first sight,
    /// under the writer's configured mode). Timestamps must strictly
    /// increase within the batch and continue past the series' last stored
    /// timestamp. An empty batch is a no-op.
    pub fn ingest(
        &mut self,
        name: &str,
        timestamps: &[u64],
        values: &[i64],
    ) -> Result<(), StoreError> {
        if timestamps.len() != values.len() {
            return Err(StoreError::LengthMismatch {
                timestamps: timestamps.len(),
                values: values.len(),
            });
        }
        if name.is_empty() {
            return Err(StoreError::EmptyName);
        }
        if timestamps.is_empty() {
            return Ok(());
        }
        let slot = match self.series.iter().position(|s| s.name == name) {
            Some(i) => {
                if self.series[i].mode != self.cfg.mode {
                    return Err(StoreError::ModeMismatch { series: name.to_string() });
                }
                i
            }
            None => {
                self.series.push(WriterSeries {
                    name: name.to_string(),
                    mode: self.cfg.mode,
                    committed: Vec::new(),
                    pending_sealed: Vec::new(),
                    pending_t: Vec::new(),
                    pending_v: Vec::new(),
                });
                self.series.len() - 1
            }
        };
        let s = &mut self.series[slot];
        check_stamps(name, timestamps, s.last_timestamp())?;
        s.pending_t.extend_from_slice(timestamps);
        s.pending_v.extend_from_slice(values);
        Ok(())
    }

    /// Appends one **pre-compressed** segment to `name` (creating the series
    /// on first sight): `frame` must be a self-contained container frame as
    /// produced by the compressors' `to_bytes` — e.g. a chunk a live head
    /// already compressed — and `stamps` its
    /// per-point timestamps. The frame is validated (it must open, its point
    /// count must equal `stamps.len()`, and its flavor *and* error bound
    /// must equal the series mode, so the `eps` the catalog advertises is
    /// the one every segment was built under) and then carried into the
    /// pack verbatim at [`Self::finish`], skipping re-compression.
    ///
    /// Pre-compressed segments land *between* the committed segments and any
    /// raw pending batch, so for a given series all calls to this method
    /// must precede calls to [`Self::ingest`] within one writer — a sealed
    /// chunk arriving after raw points would otherwise reorder the series.
    pub fn append_compressed_segment(
        &mut self,
        name: &str,
        frame: &[u8],
        stamps: &[u64],
    ) -> Result<(), StoreError> {
        if name.is_empty() {
            return Err(StoreError::EmptyName);
        }
        let view = ArchiveView::open(frame)?;
        if view.len() != stamps.len() {
            return Err(StoreError::LengthMismatch {
                timestamps: stamps.len(),
                values: view.len(),
            });
        }
        if stamps.is_empty() {
            return Err(StoreError::Corrupt("pre-compressed segment has no points"));
        }
        if StoreMode::of(&view) != self.cfg.mode {
            return Err(StoreError::ModeMismatch { series: name.to_string() });
        }
        let slot = match self.series.iter().position(|s| s.name == name) {
            Some(i) => {
                if self.series[i].mode != self.cfg.mode {
                    return Err(StoreError::ModeMismatch { series: name.to_string() });
                }
                i
            }
            None => {
                self.series.push(WriterSeries {
                    name: name.to_string(),
                    mode: self.cfg.mode,
                    committed: Vec::new(),
                    pending_sealed: Vec::new(),
                    pending_t: Vec::new(),
                    pending_v: Vec::new(),
                });
                self.series.len() - 1
            }
        };
        let s = &mut self.series[slot];
        if !s.pending_t.is_empty() {
            return Err(StoreError::Corrupt("pre-compressed segment after raw pending batch"));
        }
        check_stamps(name, stamps, s.last_timestamp())?;
        s.pending_sealed.push((frame.to_vec(), stamps.to_vec()));
        Ok(())
    }

    /// Compresses every pending batch into segments — fanned out over up to
    /// `cfg.threads` scoped worker threads — and seals the pack (catalog +
    /// footer), returning the finished bytes.
    ///
    /// The output is deterministic and thread-count-invariant: segment
    /// compression itself is bit-identical across thread counts (the PR-2
    /// partitioner guarantee), and blobs are appended in catalog order.
    pub fn finish(self) -> Result<Vec<u8>, StoreError> {
        let StoreWriter { cfg, mut base, series } = self;

        // One task per future segment, across all series.
        struct Task<'a> {
            series: usize,
            stamps: &'a [u64],
            values: &'a [i64],
        }
        let mut tasks: Vec<Task<'_>> = Vec::new();
        for (si, s) in series.iter().enumerate() {
            for start in (0..s.pending_v.len()).step_by(cfg.segment_points) {
                let end = (start + cfg.segment_points).min(s.pending_v.len());
                tasks.push(Task {
                    series: si,
                    stamps: &s.pending_t[start..end],
                    values: &s.pending_v[start..end],
                });
            }
        }

        // The fan-out is across segments, so each task compresses with one
        // partitioner thread — nested parallelism would oversubscribe.
        let inner = cfg.builder.clone().threads(1);
        let threads = effective_threads(cfg.threads);
        let blobs: Vec<(Vec<u8>, Vec<u8>)> = parallel_map_indexed(tasks.len(), threads, |i| {
            let t = &tasks[i];
            let ts = TimeSeries::from_values(t.values.to_vec());
            let frame = match series[t.series].mode {
                StoreMode::Lossless => inner.build(&ts).to_bytes(),
                StoreMode::Lossy { eps } => inner.build_lossy(&ts, eps).to_bytes(),
            };
            (frame, timestamp_blob(t.stamps))
        });

        // Append blobs in task order and assemble the catalog.
        let mut entries: Vec<SeriesEntry> = series
            .iter()
            .map(|s| SeriesEntry {
                name: s.name.clone(),
                mode: s.mode,
                segments: s.committed.clone(),
            })
            .collect();
        // Pre-compressed segments land first, between each series' committed
        // segments and its freshly-compressed batch segments (the order
        // `append_compressed_segment` promises).
        for (si, s) in series.iter().enumerate() {
            for (frame, stamps) in &s.pending_sealed {
                let entry = &mut entries[si];
                let first_index = entry.len();
                let data_offset = base.len();
                base.extend_from_slice(frame);
                let ts_blob = timestamp_blob(stamps);
                let ts_offset = base.len();
                base.extend_from_slice(&ts_blob);
                entry.segments.push(SegmentMeta {
                    data_offset,
                    data_len: frame.len(),
                    ts_offset,
                    ts_len: ts_blob.len(),
                    ts_crc: crc64(&ts_blob),
                    first_index,
                    count: stamps.len(),
                    t_min: stamps[0],
                    t_max: *stamps.last().expect("non-empty sealed segment"),
                });
            }
        }
        for (task, (frame, ts_blob)) in tasks.iter().zip(&blobs) {
            let entry = &mut entries[task.series];
            let first_index = entry.len();
            let data_offset = base.len();
            base.extend_from_slice(frame);
            let ts_offset = base.len();
            base.extend_from_slice(ts_blob);
            entry.segments.push(SegmentMeta {
                data_offset,
                data_len: frame.len(),
                ts_offset,
                ts_len: ts_blob.len(),
                ts_crc: crc64(ts_blob),
                first_index,
                count: task.values.len(),
                t_min: task.stamps[0],
                t_max: *task.stamps.last().expect("non-empty task"),
            });
        }
        // A series that ended up with no segments (never filled) has no
        // catalog entry.
        entries.retain(|e| !e.segments.is_empty());
        Ok(format::seal(base, &entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_batches() {
        let mut w = StoreWriter::new(StoreConfig::default());
        assert!(matches!(w.ingest("", &[1], &[1]), Err(StoreError::EmptyName)));
        assert!(matches!(
            w.ingest("a", &[1, 2], &[1]),
            Err(StoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            w.ingest("a", &[5, 5], &[1, 2]),
            Err(StoreError::TimestampOrder { index: 1, .. })
        ));
        w.ingest("a", &[1, 2, 3], &[10, 20, 30]).unwrap();
        // The next batch must continue past stamp 3.
        assert!(matches!(
            w.ingest("a", &[3, 4], &[1, 2]),
            Err(StoreError::TimestampOrder { index: 0, .. })
        ));
        w.ingest("a", &[4], &[40]).unwrap();
        // `u64::MAX` is reserved, in a raw batch and beside a sealed frame.
        assert_eq!(
            w.ingest("a", &[5, u64::MAX], &[1, 2]),
            Err(StoreError::TimestampUnrepresentable { series: "a".into(), index: 1 })
        );
        let frame = StoreConfig::default().builder.build(&TimeSeries::from_values(vec![1, 2])).to_bytes();
        assert_eq!(
            w.append_compressed_segment("b", &frame, &[0, u64::MAX]),
            Err(StoreError::TimestampUnrepresentable { series: "b".into(), index: 1 })
        );
        w.ingest("a", &[MAX_TIMESTAMP], &[50]).unwrap();
    }

    #[test]
    fn empty_batch_is_noop_and_creates_nothing() {
        let mut w = StoreWriter::new(StoreConfig::default());
        w.ingest("ghost", &[], &[]).unwrap();
        assert!(w.series_names().is_empty());
        let pack = w.finish().unwrap();
        let (entries, _) = format::parse_pack(&pack).unwrap();
        assert!(entries.is_empty());
    }

    #[test]
    fn segments_split_at_the_configured_size() {
        let cfg = StoreConfig { segment_points: 100, ..StoreConfig::default() };
        let mut w = StoreWriter::new(cfg);
        let stamps: Vec<u64> = (0..250).collect();
        let values: Vec<i64> = (0..250).collect();
        w.ingest("s", &stamps, &values).unwrap();
        let pack = w.finish().unwrap();
        let (entries, _) = format::parse_pack(&pack).unwrap();
        assert_eq!(entries.len(), 1);
        let segs = entries[0].segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs.iter().map(|m| m.count()).collect::<Vec<_>>(), vec![100, 100, 50]);
        assert_eq!(segs[1].first_index(), 100);
        assert_eq!(segs[2].t_min(), 200);
    }

    #[test]
    fn pre_compressed_segments_roundtrip() {
        use crate::Store;

        // Compress two chunks out-of-band (as a live head would)…
        let v1: Vec<i64> = (0..100).map(|k| k * 3).collect();
        let v2: Vec<i64> = (0..60).map(|k| 300 + k).collect();
        let f1 = neats_core::NeaTS::compress(&TimeSeries::from_values(v1.clone())).to_bytes();
        let f2 = neats_core::NeaTS::compress(&TimeSeries::from_values(v2.clone())).to_bytes();
        let t1: Vec<u64> = (0..100).map(|i| 10 + i * 2).collect();
        let t2: Vec<u64> = (0..60).map(|i| 1000 + i * 5).collect();

        // …then hand them to the writer, followed by a raw tail batch.
        let mut w = StoreWriter::new(StoreConfig::default());
        w.append_compressed_segment("s", &f1, &t1).unwrap();
        w.append_compressed_segment("s", &f2, &t2).unwrap();
        w.ingest("s", &[2000, 2001], &[7, 8]).unwrap();
        let store = Store::open(w.finish().unwrap()).unwrap();

        let mut expect = v1;
        expect.extend(&v2);
        expect.extend([7, 8]);
        assert_eq!(store.series("s").unwrap().len(), expect.len());
        let mut got = Vec::new();
        store.range("s", 0..expect.len(), &mut got).unwrap();
        assert_eq!(got, expect);
        assert_eq!(store.at_time("s", 1000).unwrap(), Some(300));
        let stamps: Vec<u64> = t1.iter().chain(&t2).chain(&[2000, 2001]).copied().collect();
        let mut pairs = Vec::new();
        store
            .range_by_time_chunks("s", 0, u64::MAX, |c| pairs.extend_from_slice(c))
            .unwrap();
        assert_eq!(pairs, stamps.into_iter().zip(expect).collect::<Vec<_>>());
    }

    #[test]
    fn pre_compressed_segment_validation() {
        let values: Vec<i64> = (0..50).collect();
        let frame = neats_core::NeaTS::compress(&TimeSeries::from_values(values)).to_bytes();
        let stamps: Vec<u64> = (0..50).collect();

        let mut w = StoreWriter::new(StoreConfig::default());
        assert!(matches!(
            w.append_compressed_segment("", &frame, &stamps),
            Err(StoreError::EmptyName)
        ));
        // Count mismatch between frame and stamps.
        assert!(matches!(
            w.append_compressed_segment("s", &frame, &stamps[..49]),
            Err(StoreError::LengthMismatch { .. })
        ));
        // Garbage frame bytes.
        assert!(w.append_compressed_segment("s", &frame[..frame.len() - 1], &stamps).is_err());
        // Non-increasing stamps.
        let mut bad = stamps.clone();
        bad[10] = bad[9];
        assert!(matches!(
            w.append_compressed_segment("s", &frame, &bad),
            Err(StoreError::TimestampOrder { index: 10, .. })
        ));
        w.append_compressed_segment("s", &frame, &stamps).unwrap();
        // The next segment must continue past the last stamp.
        assert!(matches!(
            w.append_compressed_segment("s", &frame, &stamps),
            Err(StoreError::TimestampOrder { index: 0, .. })
        ));
        // A lossy frame cannot enter a lossless store.
        let ts = TimeSeries::from_values((0..50).map(|k| k * k).collect::<Vec<i64>>());
        let lossy = neats_core::NeaTS::builder().build_lossy(&ts, 16).to_bytes();
        let next: Vec<u64> = (100..150).collect();
        assert!(matches!(
            w.append_compressed_segment("s", &lossy, &next),
            Err(StoreError::ModeMismatch { .. })
        ));
        // Raw points pending ⇒ no more sealed segments for that series.
        w.ingest("s", &[100], &[1]).unwrap();
        assert!(matches!(
            w.append_compressed_segment("s", &frame, &[200]),
            Err(StoreError::LengthMismatch { .. })
        ));
        let next: Vec<u64> = (200..250).collect();
        assert!(matches!(
            w.append_compressed_segment("s", &frame, &next),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn pre_compressed_segment_must_match_the_mode_bound_included() {
        let ts = TimeSeries::from_values((0..50).map(|k| k * k % 97).collect::<Vec<i64>>());
        let stamps: Vec<u64> = (0..50).collect();
        let lossy = |eps| neats_core::NeaTS::builder().build_lossy(&ts, eps).to_bytes();
        let cfg = StoreConfig { mode: StoreMode::Lossy { eps: 1 }, ..StoreConfig::default() };

        let mut w = StoreWriter::new(cfg);
        // The right flavor under a looser bound than the series advertises,
        // and the wrong flavor altogether.
        for frame in [lossy(1000), neats_core::NeaTS::compress(&ts).to_bytes()] {
            assert_eq!(
                w.append_compressed_segment("s", &frame, &stamps),
                Err(StoreError::ModeMismatch { series: "s".into() })
            );
        }
        // A refusal leaves nothing behind: no series, no pending segment.
        assert!(w.series_names().is_empty());
        w.append_compressed_segment("s", &lossy(1), &stamps).unwrap();
        let (entries, _) = format::parse_pack(&w.finish().unwrap()).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].mode(), entries[0].segments().len()), (StoreMode::Lossy { eps: 1 }, 1));
    }

    #[test]
    fn finish_is_thread_count_invariant() {
        let build = |threads: usize| {
            let cfg = StoreConfig { segment_points: 64, threads, ..StoreConfig::default() };
            let mut w = StoreWriter::new(cfg);
            for name in ["a", "b", "c"] {
                let stamps: Vec<u64> = (0..300).map(|i| i * 7).collect();
                let values: Vec<i64> =
                    (0..300).map(|k: i64| k * k % 91 - (name.len() as i64)).collect();
                w.ingest(name, &stamps, &values).unwrap();
            }
            w.finish().unwrap()
        };
        let one = build(1);
        assert_eq!(one, build(2), "threads=2 diverges");
        assert_eq!(one, build(4), "threads=4 diverges");
    }
}
