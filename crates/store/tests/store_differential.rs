//! Differential tests for the pack store: every store answer must equal the
//! answer computed from **standalone archives** — for each segment, an
//! archive built independently from the same slice with the same
//! configuration (for lossless series, additionally the raw ingested
//! values) — across segment sizes × lossless/lossy × 1/2/4 writer threads.
//!
//! Also here: the catalog-region corruption guarantee. Every single-byte
//! corruption of the catalog region (catalog bytes + footer) is rejected
//! deterministically at `Store::open`; corruption of segment blobs is
//! rejected at first query of the affected segment.

use neats_core::{ArchiveView, NeaTS};
use neats_store::{
    RangeScratch, Store, StoreConfig, StoreMode, StoreOptions, StoreWriter, MAX_TIMESTAMP,
};
use proptest::prelude::*;
use timeseries::TimeSeries;

/// Writer fan-out thread counts the acceptance criteria call out.
const THREADS: [usize; 3] = [1, 2, 4];
/// Segment-size pool: tiny (many boundaries), medium, larger than most
/// generated series (single segment).
const SEGMENT_POINTS: [usize; 3] = [16, 64, 512];

/// One generated series: irregular strictly-increasing stamps + a walk.
#[derive(Clone, Debug)]
struct GenSeries {
    name: String,
    stamps: Vec<u64>,
    values: Vec<i64>,
}

fn gen_series(idx: usize, gaps: &[u64], deltas: &[i64]) -> GenSeries {
    let n = gaps.len().min(deltas.len());
    let mut t = 1_600_000_000u64 + idx as u64;
    let mut v = (idx as i64) * 13;
    let mut stamps = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        t += 1 + gaps[i];
        v += deltas[i];
        stamps.push(t);
        values.push(v);
    }
    GenSeries {
        name: format!("series-{idx}"),
        stamps,
        values,
    }
}

/// Standalone per-segment archives: the single-archive answers the store
/// must reproduce. Returns the opened bytes per segment plus the segment
/// boundaries `(first_index, count)`.
struct Standalone {
    segment_bytes: Vec<Vec<u8>>,
    bounds: Vec<(usize, usize)>,
}

impl Standalone {
    fn build(s: &GenSeries, segment_points: usize, mode: StoreMode) -> Self {
        let builder = NeaTS::builder().threads(1);
        let mut segment_bytes = Vec::new();
        let mut bounds = Vec::new();
        for start in (0..s.values.len()).step_by(segment_points) {
            let end = (start + segment_points).min(s.values.len());
            let ts = TimeSeries::from_values(s.values[start..end].to_vec());
            let bytes = match mode {
                StoreMode::Lossless => builder.build(&ts).to_bytes(),
                StoreMode::Lossy { eps } => builder.build_lossy(&ts, eps).to_bytes(),
            };
            segment_bytes.push(bytes);
            bounds.push((start, end - start));
        }
        Self {
            segment_bytes,
            bounds,
        }
    }

    fn views(&self) -> Vec<ArchiveView<'_>> {
        self.segment_bytes
            .iter()
            .map(|b| ArchiveView::open(b).expect("standalone"))
            .collect()
    }

    /// The full series as the standalone archives answer it.
    fn materialize(&self) -> Vec<i64> {
        self.views().iter().flat_map(|v| v.materialize()).collect()
    }
}

/// Checks the complete store query surface for one series against its
/// standalone archives.
fn assert_series_equivalent(
    store: &Store,
    s: &GenSeries,
    standalone: &Standalone,
    ranges: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let name = s.name.as_str();
    let entry = store.series(name).expect("series in catalog");
    let n = s.values.len();
    prop_assert_eq!(entry.len(), n);
    prop_assert_eq!(
        entry
            .segments()
            .iter()
            .map(|m| (m.first_index(), m.count()))
            .collect::<Vec<_>>(),
        standalone.bounds.clone(),
        "segment boundaries diverge"
    );
    let oracle = standalone.materialize();

    // Point queries: every index, plus both error edges.
    prop_assert_eq!(oracle.len(), n);
    for (k, &want) in oracle.iter().enumerate() {
        prop_assert_eq!(store.get(name, k).unwrap(), want, "get({})", k);
    }
    prop_assert!(store.get(name, n).is_err());

    // The whole series by time: every stamp, paired with its value.
    let mut pairs = Vec::new();
    store
        .range_by_time_chunks(name, 0, u64::MAX, |c| pairs.extend_from_slice(c))
        .unwrap();
    let want: Vec<(u64, i64)> = s.stamps.iter().copied().zip(oracle.iter().copied()).collect();
    prop_assert_eq!(pairs, want, "range_by_time_chunks over the whole series");

    // Time queries: every stored stamp hits, neighbours in gaps miss.
    for k in (0..n).step_by(3) {
        prop_assert_eq!(store.at_time(name, s.stamps[k]).unwrap(), Some(oracle[k]));
        let gap = s.stamps[k] + 1;
        if k + 1 >= n || s.stamps[k + 1] != gap {
            prop_assert_eq!(store.at_time(name, gap).unwrap(), None);
        }
    }
    if n > 0 {
        prop_assert_eq!(store.at_time(name, s.stamps[0] - 1).unwrap(), None);
        prop_assert_eq!(store.at_time(name, s.stamps[n - 1] + 1).unwrap(), None);
    }

    // Index ranges, stitched vs standalone stitching.
    for &(a, b) in ranges {
        let mut got = Vec::new();
        store.range(name, a..b, &mut got).unwrap();
        prop_assert_eq!(&got, &oracle[a..b], "range({}..{})", a, b);
    }

    // Time-interval queries against the filter oracle.
    if n > 0 {
        for &(a, b) in ranges.iter().take(3) {
            let (t_lo, t_hi) = if a < b {
                (s.stamps[a], s.stamps[b - 1])
            } else {
                (s.stamps[a.min(n - 1)], s.stamps[a.min(n - 1)])
            };
            let mut got = Vec::new();
            store
                .range_by_time_chunks(name, t_lo, t_hi, |c| got.extend_from_slice(c))
                .unwrap();
            let want: Vec<(u64, i64)> = s
                .stamps
                .iter()
                .zip(&oracle)
                .filter(|(&t, _)| t >= t_lo && t <= t_hi)
                .map(|(&t, &v)| (t, v))
                .collect();
            prop_assert_eq!(got, want, "range_by_time_chunks [{}, {}]", t_lo, t_hi);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Store answers == standalone-archive answers, lossless, across
    /// segment sizes × thread counts × 1–3 series per pack.
    #[test]
    fn lossless_store_equals_standalone(
        gaps in prop::collection::vec(0u64..300, 30..280),
        deltas in prop::collection::vec(-50i64..=50, 30..280),
        series_count in 1usize..=3,
        seg_idx in 0usize..SEGMENT_POINTS.len(),
        thread_idx in 0usize..THREADS.len(),
        range_seeds in prop::collection::vec((0usize..10_000, 0usize..10_000), 2..6),
    ) {
        run_case(
            &gaps, &deltas, series_count, SEGMENT_POINTS[seg_idx],
            THREADS[thread_idx], StoreMode::Lossless, &range_seeds,
        )?;
    }

    /// Same, lossy: store segments and standalone segments approximate the
    /// same slices under the same ε, so their answers must be identical.
    #[test]
    fn lossy_store_equals_standalone(
        gaps in prop::collection::vec(0u64..300, 30..220),
        deltas in prop::collection::vec(-50i64..=50, 30..220),
        series_count in 1usize..=2,
        eps in 0u64..90,
        seg_idx in 0usize..SEGMENT_POINTS.len(),
        thread_idx in 0usize..THREADS.len(),
        range_seeds in prop::collection::vec((0usize..10_000, 0usize..10_000), 2..5),
    ) {
        run_case(
            &gaps, &deltas, series_count, SEGMENT_POINTS[seg_idx],
            THREADS[thread_idx], StoreMode::Lossy { eps }, &range_seeds,
        )?;
    }
}

fn run_case(
    gaps: &[u64],
    deltas: &[i64],
    series_count: usize,
    segment_points: usize,
    threads: usize,
    mode: StoreMode,
    range_seeds: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let all: Vec<GenSeries> = (0..series_count)
        .map(|i| {
            // Derive distinct series from rotations of the generated pools.
            let rot = (i * 7) % gaps.len().max(1);
            let g: Vec<u64> = gaps[rot..].iter().chain(&gaps[..rot]).copied().collect();
            let d: Vec<i64> = deltas[rot..]
                .iter()
                .chain(&deltas[..rot])
                .copied()
                .collect();
            gen_series(i, &g, &d)
        })
        .collect();

    let cfg = StoreConfig {
        segment_points,
        builder: NeaTS::builder(),
        mode,
        threads,
    };
    let mut w = StoreWriter::new(cfg.clone());
    for s in &all {
        // Split each series into a few ingestion batches to exercise the
        // batch-boundary path as well as the segmentation path.
        let n = s.values.len();
        for (lo, hi) in [(0, n / 3), (n / 3, n / 3 + 1), (n / 3 + 1, n)] {
            w.ingest(&s.name, &s.stamps[lo..hi], &s.values[lo..hi])
                .unwrap();
        }
    }
    let pack = w.finish().unwrap();

    // Reopening a pack for append and appending nothing is the identity —
    // the byte-level fixed point of the catalog rewrite.
    prop_assert!(StoreWriter::append_to(&pack, cfg).unwrap().finish().unwrap() == pack);
    let store = Store::open_with(
        pack.clone(),
        StoreOptions {
            cache_capacity: 8,
        },
    )
    .unwrap();

    for s in &all {
        let standalone = Standalone::build(s, segment_points, mode);
        let n = s.values.len();
        let ranges: Vec<(usize, usize)> = range_seeds
            .iter()
            .map(|&(a, b)| {
                let lo = a % (n + 1);
                (lo, lo + b % (n - lo + 1))
            })
            .collect();
        assert_series_equivalent(&store, s, &standalone, &ranges)?;
    }
    Ok(())
}

/// Every window over `probes × probes` (inverted ones included) against the
/// linear filter of the model, through one reused scratch; chunks arrive
/// non-empty, at most one segment long, and concatenate to the answer.
/// Every probe is also a point lookup, against a linear scan for its stamp.
fn assert_time_windows(
    store: &Store,
    s: &GenSeries,
    segment_points: usize,
    probes: &[u64],
) -> Result<(), TestCaseError> {
    let mut scratch = RangeScratch::default();
    for &t_lo in probes {
        let hit = s.stamps.iter().position(|&t| t == t_lo).map(|i| s.values[i]);
        prop_assert_eq!(store.at_time(&s.name, t_lo).unwrap(), hit, "at_time({})", t_lo);
        for &t_hi in probes {
            let want: Vec<(u64, i64)> = s
                .stamps
                .iter()
                .zip(&s.values)
                .filter(|(&t, _)| t >= t_lo && t <= t_hi)
                .map(|(&t, &v)| (t, v))
                .collect();
            let mut got = Vec::new();
            store
                .range_by_time_chunks(&s.name, t_lo, t_hi, |c| got.extend_from_slice(c))
                .unwrap();
            prop_assert_eq!(&got, &want, "range_by_time_chunks [{}, {}]", t_lo, t_hi);
            let mut streamed = Vec::new();
            let mut bounded = true;
            store
                .range_by_time_chunks_in(&mut scratch, &s.name, t_lo, t_hi, |chunk| {
                    bounded &= !chunk.is_empty() && chunk.len() <= segment_points;
                    streamed.extend_from_slice(chunk);
                })
                .unwrap();
            prop_assert!(bounded, "chunk size, window [{}, {}]", t_lo, t_hi);
            prop_assert_eq!(
                &streamed,
                &want,
                "chunks through a reused scratch [{}, {}]",
                t_lo,
                t_hi
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `range_by_time_chunks` ≡ a linear filter of the model across segment
    /// boundaries — the timestamps come from a sequential cursor seeked once
    /// per segment, so the windows probe every way a window can meet one:
    /// starting and ending on a stamp, between two stamps, exactly on a
    /// segment's first and last stamp, before the first segment and after
    /// the last — with another series ahead of it in the pack.
    #[test]
    fn range_by_time_equals_linear_filter(
        gaps in prop::collection::vec(0u64..40, 40..200),
        deltas in prop::collection::vec(-50i64..=50, 40..200),
        seg_idx in 0usize..2,
        picks in prop::collection::vec(0usize..10_000, 3..6),
    ) {
        let segment_points = SEGMENT_POINTS[seg_idx];
        let keep = gen_series(0, &gaps, &deltas);
        let ahead = gen_series(1, &deltas.iter().map(|d| d.unsigned_abs()).collect::<Vec<_>>(), &deltas);
        let mut w = StoreWriter::new(StoreConfig { segment_points, ..StoreConfig::default() });
        w.ingest(&ahead.name, &ahead.stamps, &ahead.values).unwrap();
        w.ingest(&keep.name, &keep.stamps, &keep.values).unwrap();
        let pack = w.finish().unwrap();

        let n = keep.stamps.len();
        let (first, last) = (keep.stamps[0], keep.stamps[n - 1]);
        let mut probes = vec![0, first - 1, first, first + 1, last - 1, last, last + 1, u64::MAX];
        // Both sides of every segment boundary, and one past each.
        for b in (segment_points..n).step_by(segment_points) {
            probes.extend([keep.stamps[b - 1], keep.stamps[b - 1] + 1, keep.stamps[b]]);
        }
        // A few arbitrary stamps and their successors (a gap of 0 makes the
        // successor a stamp, otherwise it falls between two).
        for p in picks {
            probes.extend([keep.stamps[p % n], keep.stamps[p % n] + 1]);
        }
        probes.sort_unstable();
        probes.dedup();

        let store = Store::open(pack).unwrap();
        assert_time_windows(&store, &keep, segment_points, &probes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same oracle at the edges of the timestamp domain: a series based
    /// at stamp 0, one ending on `MAX_TIMESTAMP`, and one holding both — at
    /// 512 points per segment a single segment spanning the whole domain,
    /// the widest Elias-Fano universe there is. Probed below the base,
    /// between stamps, at `MAX_TIMESTAMP` and at the reserved `u64::MAX`.
    #[test]
    fn time_lookups_at_the_domain_extremes(
        gaps in prop::collection::vec(1u64..100, 2..60),
        deltas in prop::collection::vec(-50i64..=50, 120),
    ) {
        let low: Vec<u64> = gaps.iter().scan(0, |t, g| Some(std::mem::replace(t, *t + g))).collect();
        let mut high: Vec<u64> = low.iter().map(|t| MAX_TIMESTAMP - t).collect();
        high.reverse();
        let series = |name: &str, stamps: Vec<u64>| GenSeries {
            name: name.into(),
            values: deltas[..stamps.len()].iter().scan(0, |v, d| { *v += d; Some(*v) }).collect(),
            stamps,
        };
        let all = [
            series("low", low.clone()),
            series("high", high.clone()),
            series("widest", [low, high].concat()),
        ];
        for segment_points in SEGMENT_POINTS {
            let mut w = StoreWriter::new(StoreConfig { segment_points, ..StoreConfig::default() });
            for s in &all {
                w.ingest(&s.name, &s.stamps, &s.values).unwrap();
            }
            let store = Store::open(w.finish().unwrap()).unwrap();
            for s in &all {
                let mut probes = vec![0, 1, MAX_TIMESTAMP - 1, MAX_TIMESTAMP, u64::MAX];
                for &t in s.stamps.iter().step_by(7).chain(s.stamps.last()) {
                    probes.extend([t.saturating_sub(1), t, t.saturating_add(1)]);
                }
                probes.sort_unstable();
                probes.dedup();
                assert_time_windows(&store, s, segment_points, &probes)?;
                let mut pairs = Vec::new();
                store
                    .range_by_time_chunks(&s.name, 0, u64::MAX, |c| pairs.extend_from_slice(c))
                    .unwrap();
                let want: Vec<(u64, i64)> = s.stamps.iter().copied().zip(s.values.iter().copied()).collect();
                prop_assert_eq!(pairs, want, "range_by_time_chunks over the whole series");
            }
        }
    }
}

/// Per-byte corruption of the catalog region (catalog bytes + footer) is
/// rejected deterministically at open — exhaustively, two bit positions per
/// byte.
#[test]
fn catalog_region_corruption_is_rejected_per_byte() {
    let pack = corruption_pack();
    let catalog_offset =
        u64::from_le_bytes(pack[pack.len() - 32..pack.len() - 24].try_into().unwrap()) as usize;
    assert!(catalog_offset < pack.len());
    for pos in catalog_offset..pack.len() {
        for bit in [0u8, 7] {
            let mut bad = pack.clone();
            bad[pos] ^= 1 << bit;
            assert!(
                Store::open(bad).is_err(),
                "catalog-region flip at byte {pos} bit {bit} was accepted"
            );
        }
    }
    // The header magic/version are exact-match checks: also deterministic.
    for pos in 0..16 {
        let mut bad = pack.clone();
        bad[pos] ^= 1;
        assert!(
            Store::open(bad).is_err(),
            "header flip at byte {pos} was accepted"
        );
    }
}

/// Corruption inside the data region is caught at first query of the
/// affected segment: the value frame is self-checksummed, the timestamp
/// blob's CRC is recorded in the catalog.
#[test]
fn data_region_corruption_is_rejected_at_query_time() {
    let pack = corruption_pack();
    let catalog_offset =
        u64::from_le_bytes(pack[pack.len() - 32..pack.len() - 24].try_into().unwrap()) as usize;
    for pos in (16..catalog_offset).step_by(11) {
        let mut bad = pack.clone();
        bad[pos] ^= 1;
        // Catalog is intact, so the store still opens…
        let store = Store::open(bad).expect("catalog is intact");
        // …but the corrupted byte lives in exactly one segment blob, and
        // every query touching it must fail. Sweep all points of all series:
        // at least one must error, and no query may return a wrong value.
        let mut rejected = false;
        for name in ["alpha", "beta"] {
            let entry = store.series(name).unwrap();
            for k in 0..entry.len() {
                if store.get(name, k).is_err() {
                    rejected = true;
                    break;
                }
            }
        }
        assert!(
            rejected,
            "no query rejected the data-region flip at byte {pos}"
        );
    }
}

/// A small two-series pack used by the corruption tests.
fn corruption_pack() -> Vec<u8> {
    let mut w = StoreWriter::new(StoreConfig {
        segment_points: 48,
        ..StoreConfig::default()
    });
    let stamps: Vec<u64> = (0..160u64).map(|i| 10 + i * 5).collect();
    let a: Vec<i64> = (0..160).map(|k: i64| k * k / 9 - 2 * k).collect();
    let b: Vec<i64> = (0..160).map(|k: i64| 77 - k % 23).collect();
    w.ingest("alpha", &stamps, &a).unwrap();
    w.ingest("beta", &stamps, &b).unwrap();
    w.finish().unwrap()
}
