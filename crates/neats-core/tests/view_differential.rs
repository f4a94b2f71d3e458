//! Differential tests for the zero-copy read path: every answer from
//! [`ArchiveView`] must equal the answer from the owned structure decoded
//! from the *same* bytes, across arbitrary walks × rank modes ×
//! lossless/lossy × partitioner thread counts, and archive bytes must
//! round-trip unchanged through the container frame.
//!
//! This suite is the correctness argument for `ArchiveView`: the view
//! re-implements the query algorithms over borrowed bytes, so equivalence
//! is established by property testing rather than by construction.
//!
//! It also covers the split of `open` into `parse` + `verify`: a view from
//! `parse` alone over bytes that passed `open` answers exactly like the
//! opened view, and `parse` alone on corrupted or truncated bytes returns
//! `Err` or a view — it never panics (the per-byte suites that must *reject*
//! corruption go through `open`; see `serial.rs`).

use neats_core::{ArchiveView, Kind, NeaTS, NeaTSCompressed, NeaTSLossy, RankMode};
use proptest::prelude::*;
use timeseries::{CompressedSeries, TimeSeries};

/// Thread counts the acceptance criteria call out; selected by index so
/// proptest can shrink over them.
const THREADS: [usize; 3] = [1, 2, 4];

fn series(deltas: &[i64]) -> TimeSeries {
    let mut v = 0i64;
    TimeSeries::from_values(deltas.iter().map(|&d| { v += d; v }).collect())
}

/// Folds arbitrary seed pairs into `(start, count)` ranges inside `0..n`
/// (none when the series is empty).
fn ranges_within(seeds: &[(usize, usize)], n: usize) -> Vec<(usize, usize)> {
    seeds
        .iter()
        .filter(|_| n > 0)
        .map(|&(a, b)| {
            let s = a % n;
            (s, b % (n - s + 1))
        })
        .collect()
}

/// Asserts that `parsed` (from [`ArchiveView::parse`] alone) answers `at`,
/// `range` and every aggregate exactly like `opened` (from
/// [`ArchiveView::open`] of the same bytes).
fn assert_parse_equals_open(
    parsed: &ArchiveView<'_>,
    opened: &ArchiveView<'_>,
    ranges: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(parsed.len(), opened.len());
    prop_assert_eq!(parsed.flavor(), opened.flavor());
    prop_assert_eq!(parsed.shift(), opened.shift());
    prop_assert_eq!(parsed.fragment_count(), opened.fragment_count());
    prop_assert_eq!(parsed.kind_histogram(), opened.kind_histogram());
    prop_assert_eq!(parsed.materialize(), opened.materialize());
    for k in 0..opened.len() {
        prop_assert_eq!(parsed.at(k), opened.at(k), "at({})", k);
    }
    for &(s, c) in ranges {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        parsed.range(s..s + c, &mut got);
        opened.range(s..s + c, &mut want);
        prop_assert_eq!(got, want, "range({}..+{})", s, c);
        prop_assert_eq!(parsed.sum_range_exact(s, c), opened.sum_range_exact(s, c));
        prop_assert_eq!(parsed.sum_range_estimate(s, c), opened.sum_range_estimate(s, c));
        prop_assert_eq!(parsed.min_max_range_exact(s, c), opened.min_max_range_exact(s, c));
    }
    Ok(())
}

/// Opens `bytes`, parses them again without verifying, and checks the two
/// views agree ([`assert_parse_equals_open`]); returns the opened view.
fn open_and_reparse<'a>(
    bytes: &'a [u8],
    ranges: &[(usize, usize)],
) -> Result<ArchiveView<'a>, TestCaseError> {
    let opened = ArchiveView::open(bytes).unwrap();
    let parsed = ArchiveView::parse(bytes).unwrap();
    assert_parse_equals_open(&parsed, &opened, ranges)?;
    Ok(opened)
}

/// Compares the full lossless query surface of `view` against `owned`.
fn assert_lossless_equivalent(
    owned: &NeaTSCompressed,
    view: &ArchiveView<'_>,
    ranges: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let v = view.as_lossless().expect("lossless archive");
    prop_assert_eq!(view.len(), owned.len());
    prop_assert_eq!(view.fragment_count(), owned.fragment_count());
    prop_assert_eq!(v.shift(), owned.shift());
    prop_assert_eq!(view.materialize(), owned.decompress());
    prop_assert_eq!(view.kind_histogram(), owned.kind_histogram());
    for k in 0..owned.len() {
        prop_assert_eq!(view.at(k), owned.get(k), "at({})", k);
    }
    for i in 0..owned.fragment_count() {
        prop_assert_eq!(v.fragment(i), owned.fragment(i), "fragment({})", i);
        prop_assert_eq!(v.correction_width_of(i), owned.correction_width_of(i));
    }
    for &(s, c) in ranges {
        let mut got = Vec::new();
        v.scan_range(s, c, &mut got);
        let mut want = Vec::new();
        owned.scan_range(s, c, &mut want);
        prop_assert_eq!(got, want, "scan_range({}, {})", s, c);
        prop_assert_eq!(v.sum_range_exact(s, c), owned.sum_range_exact(s, c));
        prop_assert_eq!(v.sum_range_estimate(s, c), owned.sum_range_estimate(s, c));
        prop_assert_eq!(v.mean_range_estimate(s, c), owned.mean_range_estimate(s, c));
        if c > 0 {
            prop_assert_eq!(
                v.min_max_range_estimate(s, c),
                owned.min_max_range_estimate(s, c)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lossless_view_equals_owned(
        deltas in prop::collection::vec(-60i64..=60, 0..350),
        use_bitvector in any::<bool>(),
        thread_idx in 0usize..THREADS.len(),
        range_seeds in prop::collection::vec((0usize..10_000, 0usize..10_000), 1..6),
    ) {
        let ts = series(&deltas);
        let mode = if use_bitvector { RankMode::BitVector } else { RankMode::EliasFano };
        let owned = NeaTS::builder()
            .rank_mode(mode)
            .threads(THREADS[thread_idx])
            .build(&ts);
        let bytes = owned.to_bytes();

        // Bytes round-trip unchanged through the container frame.
        let reread = NeaTSCompressed::from_bytes(&bytes).unwrap();
        prop_assert_eq!(reread.to_bytes(), bytes.clone());

        let n = ts.len();
        let ranges = ranges_within(&range_seeds, n);
        let view = open_and_reparse(&bytes, &ranges)?;
        assert_lossless_equivalent(&owned, &view, &ranges)?;
    }

    #[test]
    fn lossy_view_equals_owned(
        deltas in prop::collection::vec(-60i64..=60, 0..350),
        eps in 0u64..120,
        thread_idx in 0usize..THREADS.len(),
        range_seeds in prop::collection::vec((0usize..10_000, 0usize..10_000), 1..5),
    ) {
        let ts = series(&deltas);
        let owned = NeaTS::builder()
            .threads(THREADS[thread_idx])
            .build_lossy(&ts, eps);
        let bytes = owned.to_bytes();

        let reread = NeaTSLossy::from_bytes(&bytes).unwrap();
        prop_assert_eq!(reread.to_bytes(), bytes.clone());

        let n = ts.len();
        let ranges = ranges_within(&range_seeds, n);
        let view = open_and_reparse(&bytes, &ranges)?;
        let v = view.as_lossy().expect("lossy archive");
        prop_assert_eq!(view.len(), owned.len());
        prop_assert_eq!(v.eps(), owned.eps());
        prop_assert_eq!(view.fragment_count(), owned.fragment_count());
        prop_assert_eq!(view.materialize(), owned.reconstruct());
        prop_assert_eq!(view.kind_histogram(), {
            // The owned NeaTSLossy exposes no histogram; derive it per fragment.
            let mut counts: Vec<(neats_core::Kind, usize)> = Vec::new();
            for i in 0..owned.fragment_count() {
                let kind = owned.fragment(i).kind;
                match counts.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((kind, 1)),
                }
            }
            // Match the view's kind-table order (first-seen order).
            counts
        });
        for k in 0..n {
            prop_assert_eq!(view.at(k), owned.approximate(k), "approximate({})", k);
        }
        for i in 0..owned.fragment_count() {
            prop_assert_eq!(v.fragment(i), owned.fragment(i), "fragment({})", i);
        }
        for &(s, c) in &ranges {
            let mut got = Vec::new();
            v.scan_range(s, c, &mut got);
            let recon = owned.reconstruct();
            prop_assert_eq!(&got[..], &recon[s..s + c], "scan_range({}, {})", s, c);
            prop_assert_eq!(v.sum_range_estimate(s, c), owned.sum_range_estimate(s, c));
        }
    }

    #[test]
    fn thread_count_never_changes_archive_bytes(
        deltas in prop::collection::vec(-30i64..=30, 1..250),
    ) {
        let ts = series(&deltas);
        let archives: Vec<Vec<u8>> = THREADS
            .iter()
            .map(|&t| NeaTS::builder().threads(t).build(&ts).to_bytes())
            .collect();
        prop_assert_eq!(&archives[0], &archives[1]);
        prop_assert_eq!(&archives[0], &archives[2]);
        // And the view over the shared bytes answers like the 1-thread owned build.
        let owned = NeaTS::builder().threads(1).build(&ts);
        let view = ArchiveView::open(&archives[0]).unwrap();
        for k in (0..ts.len()).step_by(7) {
            prop_assert_eq!(view.at(k), owned.get(k));
        }
    }
}

/// Deterministic differential sweep with richer kind pools and both rank
/// modes, for the shapes proptest's uniform walks rarely produce.
#[test]
fn deterministic_shapes_differential() {
    // Extreme-magnitude values overflow the positivity shift of log-domain
    // kinds (a documented fitter precondition), so that shape fits with the
    // linear family only, as in the owned-path edge-case tests.
    let all: &[Kind] = &Kind::ALL;
    let linear: &[Kind] = &[Kind::Linear];
    let shapes: Vec<(&str, &[Kind], Vec<i64>)> = vec![
        ("constant", all, vec![7; 500]),
        ("line", all, (0..600).map(|k| 3 * k - 900).collect()),
        ("parabola", all, (0..500i64).map(|k| (k - 250) * (k - 250) / 10).collect()),
        ("exponentialish", all, (0..300).map(|k| (1.02f64.powi(k as i32) * 50.0) as i64).collect()),
        ("sine", all, (0..800).map(|k| (4000.0 * ((k as f64) / 60.0).sin()) as i64).collect()),
        ("single", all, vec![-42]),
        ("extremes", linear, vec![i64::MAX / 4, i64::MIN / 4, 0, i64::MAX / 4, -1, 1]),
    ];
    for (name, kinds, values) in shapes {
        let ts = TimeSeries::from_values(values.clone());
        let whole = [(0, values.len()), (values.len() / 3, values.len() / 2)];
        for mode in [RankMode::EliasFano, RankMode::BitVector] {
            let owned = NeaTS::builder().kinds(kinds).rank_mode(mode).build(&ts);
            let bytes = owned.to_bytes();
            let view = open_and_reparse(&bytes, &whole).unwrap();
            assert_eq!(view.materialize(), values, "{name} {mode:?} materialize");
            for k in 0..values.len() {
                assert_eq!(view.at(k), owned.get(k), "{name} {mode:?} at({k})");
            }
            let v = view.as_lossless().unwrap();
            let n = values.len();
            assert_eq!(v.sum_range_exact(0, n), owned.sum_range_exact(0, n), "{name} {mode:?}");
            assert_eq!(
                v.sum_range_estimate(0, n),
                owned.sum_range_estimate(0, n),
                "{name} {mode:?}"
            );
        }
        let lossy = NeaTS::builder().kinds(kinds).build_lossy(&ts, 10);
        let bytes = lossy.to_bytes();
        let view = open_and_reparse(&bytes, &whole).unwrap();
        assert_eq!(view.materialize(), lossy.reconstruct(), "{name} lossy");
    }
}

/// `parse` is the half of `open` that the store runs alone on bytes it has
/// verified before, so its own contract on *arbitrary* bytes is only: return
/// `Err` or a view, never panic — and whatever it lets through, `verify`
/// (hence `open`) must still reject unless the bytes are genuinely valid.
/// Exhaustive over every single-bit-per-byte corruption and every
/// truncation of one archive per flavor and rank mode; run under
/// `debug_assertions` too, where an out-of-bounds bit read would abort.
#[test]
fn parse_alone_never_panics_on_corrupt_or_truncated_bytes() {
    let values: Vec<i64> = (0..700).map(|k| (900.0 * ((k as f64) / 40.0).sin()) as i64 + k).collect();
    let ts = TimeSeries::from_values(values);
    let archives = [
        NeaTS::builder().rank_mode(RankMode::EliasFano).build(&ts).to_bytes(),
        NeaTS::builder().rank_mode(RankMode::BitVector).build(&ts).to_bytes(),
        NeaTS::builder().build_lossy(&ts, 20).to_bytes(),
    ];
    for bytes in &archives {
        let mut parsed_ok = 0usize;
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << (pos % 8);
            if let Ok(view) = ArchiveView::parse(&corrupted) {
                parsed_ok += 1;
                assert!(view.verify().is_err(), "verify accepted a flip at byte {pos}");
            }
            assert!(ArchiveView::open(&corrupted).is_err(), "open accepted a flip at byte {pos}");
        }
        // Payload flips are invisible to an O(sections) parse: if none got
        // through, the loop above never exercised parse-then-verify.
        assert!(parsed_ok > bytes.len() / 4, "only {parsed_ok} of {} flips parsed", bytes.len());
        for cut in 0..bytes.len() {
            assert!(ArchiveView::parse(&bytes[..cut]).is_err(), "parse accepted a cut at {cut}");
        }
        assert!(ArchiveView::parse(bytes).unwrap().verify().is_ok());
    }
}
