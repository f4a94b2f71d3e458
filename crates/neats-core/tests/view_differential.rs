//! The correctness argument for the read path, stated once, against ground
//! truth: every answer of the decoder ([`ArchiveView`]) is held to **what
//! the encoder was given** — the input series and the `Partition`
//! Algorithm 1 produced for it — across arbitrary walks × rank modes ×
//! lossless/lossy × partitioner thread counts.
//!
//! * lossless: `at(k)`, `range`, `materialize` ≡ the input values;
//!   `fragment(i)` ≡ fragment *i* of the partition; `correction_width_of(i)`
//!   ≡ the width of that fragment's measured residual;
//! * lossy: `at(k)` ≡ `model_value` over the partition's fragments
//!   (inputs here stay within ±2^53, where the first fit is kept) and
//!   `|at(k) − y_k| ≤ ε + 1`;
//! * both: `sum_range_exact` ≡ a naive fold over the decoded slice, and
//!   every `sum_range_estimate` interval contains the exact sum.
//!
//! Random access ≡ sequential decoding follows: both are held to the same
//! series. Each archive is read three ways — `ArchiveView::open` of its
//! bytes, `ArchiveView::parse` alone (the store's cache-miss path, valid
//! because the bytes passed `open`), and the view inside the
//! `NeaTSCompressed` / `NeaTSLossy` handle — and all three face the same
//! oracle. Archive bytes must also round-trip unchanged through
//! `from_bytes`, and `parse` alone on corrupted or truncated bytes returns
//! `Err` or a view — it never panics (the per-byte suites that must *reject*
//! corruption go through `from_bytes`; see `serial.rs`).

use neats_core::fit::{max_abs_residual, model_value};
use neats_core::partition::{partition, Partition, PartitionConfig};
use neats_core::{
    default_epsilons, positivity_shift, ArchiveView, Estimate, Kind, NeaTS, NeaTSCompressed,
    NeaTSLossy, RankMode,
};
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

/// What `NeaTSBuilder::build` hands the encoder for `ts` under `kinds`
/// (default ε set, no model selection): the positivity shift and the
/// partition.
fn lossless_inputs(ts: &TimeSeries, kinds: &[Kind]) -> (i64, Partition) {
    let epsilons = default_epsilons(ts.delta());
    let shift = positivity_shift(ts.values(), epsilons.iter().copied().max().unwrap_or(0));
    (shift, partition(ts.values(), &PartitionConfig::lossless(kinds, &epsilons, shift).with_threads(1)))
}

/// What `NeaTSLossy::compress` hands the encoder on its first (and, within
/// ±2^53, only) iteration.
fn lossy_inputs(ts: &TimeSeries, kinds: &[Kind], eps: u64) -> (i64, Partition) {
    let shift = positivity_shift(ts.values(), eps);
    (shift, partition(ts.values(), &PartitionConfig::lossy(kinds, eps, shift).with_threads(1)))
}

/// The series a lossy archive must decode to: `model_value` over the
/// partition's fragments.
fn model_series(part: &Partition, shift: i64) -> Vec<i64> {
    part.fragments.iter().flat_map(|f| (f.start..f.end).map(move |k| model_value(f, k, shift))).collect()
}

fn sum(slice: &[i64]) -> i128 {
    slice.iter().map(|&v| v as i128).sum()
}

fn contains(est: Estimate, exact: f64) -> bool {
    (est.value - exact).abs() <= est.max_error + 1e-9
}

/// `at`, `range`, `materialize` and the exact sum of `view` against
/// the series it must decode to.
fn check_decodes_to(view: &ArchiveView<'_>, expected: &[i64], ranges: &[(usize, usize)]) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.len(), expected.len());
    prop_assert_eq!(&view.materialize()[..], expected);
    for (k, &want) in expected.iter().enumerate() {
        prop_assert_eq!(view.at(k), want, "at({})", k);
    }
    for &(s, c) in ranges {
        let slice = &expected[s..s + c];
        let mut got = Vec::new();
        view.range(s..s + c, &mut got);
        prop_assert_eq!(&got[..], slice, "range({}..+{})", s, c);
        prop_assert_eq!(view.sum_range_exact(s, c), sum(slice), "sum_range_exact({}, {})", s, c);
    }
    Ok(())
}

/// The lossless query surface against the input values and the partition.
fn check_lossless(
    v: &ArchiveView<'_>,
    values: &[i64],
    shift: i64,
    part: &Partition,
    ranges: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!((v.len(), v.shift(), v.fragment_count()), (values.len(), shift, part.fragments.len()));
    prop_assert_eq!(v.eps(), None);
    prop_assert_eq!(&v.materialize()[..], values);
    for (k, &y) in values.iter().enumerate() {
        prop_assert_eq!(v.at(k), y, "at({})", k);
    }
    for (i, frag) in part.fragments.iter().enumerate() {
        prop_assert_eq!(&v.fragment(i), frag, "fragment({})", i);
        let width = succinct::bits_for_residual_bound(max_abs_residual(values, frag, shift));
        prop_assert_eq!(v.correction_width_of(i), width, "correction_width_of({})", i);
        prop_assert_eq!((v.fragment_index_of(frag.start), v.fragment_index_of(frag.end - 1)), (i, i));
    }
    for (kind, count) in v.kind_histogram() {
        prop_assert_eq!(count, part.fragments.iter().filter(|f| f.kind == kind).count());
    }
    for &(s, c) in ranges {
        let slice = &values[s..s + c];
        let mut got = Vec::new();
        v.scan_range(s, c, &mut got);
        prop_assert_eq!(&got[..], slice, "scan_range({}, {})", s, c);
        let est = v.sum_range_estimate(s, c);
        prop_assert!(contains(est, sum(slice) as f64), "sum {:?} misses {}", est, sum(slice));
    }
    Ok(())
}

/// The lossy query surface against the input values, ε and the partition.
fn check_lossy(
    v: &ArchiveView<'_>,
    ts: &TimeSeries,
    eps: u64,
    shift: i64,
    part: &Partition,
    ranges: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let model = model_series(part, shift);
    prop_assert_eq!((v.len(), v.eps(), v.shift()), (ts.len(), Some(eps), shift));
    prop_assert_eq!(v.fragment_count(), part.fragments.len());
    prop_assert_eq!(&v.materialize(), &model);
    for (k, &y) in ts.values().iter().enumerate() {
        prop_assert_eq!(v.at(k), model[k], "at({})", k);
        prop_assert!(y.abs_diff(model[k]) <= eps + 1, "|at({}) - y| > eps + 1", k);
    }
    prop_assert!(v.max_error(ts) <= eps + 1);
    for (i, frag) in part.fragments.iter().enumerate() {
        prop_assert_eq!(&v.fragment(i), frag, "fragment({})", i);
        prop_assert_eq!(v.fragment_index_of(frag.start), i);
    }
    for (kind, count) in v.kind_histogram() {
        prop_assert_eq!(count, part.fragments.iter().filter(|f| f.kind == kind).count());
    }
    for &(s, c) in ranges {
        let mut got = Vec::new();
        v.scan_range(s, c, &mut got);
        prop_assert_eq!(&got[..], &model[s..s + c], "scan_range({}, {})", s, c);
        // The estimates' guarantee is about the *original* values.
        let original = &ts.values()[s..s + c];
        let exact = sum(original);
        let est = v.sum_range_estimate(s, c);
        prop_assert!(contains(est, exact as f64), "sum {:?} misses {}", est, exact);
    }
    Ok(())
}

/// The two ways bytes are opened: `open` (parse + verify), and `parse`
/// alone, valid here because the same bytes just passed `open`.
fn open_and_parse(bytes: &[u8]) -> [ArchiveView<'_>; 2] {
    [ArchiveView::open(bytes).unwrap(), ArchiveView::parse(bytes).unwrap()]
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
        prop_assert_eq!(reread.as_bytes(), &bytes[..]);

        let ranges = ranges_within(&range_seeds, ts.len());
        let (shift, part) = lossless_inputs(&ts, &Kind::NEATS_DEFAULT);
        for view in open_and_parse(&bytes) {
            check_decodes_to(&view, ts.values(), &ranges)?;
            check_lossless(view.as_lossless().expect("lossless archive"), ts.values(), shift, &part, &ranges)?;
        }
        // The handle the encoder returned and the one `from_bytes` built.
        for handle in [&owned, &reread] {
            check_lossless(handle.view(), ts.values(), shift, &part, &ranges)?;
            prop_assert_eq!(&handle.decompress()[..], ts.values());
        }
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
        prop_assert_eq!(reread.as_bytes(), &bytes[..]);

        let ranges = ranges_within(&range_seeds, ts.len());
        let (shift, part) = lossy_inputs(&ts, &Kind::NEATS_DEFAULT, eps);
        for view in open_and_parse(&bytes) {
            check_decodes_to(&view, &model_series(&part, shift), &ranges)?;
            prop_assert!(view.as_lossless().is_none());
            check_lossy(&view, &ts, eps, shift, &part, &ranges)?;
        }
        for handle in [&owned, &reread] {
            check_lossy(handle.view(), &ts, eps, shift, &part, &ranges)?;
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
        // And the shared bytes decode to the input.
        let view = ArchiveView::open(&archives[0]).unwrap();
        for k in (0..ts.len()).step_by(7) {
            prop_assert_eq!(view.at(k), ts.values()[k]);
        }
    }
}

/// The shapes proptest's uniform walks rarely produce, each with the kind
/// pool it is built with. Extreme-magnitude values overflow the positivity
/// shift of log-domain kinds (a documented fitter precondition), so that
/// shape fits with the linear family only, as in the edge-case tests.
fn deterministic_shapes() -> Vec<(&'static str, &'static [Kind], Vec<i64>)> {
    let all: &[Kind] = &Kind::ALL;
    let linear: &[Kind] = &[Kind::Linear];
    vec![
        ("constant", all, vec![7; 500]),
        ("line", all, (0..600).map(|k| 3 * k - 900).collect()),
        ("parabola", all, (0..500i64).map(|k| (k - 250) * (k - 250) / 10).collect()),
        ("exponentialish", all, (0..300).map(|k| (1.02f64.powi(k) * 50.0) as i64).collect()),
        ("sine", all, (0..800).map(|k| (4000.0 * ((k as f64) / 60.0).sin()) as i64).collect()),
        ("single", all, vec![-42]),
        ("extremes", linear, vec![i64::MAX / 4, i64::MIN / 4, 0, i64::MAX / 4, -1, 1]),
    ]
}

/// Deterministic sweep with richer kind pools and both rank modes, for the
/// shapes proptest's uniform walks rarely produce.
#[test]
fn deterministic_shapes_differential() {
    for (name, kinds, values) in deterministic_shapes() {
        let ts = TimeSeries::from_values(values.clone());
        let whole = [(0, values.len()), (values.len() / 3, values.len() / 2)];
        let (shift, part) = lossless_inputs(&ts, kinds);
        for mode in [RankMode::EliasFano, RankMode::BitVector] {
            let owned = NeaTS::builder().kinds(kinds).rank_mode(mode).build(&ts);
            for view in open_and_parse(owned.as_bytes()) {
                check_decodes_to(&view, &values, &whole)
                    .and_then(|()| check_lossless(view.as_lossless().unwrap(), &values, shift, &part, &whole))
                    .unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
            }
        }
        // "extremes" lies beyond ±2^53, where the lossy fit may be
        // retightened and the partition is not reproducible from here: the
        // opened views are held to the handle's reconstruction only (the ε
        // contract out there is `lossy.rs`'s own regression test).
        let lossy = NeaTS::builder().kinds(kinds).build_lossy(&ts, 10);
        let within_f64 = values.iter().all(|v| v.unsigned_abs() <= 1 << 53);
        let (shift, part) = lossy_inputs(&ts, kinds, 10);
        for view in open_and_parse(lossy.as_bytes()) {
            let checked = if within_f64 {
                check_decodes_to(&view, &model_series(&part, shift), &whole)
                    .and_then(|()| check_lossy(&view, &ts, 10, shift, &part, &whole))
            } else {
                check_decodes_to(&view, &lossy.reconstruct(), &whole)
            };
            checked.unwrap_or_else(|e| panic!("{name} lossy: {e}"));
        }
    }
}

/// A range query seeks its first fragment with one rank and walks on from
/// there, so its edge cases sit where a range starts or ends on a fragment
/// boundary or one position either side of one — where random ranges
/// rarely land. Every such `(a, b)` pair, for every deterministic shape,
/// both rank modes and both flavors: `range(a..b)` and the exact sum
/// equal the materialized series on `a..b`.
#[test]
fn ranges_from_and_to_every_fragment_boundary() {
    for (name, kinds, values) in deterministic_shapes() {
        let ts = TimeSeries::from_values(values);
        let archives = [
            ("EliasFano", NeaTS::builder().kinds(kinds).rank_mode(RankMode::EliasFano).build(&ts).to_bytes()),
            ("BitVector", NeaTS::builder().kinds(kinds).rank_mode(RankMode::BitVector).build(&ts).to_bytes()),
            ("lossy", NeaTS::builder().kinds(kinds).build_lossy(&ts, 10).to_bytes()),
        ];
        for (flavor, bytes) in &archives {
            let view = ArchiveView::open(bytes).unwrap();
            let n = view.len();
            let mut points: Vec<usize> = (0..view.fragment_count())
                .map(|i| view.fragment(i).start)
                .chain([n])
                .flat_map(|b| [b.saturating_sub(1), b, b + 1])
                .filter(|&p| p <= n)
                .collect();
            points.sort_unstable();
            points.dedup();
            let ranges: Vec<(usize, usize)> =
                points.iter().flat_map(|&a| points.iter().filter(move |&&b| b >= a).map(move |&b| (a, b - a))).collect();
            check_decodes_to(&view, &view.materialize(), &ranges)
                .unwrap_or_else(|e| panic!("{name} {flavor}: {e}"));
        }
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
