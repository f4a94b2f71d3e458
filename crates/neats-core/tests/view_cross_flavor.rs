//! What only one view makes sayable: a lossy archive **is** a lossless
//! archive with its corrections dropped.
//!
//! Take any series, build its NeaTS-L archive, and let `model` be what that
//! archive reconstructs — the series its partition fits *exactly*. Encoding
//! `model` losslessly over the same partition stores a correction width of 0
//! for every fragment, so the two frames differ in their section sequence
//! (`B`, `O`, `C` present but empty of bits, versus absent with ε in the
//! header) and in nothing the decoder answers: `at`, `range`, `materialize`,
//! `fragment(i)`, `kind_histogram`, the exact sum and the sum estimate's
//! value must agree value for value, in both rank modes. The estimate's
//! *bound* is where the flavors legitimately part: nothing was dropped
//! from the lossless archive, ε + 1 per point may have been from the lossy
//! one.

use neats_core::partition::{partition, PartitionConfig};
use neats_core::{positivity_shift, ArchiveView, Kind, NeaTS, NeaTSCompressed, RankMode};
use proptest::prelude::*;
use timeseries::TimeSeries;

fn check_same_answers(
    lossless: &ArchiveView<'_>,
    lossy: &ArchiveView<'_>,
    ranges: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!((lossless.eps(), lossy.eps().is_some()), (None, true));
    prop_assert_eq!(lossless.len(), lossy.len());
    prop_assert_eq!(lossless.shift(), lossy.shift());
    prop_assert_eq!(lossless.fragment_count(), lossy.fragment_count());
    prop_assert_eq!(lossless.kind_histogram(), lossy.kind_histogram());
    for i in 0..lossy.fragment_count() {
        prop_assert_eq!(lossless.fragment(i), lossy.fragment(i), "fragment({})", i);
        prop_assert_eq!((lossless.correction_width_of(i), lossy.correction_width_of(i)), (0, 0));
    }
    prop_assert_eq!(lossless.materialize(), lossy.materialize());
    for k in 0..lossy.len() {
        prop_assert_eq!(lossless.at(k), lossy.at(k), "at({})", k);
        prop_assert_eq!(lossless.fragment_index_of(k), lossy.fragment_index_of(k));
    }
    for &(s, c) in ranges {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        lossless.range(s..s + c, &mut a);
        lossy.range(s..s + c, &mut b);
        prop_assert_eq!(a, b, "range({}..+{})", s, c);
        prop_assert_eq!(lossless.sum_range_exact(s, c), lossy.sum_range_exact(s, c));
        let (exact, loose) = (lossless.sum_range_estimate(s, c), lossy.sum_range_estimate(s, c));
        prop_assert_eq!(exact.value, loose.value);
        prop_assert!(exact.max_error <= loose.max_error);
    }
    Ok(())
}

/// Both archives of the series `values`' lossy partition fits exactly.
fn check_cross_flavor(values: Vec<i64>, kinds: &[Kind], eps: u64, seeds: &[(usize, usize)]) -> Result<(), TestCaseError> {
    let n = values.len();
    let ts = TimeSeries::from_values(values);
    let lossy = NeaTS::builder().kinds(kinds).threads(1).build_lossy(&ts, eps);
    // The partition the lossy encoder was handed (values here stay within
    // ±2^53, where its first fit is kept) and the series it fits exactly.
    let shift = positivity_shift(ts.values(), eps);
    let part = partition(ts.values(), &PartitionConfig::lossy(kinds, eps, shift).with_threads(1));
    let model = lossy.reconstruct();
    let ranges: Vec<(usize, usize)> = seeds
        .iter()
        .filter(|_| n > 0)
        .map(|&(a, b)| (a % n, b % (n - a % n + 1)))
        .collect();
    for mode in [RankMode::EliasFano, RankMode::BitVector] {
        let lossless = NeaTSCompressed::encode(&model, &part, shift, mode);
        check_same_answers(lossless.view(), lossy.view(), &ranges)?;
        // And through freshly opened bytes, as the store reads them.
        let (a, b) = (lossless.to_bytes(), lossy.to_bytes());
        check_same_answers(&ArchiveView::open(&a).unwrap(), &ArchiveView::open(&b).unwrap(), &ranges)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exactly_fitted_lossless_equals_lossy(
        deltas in prop::collection::vec(-60i64..=60, 0..350),
        eps in 0u64..120,
        all_kinds in any::<bool>(),
        range_seeds in prop::collection::vec((0usize..10_000, 0usize..10_000), 1..5),
    ) {
        let mut v = 0i64;
        let values = deltas.iter().map(|&d| { v += d; v }).collect();
        let kinds: &[Kind] = if all_kinds { &Kind::ALL } else { &Kind::NEATS_DEFAULT };
        check_cross_flavor(values, kinds, eps, &range_seeds)?;
    }
}

/// Shapes with long fragments of every kind, which uniform walks rarely
/// produce, plus the degenerate sizes.
#[test]
fn exactly_fitted_shapes() {
    let shapes: Vec<(&str, Vec<i64>)> = vec![
        ("empty", vec![]),
        ("single", vec![-42]),
        ("constant", vec![7; 500]),
        ("line", (0..600).map(|k| 3 * k - 900).collect()),
        ("parabola", (0..500i64).map(|k| (k - 250) * (k - 250) / 10).collect()),
        ("exponentialish", (0..300).map(|k| (1.02f64.powi(k) * 50.0) as i64).collect()),
        ("sine", (0..800).map(|k| (4000.0 * ((k as f64) / 60.0).sin()) as i64).collect()),
    ];
    for (name, values) in shapes {
        let whole = [(0, values.len()), (values.len() / 3, values.len() / 2)];
        for eps in [0, 10] {
            check_cross_flavor(values.clone(), &Kind::ALL, eps, &whole)
                .unwrap_or_else(|e| panic!("{name} eps={eps}: {e}"));
        }
    }
}
