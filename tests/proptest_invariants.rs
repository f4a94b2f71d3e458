//! Workspace-level property-based tests: the core invariants the paper
//! guarantees, checked on arbitrary inputs.

use neats::core::{Kind, NeaTS, NeaTSLossy, RankMode};
use neats::lossless::paper_competitors;
use neats::timeseries::{CompressedSeries, TimeSeries};
use proptest::prelude::*;

/// Arbitrary "time-series-like" values: random walks with occasional jumps,
/// which exercise fragment boundaries far more than iid noise.
fn walk_strategy(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    (
        prop::collection::vec((-500i64..500, prop::bool::weighted(0.02)), 0..max_len),
        -1_000_000i64..1_000_000,
    )
        .prop_map(|(steps, start)| {
            let mut v = start;
            steps
                .into_iter()
                .map(|(d, jump)| {
                    v += if jump { d * 1000 } else { d };
                    v
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fundamental guarantee: NeaTS is lossless on any input.
    #[test]
    fn neats_lossless_on_arbitrary_walks(values in walk_strategy(400)) {
        let ts = TimeSeries::from_values(values);
        let c = NeaTS::compress(&ts);
        prop_assert_eq!(c.decompress(), ts.values());
    }

    /// Random access equals decompression at every position.
    #[test]
    fn neats_random_access_consistent(values in walk_strategy(300)) {
        let ts = TimeSeries::from_values(values);
        let c = NeaTS::compress(&ts);
        let dec = c.decompress();
        for (k, &d) in dec.iter().enumerate() {
            prop_assert_eq!(c.get(k), d);
        }
    }

    /// Both rank structures produce identical results.
    #[test]
    fn rank_modes_equivalent(values in walk_strategy(250)) {
        let ts = TimeSeries::from_values(values);
        let ef = NeaTS::builder().rank_mode(RankMode::EliasFano).build(&ts);
        let bv = NeaTS::builder().rank_mode(RankMode::BitVector).build(&ts);
        prop_assert_eq!(ef.decompress(), bv.decompress());
    }

    /// Every scan_range equals the corresponding slice.
    #[test]
    fn scan_matches_slice(values in walk_strategy(300), frac_start in 0.0f64..1.0, frac_len in 0.0f64..1.0) {
        let ts = TimeSeries::from_values(values);
        if ts.is_empty() { return Ok(()); }
        let start = ((ts.len() - 1) as f64 * frac_start) as usize;
        let len = ((ts.len() - start) as f64 * frac_len) as usize;
        let c = NeaTS::compress(&ts);
        let mut out = Vec::new();
        c.scan_range(start, len, &mut out);
        prop_assert_eq!(out, &ts.values()[start..start + len]);
    }

    /// The lossy guarantee: max error never exceeds ε (+1 floor slack).
    #[test]
    fn lossy_error_bounded(values in walk_strategy(300), eps in 0u64..1000) {
        let ts = TimeSeries::from_values(values);
        if ts.is_empty() { return Ok(()); }
        let l = NeaTSLossy::compress(&ts, &Kind::NEATS_DEFAULT, eps);
        prop_assert!(l.max_error(&ts) <= eps + 1);
    }

    /// Every baseline compressor round-trips arbitrary walks.
    #[test]
    fn baselines_lossless_on_arbitrary_walks(values in walk_strategy(220)) {
        let ts = TimeSeries::from_values(values);
        for comp in paper_competitors() {
            let c = comp.compress_boxed(&ts);
            prop_assert_eq!(c.decompress(), ts.values(), "{}", comp.name());
        }
    }

    /// Serialisation round-trips exactly on arbitrary inputs.
    #[test]
    fn wire_format_roundtrip(values in walk_strategy(250)) {
        let ts = TimeSeries::from_values(values);
        let c = NeaTS::compress(&ts);
        let back = neats::core::NeaTSCompressed::from_bytes(&c.to_bytes()).unwrap();
        prop_assert_eq!(back.decompress(), ts.values());
    }

    /// Aggregate estimates always respect their error bounds.
    #[test]
    fn aggregate_bound_holds(values in walk_strategy(300), frac in 0.0f64..1.0) {
        let ts = TimeSeries::from_values(values);
        if ts.is_empty() { return Ok(()); }
        let c = NeaTS::compress(&ts);
        let start = ((ts.len() - 1) as f64 * frac) as usize;
        let count = ts.len() - start;
        let est = c.view().sum_range_estimate(start, count);
        let exact = c.view().sum_range_exact(start, count) as f64;
        prop_assert!((est.value - exact).abs() <= est.max_error,
            "est {} exact {exact} bound {}", est.value, est.max_error);
    }

    /// Restricting the function pool never breaks losslessness.
    #[test]
    fn any_kind_subset_is_lossless(values in walk_strategy(200), mask in 1u16..(1 << 11)) {
        let kinds: Vec<Kind> = Kind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &k)| k)
            .collect();
        let ts = TimeSeries::from_values(values);
        let c = NeaTS::builder().kinds(&kinds).build(&ts);
        prop_assert_eq!(c.decompress(), ts.values());
    }
}
