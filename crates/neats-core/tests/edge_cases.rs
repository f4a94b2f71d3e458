//! Adversarial and boundary-condition tests for the core compressor:
//! inputs chosen to stress the geometry (collinear hulls, huge magnitudes),
//! the layout (single-point fragments, width-64 corrections), and the
//! numerics (values near i64 extremes, log-domain underflow).

use neats_core::fit::{longest_fragment, max_abs_residual, stab::StabbingLine};
use neats_core::{default_epsilons, positivity_shift, Kind, NeaTS, RankMode};
use timeseries::{CompressedSeries, TimeSeries};

#[test]
fn stabbing_line_collinear_hull_points() {
    // Many exactly-collinear constraint corners: hull degeneracies.
    let mut s = StabbingLine::new();
    for k in 1..=500 {
        let t = k as f64;
        assert!(s.try_add(t, 2.0 * t - 1.0, 2.0 * t + 1.0), "k={k}");
    }
    let l = s.solution().unwrap();
    assert!((l.slope - 2.0).abs() < 1e-9);
}

#[test]
fn stabbing_line_alternating_tight_slack() {
    // Alternating wide/zero-width segments around a line.
    let mut s = StabbingLine::new();
    for k in 1..=200 {
        let t = k as f64;
        let y = 0.5 * t;
        let (lo, hi) = if k % 2 == 0 { (y, y) } else { (y - 100.0, y + 100.0) };
        assert!(s.try_add(t, lo, hi), "k={k}");
    }
    let l = s.solution().unwrap();
    for k in (2..=200).step_by(2) {
        let t = k as f64;
        assert!((l.at(t) - 0.5 * t).abs() < 1e-6, "line misses exact point at {t}");
    }
}

#[test]
fn near_i64_extremes_compress_losslessly() {
    let values = vec![
        i64::MAX / 2,
        i64::MAX / 2 - 1,
        i64::MIN / 2,
        i64::MIN / 2 + 7,
        0,
        i64::MAX / 2,
        -1,
        1,
        i64::MIN / 2,
    ];
    let ts = TimeSeries::from_values(values.clone());
    for mode in [RankMode::EliasFano, RankMode::BitVector] {
        let c = NeaTS::builder().rank_mode(mode).build(&ts);
        assert_eq!(c.decompress(), values, "{mode:?}");
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(c.get(k), v);
        }
    }
}

#[test]
fn full_i64_range_compresses_losslessly() {
    // Δ = hi − lo + 1 overflows u64 on the first input and ⌈log₂ Δ⌉ = 64 on
    // the second: the automatic ladder and shift must saturate, not wrap
    // (release) or panic (debug).
    for values in [vec![i64::MIN, i64::MAX, 0], vec![i64::MIN, 0, 1, 2, 3]] {
        let ts = TimeSeries::from_values(values.clone());
        let c = NeaTS::compress(&ts);
        assert_eq!(c.decompress(), values);
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(c.get(k), v, "{values:?} at {k}");
        }
    }
    assert_eq!(TimeSeries::from_values(vec![i64::MIN, i64::MAX, 0]).delta(), u64::MAX);
}

#[test]
fn default_epsilons_never_wrap_or_repeat() {
    for delta in [0, 1, 2, 3, 1 << 20, (1 << 62) + 1, 1 << 63, (1 << 63) + 1, u64::MAX] {
        let eps = default_epsilons(delta);
        assert_eq!(eps[0], 0);
        assert!(eps.windows(2).all(|w| w[0] < w[1]), "Δ={delta}: {eps:?}");
        assert!(eps[1..].iter().all(|e| e.is_power_of_two()), "Δ={delta}: {eps:?}");
    }
    assert_eq!(default_epsilons(1 << 63).last(), Some(&(1 << 63)));
    assert_eq!(default_epsilons(u64::MAX).last(), Some(&(1 << 63)));
    assert_eq!(default_epsilons(u64::MAX).len(), 64);
    // A ladder topping out at 2⁶³ needs a shift no i64 holds: it saturates.
    assert_eq!(positivity_shift(&[5], 1 << 63), i64::MAX - 5);
    assert_eq!(positivity_shift(&[-5], 1 << 63), i64::MAX);
    assert_eq!(positivity_shift(&[i64::MIN], 0), i64::MAX);
}

#[test]
fn alternating_extremes_force_wide_corrections() {
    // Residuals close to 2⁶² wide: exercises large correction widths.
    let values: Vec<i64> =
        (0..64).map(|k| if k % 2 == 0 { i64::MAX / 4 } else { i64::MIN / 4 }).collect();
    let ts = TimeSeries::from_values(values.clone());
    let c = NeaTS::builder().epsilons(&[0]).build(&ts);
    assert_eq!(c.decompress(), values);
}

#[test]
fn sawtooth_worst_case_for_every_kind() {
    // A sawtooth defeats every smooth family: fragments stay short but the
    // result must still be lossless and the layout consistent.
    let values: Vec<i64> = (0..1000).map(|k| if k % 2 == 0 { 1000 } else { -1000 }).collect();
    let ts = TimeSeries::from_values(values.clone());
    let c = NeaTS::builder().kinds(&Kind::ALL).build(&ts);
    assert_eq!(c.decompress(), values);
}

#[test]
fn log_domain_huge_dynamic_range() {
    // Values spanning 10 orders of magnitude: exponential fits must not
    // overflow, and the shift logic must hold at the small end.
    let values: Vec<i64> = (0..200).map(|k| 1i64 << (k % 40)).collect();
    let ts = TimeSeries::from_values(values.clone());
    let c = NeaTS::builder()
        .kinds(&[Kind::Linear, Kind::Exponential, Kind::Power, Kind::Gaussian])
        .build(&ts);
    assert_eq!(c.decompress(), values);
}

#[test]
fn longest_fragment_never_exceeds_epsilon_on_monotone_blowup() {
    // Steep super-exponential growth: fragments must end before the model
    // error exceeds ε.
    let values: Vec<i64> = (1..=60u32).map(|k| (k as i64).pow(3) * 7919).collect();
    for kind in Kind::ALL {
        let mut start = 0;
        while start < values.len() {
            let f = longest_fragment(&values, start, kind, 100, 0)
                .unwrap_or_else(|| panic!("{kind:?} failed at {start}"));
            let r = max_abs_residual(&values, &f, 0);
            assert!(r <= 101, "{kind:?}: residual {r}");
            start = f.end;
        }
    }
}

#[test]
fn two_element_series_all_kind_pools() {
    for kinds in [vec![Kind::Linear], Kind::NEATS_DEFAULT.to_vec(), Kind::ALL.to_vec()] {
        let ts = TimeSeries::from_values(vec![-5, 9]);
        let c = NeaTS::builder().kinds(&kinds).build(&ts);
        assert_eq!(c.decompress(), vec![-5, 9]);
    }
}

#[test]
fn strictly_decreasing_series() {
    let values: Vec<i64> = (0..5000).map(|k| 1_000_000 - 3 * k - (k % 11)).collect();
    let ts = TimeSeries::from_values(values.clone());
    let c = NeaTS::compress(&ts);
    assert_eq!(c.decompress(), values);
    assert!(c.view().fragment_count() < 100, "{} fragments on a near-line", c.view().fragment_count());
}

#[test]
fn repeated_identical_fragments_share_kind_table() {
    // A periodic pattern yields many fragments of the same kind; the
    // wavelet matrix over a 1-symbol alphabet must behave.
    let values: Vec<i64> = (0..4000).map(|k| (k % 100) * 10).collect();
    let ts = TimeSeries::from_values(values.clone());
    let c = NeaTS::builder().kinds(&[Kind::Linear]).build(&ts);
    assert_eq!(c.decompress(), values);
    let hist = c.view().kind_histogram();
    assert_eq!(hist.len(), 1);
    assert_eq!(hist[0].0, Kind::Linear);
}

#[test]
fn scan_range_all_boundaries() {
    let values: Vec<i64> = (0..2048).map(|k| k * k % 7919).collect();
    let ts = TimeSeries::from_values(values.clone());
    let c = NeaTS::compress(&ts);
    // Every fragment boundary, exercised as scan start and end.
    let mut boundaries = vec![0usize, values.len()];
    for i in 0..c.view().fragment_count() {
        boundaries.push(c.view().fragment(i).start);
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    for w in boundaries.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mut out = Vec::new();
        c.scan_range(a, b - a, &mut out);
        assert_eq!(out, &values[a..b], "boundary scan [{a}, {b})");
    }
}
