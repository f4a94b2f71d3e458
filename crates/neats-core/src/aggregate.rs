//! Aggregate queries over compressed data — the paper's §VI future work:
//! "exploit the information encoded by the functions to efficiently answer
//! aggregate queries on the time series data".
//!
//! Because every fragment stores a closed-form function and a *bounded*
//! correction stream, a range SUM can be answered two ways:
//!
//! * **exactly**, by scanning (one random access + sequential decode); or
//! * **approximately in O(fragments)**, by summing the functions in closed
//!   form and never touching the corrections — with a hard error bound
//!   derived from each fragment's residual bound: `Σ len·(2^{w−1}+1)` from
//!   the correction widths of a lossless archive, `count·(ε+2)` for a lossy
//!   one, whose residuals were dropped under ε.
//!
//! Polynomial families (linear, the quadratics, the cubics) and the
//! exponential family admit O(1) closed-form range sums; the remaining
//! kinds fall back to evaluating the function per point, which still skips
//! the correction stream entirely.
//!
//! This module is the per-fragment arithmetic; the queries that walk an
//! archive's fragments with it are [`crate::view::ArchiveView`]'s
//! `sum_range_exact` / `sum_range_estimate`, the same for both flavors.

use crate::fit::{model_value, Fragment, Kind};

/// An approximate aggregate with a guaranteed absolute error bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// The estimated aggregate value.
    pub value: f64,
    /// Guaranteed bound: `|value − exact| ≤ max_error`.
    pub max_error: f64,
}

/// Σ u for integer u in `[a, z]`.
#[inline]
fn sum_u(a: f64, z: f64) -> f64 {
    (a + z) * (z - a + 1.0) / 2.0
}

/// Σ u² for integer u in `[a, z]` (via the prefix formula n(n+1)(2n+1)/6).
#[inline]
fn sum_u2(a: f64, z: f64) -> f64 {
    let p = |n: f64| n * (n + 1.0) * (2.0 * n + 1.0) / 6.0;
    p(z) - p(a - 1.0)
}

/// Σ u³ for integer u in `[a, z]` (via (n(n+1)/2)²).
#[inline]
fn sum_u3(a: f64, z: f64) -> f64 {
    let p = |n: f64| {
        let t = n * (n + 1.0) / 2.0;
        t * t
    };
    p(z) - p(a - 1.0)
}

/// Closed-form Σ f(u) for u in `[a, z]`, or `None` for kinds without one.
fn closed_form_sum(frag: &Fragment, a: f64, z: f64) -> Option<f64> {
    let p = frag.params;
    let len = z - a + 1.0;
    let v = match frag.kind {
        Kind::Linear => p.m * sum_u(a, z) + p.b * len,
        Kind::Quadratic => p.m * sum_u2(a, z) + p.b * sum_u(a, z) + p.extra * len,
        Kind::QuadOffset => p.m * sum_u2(a, z) + p.b * len,
        Kind::QuadLinear => p.m * sum_u2(a, z) + p.b * sum_u(a, z),
        Kind::CubicLinear => p.m * sum_u3(a, z) + p.b * sum_u(a, z),
        Kind::CubicQuad => p.m * sum_u3(a, z) + p.b * sum_u2(a, z),
        Kind::Exponential => {
            // Σ e^{m·u + b} = e^{m·a + b} · (e^{m·len} − 1)/(e^m − 1)
            let r = p.m.exp();
            if !r.is_finite() || (r - 1.0).abs() < 1e-12 {
                return None; // flat or overflowing: pointwise is safer
            }
            let geo = ((p.m * len).exp() - 1.0) / (r - 1.0);
            (p.m * a + p.b).exp() * geo
        }
        Kind::Sqrt | Kind::Logarithmic | Kind::Power | Kind::Gaussian => return None,
    };
    v.is_finite().then_some(v)
}

/// Sums `⌊f(u)⌋ − shift` over `[from, to)` (global indices) for one
/// fragment, using the closed form when available.
pub(crate) fn fragment_model_sum(frag: &Fragment, from: usize, to: usize, shift: i64) -> f64 {
    let a = (from - frag.origin + 1) as f64;
    let z = (to - frag.origin) as f64;
    let len = (to - from) as f64;
    let shift_term =
        if frag.kind.log_domain() { shift as f64 * len } else { 0.0 };
    match closed_form_sum(frag, a, z) {
        // The closed form sums f, not ⌊f⌋: the ⌊·⌋ gap is charged to the
        // caller's error bound (one unit per point).
        Some(s) => s - shift_term,
        None => (from..to).map(|k| model_value(frag, k, shift) as f64).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kind, NeaTS};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use timeseries::TimeSeries;

    fn mixed_series(n: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 10_000i64;
        TimeSeries::from_values(
            (0..n)
                .map(|k| {
                    v += rng.random_range(-8..9) + ((k as f64 / 300.0).sin() * 4.0) as i64;
                    v
                })
                .collect(),
        )
    }

    #[test]
    fn closed_forms_match_pointwise() {
        // For every closed-form kind, the formula must equal the naive sum.
        let p = crate::Params { m: 0.37, b: -4.2, extra: 11.0 };
        for kind in [
            Kind::Linear,
            Kind::Quadratic,
            Kind::QuadOffset,
            Kind::QuadLinear,
            Kind::CubicLinear,
            Kind::CubicQuad,
        ] {
            let frag = Fragment { kind, params: p, start: 0, end: 50, origin: 0 };
            let naive: f64 = (1..=50).map(|u| kind.eval(p, u as f64)).sum();
            let cf = closed_form_sum(&frag, 1.0, 50.0).expect("closed form exists");
            assert!(
                (naive - cf).abs() < 1e-6 * naive.abs().max(1.0),
                "{kind:?}: naive {naive} vs closed {cf}"
            );
        }
        // Exponential too.
        let p = crate::Params { m: 0.05, b: 2.0, extra: 0.0 };
        let frag = Fragment { kind: Kind::Exponential, params: p, start: 0, end: 40, origin: 0 };
        let naive: f64 = (1..=40).map(|u| Kind::Exponential.eval(p, u as f64)).sum();
        let cf = closed_form_sum(&frag, 1.0, 40.0).unwrap();
        assert!((naive - cf).abs() < 1e-6 * naive, "exp: {naive} vs {cf}");
    }

    #[test]
    fn estimate_within_bound_of_exact() {
        let ts = mixed_series(10_000, 1);
        let c = NeaTS::compress(&ts);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let start = rng.random_range(0..ts.len() - 1);
            let count = rng.random_range(1..(ts.len() - start).min(2000));
            let exact = c.view().sum_range_exact(start, count) as f64;
            let est = c.view().sum_range_estimate(start, count);
            assert!(
                (est.value - exact).abs() <= est.max_error,
                "range ({start},{count}): est {} exact {exact} bound {}",
                est.value,
                est.max_error
            );
        }
    }

    #[test]
    fn exact_sum_matches_values() {
        let ts = mixed_series(3000, 3);
        let c = NeaTS::compress(&ts);
        let expected: i128 = ts.values()[100..700].iter().map(|&v| v as i128).sum();
        assert_eq!(c.view().sum_range_exact(100, 600), expected);
    }

    #[test]
    fn lossy_estimate_within_bound() {
        let ts = mixed_series(8000, 5);
        let eps = 64u64;
        let l = NeaTS::builder().build_lossy(&ts, eps);
        let exact: f64 = ts.values()[2000..3000].iter().map(|&v| v as f64).sum();
        let est = l.view().sum_range_estimate(2000, 1000);
        assert!(
            (est.value - exact).abs() <= est.max_error,
            "est {} exact {exact} bound {}",
            est.value,
            est.max_error
        );
    }

    #[test]
    fn empty_range() {
        let ts = mixed_series(100, 6);
        let c = NeaTS::compress(&ts);
        assert_eq!(c.view().sum_range_estimate(50, 0), Estimate { value: 0.0, max_error: 0.0 });
        assert_eq!(c.view().sum_range_exact(50, 0), 0);
    }

    #[test]
    fn estimate_is_fragment_bounded_work() {
        // On a long exact line, the whole-range estimate is one closed-form
        // evaluation and its error bound is just the flooring term.
        let ts = TimeSeries::from_values((0..100_000).map(|k| 7 * k + 3).collect());
        let c = NeaTS::compress(&ts);
        assert_eq!(c.view().fragment_count(), 1);
        let est = c.view().sum_range_estimate(0, 100_000);
        let exact = c.view().sum_range_exact(0, 100_000) as f64;
        assert!((est.value - exact).abs() <= est.max_error);
        assert!(est.max_error <= 100_000.0 * 2.0);
    }
}
