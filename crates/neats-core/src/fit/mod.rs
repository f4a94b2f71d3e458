//! Fragment fitting: the paper's `MakeApproximation` (Theorem 1).
//!
//! [`longest_fragment`] finds, for a given function kind and error bound ε,
//! the longest fragment starting at a given index that admits an
//! ε-approximation — in optimal O(fragment length) time via the
//! [`stab::StabbingLine`] reduction.
//!
//! There is one fragment-growing loop (`grow`), compiled once per kind so a
//! kind's transform is inlined into it rather than re-dispatched per point,
//! and three ways in: [`longest_fragment`] (values converted on the fly, a
//! fresh fitter — the form the reference sweep uses), [`longest_fragment_in`]
//! (a shared [`FitView`] and a caller-owned, reused fitter) and
//! [`fragment_end_in`] (the same, returning only where the fragment ends —
//! what stage 1 of the partitioner needs, so it never computes a solution
//! nobody reads).

pub mod kinds;
pub mod stab;

pub use kinds::{Kind, Params};
pub use stab::{Line, StabbingLine};
use timeseries::{CompressedSeries, TimeSeries};

/// A fitted fragment: the function of `kind` with `params` ε-approximates
/// `values[start..end]` when evaluated at local coordinates
/// `u = index − origin + 1`.
///
/// `origin == start` for fragments produced directly by the fitter; the
/// partitioner's *suffix edges* (paper §III-B) produce fragments whose
/// function was fitted from an earlier origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fragment {
    /// The function family.
    pub kind: Kind,
    /// Fitted parameters (transformed space, plus anchor extra).
    pub params: Params,
    /// First covered index (inclusive, 0-based).
    pub start: usize,
    /// One past the last covered index.
    pub end: usize,
    /// Index the local coordinate system is anchored at (`u = 1` there).
    pub origin: usize,
}

impl Fragment {
    /// Number of data points covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the fragment covers no points.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Applies the global positivity shift to a raw value for log-domain kinds
/// (saturating: a shift near `i64::MAX` clamps the large values, which the
/// corrections then absorb).
#[inline]
fn shifted(kind: Kind, y: i64, shift: i64) -> f64 {
    if kind.log_domain() {
        y.saturating_add(shift) as f64
    } else {
        y as f64
    }
}

/// Precomputed `f64` views of a whole series, shared across every `(f, ε)`
/// pair of one partitioning run.
///
/// [`longest_fragment`] converts each value it touches from `i64` on the
/// fly (`shifted`), which is fine for a single greedy pass but wasteful when
/// Algorithm 1 re-reads every point once per pair: the same `as f64` cast
/// (and `+ shift` for log-domain kinds) is then repeated `|F|·|E|` times.
/// A `FitView` hoists both conversions out of the inner fit loops — `plain`
/// holds `values[k] as f64`, `shifted` holds `(values[k] + shift) as f64`
/// (the sum saturating) —
/// producing bit-identical inputs to the transforms.
pub struct FitView<'a> {
    values: &'a [i64],
    plain: Vec<f64>,
    /// Log-domain view; empty when no log-domain kind is in play.
    shifted: Vec<f64>,
    shift: i64,
}

impl<'a> FitView<'a> {
    /// Builds the view. `with_log_domain` controls whether the shifted view
    /// is materialised (pass `true` iff some kind in use is log-domain).
    pub fn new(values: &'a [i64], shift: i64, with_log_domain: bool) -> Self {
        let plain = values.iter().map(|&y| y as f64).collect();
        let shifted = if with_log_domain {
            values.iter().map(|&y| y.saturating_add(shift) as f64).collect()
        } else {
            Vec::new()
        };
        Self { values, plain, shifted, shift }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The underlying raw values.
    pub fn values(&self) -> &'a [i64] {
        self.values
    }

    /// The positivity shift the view was built with.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// The (possibly shifted) values `kind`'s transform reads.
    #[inline]
    fn plane(&self, kind: Kind) -> &[f64] {
        if kind.log_domain() {
            debug_assert!(!self.shifted.is_empty(), "view built without the log-domain plane");
            &self.shifted
        } else {
            &self.plain
        }
    }
}

/// The model's integer prediction for index `k` (0-based), i.e.
/// `⌊f(u)⌋ − shift` for log-domain kinds and `⌊f(u)⌋` otherwise.
///
/// This function is shared between compression (residual computation) and
/// decompression (value reconstruction), which is what makes the scheme
/// lossless regardless of floating-point rounding.
#[inline]
pub fn model_value(frag: &Fragment, k: usize, shift: i64) -> i64 {
    let u = (k - frag.origin + 1) as f64;
    let f = frag.kind.eval(frag.params, u);
    let clamped = floor_to_i64(f);
    if frag.kind.log_domain() {
        clamped.wrapping_sub(shift)
    } else {
        clamped
    }
}

/// Floors a model output to i64 — the one canonical float→integer step
/// shared by encoding and every decode path. Equal to `f.floor() as i64`
/// for every f64 (NaN → 0; ±∞ and out-of-range values saturate to
/// `i64::MIN`/`MAX`), but computed in the integer domain: the saturating
/// cast truncates toward zero, and the truncation steps down by one where
/// it landed above `f` (negative non-integers). `f64::floor` is a libm call
/// on x86-64 targets without SSE4.1's `roundsd` — the baseline — and this
/// step runs once per decoded value.
#[inline]
pub fn floor_to_i64(f: f64) -> i64 {
    let t = f as i64;
    // `t as f64` is exact: |t| < 2^53 unless `f` was already an integer
    // (or saturated, where the comparison still orders correctly).
    t.saturating_sub(((t as f64) > f) as i64)
}

/// Estimated integer error of the f64 round trip every lossy fitter in the
/// workspace takes: input conversion (`y as f64`, ≤ ½ ULP) plus model
/// evaluation (a few ULPs of the result's magnitude). Zero whenever every
/// (shifted) value sits within f64's exact integer range `±2^53` — i.e. for
/// every realistic scaled-decimal series. For magnitudes beyond that a
/// lossy compressor must tighten its fitting ε by at least this much, or
/// the float-space guarantee fails to transfer to the integer domain and
/// reconstruction can land just outside the promised ε + 1 (the lossless
/// path absorbs the same rounding in its corrections; lossy paths have
/// none).
///
/// This is a starting *estimate*, not a proven bound: fitted-slope error
/// amplified over a long fragment can exceed any fixed ULP multiple (seen
/// in practice as ~10 ULPs on a 2^55-magnitude walk). Callers therefore
/// measure the integer-domain max error after encoding and retighten until
/// the stored ε actually holds — see [`tighten_until_within`].
/// When ε itself is smaller than the conversion error of the magnitudes
/// involved the bound is not representable in f64 arithmetic at all and
/// tightening saturates at a zero-ε fit (best effort).
pub fn float_eval_slack(values: &[i64], shift: i64) -> u64 {
    let max_abs = values
        .iter()
        .map(|&y| y.unsigned_abs().max(y.saturating_add(shift).unsigned_abs()))
        .max()
        .unwrap_or(0);
    if max_abs <= 1u64 << 53 {
        return 0;
    }
    let ulp = 1u64 << (63 - max_abs.leading_zeros() as u64).saturating_sub(52);
    4 * ulp
}

/// Builds a lossy archive of `ts` that *measurably* holds its contract —
/// every value within `eps + 1` of the original, the `+ 1` absorbing
/// model-evaluation rounding — the one loop NeaTS-L, PLA and AA share.
///
/// The fitter sees `y as f64` and the decoder re-evaluates the model in
/// f64; past 2^53 both sides lose integer precision (the lossless path
/// absorbs the same rounding in its corrections; a lossy archive has
/// none). So `build` is handed `eps` tightened by [`float_eval_slack`]
/// (`shift` as there), the archive's integer-domain error is measured, and
/// the fit retightened by the overshoot until the bound holds. Values
/// within ±2^53 take the first iteration (slack 0, error within `eps + 1`
/// by construction).
pub fn tighten_until_within<A: CompressedSeries>(
    ts: &TimeSeries,
    shift: i64,
    eps: u64,
    mut build: impl FnMut(u64) -> A,
) -> A {
    let mut slack = float_eval_slack(ts.values(), shift);
    loop {
        let fit_eps = eps.saturating_sub(slack);
        let out = build(fit_eps);
        let overshoot = out.max_error(ts).saturating_sub(eps.saturating_add(1));
        if overshoot == 0 || fit_eps == 0 {
            // `fit_eps == 0` is the unsatisfiable corner (ε smaller than
            // the f64 conversion error of the magnitudes involved):
            // return the best float-exact fit rather than loop.
            return out;
        }
        slack = slack.saturating_add(overshoot.max(slack).max(1));
    }
}

/// Maximum absolute residual of `frag` over `values` (its true L∞ error).
pub fn max_abs_residual(values: &[i64], frag: &Fragment, shift: i64) -> u64 {
    (frag.start..frag.end)
        .map(|k| values[k].abs_diff(model_value(frag, k, shift)))
        .max()
        .unwrap_or(0)
}

/// Finds the longest fragment `values[start..j]` that admits an
/// ε-approximation by a function of `kind`, and returns it with fitted
/// parameters (the paper's `MakeApproximation(T, k, f, ε)`).
///
/// `shift` is the global positivity shift used by log-domain kinds.
/// Returns `None` only if the kind's transform is undefined at the very
/// first point (impossible when `shift` is chosen as in
/// [`crate::positivity_shift`]).
pub fn longest_fragment(
    values: &[i64],
    start: usize,
    kind: Kind,
    eps: u64,
    shift: i64,
) -> Option<Fragment> {
    let y_at = |k: usize| shifted(kind, values[k], shift);
    let mut line = StabbingLine::new();
    let end = grow_kind(kind, &mut line, values.len(), y_at, start, eps as f64)?;
    Some(fitted(&line, kind, y_at(start), start, end))
}

/// [`longest_fragment`] reading from a shared [`FitView`] instead of
/// converting values on the fly, and fitting in a caller-owned `line` (which
/// it clears first) — the form the two-stage partitioner uses so the
/// `i64 → f64` (and shift) work is done once per series, not once per
/// `(f, ε)` pair, and the hull buffers are allocated once per pair, not once
/// per fragment. Bit-identical results to [`longest_fragment`].
pub fn longest_fragment_in(
    view: &FitView<'_>,
    line: &mut StabbingLine,
    start: usize,
    kind: Kind,
    eps: u64,
) -> Option<Fragment> {
    let end = fragment_end_in(view, line, start, kind, eps)?;
    Some(fitted(line, kind, view.plane(kind)[start], start, end))
}

/// Where [`longest_fragment_in`]'s fragment ends, without computing its
/// parameters. Leaves the fitted state in `line`.
pub fn fragment_end_in(
    view: &FitView<'_>,
    line: &mut StabbingLine,
    start: usize,
    kind: Kind,
    eps: u64,
) -> Option<usize> {
    let ys = view.plane(kind);
    grow_kind(kind, line, ys.len(), |k| ys[k], start, eps as f64)
}

/// The fragment `[start, end)` that `line` holds the fit of; `y0` is the
/// (possibly shifted) value at `start`, the anchor of three-parameter kinds.
fn fitted(line: &StabbingLine, kind: Kind, y0: f64, start: usize, end: usize) -> Fragment {
    // No segment at all: an anchored fragment of its anchor alone.
    let (m, b) = line.solution().map_or((0.0, 0.0), |l| (l.slope, l.intercept));
    Fragment { kind, params: kind.finish_params(m, b, y0), start, end, origin: start }
}

/// Runs [`grow`] compiled for `kind`.
#[inline]
fn grow_kind(
    kind: Kind,
    line: &mut StabbingLine,
    len: usize,
    y_at: impl Fn(usize) -> f64,
    start: usize,
    epsf: f64,
) -> Option<usize> {
    macro_rules! dispatch {
        ($($k:ident),*) => {
            match kind {
                $(Kind::$k => grow::<{ Kind::$k as u8 }>(line, len, y_at, start, epsf),)*
            }
        };
    }
    dispatch!(
        Linear, Quadratic, Exponential, Sqrt, Logarithmic, Power, QuadOffset, QuadLinear,
        CubicLinear, CubicQuad, Gaussian
    )
}

/// The one fragment-growing loop: clears `line`, feeds it the transformed
/// constraints of points `start, start + 1, …` (`y_at(k)` yields the
/// possibly shifted f64 value at index `k < len`) until one is refused, and
/// returns the fragment's end — `None` if the kind's transform is undefined
/// at `start`. `TAG` is the kind's `repr(u8)` tag, a constant here so the
/// transform's `match` folds away.
#[inline]
fn grow<const TAG: u8>(
    line: &mut StabbingLine,
    len: usize,
    y_at: impl Fn(usize) -> f64,
    start: usize,
    epsf: f64,
) -> Option<usize> {
    let kind = const { Kind::ALL[TAG as usize] };
    debug_assert!(kind as u8 == TAG && start < len);
    line.clear();
    let y0 = y_at(start);
    // An anchor is always represented exactly and constrains nothing.
    let first = if kind.anchored() {
        if kind.log_domain() && y0 <= 0.0 {
            return None;
        }
        start + 1
    } else {
        start
    };
    let mut k = first;
    // `extend` draws segments at three places (first, second, the rest);
    // left to its own judgement the compiler calls this out of line and the
    // segment travels through memory — a third of the fit's time.
    let accepted = line.extend(
        #[inline(always)]
        || {
            if k >= len {
                return None;
            }
            let u = (k - start + 1) as f64;
            let y = y_at(k);
            k += 1;
            if kind.anchored() {
                kind.transform_anchored(u, y, y0, epsf)
            } else {
                kind.transform(u, y, epsf)
            }
        },
    );
    let end = first + accepted;
    (end > start).then_some(end)
}

/// Greedy piecewise approximation (Corollary 1): repeatedly take the longest
/// fragment of a single kind. Returns the minimal-count partition for that
/// kind.
pub fn greedy_partition(values: &[i64], kind: Kind, eps: u64, shift: i64) -> Vec<Fragment> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < values.len() {
        let frag = longest_fragment(values, start, kind, eps, shift)
            .expect("transform undefined: wrong shift for log-domain kind");
        debug_assert!(frag.end > start);
        start = frag.end;
        out.push(frag);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_eps_bound(values: &[i64], frag: &Fragment, eps: u64, shift: i64) {
        // Allow +1 slack for floor-induced rounding at fragment boundaries:
        // the mathematical bound is ε, floor keeps it within ε (see paper
        // §II), but f64 evaluation of transcendental kinds can add one ulp.
        let r = max_abs_residual(values, frag, shift);
        assert!(r <= eps + 1, "residual {r} exceeds eps {eps} for {:?}", frag.kind);
    }

    #[test]
    fn floor_to_i64_equals_float_floor_cast() {
        fn check(f: f64) {
            assert_eq!(floor_to_i64(f), f.floor() as i64, "f = {f:e} (bits {:#018x})", f.to_bits());
        }
        let mut edges = vec![
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::MAX,
            0.5,
            1.5,
            2.5,
            1e19,
            9.2e18,
        ];
        for k in 0..=64 {
            let p = 2f64.powi(k);
            edges.extend([p, p.next_up(), p.next_down(), p + 0.5, p - 0.5]);
        }
        for f in edges {
            check(f);
            check(-f);
        }
        let mut rng = StdRng::seed_from_u64(0xf100);
        // Raw bit patterns: every exponent, NaN payloads and subnormals.
        for _ in 0..1_000_000 {
            check(f64::from_bits(rng.random::<u64>()));
        }
        // Values within a few ULPs of an integer, where truncation and floor
        // differ by exactly the step this function takes.
        for _ in 0..1_000_000 {
            let i = rng.random_range(-(1i64 << 60)..(1i64 << 60)) >> rng.random_range(0..60u32);
            let f = i as f64;
            check(f);
            check(f.next_up());
            check(f.next_down());
        }
    }

    #[test]
    fn linear_fragment_exact_line() {
        let values: Vec<i64> = (0..100).map(|k| 3 * k + 7).collect();
        let frag = longest_fragment(&values, 0, Kind::Linear, 0, 0).unwrap();
        assert_eq!(frag.end, 100, "an exact line must be covered entirely");
        assert_eq!(max_abs_residual(&values, &frag, 0), 0);
    }

    #[test]
    fn linear_fragment_breaks_at_discontinuity() {
        let mut values: Vec<i64> = (0..50).map(|k| 2 * k).collect();
        values.extend((0..50).map(|k| 1000 - 10 * k));
        let frag = longest_fragment(&values, 0, Kind::Linear, 1, 0).unwrap();
        assert!(frag.end <= 51, "fragment crossed the discontinuity: end={}", frag.end);
        check_eps_bound(&values, &frag, 1, 0);
    }

    #[test]
    fn longest_fragment_is_maximal_vs_bruteforce() {
        // Brute force: a fragment [s, e) is feasible iff some line stabs all
        // transformed segments; compare fragment end against extending by one
        // and checking residual feasibility via dense parameter search.
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<i64> =
            (0..200).map(|k| (10.0 * ((k as f64) / 7.0).sin()) as i64 + rng.random_range(-2..3)).collect();
        for eps in [0u64, 1, 3, 8] {
            let mut start = 0;
            while start < values.len() {
                let frag = longest_fragment(&values, start, Kind::Linear, eps, 0).unwrap();
                check_eps_bound(&values, &frag, eps, 0);
                // Maximality: brute-force check that extending is infeasible.
                if frag.end < values.len() {
                    let ext = &values[start..=frag.end];
                    assert!(
                        !linear_feasible_brute(ext, eps),
                        "fragment [{start}, {}) not maximal for eps={eps}",
                        frag.end
                    );
                }
                start = frag.end;
            }
        }
    }

    /// LP-free brute feasibility for |m·u + b − y| ≤ eps over u = 1..n.
    fn linear_feasible_brute(values: &[i64], eps: u64) -> bool {
        let n = values.len();
        let e = eps as f64;
        // candidate slopes from all endpoint pairs
        let mut slopes = vec![0.0];
        for i in 0..n {
            for j in i + 1..n {
                let dt = (j - i) as f64;
                for (si, sj) in [(e, -e), (-e, e), (e, e), (-e, -e)] {
                    slopes.push(((values[j] as f64 + sj) - (values[i] as f64 + si)) / dt);
                }
            }
        }
        slopes.iter().any(|&m| {
            let mut blo = f64::NEG_INFINITY;
            let mut bhi = f64::INFINITY;
            for (k, &y) in values.iter().enumerate() {
                let u = (k + 1) as f64;
                blo = blo.max(y as f64 - e - m * u);
                bhi = bhi.min(y as f64 + e - m * u);
            }
            blo <= bhi + 1e-9
        })
    }

    #[test]
    fn exponential_fits_exponential_data() {
        // y = 5 e^{0.05 u}
        let values: Vec<i64> = (1..=150).map(|u| (5.0 * (0.05 * u as f64).exp()).round() as i64).collect();
        let frag = longest_fragment(&values, 0, Kind::Exponential, 2, 0).unwrap();
        assert!(frag.len() >= 100, "exponential fit too short: {}", frag.len());
        check_eps_bound(&values, &frag, 2, 0);
        // Linear cannot follow an exponential that long with the same eps.
        let lin = longest_fragment(&values, 0, Kind::Linear, 2, 0).unwrap();
        assert!(lin.len() < frag.len(), "linear {} >= exponential {}", lin.len(), frag.len());
    }

    #[test]
    fn quadratic_fits_parabola_exactly() {
        // y = 2u² − 3u + 11 (anchored family can represent it exactly)
        let values: Vec<i64> = (1..=100).map(|u| 2 * u * u - 3 * u + 11).collect();
        let frag = longest_fragment(&values, 0, Kind::Quadratic, 1, 0).unwrap();
        assert_eq!(frag.end, 100, "parabola should be one fragment");
        check_eps_bound(&values, &frag, 1, 0);
    }

    #[test]
    fn sqrt_fits_radical_data() {
        let values: Vec<i64> = (1..=200).map(|u| (40.0 * (u as f64).sqrt() + 7.0) as i64).collect();
        let frag = longest_fragment(&values, 0, Kind::Sqrt, 1, 0).unwrap();
        assert!(frag.len() >= 150, "sqrt fit too short: {}", frag.len());
        check_eps_bound(&values, &frag, 1, 0);
    }

    #[test]
    fn all_kinds_respect_eps_on_random_data() {
        let mut rng = StdRng::seed_from_u64(77);
        let values: Vec<i64> = {
            let mut v = 500i64;
            (0..300)
                .map(|_| {
                    v += rng.random_range(-5..6);
                    v = v.max(200); // keep positive for log kinds with shift 0
                    v
                })
                .collect()
        };
        for kind in Kind::ALL {
            for eps in [0u64, 2, 10] {
                let mut start = 0;
                while start < values.len() {
                    let frag = longest_fragment(&values, start, kind, eps, 0)
                        .unwrap_or_else(|| panic!("{kind:?} failed at {start}"));
                    assert!(frag.end > start);
                    check_eps_bound(&values, &frag, eps, 0);
                    start = frag.end;
                }
            }
        }
    }

    #[test]
    fn log_domain_needs_shift_for_small_values() {
        let values = vec![0i64, 1, 2];
        // Without shift the exponential transform is undefined at y=0, ε=1.
        assert!(longest_fragment(&values, 0, Kind::Exponential, 1, 0).is_none());
        // With a shift making y+s−ε ≥ 1 it works.
        let frag = longest_fragment(&values, 0, Kind::Exponential, 1, 2).unwrap();
        assert!(!frag.is_empty());
        check_eps_bound(&values, &frag, 1, 2);
    }

    #[test]
    fn greedy_partition_tiles_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<i64> = (0..500).map(|_| rng.random_range(-100..100)).collect();
        for kind in [Kind::Linear, Kind::Quadratic, Kind::Sqrt] {
            let frags = greedy_partition(&values, kind, 5, 0);
            assert_eq!(frags[0].start, 0);
            assert_eq!(frags.last().unwrap().end, values.len());
            for w in frags.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap/overlap in partition");
            }
        }
    }

    #[test]
    fn greedy_partition_is_minimal_for_linear() {
        // Optimality of the greedy longest-fragment strategy (Corollary 1):
        // compare against brute-force minimal partition count via DP.
        let mut rng = StdRng::seed_from_u64(21);
        let values: Vec<i64> = (0..60).map(|k| (k * k / 7) as i64 + rng.random_range(-1..2)).collect();
        let eps = 1u64;
        let greedy = greedy_partition(&values, Kind::Linear, eps, 0).len();
        // DP over all split points with brute feasibility.
        let n = values.len();
        let mut best = vec![usize::MAX; n + 1];
        best[0] = 0;
        for i in 0..n {
            if best[i] == usize::MAX {
                continue;
            }
            for j in i + 1..=n {
                if linear_feasible_brute(&values[i..j], eps) {
                    best[j] = best[j].min(best[i] + 1);
                } else {
                    break;
                }
            }
        }
        assert_eq!(greedy, best[n], "greedy not minimal");
    }

    #[test]
    fn single_point_fragments() {
        let values = vec![42i64];
        for kind in Kind::ALL {
            let frag = longest_fragment(&values, 0, kind, 0, 0).unwrap();
            assert_eq!(frag.len(), 1);
            // Log-domain kinds evaluate exp(ln 42), which may land one ulp
            // below 42 and floor to 41; the corrections absorb this.
            let slack = if kind.log_domain() { 1 } else { 0 };
            assert!(
                (model_value(&frag, 0, 0) - 42).unsigned_abs() <= slack,
                "{kind:?}: model {}",
                model_value(&frag, 0, 0)
            );
        }
    }

    #[test]
    fn view_fit_is_bit_identical_to_inline_fit() {
        let mut rng = StdRng::seed_from_u64(55);
        let values: Vec<i64> = {
            let mut v = -20i64;
            (0..400).map(|_| { v += rng.random_range(-6..7); v }).collect()
        };
        let shift = crate::partition::positivity_shift(&values, 8);
        let view = FitView::new(&values, shift, true);
        let mut line = StabbingLine::new(); // one fitter, reused across kinds and ε
        for kind in Kind::ALL {
            for eps in [0u64, 2, 8] {
                let mut start = 0;
                while start < values.len() {
                    let a = longest_fragment(&values, start, kind, eps, shift);
                    let b = longest_fragment_in(&view, &mut line, start, kind, eps);
                    assert_eq!(a, b, "{kind:?} eps={eps} start={start}");
                    start = a.map_or(start + 1, |f| f.end);
                }
            }
        }
    }

    #[test]
    fn fragment_len_and_empty() {
        let f = Fragment { kind: Kind::Linear, params: Params::constant(0.0), start: 3, end: 7, origin: 3 };
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
    }
}
