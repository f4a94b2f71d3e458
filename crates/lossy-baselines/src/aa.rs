//! Adaptive Approximation (AA) — Xu et al., EDBT 2012 / WWW J. 2015.
//!
//! The paper's nonlinear lossy baseline: an *online heuristic* that segments
//! the series with linear, exponential, and quadratic functions, each forced
//! to pass through the first data point of its segment. Per the paper's
//! analysis (§IV-B), AA produces more fragments than NeaTS-L because of the
//! heuristic partitioning and sub-optimal per-kind fits — which is exactly
//! the behaviour this implementation reproduces:
//!
//! * Anchored linear `y₀ + θ·(u−1)` and anchored exponential
//!   `y₀·e^(θ·(u−1))` maintain a feasible interval for their single
//!   parameter θ (interval intersection — optimal for the anchored family).
//! * Anchored quadratic `y₀ + θ₁·(u−1) + θ₂·(u−1)²` maintains its
//!   two-parameter feasibility with the stabbing-line structure.
//! * The segment is cut when *no* family can absorb the next point; the
//!   surviving family with the fewest parameters wins ties.

use neats_core::fit::stab::StabbingLine;
use neats_core::fit::tighten_until_within;
use succinct::EliasFano;
use timeseries::{CompressedSeries, TimeSeries};

/// The function family chosen for one AA segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AaKind {
    /// `y₀ + θ·(u−1)` — 2 stored values (y₀, θ).
    Linear,
    /// `y₀·e^(θ·(u−1))` — 2 stored values.
    Exponential,
    /// `y₀ + θ₁·(u−1) + θ₂·(u−1)²` — 3 stored values.
    Quadratic,
}

/// Parameters of one AA segment.
#[derive(Clone, Copy, Debug)]
struct AaSegment {
    kind: AaKind,
    y0: f64,
    theta1: f64,
    theta2: f64,
}

impl AaSegment {
    #[inline]
    fn eval(&self, du: f64) -> f64 {
        match self.kind {
            AaKind::Linear => self.y0 + self.theta1 * du,
            AaKind::Exponential => self.y0 * (self.theta1 * du).exp(),
            AaKind::Quadratic => self.y0 + self.theta1 * du + self.theta2 * du * du,
        }
    }
}

/// One-parameter feasible-interval fitter for the anchored families.
#[derive(Clone, Copy, Debug)]
struct IntervalFit {
    lo: f64,
    hi: f64,
    alive: bool,
}

impl IntervalFit {
    fn new() -> Self {
        Self { lo: f64::NEG_INFINITY, hi: f64::INFINITY, alive: true }
    }

    /// Intersects with `[lo, hi]`; kills the fit if empty.
    fn narrow(&mut self, lo: f64, hi: f64) -> bool {
        if !self.alive {
            return false;
        }
        self.lo = self.lo.max(lo);
        self.hi = self.hi.min(hi);
        self.alive = self.lo <= self.hi;
        self.alive
    }

    fn mid(&self) -> f64 {
        if self.lo.is_finite() && self.hi.is_finite() {
            0.5 * (self.lo + self.hi)
        } else if self.lo.is_finite() {
            self.lo
        } else if self.hi.is_finite() {
            self.hi
        } else {
            0.0
        }
    }
}

/// An AA-compressed lossy series with random access.
#[derive(Clone, Debug)]
pub struct AdaptiveApprox {
    n: usize,
    eps: u64,
    starts: EliasFano,
    segments: Vec<AaSegment>,
}

impl AdaptiveApprox {
    /// Compresses `ts` under error bound `eps`.
    pub fn compress(ts: &TimeSeries, eps: u64) -> Self {
        let values = ts.values();
        tighten_until_within(ts, 0, eps, |fit_eps| {
            let mut segments = Vec::new();
            let mut starts = Vec::new();
            let mut i = 0usize;
            while i < values.len() {
                let (seg, len) = fit_segment(&values[i..], fit_eps as f64);
                starts.push(i as u64);
                segments.push(seg);
                i += len;
            }
            Self { n: values.len(), eps, starts: EliasFano::new(&starts), segments }
        })
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The approximated value at position `k`.
    pub fn approximate(&self, k: usize) -> i64 {
        debug_assert!(k < self.n);
        let i = self.starts.rank_leq(k as u64) - 1;
        let start = self.starts.get(i) as usize;
        let v = self.segments[i].eval((k - start) as f64);
        if v.is_finite() {
            v.round().clamp(i64::MIN as f64, i64::MAX as f64) as i64
        } else {
            0
        }
    }

    /// Materialises the whole approximated series.
    pub fn reconstruct(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.n);
        for i in 0..self.segments.len() {
            let start = self.starts.get(i) as usize;
            let end =
                if i + 1 < self.segments.len() { self.starts.get(i + 1) as usize } else { self.n };
            let seg = self.segments[i];
            for k in start..end {
                let v = seg.eval((k - start) as f64);
                out.push(v.round().clamp(i64::MIN as f64, i64::MAX as f64) as i64);
            }
        }
        out
    }
}

impl CompressedSeries for AdaptiveApprox {
    fn len(&self) -> usize {
        self.n
    }

    /// Starts plus (2 or 3) doubles and a tag per segment.
    fn size_in_bytes(&self) -> usize {
        let params: usize = self
            .segments
            .iter()
            .map(|s| 1 + 8 * if s.kind == AaKind::Quadratic { 3 } else { 2 })
            .sum();
        8 + self.starts.size_in_bytes() + params
    }

    fn decompress(&self) -> Vec<i64> {
        self.reconstruct()
    }

    fn get(&self, k: usize) -> i64 {
        self.approximate(k)
    }

    fn eps(&self) -> Option<u64> {
        Some(self.eps)
    }
}

/// Fits one segment starting at `values[0]`, returning the chosen function
/// and the number of points covered (≥ 1).
fn fit_segment(values: &[i64], e: f64) -> (AaSegment, usize) {
    let y0 = values[0] as f64;
    // Feasible-parameter states for the three anchored families.
    let mut lin = IntervalFit::new();
    let mut exp = IntervalFit::new();
    let mut exp_alive = y0 > 0.0;
    let mut quad = StabbingLine::new();
    let mut quad_alive = true;

    // Last point index each family could still cover, and a parameter
    // snapshot taken when the family dies (or at the end).
    let mut lin_len = 1usize;
    let mut exp_len = 1usize;
    let mut quad_len = 1usize;
    let mut lin_params = 0.0f64;
    let mut exp_params = 0.0f64;
    let mut quad_params = (0.0f64, 0.0f64);

    let mut k = 1usize;
    while k < values.len() {
        let du = k as f64;
        let y = values[k] as f64;
        let mut any = false;

        if lin.alive {
            // y0 + θ·du ∈ [y−e, y+e]  ⟺  θ ∈ [(y−e−y0)/du, (y+e−y0)/du]
            if lin.narrow((y - e - y0) / du, (y + e - y0) / du) {
                lin_len = k + 1;
                lin_params = lin.mid();
                any = true;
            }
        }
        if exp_alive {
            // y0·e^(θ·du) ∈ [y−e, y+e], valid only while y−e > 0
            if y - e > 0.0 {
                if exp.narrow(((y - e) / y0).ln() / du, ((y + e) / y0).ln() / du) {
                    exp_len = k + 1;
                    exp_params = exp.mid();
                    any = true;
                } else {
                    exp_alive = false;
                }
            } else {
                exp_alive = false;
            }
        }
        if quad_alive {
            // y0 + θ1·du + θ2·du² ∈ [y−e, y+e] ⟺ (y−e−y0)/du ≤ θ1 + θ2·du ≤ …
            // treat as stabbing with t = du, m = θ2, b = θ1.
            if quad.try_add(du, (y - e - y0) / du, (y + e - y0) / du) {
                quad_len = k + 1;
                if let Some(l) = quad.solution() {
                    quad_params = (l.intercept, l.slope); // (θ1, θ2)
                }
                any = true;
            } else {
                quad_alive = false;
            }
        }
        if !any {
            break;
        }
        k += 1;
    }

    // Pick the longest-surviving family; fewest parameters breaks ties.
    let best = lin_len.max(exp_len).max(quad_len);
    let seg = if lin_len == best {
        AaSegment { kind: AaKind::Linear, y0, theta1: lin_params, theta2: 0.0 }
    } else if exp_len == best {
        AaSegment { kind: AaKind::Exponential, y0, theta1: exp_params, theta2: 0.0 }
    } else {
        AaSegment { kind: AaKind::Quadratic, y0, theta1: quad_params.0, theta2: quad_params.1 }
    };
    (seg, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn noisy(n: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 5000i64;
        TimeSeries::from_values((0..n).map(|_| { v += rng.random_range(-20..21); v }).collect())
    }

    #[test]
    fn error_bound_holds() {
        let ts = noisy(3000, 1);
        for eps in [10u64, 50, 200] {
            let aa = AdaptiveApprox::compress(&ts, eps);
            // round() + anchored eval keeps |err| ≤ eps + 1 (rounding slack)
            assert!(aa.max_error(&ts) <= eps + 1, "eps {eps}: err {}", aa.max_error(&ts));
        }
    }

    #[test]
    fn error_bound_holds_beyond_f64_exact_integer_range() {
        // Regression: same f64-precision issue as PLA — see
        // `neats_core::fit::float_eval_slack`.
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: i64 = 3 << 53;
        let ts = TimeSeries::from_values(
            (0..4000).map(|_| { v += rng.random_range(-(1i64 << 42)..(1i64 << 42)); v }).collect(),
        );
        let eps = ts.delta() / 200;
        let aa = AdaptiveApprox::compress(&ts, eps);
        assert_eq!(aa.eps(), Some(eps));
        assert!(aa.max_error(&ts) <= eps + 1, "err {} > {}", aa.max_error(&ts), eps + 1);
    }

    #[test]
    fn first_point_of_each_segment_is_exact() {
        let ts = noisy(2000, 2);
        let aa = AdaptiveApprox::compress(&ts, 40);
        for i in 0..aa.segment_count() {
            let start = aa.starts.get(i) as usize;
            assert_eq!(aa.approximate(start), ts.values()[start], "segment {i} anchor");
        }
    }

    #[test]
    fn exponential_data_uses_exponential_segments() {
        let values: Vec<i64> =
            (0..3000).map(|u| (500.0 * (0.001 * u as f64).exp()).round() as i64).collect();
        let ts = TimeSeries::from_values(values);
        let aa = AdaptiveApprox::compress(&ts, 2);
        assert!(
            aa.segments.iter().any(|s| s.kind == AaKind::Exponential),
            "no exponential segment chosen"
        );
    }

    #[test]
    fn random_access_matches_reconstruct() {
        let ts = noisy(1500, 3);
        let aa = AdaptiveApprox::compress(&ts, 30);
        let recon = aa.reconstruct();
        for k in (0..ts.len()).step_by(11) {
            assert_eq!(aa.approximate(k), recon[k], "k={k}");
        }
    }

    #[test]
    fn handles_non_positive_values() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v = 10i64;
        let ts = TimeSeries::from_values(
            (0..1000).map(|_| { v += rng.random_range(-5..5); v }).collect(),
        );
        assert!(ts.values().iter().any(|&v| v <= 0));
        let aa = AdaptiveApprox::compress(&ts, 8);
        assert!(aa.max_error(&ts) <= 9);
    }

    #[test]
    fn empty_series() {
        let aa = AdaptiveApprox::compress(&TimeSeries::from_values(vec![]), 5);
        assert!(aa.is_empty());
        assert_eq!(aa.segment_count(), 0);
    }
}
