//! Optimal Piecewise Linear Approximation (PLA) — O'Rourke's algorithm.
//!
//! The paper's strongest lossy baseline (§IV-B): repeatedly take the longest
//! fragment admitting a linear ε-approximation, which yields the minimum
//! number of segments (O'Rourke 1981; the paper re-implements it as no code
//! is public). We reuse the workspace's stabbing-line fitter with the linear
//! kind, so PLA and NeaTS share the exact same geometric core.

use neats_core::fit::{greedy_partition, model_value, tighten_until_within, Fragment, Kind};
use succinct::EliasFano;
use timeseries::{CompressedSeries, TimeSeries};

/// A piecewise linear ε-approximation with random access.
#[derive(Clone, Debug)]
pub struct Pla {
    n: usize,
    eps: u64,
    starts: EliasFano,
    /// Per-segment (slope, intercept).
    params: Vec<(f64, f64)>,
}

impl Pla {
    /// Builds the minimum-segment PLA under error bound `eps`.
    pub fn compress(ts: &TimeSeries, eps: u64) -> Self {
        let values = ts.values();
        tighten_until_within(ts, 0, eps, |fit_eps| {
            let frags = if values.is_empty() {
                Vec::new()
            } else {
                greedy_partition(values, Kind::Linear, fit_eps, 0)
            };
            let starts: Vec<u64> = frags.iter().map(|f| f.start as u64).collect();
            let params = frags.iter().map(|f| (f.params.m, f.params.b)).collect();
            Self { n: values.len(), eps, starts: EliasFano::new(&starts), params }
        })
    }

    /// Number of linear segments.
    pub fn segment_count(&self) -> usize {
        self.params.len()
    }

    fn fragment(&self, i: usize) -> Fragment {
        let start = self.starts.get(i) as usize;
        let end =
            if i + 1 < self.params.len() { self.starts.get(i + 1) as usize } else { self.n };
        let (m, b) = self.params[i];
        Fragment {
            kind: Kind::Linear,
            params: neats_core::Params { m, b, extra: 0.0 },
            start,
            end,
            origin: start,
        }
    }

    /// The approximated value at position `k`.
    pub fn approximate(&self, k: usize) -> i64 {
        debug_assert!(k < self.n);
        let i = self.starts.rank_leq(k as u64) - 1;
        model_value(&self.fragment(i), k, 0)
    }

    /// Materialises the whole approximated series.
    pub fn reconstruct(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.n);
        for i in 0..self.params.len() {
            let f = self.fragment(i);
            for k in f.start..f.end {
                out.push(model_value(&f, k, 0));
            }
        }
        out
    }
}

impl CompressedSeries for Pla {
    fn len(&self) -> usize {
        self.n
    }

    /// Elias-Fano starts plus two doubles per segment.
    fn size_in_bytes(&self) -> usize {
        8 + self.starts.size_in_bytes() + self.params.len() * 16
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn noisy_line(n: usize, seed: u64, noise: i64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        TimeSeries::from_values(
            (0..n).map(|k| 7 * k as i64 + rng.random_range(-noise..=noise)).collect(),
        )
    }

    #[test]
    fn error_bound_holds() {
        let ts = noisy_line(3000, 1, 20);
        for eps in [5u64, 25, 100] {
            let pla = Pla::compress(&ts, eps);
            assert!(pla.max_error(&ts) <= eps + 1, "eps {eps}: {}", pla.max_error(&ts));
        }
    }

    #[test]
    fn error_bound_holds_beyond_f64_exact_integer_range() {
        // Regression: values past 2^53 lose integer precision in the f64
        // fit/eval round trip, which used to push the reconstruction a few
        // units outside ε + 1. The fit is now tightened by the slack.
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: i64 = -(3 << 53);
        let ts = TimeSeries::from_values(
            (0..4000).map(|_| { v += rng.random_range(-(1i64 << 42)..(1i64 << 42)); v }).collect(),
        );
        let eps = ts.delta() / 200;
        let pla = Pla::compress(&ts, eps);
        assert_eq!(pla.eps(), Some(eps));
        assert!(pla.max_error(&ts) <= eps + 1, "err {} > {}", pla.max_error(&ts), eps + 1);
    }

    #[test]
    fn single_segment_for_near_linear_data() {
        let ts = noisy_line(5000, 2, 3);
        let pla = Pla::compress(&ts, 10);
        assert_eq!(pla.segment_count(), 1);
        assert!(pla.size_in_bytes() < 100);
    }

    #[test]
    fn random_access_matches_reconstruct() {
        let ts = noisy_line(2000, 3, 200);
        let pla = Pla::compress(&ts, 30);
        let recon = pla.reconstruct();
        for k in (0..ts.len()).step_by(13) {
            assert_eq!(pla.approximate(k), recon[k]);
        }
    }

    #[test]
    fn empty_series() {
        let pla = Pla::compress(&TimeSeries::from_values(vec![]), 5);
        assert!(pla.is_empty());
        assert_eq!(pla.segment_count(), 0);
    }

    #[test]
    fn more_segments_on_curvier_data() {
        let curvy =
            TimeSeries::from_values((0..3000).map(|k| ((k * k) / 50) as i64).collect());
        let flat = noisy_line(3000, 4, 1);
        let pc = Pla::compress(&curvy, 5).segment_count();
        let pf = Pla::compress(&flat, 5).segment_count();
        assert!(pc > pf, "curvy {pc} !> flat {pf}");
    }
}
