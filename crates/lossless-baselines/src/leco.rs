//! LeCo-style learned compression (Liu, Zeng, Zhang — SIGMOD 2024).
//!
//! LeCo fits a regression model per partition and stores the residuals with
//! a fixed-length code. Partitions are *variable-length*, chosen by a greedy
//! split-then-merge heuristic that merges neighbouring segments whenever the
//! merge improves an estimate of the compressed size — in contrast to NeaTS'
//! error-bounded optimal partitioning (the design difference §V contrasts).
//!
//! This implementation reproduces that pipeline:
//!
//! 1. split into fine-grained mini-segments;
//! 2. greedily merge adjacent segments while the actual encoded cost
//!    (OLS residual width × length + per-segment header) does not grow;
//! 3. bit-pack residuals per segment; random access binary-searches the
//!    segment starts, as the real system does with variable partitions.

use neats_core::fit::floor_to_i64;
use succinct::{bits_for, BitBuf};
use timeseries::{CompressedSeries, Compressor, TimeSeries};

/// Initial mini-segment length for the split phase.
pub const LECO_MINI: usize = 64;
/// Merge passes (each pass scans all adjacent pairs once).
const MERGE_PASSES: usize = 8;
/// Per-segment header cost in bits (start + line + base + width + offset).
const HEADER_BITS: u64 = 8 * 8 * 4;

/// The LeCo-style compressor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Leco;

/// Per-segment metadata.
#[derive(Clone, Copy, Debug)]
struct Segment {
    start: u32,
    slope: f64,
    intercept: f64,
    /// Minimum residual (subtracted before packing).
    base: i64,
    /// Residual bit width.
    width: u8,
    /// Bit offset of this segment's residuals.
    offset: u64,
}

/// A LeCo-compressed series.
#[derive(Clone, Debug)]
pub struct LecoCompressed {
    n: usize,
    segments: Vec<Segment>,
    residuals: BitBuf,
}

/// Prefix-sum accumulators enabling O(1) OLS over any range.
struct OlsSums {
    /// Σ y over prefix.
    sy: Vec<f64>,
    /// Σ i·y over prefix (global index i).
    siy: Vec<f64>,
}

impl OlsSums {
    fn new(values: &[i64]) -> Self {
        let mut sy = Vec::with_capacity(values.len() + 1);
        let mut siy = Vec::with_capacity(values.len() + 1);
        sy.push(0.0);
        siy.push(0.0);
        let (mut a, mut b) = (0.0f64, 0.0f64);
        for (i, &y) in values.iter().enumerate() {
            a += y as f64;
            b += i as f64 * y as f64;
            sy.push(a);
            siy.push(b);
        }
        Self { sy, siy }
    }

    /// OLS line over `[a, b)` in *local* coordinates `x = i − a`.
    fn ols(&self, a: usize, b: usize) -> (f64, f64) {
        let len = (b - a) as f64;
        if b - a == 1 {
            return (0.0, self.sy[b] - self.sy[a]);
        }
        let sum_y = self.sy[b] - self.sy[a];
        let sum_iy = self.siy[b] - self.siy[a];
        let sum_xy = sum_iy - a as f64 * sum_y;
        // Σx and Σx² for x = 0..len−1.
        let sum_x = len * (len - 1.0) / 2.0;
        let sum_xx = (len - 1.0) * len * (2.0 * len - 1.0) / 6.0;
        let denom = len * sum_xx - sum_x * sum_x;
        if denom.abs() < f64::EPSILON {
            return (0.0, sum_y / len);
        }
        let slope = (len * sum_xy - sum_x * sum_y) / denom;
        let intercept = (sum_y - slope * sum_x) / len;
        (slope, intercept)
    }
}

/// `⌊slope·x + intercept⌋`, clamped to `±2^62` so residuals cannot
/// overflow, and 0 for a non-finite line — through the same float → integer
/// step as the NeaTS decoder, so the two decode loops compare like for like.
#[inline]
fn predict(slope: f64, intercept: f64, x: usize) -> i64 {
    let p = slope * x as f64 + intercept;
    if p.is_finite() {
        floor_to_i64(p).clamp(-(1 << 62), 1 << 62)
    } else {
        0
    }
}

/// Encoded cost in bits of covering `[a, b)` with one OLS segment, plus the
/// fitted line and residual extrema.
fn segment_cost(values: &[i64], sums: &OlsSums, a: usize, b: usize) -> (u64, f64, f64, i64, u8) {
    let (slope, intercept) = sums.ols(a, b);
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for (x, &y) in values[a..b].iter().enumerate() {
        let r = y - predict(slope, intercept, x);
        lo = lo.min(r);
        hi = hi.max(r);
    }
    let width = bits_for(hi.abs_diff(lo)) as u8;
    let cost = HEADER_BITS + (b - a) as u64 * width as u64;
    (cost, slope, intercept, lo, width)
}

impl Compressor for Leco {
    type Output = LecoCompressed;

    fn name(&self) -> &'static str {
        "LeCo"
    }

    fn compress(&self, ts: &TimeSeries) -> LecoCompressed {
        let values = ts.values();
        if values.is_empty() {
            return LecoCompressed { n: 0, segments: Vec::new(), residuals: BitBuf::new() };
        }
        let sums = OlsSums::new(values);

        // Split phase: mini-segment boundaries.
        let mut bounds: Vec<usize> = (0..values.len()).step_by(LECO_MINI).collect();
        bounds.push(values.len());
        let mut costs: Vec<u64> = bounds
            .windows(2)
            .map(|w| segment_cost(values, &sums, w[0], w[1]).0)
            .collect();

        // Merge phase: greedy pairwise merges while they pay for themselves.
        for _ in 0..MERGE_PASSES {
            let mut merged_any = false;
            let mut new_bounds = vec![bounds[0]];
            let mut new_costs = Vec::new();
            let mut i = 0usize;
            while i < costs.len() {
                if i + 1 < costs.len() {
                    let merged =
                        segment_cost(values, &sums, bounds[i], bounds[i + 2]).0;
                    if merged <= costs[i] + costs[i + 1] {
                        new_bounds.push(bounds[i + 2]);
                        new_costs.push(merged);
                        merged_any = true;
                        i += 2;
                        continue;
                    }
                }
                new_bounds.push(bounds[i + 1]);
                new_costs.push(costs[i]);
                i += 1;
            }
            bounds = new_bounds;
            costs = new_costs;
            if !merged_any {
                break;
            }
        }

        // Encode.
        let mut segments = Vec::with_capacity(costs.len());
        let mut residuals = BitBuf::new();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (_, slope, intercept, base, width) = segment_cost(values, &sums, a, b);
            let offset = residuals.len() as u64;
            for (x, &y) in values[a..b].iter().enumerate() {
                let r = y - predict(slope, intercept, x) - base;
                residuals.push_bits(r as u64, width as usize);
            }
            segments.push(Segment { start: a as u32, slope, intercept, base, width, offset });
        }
        residuals.shrink_to_fit();
        LecoCompressed { n: values.len(), segments, residuals }
    }
}

impl LecoCompressed {
    /// Number of variable-length segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Index of the segment covering `k` (binary search, as in the real
    /// variable-partition layout).
    #[inline]
    fn segment_of(&self, k: usize) -> usize {
        self.segments.partition_point(|s| s.start as usize <= k) - 1
    }

    #[inline]
    fn value_in(&self, si: usize, k: usize) -> i64 {
        let seg = &self.segments[si];
        let x = k - seg.start as usize;
        let r = if seg.width == 0 {
            0
        } else {
            self.residuals
                .get_bits(seg.offset as usize + x * seg.width as usize, seg.width as usize)
                as i64
        };
        predict(seg.slope, seg.intercept, x) + seg.base + r
    }
}

impl CompressedSeries for LecoCompressed {
    fn len(&self) -> usize {
        self.n
    }

    fn size_in_bytes(&self) -> usize {
        16 + self.segments.len() * (HEADER_BITS as usize / 8) + self.residuals.size_in_bytes()
    }

    fn get(&self, k: usize) -> i64 {
        self.value_in(self.segment_of(k), k)
    }

    fn decompress(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.n);
        for (si, seg) in self.segments.iter().enumerate() {
            let end = self
                .segments
                .get(si + 1)
                .map_or(self.n, |next| next.start as usize);
            let w = seg.width as usize;
            let mut o = seg.offset as usize;
            for x in 0..end - seg.start as usize {
                let r = if w == 0 { 0 } else { self.residuals.get_bits(o, w) as i64 };
                o += w;
                out.push(predict(seg.slope, seg.intercept, x) + seg.base + r);
            }
        }
        out
    }

    fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        if count == 0 {
            return;
        }
        let end = start + count;
        let mut si = self.segment_of(start);
        let mut k = start;
        while k < end {
            let seg_end =
                self.segments.get(si + 1).map_or(self.n, |next| next.start as usize);
            let to = seg_end.min(end);
            while k < to {
                out.push(self.value_in(si, k));
                k += 1;
            }
            si += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn roundtrip(values: Vec<i64>) -> LecoCompressed {
        let ts = TimeSeries::from_values(values);
        let c = Leco.compress(&ts);
        assert_eq!(c.decompress(), ts.values());
        for k in (0..ts.len()).step_by(7) {
            assert_eq!(c.get(k), ts.values()[k], "get({k})");
        }
        c
    }

    #[test]
    fn predict_equals_the_float_clamp_it_replaced() {
        fn float_clamp(slope: f64, intercept: f64, x: usize) -> i64 {
            let p = slope * x as f64 + intercept;
            if p.is_finite() {
                p.floor().clamp(i64::MIN as f64 / 2.0, i64::MAX as f64 / 2.0) as i64
            } else {
                0
            }
        }
        let edge = 2f64.powi(62);
        let mut points = vec![f64::NAN, f64::INFINITY, f64::MAX, 0.0, 0.5, 2f64.powi(63)];
        for e in [edge, edge.next_up(), edge.next_down(), edge + 2048.0, edge - 512.0] {
            points.push(e);
        }
        for p in points {
            for p in [p, -p] {
                assert_eq!(predict(0.0, p, 0), float_clamp(0.0, p, 0), "p = {p:e}");
            }
        }
        let mut rng = StdRng::seed_from_u64(0x1ec0);
        for _ in 0..200_000 {
            let slope = f64::from_bits(rng.random::<u64>());
            let intercept = rng.random_range(-1e19..1e19) / 2f64.powi(rng.random_range(0..64));
            let x = rng.random_range(0..1usize << 20);
            assert_eq!(predict(slope, intercept, x), float_clamp(slope, intercept, x), "{slope:e}·{x} + {intercept:e}");
            let slope = rng.random_range(-1e6..1e6);
            assert_eq!(predict(slope, intercept, x), float_clamp(slope, intercept, x), "{slope:e}·{x} + {intercept:e}");
        }
    }

    #[test]
    fn linear_data_merges_to_one_segment() {
        let values: Vec<i64> = (0..5000).map(|k| 3 * k + 11).collect();
        let c = roundtrip(values);
        assert!(c.segment_count() <= 2, "{} segments on a line", c.segment_count());
        let ratio = c.size_in_bytes() as f64 / (5000.0 * 8.0);
        assert!(ratio < 0.05, "linear data ratio {ratio}");
    }

    #[test]
    fn noisy_pieces_stay_separate() {
        // Two regimes with very different residual scales: merging across
        // the boundary would widen all residual cells, so LeCo keeps them
        // apart.
        let mut rng = StdRng::seed_from_u64(1);
        let mut values: Vec<i64> = (0..2048).map(|k| 5 * k + rng.random_range(-2..3)).collect();
        values.extend((0..2048).map(|k| 10_240 - 7 * k + rng.random_range(-4000..4000)));
        let c = roundtrip(values);
        assert!(c.segment_count() >= 2);
    }

    #[test]
    fn random_and_extreme_values() {
        let mut rng = StdRng::seed_from_u64(2);
        roundtrip((0..3000).map(|_| rng.random_range(-1_000_000..1_000_000)).collect());
        roundtrip(vec![i64::MAX / 4, i64::MIN / 4, 0, -1, 1]);
    }

    #[test]
    fn empty_single_and_partial_blocks() {
        roundtrip(vec![]);
        roundtrip(vec![99]);
        let mut rng = StdRng::seed_from_u64(3);
        roundtrip((0..LECO_MINI * 3 + 17).map(|_| rng.random_range(-50..50)).collect());
    }

    #[test]
    fn scan_matches_slice() {
        let mut rng = StdRng::seed_from_u64(4);
        let values: Vec<i64> = (0..4000).map(|k| k / 3 + rng.random_range(-5..5)).collect();
        let ts = TimeSeries::from_values(values);
        let c = Leco.compress(&ts);
        for (s, l) in [(0usize, 100usize), (63, 65), (1000, 2000), (3999, 1)] {
            let mut out = Vec::new();
            c.scan_range(s, l, &mut out);
            assert_eq!(out, &ts.values()[s..s + l]);
        }
    }

    #[test]
    fn ols_prefix_sums_fit_exact_line() {
        let values: Vec<i64> = (0..100).map(|k| 5 * k - 3).collect();
        let sums = OlsSums::new(&values);
        let (m, b) = sums.ols(10, 90);
        assert!((m - 5.0).abs() < 1e-6, "slope {m}");
        // local x at a=10: value = 5(x+10) − 3 = 5x + 47
        assert!((b - 47.0).abs() < 1e-4, "intercept {b}");
    }
}
