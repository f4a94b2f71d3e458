//! A tiny lock-free log-linear histogram for latency recording.
//!
//! The serving layer (`neats-serve`) records one latency sample per request
//! from many worker threads at once, and its `/stats` endpoint reports
//! percentiles. Both ends want the same structure: a fixed array of atomic
//! bucket counters that `record` can bump wait-free, coarse enough to stay
//! tiny (496 × 8 bytes) and fine enough that any quantile is reported with
//! at most 12.5% relative error.
//!
//! The bucket scheme is *log-linear* (the same idea as HdrHistogram's coarse
//! mode): values `0..8` get one bucket each, and every octave `[2^o, 2^(o+1))`
//! above that is split into 8 equal sub-buckets. A `u64` value therefore
//! always lands in one of `8 + 61·8 = 496` buckets, and a bucket's width is
//! 1/8 of its lower bound.
//!
//! ```
//! use neats_store::histogram::AtomicHistogram;
//!
//! let h = AtomicHistogram::new();
//! for v in [120, 130, 140, 150, 90_000] {
//!     h.record(v);
//! }
//! let snap = h.snapshot();
//! assert_eq!(snap.count(), 5);
//! // The p50 bucket contains the true median (140), within 12.5%.
//! assert!(snap.quantile(0.5) >= 130 && snap.quantile(0.5) <= 160);
//! // The max is tracked exactly.
//! assert_eq!(snap.max(), 90_000);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (8 → at most 12.5% relative bucket width).
const SUB: usize = 8;
/// log2 of [`SUB`].
const SUB_BITS: u32 = 3;
/// Total buckets: identity buckets `0..SUB` plus `SUB` per octave for the
/// 61 octaves `[2^3, 2^64)`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Number of buckets every histogram has ([`HistogramSnapshot::buckets`]
/// always returns a slice of this length).
pub const BUCKET_COUNT: usize = BUCKETS;

/// The bucket index of `v` (total order preserving: `v ≤ w` implies
/// `index(v) ≤ index(w)`).
pub fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
    SUB + (octave - SUB_BITS) as usize * SUB + sub
}

/// The *exclusive upper bound* of bucket `i` — the smallest value that does
/// not land in it. Quantiles report this bound, so they never under-state.
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        return i as u64 + 1;
    }
    let octave = (i - SUB) as u32 / SUB as u32 + SUB_BITS;
    let sub = ((i - SUB) % SUB) as u128;
    // Lower bound 2^octave + sub·2^(octave-3); width 2^(octave-3). The very
    // last bucket's exclusive bound is 2^64, which saturates to u64::MAX —
    // harmless, since quantiles clamp to the exact recorded max anyway.
    let upper = (1u128 << octave) + (sub + 1) * (1u128 << (octave - SUB_BITS));
    u64::try_from(upper).unwrap_or(u64::MAX)
}

/// A fixed-size concurrent histogram: `record` is wait-free (one atomic add
/// plus a max update), readers take a consistent-enough [`snapshot`]
/// (individual counters are read atomically; a snapshot taken while writers
/// are active may be mid-update across buckets, which only perturbs
/// quantiles by in-flight samples).
///
/// [`snapshot`]: AtomicHistogram::snapshot
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `[AtomicU64; N]` has no Default past 32 elements; build via Vec.
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("bucket count is fixed");
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (any unit; the serving layer records nanoseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy suitable for quantile queries and rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of an [`AtomicHistogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity for [`Self::merge`]).
    pub fn empty() -> Self {
        Self { buckets: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket sample counts, in bucket order ([`BUCKET_COUNT`] entries;
    /// bucket `i` covers `[bucket_upper(i-1), bucket_upper(i))`). This is
    /// what the Prometheus renderer in [`crate::obs`] folds into cumulative
    /// `_bucket{le=…}` lines.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: an upper bound of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample, clamped to the exact
    /// recorded maximum (so `quantile(1.0) == max()`). Returns 0 for an
    /// empty histogram. Over-states by at most 12.5% (one bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Accumulates `other` into `self` (bucket-wise; max is folded).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        // Wrapping, like the recorder's `fetch_add`: a sum that has lapped
        // u64 stays bit-identical to single-histogram recording.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_bounded() {
        let mut prev = 0;
        for &v in &[0u64, 1, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket order violated at {v}");
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            prev = b;
        }
        // Every value is strictly below its bucket's upper bound.
        for v in (0..10_000u64).chain([1 << 33, u64::MAX - 1]) {
            assert!(v < bucket_upper(bucket_of(v)), "v={v}");
        }
    }

    #[test]
    fn bucket_width_is_within_one_eighth() {
        for v in 8u64..100_000 {
            let upper = bucket_upper(bucket_of(v));
            assert!(
                (upper - 1) as f64 <= v as f64 * 1.125,
                "bucket for {v} too wide (upper {upper})"
            );
        }
    }

    #[test]
    fn quantiles_bound_known_distributions() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 1000);
        assert_eq!(s.sum(), 500_500);
        let p50 = s.quantile(0.5);
        assert!((500..=563).contains(&p50), "p50={p50}");
        let p99 = s.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert!(s.quantile(0.0) >= 1);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single() {
        let h = AtomicHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        h.record(42);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 42.min(s.max()));
        assert_eq!(s.max(), 42);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        let all = AtomicHistogram::new();
        for v in 0..500u64 {
            let target = if v % 2 == 0 { &a } else { &b };
            target.record(v * 3);
            all.record(v * 3);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let want = all.snapshot();
        assert_eq!(merged.count(), want.count());
        assert_eq!(merged.sum(), want.sum());
        assert_eq!(merged.max(), want.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), want.quantile(q), "q={q}");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().max(), 39_999);
    }
}
