//! Time series with explicit (non-contiguous) timestamps.
//!
//! The paper stores only values, noting (footnote 5) that real timestamps
//! "form an increasing sequence of integers that can be easily mapped to
//! 1, …, n via monotone minimal perfect hash functions or compressed rank
//! data structures: … the latter take more space but enable range queries
//! over timestamps". This module implements that second option: the
//! timestamp column is Elias-Fano coded (≈ 2 + log(u/n) bits per stamp) and
//! composed with a NeaTS-compressed value column, giving point lookups and
//! time-interval queries directly on compressed data.

use crate::layout::NeaTSCompressed;
use crate::NeaTSBuilder;
use succinct::EliasFano;
use timeseries::{CompressedSeries, TimeSeries};

/// A NeaTS-compressed series with an Elias-Fano timestamp index.
///
/// ```
/// use neats_core::{NeaTS, TimestampedNeaTS};
/// use timeseries::TimeSeries;
///
/// let stamps: Vec<u64> = (0..100).map(|i| 1_700_000_000 + i * 60).collect();
/// let values = TimeSeries::from_values((0..100).map(|k| 20 + k % 5).collect());
/// let table = TimestampedNeaTS::compress(&stamps, &values, &NeaTS::builder()).unwrap();
/// assert_eq!(table.get_at(1_700_000_060), Some(21));
/// let mut hour = Vec::new();
/// table.range_by_time(1_700_000_000, 1_700_003_600, &mut hour);
/// assert_eq!(hour.len(), 61);
/// ```
#[derive(Clone, Debug)]
pub struct TimestampedNeaTS {
    /// First timestamp, subtracted before Elias-Fano coding so the universe
    /// is the stamp *span*, not its absolute magnitude.
    base: u64,
    timestamps: EliasFano,
    values: NeaTSCompressed,
}

/// Errors from [`TimestampedNeaTS::compress`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimestampError {
    /// Timestamps must strictly increase (paper Definition 1).
    NotStrictlyIncreasing {
        /// Position of the first out-of-order timestamp.
        index: usize,
    },
    /// Timestamp and value columns differ in length.
    LengthMismatch {
        /// Length of the timestamp column.
        timestamps: usize,
        /// Length of the value column.
        values: usize,
    },
    /// A timestamp above [`EliasFano::MAX_VALUE`]: `u64::MAX` is reserved,
    /// because the index's universe — the time span plus one — must fit a
    /// `u64`.
    Unrepresentable {
        /// Position of the offending timestamp.
        index: usize,
    },
}

impl std::fmt::Display for TimestampError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimestampError::NotStrictlyIncreasing { index } => {
                write!(f, "timestamp at index {index} does not increase")
            }
            TimestampError::LengthMismatch { timestamps, values } => {
                write!(f, "{timestamps} timestamps vs {values} values")
            }
            TimestampError::Unrepresentable { index } => {
                write!(f, "timestamp at index {index} exceeds the largest storable timestamp")
            }
        }
    }
}

impl std::error::Error for TimestampError {}

impl TimestampedNeaTS {
    /// Compresses a `(timestamps, values)` pair; timestamps must strictly
    /// increase.
    pub fn compress(
        timestamps: &[u64],
        values: &TimeSeries,
        builder: &NeaTSBuilder,
    ) -> Result<Self, TimestampError> {
        if timestamps.len() != values.len() {
            return Err(TimestampError::LengthMismatch {
                timestamps: timestamps.len(),
                values: values.len(),
            });
        }
        for (i, w) in timestamps.windows(2).enumerate() {
            if w[1] <= w[0] {
                return Err(TimestampError::NotStrictlyIncreasing { index: i + 1 });
            }
        }
        // Strictly increasing, so only the last stamp can be the reserved one.
        if timestamps.last().is_some_and(|&t| t > EliasFano::MAX_VALUE) {
            return Err(TimestampError::Unrepresentable { index: timestamps.len() - 1 });
        }
        let base = timestamps.first().copied().unwrap_or(0);
        let rebased: Vec<u64> = timestamps.iter().map(|&t| t - base).collect();
        Ok(Self { base, timestamps: EliasFano::new(&rebased), values: builder.build(values) })
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total compressed size (timestamp index + value column).
    pub fn size_in_bytes(&self) -> usize {
        self.timestamps.size_in_bytes() + self.values.size_in_bytes()
    }

    /// The timestamp of the `i`-th point.
    pub fn timestamp(&self, i: usize) -> u64 {
        self.base + self.timestamps.get(i)
    }

    /// The value of the `i`-th point.
    pub fn value(&self, i: usize) -> i64 {
        self.values.get(i)
    }

    /// The value recorded exactly at timestamp `t`, if any.
    pub fn get_at(&self, t: u64) -> Option<i64> {
        if t < self.base {
            return None;
        }
        let r = self.timestamps.rank_leq(t - self.base);
        if r == 0 || self.timestamps.get(r - 1) != t - self.base {
            return None;
        }
        Some(self.values.get(r - 1))
    }

    /// Index of the first point with timestamp ≥ `t`.
    pub fn lower_bound(&self, t: u64) -> usize {
        if t <= self.base {
            return 0;
        }
        self.timestamps.rank_leq(t - self.base - 1)
    }

    /// Appends all `(timestamp, value)` pairs with timestamp in
    /// `[t_lo, t_hi]` — the fundamental time-interval query of §I, resolved
    /// as one timestamp rank plus a value scan.
    pub fn range_by_time(&self, t_lo: u64, t_hi: u64, out: &mut Vec<(u64, i64)>) {
        if t_hi < t_lo || self.is_empty() {
            return;
        }
        if t_hi < self.base {
            return;
        }
        let first = self.lower_bound(t_lo);
        let end = self.timestamps.rank_leq(t_hi - self.base);
        if first >= end {
            return;
        }
        let mut values = Vec::with_capacity(end - first);
        self.values.scan_range(first, end - first, &mut values);
        // One seek, then a sequential walk of the stamp column.
        let stamps = self.timestamps.iter_from(first).map(|t| self.base + t);
        out.extend(stamps.zip(values));
    }

    /// The underlying compressed value column.
    pub fn values(&self) -> &NeaTSCompressed {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NeaTS;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build(n: usize, seed: u64) -> (Vec<u64>, TimeSeries, TimestampedNeaTS) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 1_600_000_000u64; // epoch-style stamps with gaps
        let timestamps: Vec<u64> = (0..n)
            .map(|_| {
                t += rng.random_range(1..120);
                t
            })
            .collect();
        let mut v = 500i64;
        let values = TimeSeries::from_values(
            (0..n).map(|_| { v += rng.random_range(-5..6); v }).collect(),
        );
        let c = TimestampedNeaTS::compress(&timestamps, &values, &NeaTS::builder()).unwrap();
        (timestamps, values, c)
    }

    #[test]
    fn point_lookup_by_timestamp() {
        let (timestamps, values, c) = build(2000, 1);
        for i in (0..2000).step_by(97) {
            assert_eq!(c.get_at(timestamps[i]), Some(values.values()[i]));
        }
        // A gap timestamp yields None.
        let gap = timestamps[10] + 1;
        if !timestamps.contains(&gap) {
            assert_eq!(c.get_at(gap), None);
        }
        assert_eq!(c.get_at(0), None);
    }

    #[test]
    fn time_interval_query_matches_filter() {
        let (timestamps, values, c) = build(3000, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let a = rng.random_range(0..timestamps.len());
            let b = rng.random_range(a..timestamps.len());
            let (t_lo, t_hi) = (timestamps[a], timestamps[b]);
            let mut got = Vec::new();
            c.range_by_time(t_lo, t_hi, &mut got);
            let expected: Vec<(u64, i64)> = timestamps
                .iter()
                .zip(values.values())
                .filter(|(&t, _)| t >= t_lo && t <= t_hi)
                .map(|(&t, &v)| (t, v))
                .collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn empty_interval_and_out_of_range() {
        let (timestamps, _, c) = build(100, 4);
        let mut out = Vec::new();
        c.range_by_time(10, 5, &mut out); // inverted
        assert!(out.is_empty());
        c.range_by_time(0, timestamps[0] - 1, &mut out); // before first
        assert!(out.is_empty());
        c.range_by_time(*timestamps.last().unwrap() + 1, u64::MAX, &mut out);
        assert!(out.is_empty());
        c.range_by_time(0, u64::MAX, &mut out); // everything
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn rejects_bad_input() {
        let values = TimeSeries::from_values(vec![1, 2, 3]);
        let err = TimestampedNeaTS::compress(&[5, 5, 6], &values, &NeaTS::builder()).unwrap_err();
        assert_eq!(err, TimestampError::NotStrictlyIncreasing { index: 1 });
        let err = TimestampedNeaTS::compress(&[1, 2], &values, &NeaTS::builder()).unwrap_err();
        assert!(matches!(err, TimestampError::LengthMismatch { .. }));
        let err = TimestampedNeaTS::compress(&[0, 1, u64::MAX], &values, &NeaTS::builder()).unwrap_err();
        assert_eq!(err, TimestampError::Unrepresentable { index: 2 });
        // The widest span there is stays queryable.
        let widest = [0, 1, EliasFano::MAX_VALUE];
        let c = TimestampedNeaTS::compress(&widest, &values, &NeaTS::builder()).unwrap();
        assert_eq!(c.get_at(EliasFano::MAX_VALUE), Some(3));
        let mut out = Vec::new();
        c.range_by_time(1, u64::MAX, &mut out);
        assert_eq!(out, vec![(1, 2), (EliasFano::MAX_VALUE, 3)]);
    }

    #[test]
    fn timestamp_index_is_compact() {
        let (_, _, c) = build(10_000, 5);
        // EF on ~minute-spaced epoch stamps: ~2 + log(avg gap) ≈ 9 bits/stamp.
        let ts_bits = 8.0 * c.timestamps.size_in_bytes() as f64 / 10_000.0;
        assert!(ts_bits < 16.0, "{ts_bits} bits per timestamp");
    }
}
