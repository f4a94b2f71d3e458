//! Elias-Fano encoding of monotone non-decreasing integer sequences.
//!
//! Used by the NeaTS layout (paper §III-C) for the fragment-start array `S`
//! and the cumulative-correction-offset array `O`. Supports O(1) `get` via
//! `select1` on the upper-bits bitvector, and `rank_leq` (the paper's
//! `S.rank(k)`) in O(min(log m, log n/m)) via a bucket lookup with `select0`
//! followed by a binary search within the bucket.

use crate::bits::{bits_for, BitBuf};
use crate::bitvec::BitVector;

/// An Elias-Fano-coded monotone sequence.
#[derive(Clone, Debug)]
pub struct EliasFano {
    /// Unary-coded high parts: for element i with high part h, bit
    /// `i + h` is set; zeros delimit buckets.
    high: BitVector,
    /// Packed low parts, `low_bits` each.
    low: BitBuf,
    low_bits: usize,
    len: usize,
    universe: u64,
}

impl EliasFano {
    /// Encodes `values`, which must be non-decreasing.
    ///
    /// # Panics
    /// Panics if the sequence is decreasing.
    pub fn new(values: &[u64]) -> Self {
        let len = values.len();
        let universe = values.last().copied().map_or(0, |v| v + 1);
        let low_bits = if len == 0 {
            0
        } else {
            // ⌊log₂(u/m)⌋, clamped to ≥ 0
            let per = universe / len as u64;
            if per <= 1 { 0 } else { bits_for(per) - 1 }
        };
        let low_mask = if low_bits == 0 { 0 } else { (1u64 << low_bits) - 1 };
        let mut low = BitBuf::with_capacity(len * low_bits);
        let n_high_bits = len + (universe >> low_bits) as usize + 1;
        let mut high = BitBuf::with_capacity(n_high_bits);
        let mut prev = 0u64;
        let mut high_pos = 0usize; // number of bits pushed to `high`
        for (i, &v) in values.iter().enumerate() {
            assert!(v >= prev, "EliasFano input must be non-decreasing");
            prev = v;
            low.push_bits(v & low_mask, low_bits);
            let h = (v >> low_bits) as usize;
            let target = i + h; // position of the set bit for element i
            while high_pos < target {
                high.push_bit(false);
                high_pos += 1;
            }
            high.push_bit(true);
            high_pos += 1;
        }
        // Trailing zeros so select0 is defined for every bucket.
        while high_pos < n_high_bits {
            high.push_bit(false);
            high_pos += 1;
        }
        Self { high: BitVector::from_bitbuf(&high), low, low_bits, len, universe }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th element (0-based). O(1).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let pos = self.high.select1(i).expect("index in range");
        let h = (pos - i) as u64;
        (h << self.low_bits) | self.low.get_bits(i * self.low_bits, self.low_bits)
    }

    /// Number of elements ≤ `x` (the paper's `rank` operation on `S`).
    pub fn rank_leq(&self, x: u64) -> usize {
        if self.len == 0 || self.universe == 0 {
            return 0;
        }
        if x >= self.universe - 1 {
            return self.len;
        }
        let h = (x >> self.low_bits) as usize;
        // Elements with high part < h: all elements before bucket h.
        let start = if h == 0 {
            0
        } else {
            match self.high.select0(h - 1) {
                Some(p) => p - (h - 1),
                None => return self.len,
            }
        };
        // Elements with high part ≤ h end before the h-th zero.
        let end = match self.high.select0(h) {
            Some(p) => p - h,
            None => self.len,
        };
        // Binary search within bucket h over the low parts.
        let xl = x & if self.low_bits == 0 { 0 } else { (1u64 << self.low_bits) - 1 };
        let mut lo = start;
        let mut hi = end;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let l = self.low.get_bits(mid * self.low_bits, self.low_bits);
            if l <= xl {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Index of the last element ≤ `x`, i.e. the predecessor. `None` if all
    /// elements are > `x`.
    pub fn predecessor_index(&self, x: u64) -> Option<usize> {
        let r = self.rank_leq(x);
        if r == 0 {
            None
        } else {
            Some(r - 1)
        }
    }

    /// Heap size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.high.size_in_bytes() + self.low.size_in_bytes()
    }

    /// Exposes the internal components for persistence
    /// (`(high, low, low_bits, len, universe)`).
    pub fn raw_parts(&self) -> (&BitVector, &BitBuf, usize, usize, u64) {
        (&self.high, &self.low, self.low_bits, self.len, self.universe)
    }

    /// Streaming iterator over the elements in order.
    ///
    /// A single forward scan of the high-bits words with a running low-bits
    /// cursor — O(len + high_words) for the full walk — instead of an O(1)
    /// but directory-probing `select1` per element. Sequential decompression
    /// walks the fragment `starts`/`offsets` arrays this way.
    pub fn iter(&self) -> EliasFanoIter<'_> {
        EliasFanoIter { ef: self, i: 0, ones: self.high.iter_ones() }
    }
}

/// Streaming iterator over an [`EliasFano`] sequence (see
/// [`EliasFano::iter`]).
#[derive(Clone, Debug)]
pub struct EliasFanoIter<'a> {
    ef: &'a EliasFano,
    /// Next element index.
    i: usize,
    /// Forward scan over the unary-coded high parts.
    ones: crate::bitvec::OnesIter<'a>,
}

impl Iterator for EliasFanoIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.i == self.ef.len {
            return None;
        }
        let pos = self.ones.next().expect("high bits hold one set bit per element");
        let h = (pos - self.i) as u64;
        let lb = self.ef.low_bits;
        let v = (h << lb) | self.ef.low.get_bits(self.i * lb, lb);
        self.i += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.ef.len - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for EliasFanoIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check(values: &[u64]) {
        let ef = EliasFano::new(values);
        assert_eq!(ef.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v, "get({i})");
        }
        // The streaming iterator yields exactly the encoded sequence.
        let streamed: Vec<u64> = ef.iter().collect();
        assert_eq!(streamed, values);
        assert_eq!(ef.iter().len(), values.len());
        let max = values.last().copied().unwrap_or(0);
        for x in 0..=max.min(2000) {
            let expected = values.iter().filter(|&&v| v <= x).count();
            assert_eq!(ef.rank_leq(x), expected, "rank_leq({x})");
        }
        assert_eq!(ef.rank_leq(max + 100), values.len());
    }

    #[test]
    fn empty() {
        let ef = EliasFano::new(&[]);
        assert_eq!(ef.len(), 0);
        assert_eq!(ef.rank_leq(0), 0);
        assert_eq!(ef.predecessor_index(5), None);
    }

    #[test]
    fn single_element() {
        check(&[0]);
        check(&[7]);
        check(&[1000]);
    }

    #[test]
    fn small_sequences() {
        check(&[0, 1, 2, 3, 4]);
        check(&[1, 5, 5, 5, 9]); // duplicates allowed
        check(&[0, 0, 0]);
        check(&[2, 100, 1000, 1001]);
    }

    #[test]
    fn dense_and_sparse() {
        let dense: Vec<u64> = (0..1000).collect();
        check(&dense);
        let sparse: Vec<u64> = (0..100).map(|i| i * 10_007).collect();
        check(&sparse);
    }

    #[test]
    fn random_monotone() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let n = rng.random_range(1..500);
            let mut v = 0u64;
            let values: Vec<u64> = (0..n)
                .map(|_| {
                    v += rng.random_range(0..50);
                    v
                })
                .collect();
            check(&values);
        }
    }

    #[test]
    fn predecessor() {
        let ef = EliasFano::new(&[10, 20, 30]);
        assert_eq!(ef.predecessor_index(5), None);
        assert_eq!(ef.predecessor_index(10), Some(0));
        assert_eq!(ef.predecessor_index(19), Some(0));
        assert_eq!(ef.predecessor_index(20), Some(1));
        assert_eq!(ef.predecessor_index(1000), Some(2));
    }

    #[test]
    fn large_universe() {
        let values: Vec<u64> = vec![1 << 40, (1 << 40) + 1, 1 << 50];
        let ef = EliasFano::new(&values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v);
        }
        assert_eq!(ef.rank_leq(1 << 45), 2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing() {
        EliasFano::new(&[5, 3]);
    }

    #[test]
    fn space_is_compact() {
        // ~2 + log(u/m) bits per element expected.
        let values: Vec<u64> = (0..10_000u64).map(|i| i * 17).collect();
        let ef = EliasFano::new(&values);
        let bits_per_elem = ef.size_in_bytes() as f64 * 8.0 / 10_000.0;
        assert!(bits_per_elem < 12.0, "got {bits_per_elem} bits/elem");
    }
}
