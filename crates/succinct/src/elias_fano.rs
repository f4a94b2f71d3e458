//! Elias-Fano encoding of monotone non-decreasing integer sequences.
//!
//! Used by the NeaTS layout (paper §III-C) for the fragment-start array `S`
//! and the cumulative-correction-offset array `O`. Supports O(1) `get` via
//! `select1` on the upper-bits bitvector, and `rank_leq` (the paper's
//! `S.rank(k)`) in O(min(log m, log n/m)) via a bucket lookup with `select0`
//! followed by a binary search within the bucket.

use crate::bits::{bits_for, BitBuf};
use crate::bitvec::{BitVector, OnesIter};
use crate::views::{Halves, U16sView, U64sView, Words};
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// An Elias-Fano-coded monotone sequence.
#[derive(Clone, Copy, Debug)]
pub struct EliasFano<W = Vec<u64>, H = Vec<u16>> {
    /// Unary-coded high parts: for element i with high part h, bit
    /// `i + h` is set; zeros delimit buckets.
    high: BitVector<W, H>,
    /// Packed low parts, `low_bits` each.
    low: BitBuf<W>,
    low_bits: usize,
    len: usize,
    universe: u64,
}

impl EliasFano {
    /// The largest value a sequence may hold: the universe `last + 1` must
    /// itself fit a `u64`.
    pub const MAX_VALUE: u64 = u64::MAX - 1;

    /// Encodes `values`, which must be non-decreasing.
    ///
    /// # Panics
    /// Panics (in every build profile) if the sequence is decreasing or its
    /// last value exceeds [`Self::MAX_VALUE`].
    pub fn new(values: &[u64]) -> Self {
        let len = values.len();
        let universe = values.last().map_or(0, |&v| {
            v.checked_add(1).expect("EliasFano values must not exceed EliasFano::MAX_VALUE")
        });
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
}

impl<W: Words, H: Halves> EliasFano<W, H> {
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

    /// High and low parts in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.high.size_in_bytes() + self.low.size_in_bytes()
    }

    /// Streaming iterator over the elements in order.
    ///
    /// A single forward scan of the high-bits words with a running low-bits
    /// cursor — O(len + high_words) for the full walk — instead of an O(1)
    /// but directory-probing `select1` per element. Sequential decompression
    /// walks the fragment `starts`/`offsets` arrays this way.
    pub fn iter(&self) -> EliasFanoIter<W::Cursor<'_>> {
        self.iter_from(0)
    }

    /// A sequential cursor over the elements from index `i` on
    /// (`i <= len()`; `iter_from(len())` is empty): one `select1` to seek,
    /// then the forward scan of [`Self::iter`] — reading `k` consecutive
    /// elements costs one random access plus `k` sequential steps, where
    /// `k` calls of [`Self::get`] cost `k` random accesses.
    pub fn iter_from(&self, i: usize) -> EliasFanoIter<W::Cursor<'_>> {
        debug_assert!(i <= self.len);
        EliasFanoIter {
            low: self.low.cursor(),
            low_bits: self.low_bits,
            len: self.len,
            i,
            // A full walk pays no seek.
            ones: if i == 0 { self.high.iter_ones() } else { self.high.iter_ones_from(i) },
        }
    }
}

impl Wire for EliasFano {
    fn write(&self, w: &mut WireWriter) {
        w.u64(self.len as u64);
        w.u64(self.universe);
        w.u64(self.low_bits as u64);
        self.high.write(w);
        self.low.write(w);
    }
}

impl<'a> EliasFano<U64sView<'a>, U16sView<'a>> {
    /// Parses the wire encoding, borrowing the components.
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let universe = r.u64()?;
        let low_bits = r.read_len()?;
        if low_bits > 64 {
            return Err(WireError::Corrupt("EliasFano low_bits"));
        }
        let high = BitVector::read(r)?;
        let low = BitBuf::read(r)?;
        if len.checked_mul(low_bits) != Some(low.len()) || high.count_ones() != len {
            return Err(WireError::Corrupt("EliasFano parts"));
        }
        Ok(Self { high, low, low_bits, len, universe })
    }

    /// Verifies the high-bits rank directories (see
    /// [`BitVector::validate`]).
    pub fn validate(&self) -> Result<(), WireError> {
        self.high.validate()
    }
}

/// Streaming iterator over an [`EliasFano`] sequence (see
/// [`EliasFano::iter_from`]); `C` is the `Copy` word source — `&[u64]` or
/// [`U64sView`].
#[derive(Clone, Copy, Debug)]
pub struct EliasFanoIter<C> {
    low: BitBuf<C>,
    low_bits: usize,
    len: usize,
    /// Next element index.
    i: usize,
    /// Forward scan over the unary-coded high parts.
    ones: OnesIter<C>,
}

impl<C: Words> Iterator for EliasFanoIter<C> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.i == self.len {
            return None;
        }
        let pos = self.ones.next().expect("high bits hold one set bit per element");
        let h = (pos - self.i) as u64;
        let v = (h << self.low_bits) | self.low.get_bits(self.i * self.low_bits, self.low_bits);
        self.i += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.i;
        (rem, Some(rem))
    }
}

impl<C: Words> ExactSizeIterator for EliasFanoIter<C> {}

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

    /// `universe = last + 1` must not wrap: a wrapped universe of 0 builds
    /// a structure that validates and answers 0 for every `get`. Run in
    /// release too (CI's hardened job), where `+` would wrap silently.
    #[test]
    #[should_panic(expected = "MAX_VALUE")]
    fn rejects_u64_max_in_every_profile() {
        EliasFano::new(&[0, u64::MAX]);
    }

    #[test]
    fn max_value_is_representable() {
        let ef = EliasFano::new(&[0, EliasFano::MAX_VALUE]);
        assert_eq!((ef.get(0), ef.get(1)), (0, EliasFano::MAX_VALUE));
        assert_eq!(ef.rank_leq(u64::MAX), 2);
        assert_eq!(ef.rank_leq(EliasFano::MAX_VALUE - 1), 1);
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
