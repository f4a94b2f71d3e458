//! Low-level bit-packed buffers: append-only writer and random-access reader.
//!
//! The corrections stream `C` of the NeaTS layout (paper §III-C) is a plain
//! bit string where the i-th fragment's residuals occupy a contiguous run of
//! fixed-width codes. [`BitBuf`] provides the append (compression-time)
//! operation over owned words and the random-access read (query-time)
//! operation over any [`Words`] storage.

use crate::views::{U64sView, Words};
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// A randomly-readable bit string; append-only while its words are owned.
///
/// Bits are stored LSB-first within each 64-bit word: the bit at global
/// position `p` lives in word `p / 64` at bit `p % 64`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitBuf<W = Vec<u64>> {
    words: W,
    /// Number of valid bits.
    len: usize,
}

impl BitBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    /// Appends the `width` low bits of `value` (`width` ≤ 64).
    ///
    /// `width == 0` is a no-op; `value` must fit in `width` bits.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        debug_assert!(width == 64 || value < (1u64 << width), "value {value} overflows width {width}");
        if width == 0 {
            return;
        }
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("non-empty by invariant") |= value << bit;
            if bit + width > 64 {
                self.words.push(value >> (64 - bit));
            }
        }
        self.len += width;
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Builds a buffer from raw words and a bit length.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert!(len <= words.len() * 64);
        Self { words, len }
    }

    /// Shrinks the backing allocation to fit.
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }
}

impl<W: Words> BitBuf<W> {
    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer contains no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the bit string in bytes (capacity-trimmed).
    pub fn size_in_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }

    /// Reads `width` bits starting at bit position `pos` (`width` ≤ 64).
    ///
    /// # Panics
    /// Panics in debug mode if `pos + width > self.len()`.
    #[inline]
    pub fn get_bits(&self, pos: usize, width: usize) -> u64 {
        debug_assert!(width <= 64);
        debug_assert!(pos + width <= self.len, "read past end: {pos}+{width} > {}", self.len);
        if width == 0 {
            return 0;
        }
        let word = pos / 64;
        let bit = pos % 64;
        let lo = self.words.get(word) >> bit;
        let value = if bit + width <= 64 { lo } else { lo | (self.words.get(word + 1) << (64 - bit)) };
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    /// Reads the single bit at `pos`.
    #[inline]
    pub fn get_bit(&self, pos: usize) -> bool {
        debug_assert!(pos < self.len);
        (self.words.get(pos / 64) >> (pos % 64)) & 1 == 1
    }

    /// The raw backing words (the final word of an owned buffer may contain
    /// garbage above `len`).
    pub fn words(&self) -> W::Cursor<'_> {
        self.words.cursor()
    }

    /// The same bits behind a `Copy` handle, for iterators to hold.
    pub(crate) fn cursor(&self) -> BitBuf<W::Cursor<'_>> {
        BitBuf { words: self.words.cursor(), len: self.len }
    }
}

impl Wire for BitBuf {
    fn write(&self, w: &mut WireWriter) {
        w.u64(self.len as u64);
        w.u64_slice(&self.words);
    }
}

impl<'a> BitBuf<U64sView<'a>> {
    /// Parses the wire encoding, borrowing the payload.
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let words = r.u64s_ref()?;
        if len > words.len() * 64 || (len > 0 && words.len() > len.div_ceil(64)) {
            return Err(WireError::Corrupt("BitBuf length"));
        }
        Ok(Self { words, len })
    }
}

/// Minimum number of bits needed to represent `value` (0 needs 0 bits).
#[inline]
pub fn bits_for(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Number of bits needed for a signed residual in `[-bound, bound]`,
/// i.e. ⌈log₂(2·bound + 1)⌉ as in the paper (§II).
///
/// Computed as `bits_for(bound) + 1` (identical for bound ≥ 1, and free of
/// the `2·bound` overflow), capped at 64: residuals beyond ±2⁶³ are stored
/// as full wrapping 64-bit words.
#[inline]
pub fn bits_for_residual_bound(bound: u64) -> usize {
    if bound == 0 {
        0
    } else {
        (bits_for(bound) + 1).min(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer() {
        let b = BitBuf::new();
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.size_in_bytes(), 0);
    }

    #[test]
    fn push_and_get_roundtrip_aligned() {
        let mut b = BitBuf::new();
        for i in 0..100u64 {
            b.push_bits(i, 8);
        }
        for i in 0..100u64 {
            assert_eq!(b.get_bits(i as usize * 8, 8), i);
        }
    }

    #[test]
    fn push_and_get_unaligned_widths() {
        let widths = [1, 3, 7, 13, 17, 31, 33, 63, 64, 5];
        let mut b = BitBuf::new();
        let mut expected = Vec::new();
        let mut pos = 0usize;
        for (i, &w) in widths.iter().cycle().take(200).enumerate() {
            let v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & if w == 64 { u64::MAX } else { (1 << w) - 1 };
            b.push_bits(v, w);
            expected.push((pos, w, v));
            pos += w;
        }
        assert_eq!(b.len(), pos);
        for (p, w, v) in expected {
            assert_eq!(b.get_bits(p, w), v, "at pos {p} width {w}");
        }
    }

    #[test]
    fn zero_width_is_noop() {
        let mut b = BitBuf::new();
        b.push_bits(0, 0);
        assert_eq!(b.len(), 0);
        b.push_bits(5, 3);
        b.push_bits(0, 0);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get_bits(0, 3), 5);
        assert_eq!(b.get_bits(3, 0), 0);
    }

    #[test]
    fn single_bits() {
        let mut b = BitBuf::new();
        let pattern = [true, false, true, true, false, false, true, false];
        for _ in 0..50 {
            for &bit in &pattern {
                b.push_bit(bit);
            }
        }
        for i in 0..b.len() {
            assert_eq!(b.get_bit(i), pattern[i % 8], "bit {i}");
        }
    }

    #[test]
    fn full_word_values() {
        let mut b = BitBuf::new();
        b.push_bits(3, 2); // force misalignment
        b.push_bits(u64::MAX, 64);
        b.push_bits(0xDEAD_BEEF_CAFE_BABE, 64);
        assert_eq!(b.get_bits(0, 2), 3);
        assert_eq!(b.get_bits(2, 64), u64::MAX);
        assert_eq!(b.get_bits(66, 64), 0xDEAD_BEEF_CAFE_BABE);
    }

    #[test]
    fn bits_for_values() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn residual_bound_bits_match_paper_formula() {
        // ⌈log2(2ε+1)⌉
        for eps in [0u64, 1, 2, 3, 7, 8, 100, 1 << 20] {
            let expected = (2.0 * eps as f64 + 1.0).log2().ceil() as usize;
            assert_eq!(bits_for_residual_bound(eps), expected, "eps={eps}");
        }
    }

    #[test]
    fn from_words_roundtrip() {
        let mut b = BitBuf::new();
        b.push_bits(0b101, 3);
        b.push_bits(0xFFFF, 16);
        let b2 = BitBuf::from_words(b.words().to_vec(), b.len());
        assert_eq!(b, b2);
    }
}
