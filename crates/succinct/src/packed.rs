//! Fixed-width packed integer vectors.
//!
//! The NeaTS layout stores the per-fragment correction bit widths `B` and the
//! per-kind parameter arrays `P_f` in "cells whose bit size is just enough to
//! contain the largest value stored in them" (paper §III-C). [`PackedVec`]
//! implements exactly that: `w = bits_for(max)` bits per element with O(1)
//! random access.

use crate::bits::{bits_for, BitBuf};
use crate::views::{U64sView, Words};
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// An immutable vector of `len` integers, each stored in `width` bits.
#[derive(Clone, Copy, Debug)]
pub struct PackedVec<W = Vec<u64>> {
    buf: BitBuf<W>,
    width: usize,
    len: usize,
}

impl PackedVec {
    /// Packs `values` using the minimum width for the largest value.
    pub fn new(values: &[u64]) -> Self {
        let width = values.iter().copied().max().map_or(0, bits_for);
        Self::with_width(values, width)
    }

    /// Packs `values` with an explicit `width` (each value must fit).
    pub fn with_width(values: &[u64], width: usize) -> Self {
        let mut buf = BitBuf::with_capacity(values.len() * width);
        for &v in values {
            debug_assert!(width == 64 || v < (1u64 << width.max(1)) || width == 0 && v == 0);
            buf.push_bits(v, width);
        }
        Self { buf, width, len: values.len() }
    }
}

impl<W: Words> PackedVec<W> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per element.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `i`-th element.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        self.buf.get_bits(i * self.width, self.width)
    }

    /// Size of the packed payload in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.buf.size_in_bytes()
    }

    /// Iterates over all elements.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl Wire for PackedVec {
    fn write(&self, w: &mut WireWriter) {
        w.u64(self.len as u64);
        w.u64(self.width as u64);
        self.buf.write(w);
    }
}

impl<'a> PackedVec<U64sView<'a>> {
    /// Parses the wire encoding, borrowing the payload.
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let width = r.read_len()?;
        if width > 64 {
            return Err(WireError::Corrupt("PackedVec width"));
        }
        let buf = BitBuf::read(r)?;
        if len.checked_mul(width) != Some(buf.len()) {
            return Err(WireError::Corrupt("PackedVec payload size"));
        }
        Ok(Self { buf, width, len })
    }
}

/// Maps signed to unsigned preserving magnitude order: 0,-1,1,-2,2 → 0,1,2,3,4.
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn empty_vec() {
        let p = PackedVec::new(&[]);
        assert_eq!(p.len(), 0);
        assert_eq!(p.width(), 0);
        assert_eq!(p.size_in_bytes(), 0);
    }

    #[test]
    fn zero_width_all_zeros() {
        let p = PackedVec::new(&[0, 0, 0]);
        assert_eq!(p.width(), 0);
        assert_eq!(p.get(1), 0);
        assert_eq!(p.size_in_bytes(), 0);
    }

    #[test]
    fn roundtrip_various_widths() {
        let mut rng = StdRng::seed_from_u64(11);
        for &max in &[1u64, 2, 255, 256, 65_535, 1 << 33, u64::MAX] {
            let values: Vec<u64> =
                (0..200).map(|_| rng.random_range(0..=max)).chain([max]).collect();
            let p = PackedVec::new(&values);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(p.get(i), v, "max={max} i={i}");
            }
        }
    }

    #[test]
    fn width_is_minimal() {
        assert_eq!(PackedVec::new(&[7]).width(), 3);
        assert_eq!(PackedVec::new(&[8]).width(), 4);
        assert_eq!(PackedVec::new(&[1]).width(), 1);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1000i64, -1, 0, 1, 1000, i64::MIN, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn signed_roundtrip() {
        // Signed columns are zig-zag mapped, then packed (what DAC stores).
        let values = [-5i64, 3, 0, -100, 100, i64::MIN / 2];
        let p = PackedVec::new(&values.map(zigzag_encode));
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(zigzag_decode(p.get(i)), v);
        }
    }

    #[test]
    fn iter_matches_get() {
        let values: Vec<u64> = (0..97).map(|i| i * 13 % 101).collect();
        let p = PackedVec::new(&values);
        let collected: Vec<u64> = p.iter().collect();
        assert_eq!(collected, values);
    }
}
