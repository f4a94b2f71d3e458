//! A minimal, dependency-free wire format for persisting the succinct
//! structures (and the compressed layouts built on them) to disk.
//!
//! Encoding conventions: little-endian fixed-width integers, `u64` lengths,
//! no padding. Writing is [`Wire::write`], implemented by each structure
//! over owned words; reading is `read` + `validate` on its borrowed
//! instantiation (see [`crate::views`]), which is *validating*: truncated
//! or corrupt input yields [`WireError`], never a panic or an out-of-bounds
//! read.

use crate::views::{U16sView, U64sView};

/// Error decoding a wire buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the declared payload.
    Truncated,
    /// A declared length or invariant is inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Corrupt(what) => write!(f, "corrupt field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A sequential reader over a wire buffer.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current byte position from the start of the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Borrows the next `n` raw bytes without copying.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        if end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let v = u64::from_le_bytes(self.data[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }

    /// Reads a `u64` and checks it fits a `usize`.
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Corrupt("length exceeds usize"))
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        if self.pos >= self.data.len() {
            return Err(WireError::Truncated);
        }
        let v = self.data[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// Borrows a length-prefixed `u64` sequence without copying.
    pub fn u64s_ref(&mut self) -> Result<U64sView<'a>, WireError> {
        let n = self.read_len()?;
        let bytes = n.checked_mul(8).ok_or(WireError::Truncated)?;
        Ok(U64sView::new(self.take(bytes)?))
    }

    /// Borrows a length-prefixed `u16` sequence without copying.
    pub fn u16s_ref(&mut self) -> Result<U16sView<'a>, WireError> {
        let n = self.read_len()?;
        let bytes = n.checked_mul(2).ok_or(WireError::Truncated)?;
        Ok(U16sView::new(self.take(bytes)?))
    }

    /// Reads a length-prefixed `Vec<u64>` (one copy of the borrowed bytes).
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        Ok(self.u64s_ref()?.iter().collect())
    }

    /// Borrows a length-prefixed byte slice without copying.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.read_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed byte vector (one copy of the borrowed bytes).
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Whether everything was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Append-only writer matching [`WireReader`].
#[derive(Default)]
pub struct WireWriter {
    out: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Writes an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    /// Writes a length-prefixed `u16` slice (little-endian pairs).
    pub fn u16_slice(&mut self, v: &[u16]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.out.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.out
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.out.extend_from_slice(v);
    }

    /// Finishes and returns the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Types that can be persisted with the wire format. The read half is
/// `read` on the structure's borrowed instantiation (see [`crate::views`]).
pub trait Wire {
    /// Appends the encoding of `self` to `w`.
    fn write(&self, w: &mut WireWriter);

    /// Convenience: encodes to a fresh byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.write(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::{BitBufView, BitVectorView, EliasFanoView, PackedVecView, WaveletMatrixView};
    use crate::{BitBuf, BitVector, EliasFano, PackedVec, WaveletMatrix};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The read path of one structure: parse, verify the directories where
    /// the structure has any, and require full consumption.
    fn open<'a, V>(
        bytes: &'a [u8],
        read: impl Fn(&mut WireReader<'a>) -> Result<V, WireError>,
    ) -> Result<V, WireError> {
        let mut r = WireReader::new(bytes);
        let v = read(&mut r)?;
        if !r.is_exhausted() {
            return Err(WireError::Corrupt("trailing bytes"));
        }
        Ok(v)
    }

    fn bitvector<'a>(r: &mut WireReader<'a>) -> Result<BitVectorView<'a>, WireError> {
        BitVectorView::read(r).and_then(|v| v.validate().map(|()| v))
    }

    fn elias_fano<'a>(r: &mut WireReader<'a>) -> Result<EliasFanoView<'a>, WireError> {
        EliasFanoView::read(r).and_then(|v| v.validate().map(|()| v))
    }

    fn wavelet<'a>(r: &mut WireReader<'a>) -> Result<WaveletMatrixView<'a>, WireError> {
        WaveletMatrixView::read(r).and_then(|v| v.validate().map(|()| v))
    }

    fn corrupt_check(bytes: &[u8], accepts: impl Fn(&[u8]) -> bool) {
        // Every truncation must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(!accepts(&bytes[..cut]), "cut at {cut} accepted");
        }
        // Trailing garbage must be rejected.
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(!accepts(&extended));
    }

    #[test]
    fn bitbuf_roundtrip_and_corruption() {
        let mut b = BitBuf::new();
        for i in 0..100u64 {
            b.push_bits(i % 32, 5);
        }
        let bytes = b.to_wire_bytes();
        let back = open(&bytes, BitBufView::read).unwrap();
        assert_eq!(back.len(), b.len());
        for i in 0..100 {
            assert_eq!(back.get_bits(i * 5, 5), b.get_bits(i * 5, 5));
        }
        corrupt_check(&bytes, |b| open(b, BitBufView::read).is_ok());
    }

    #[test]
    fn bitvector_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let bits: Vec<bool> = (0..3000).map(|_| rng.random_bool(0.4)).collect();
        let bv = BitVector::from_bools(&bits);
        let bytes = bv.to_wire_bytes();
        let back = open(&bytes, bitvector).unwrap();
        assert_eq!(back.len(), bv.len());
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(back.get(i), b);
            assert_eq!(back.rank1(i), bv.rank1(i));
        }
        corrupt_check(&bytes, |b| open(b, bitvector).is_ok());
    }

    #[test]
    fn elias_fano_roundtrip() {
        let values: Vec<u64> = (0..500u64).map(|i| i * 37 + i % 5).collect();
        let ef = EliasFano::new(&values);
        let bytes = ef.to_wire_bytes();
        let back = open(&bytes, elias_fano).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(back.get(i), v);
        }
        assert_eq!(back.rank_leq(1000), ef.rank_leq(1000));
        corrupt_check(&bytes, |b| open(b, elias_fano).is_ok());
    }

    #[test]
    fn packed_roundtrip() {
        let values: Vec<u64> = (0..300).map(|i| i * 7 % 1000).collect();
        let p = PackedVec::new(&values);
        let bytes = p.to_wire_bytes();
        let back = open(&bytes, PackedVecView::read).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(back.get(i), v);
        }
        corrupt_check(&bytes, |b| open(b, PackedVecView::read).is_ok());
    }

    #[test]
    fn wavelet_roundtrip() {
        let symbols: Vec<u8> = (0..400).map(|i| (i % 7) as u8).collect();
        let wm = WaveletMatrix::new(&symbols);
        let bytes = wm.to_wire_bytes();
        let back = open(&bytes, wavelet).unwrap();
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(back.access(i), s);
            assert_eq!(back.rank(s, i), wm.rank(s, i));
        }
        corrupt_check(&bytes, |b| open(b, wavelet).is_ok());
    }

    #[test]
    fn empty_structures_roundtrip() {
        assert_eq!(open(&BitBuf::new().to_wire_bytes(), BitBufView::read).unwrap().len(), 0);
        assert_eq!(open(&EliasFano::new(&[]).to_wire_bytes(), elias_fano).unwrap().len(), 0);
        assert_eq!(open(&WaveletMatrix::new(&[]).to_wire_bytes(), wavelet).unwrap().len(), 0);
    }

    #[test]
    fn reader_primitives() {
        let mut w = WireWriter::new();
        w.u64(42);
        w.u8(7);
        w.i64(-5);
        w.bytes(b"hello");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert!(r.is_exhausted());
        assert_eq!(r.u64(), Err(WireError::Truncated));
    }
}
