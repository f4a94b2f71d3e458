//! Where a structure's words live: the storage the succinct structures are
//! generic over, and the `*View` names of their borrowed instantiations.
//!
//! Every structure of this crate is one generic type — `BitVector<W>`,
//! `EliasFano<W>`, … — whose queries are written once against [`Words`], a
//! sequence of `u64`s read by index. Two storages implement it:
//!
//! * **owned** — `Vec<u64>` (the default parameter: `BitVector` means
//!   `BitVector<Vec<u64>>`). Only this instantiation has constructors
//!   (`new`, `from_bools`, `push_bits`, …) and [`crate::wire::Wire::write`].
//! * **borrowed** — [`U64sView`], little-endian words over a byte slice
//!   (`BitVectorView<'a>` is an alias of `BitVector<U64sView<'a>>`). Only
//!   this instantiation has `read`, which parses the wire encoding and
//!   *borrows* every payload from the input buffer, so opening an archive
//!   performs no heap allocation proportional to its size. Every multi-byte
//!   read goes through `u64::from_le_bytes` on the byte slice, so the buffer
//!   needs no particular alignment — a plain `std::fs::read` or `mmap`
//!   result works as-is.
//!
//! `rank`/`select`/`access` therefore answer the same from a built structure
//! and from the bytes it wrote because they are the same function, compiled
//! once per storage.
//!
//! [`BitVectorView`] is the one structure that needs serialized state beyond
//! the payload: its rank/select directories are persisted by the writer
//! instead of being rebuilt on load — rebuilding is exactly the O(archive)
//! work a zero-copy open must avoid.
//!
//! Opening a borrowed structure has two halves, kept apart on purpose:
//!
//! * `read` is the **parse**: O(1) per structure (section lengths, masked
//!   trailing bits, cross-field counts), bounds-checked and panic-free on
//!   any bytes, and allocation-free.
//! * `validate` is the **verify**: one streaming pass that re-derives the
//!   rank/select directories from the payload. Only after it succeeds is
//!   every `rank`/`select`/`get` probe in bounds by construction; probing a
//!   view of bytes that were never validated may panic or answer nonsense.
//!
//! Callers that hold bytes already validated once (and immutable since) may
//! `read` again without re-validating — that is what the store's segment
//! cache does on a miss.

use crate::bits::BitBuf;
use crate::bitvec::{BitVector, OnesIter};
use crate::elias_fano::{EliasFano, EliasFanoIter};
use crate::packed::PackedVec;
use crate::wavelet::WaveletMatrix;

mod sealed {
    pub trait Sealed {}
    impl Sealed for Vec<u64> {}
    impl Sealed for &[u64] {}
    impl Sealed for super::U64sView<'_> {}
    impl Sealed for Vec<u16> {}
    impl Sealed for super::U16sView<'_> {}
}

/// A sequence of `u64` words a structure is laid over (sealed: `Vec<u64>`,
/// `&[u64]` and [`U64sView`]). `Default` is the empty sequence.
pub trait Words: sealed::Sealed + Default {
    /// A `Copy` handle on the same words for iterators to hold: `&[u64]`
    /// for owned words, the view itself — with the *buffer's* lifetime, not
    /// the borrow's — for borrowed ones.
    type Cursor<'s>: Words + Copy
    where
        Self: 's;

    /// Number of words.
    fn len(&self) -> usize;
    /// Whether there are no words.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The `i`-th word.
    fn get(&self, i: usize) -> u64;
    /// The `Copy` handle (see [`Self::Cursor`]).
    fn cursor(&self) -> Self::Cursor<'_>;
}

/// The `u16` counterpart of [`Words`], for the per-word rank directory
/// (sealed: `Vec<u16>` and [`U16sView`]).
#[allow(clippy::len_without_is_empty)] // a directory is only ever sized and indexed
pub trait Halves: sealed::Sealed + Default {
    /// Number of elements.
    fn len(&self) -> usize;
    /// The `i`-th element.
    fn get(&self, i: usize) -> u16;
}

impl Words for Vec<u64> {
    type Cursor<'s> = &'s [u64];

    fn len(&self) -> usize {
        self.as_slice().len()
    }
    #[inline]
    fn get(&self, i: usize) -> u64 {
        self[i]
    }
    fn cursor(&self) -> &[u64] {
        self
    }
}

impl<'a> Words for &'a [u64] {
    type Cursor<'s>
        = &'a [u64]
    where
        Self: 's;

    fn len(&self) -> usize {
        <[u64]>::len(self)
    }
    #[inline]
    fn get(&self, i: usize) -> u64 {
        self[i]
    }
    fn cursor(&self) -> &'a [u64] {
        self
    }
}

impl<'a> Words for U64sView<'a> {
    type Cursor<'s>
        = U64sView<'a>
    where
        Self: 's;

    fn len(&self) -> usize {
        U64sView::len(self)
    }
    #[inline]
    fn get(&self, i: usize) -> u64 {
        U64sView::get(self, i)
    }
    fn cursor(&self) -> U64sView<'a> {
        *self
    }
}

impl Halves for Vec<u16> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }
    #[inline]
    fn get(&self, i: usize) -> u16 {
        self[i]
    }
}

impl Halves for U16sView<'_> {
    fn len(&self) -> usize {
        U16sView::len(self)
    }
    #[inline]
    fn get(&self, i: usize) -> u16 {
        U16sView::get(self, i)
    }
}

/// A borrowed sequence of little-endian `u64`s over an unaligned byte slice
/// (`Default` is the empty sequence).
#[derive(Clone, Copy, Debug, Default)]
pub struct U64sView<'a> {
    bytes: &'a [u8],
}

impl<'a> U64sView<'a> {
    /// Wraps a byte slice whose length is a multiple of 8.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        debug_assert!(bytes.len().is_multiple_of(8));
        Self { bytes }
    }

    /// Number of `u64` elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `i`-th element.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
    }

    /// Iterates over all elements.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
    }
}

/// A borrowed sequence of little-endian `u16`s over an unaligned byte slice
/// (`Default` is the empty sequence).
#[derive(Clone, Copy, Debug, Default)]
pub struct U16sView<'a> {
    bytes: &'a [u8],
}

impl<'a> U16sView<'a> {
    /// Wraps a byte slice whose length is a multiple of 2.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        debug_assert!(bytes.len().is_multiple_of(2));
        Self { bytes }
    }

    /// Number of `u16` elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / 2
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `i`-th element.
    #[inline]
    pub fn get(&self, i: usize) -> u16 {
        u16::from_le_bytes(self.bytes[i * 2..i * 2 + 2].try_into().expect("2 bytes"))
    }

    /// Iterates over all elements.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u16> + 'a {
        self.bytes.chunks_exact(2).map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
    }
}

/// [`BitBuf`] over serialized bytes.
pub type BitBufView<'a> = BitBuf<U64sView<'a>>;
/// [`BitVector`] over serialized bytes, answering from the *persisted*
/// rank/select directories.
pub type BitVectorView<'a> = BitVector<U64sView<'a>, U16sView<'a>>;
/// [`OnesIter`] over serialized bytes; holds the buffer's lifetime.
pub type OnesIterView<'a> = OnesIter<U64sView<'a>>;
/// [`EliasFano`] over serialized bytes.
pub type EliasFanoView<'a> = EliasFano<U64sView<'a>, U16sView<'a>>;
/// [`EliasFanoIter`] over serialized bytes; holds the buffer's lifetime.
pub type EliasFanoIterView<'a> = EliasFanoIter<U64sView<'a>>;
/// [`PackedVec`] over serialized bytes.
pub type PackedVecView<'a> = PackedVec<U64sView<'a>>;
/// [`WaveletMatrix`] over serialized bytes.
pub type WaveletMatrixView<'a> = WaveletMatrix<U64sView<'a>, U16sView<'a>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Wire, WireReader};

    #[test]
    fn view_truncation_never_panics() {
        let bv = BitVector::from_bools(&(0..300).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let bytes = bv.to_wire_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(
                BitVectorView::read(&mut r).and_then(|v| v.validate()).is_err() || !r.is_exhausted(),
                "cut {cut} accepted"
            );
        }
    }

    #[test]
    fn tampered_directory_is_rejected() {
        let bv = BitVector::from_bools(&(0..2000).map(|i| i % 5 == 0).collect::<Vec<_>>());
        let bytes = bv.to_wire_bytes();
        // Locate the block_rank area: header(8) + words(8 + w*8), then the
        // directory length prefix. Flip a directory byte and expect
        // validate() to reject it.
        let words_bytes = bv.words().len() * 8;
        let dir_pos = 8 + 8 + words_bytes + 8; // first block_rank entry
        let mut tampered = bytes.clone();
        tampered[dir_pos] ^= 0x40;
        let mut r = WireReader::new(&tampered);
        let outcome = BitVectorView::read(&mut r).and_then(|v| v.validate());
        assert!(outcome.is_err(), "tampered directory accepted by view");
    }
}
