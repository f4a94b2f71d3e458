//! Borrowed, zero-copy counterparts of the succinct structures.
//!
//! The owned types ([`BitVector`], [`EliasFano`], …) *build* a structure and
//! write it ([`crate::wire::Wire::write`]); a `*View` type is how it is read
//! back. It parses that wire encoding and *borrows* every payload from the
//! input buffer instead of materialising `Vec`s, so opening an archive
//! performs no heap allocation proportional to its size. Every multi-byte
//! read goes through `u64::from_le_bytes` on the byte slice, so the buffer
//! needs no particular alignment — a plain `std::fs::read` or `mmap` result
//! works as-is.
//!
//! Query semantics are *identical* to the owned types' (which PLA, AA, DAC
//! and the timestamp column still query in memory) by construction of the
//! algorithms and by test: the unit tests below and `tests/proptests.rs`
//! hold `rank`/`select`/`access` answers from a view equal to the answers
//! of the owned structure that wrote the bytes.
//!
//! [`BitVectorView`] is the one structure that needs serialized state beyond
//! the payload: its rank/select directories are persisted by the owned
//! writer (wire format v2) instead of being rebuilt on load — rebuilding is
//! exactly the O(archive) work a zero-copy open must avoid.
//!
//! Opening a structure has two halves, kept apart on purpose:
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

use crate::bitvec::select_in_word;
use crate::wire::{WireError, WireReader};
// The owned counterparts: named by the docs and built by the tests.
#[cfg(doc)]
use crate::BitBuf;
#[cfg(any(test, doc))]
use crate::{BitVector, EliasFano, PackedVec, WaveletMatrix};

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

/// A borrowed sequence of little-endian `u16`s over an unaligned byte slice.
#[derive(Clone, Copy, Debug)]
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

/// Borrowed counterpart of [`BitBuf`]: a randomly-readable bit string.
#[derive(Clone, Copy, Debug)]
pub struct BitBufView<'a> {
    words: U64sView<'a>,
    len: usize,
}

impl<'a> BitBufView<'a> {
    /// Parses the [`BitBuf`] wire encoding, borrowing the payload.
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let words = r.u64s_ref()?;
        if len > words.len() * 64 || (len > 0 && words.len() > len.div_ceil(64)) {
            return Err(WireError::Corrupt("BitBuf length"));
        }
        Ok(Self { words, len })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer contains no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words as a borrowed `u64` sequence.
    pub fn words(&self) -> U64sView<'a> {
        self.words
    }

    /// Reads `width` bits starting at bit position `pos` (`width` ≤ 64).
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

    /// Size of the bit string in bytes, as [`BitBuf::size_in_bytes`] counts
    /// it.
    pub fn size_in_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }
}

/// Borrowed counterpart of [`BitVector`]: rank/select over serialized bytes,
/// answering from the *persisted* directories (wire format v2) instead of
/// rebuilding them.
#[derive(Clone, Copy, Debug)]
pub struct BitVectorView<'a> {
    words: U64sView<'a>,
    len: usize,
    block_rank: U64sView<'a>,
    sub_rank: U16sView<'a>,
    ones: usize,
}

const WORDS_PER_BLOCK: usize = 8; // keep in sync with bitvec.rs

impl<'a> BitVectorView<'a> {
    /// Filler for the unused tail of [`WaveletMatrixView`]'s inline level
    /// array; never probed.
    const UNUSED: Self = Self {
        words: U64sView { bytes: &[] },
        len: 0,
        block_rank: U64sView { bytes: &[] },
        sub_rank: U16sView { bytes: &[] },
        ones: 0,
    };

    /// Parses the [`BitVector`] wire encoding, borrowing payload and
    /// directories. Checks every *structural* invariant (exact section
    /// lengths, masked trailing bits); directory *contents* are checked by
    /// [`Self::validate`].
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let words = r.u64s_ref()?;
        let block_rank = r.u64s_ref()?;
        let sub_rank = r.u16s_ref()?;
        if words.len() != len.div_ceil(64) {
            return Err(WireError::Corrupt("BitVector word count"));
        }
        if !len.is_multiple_of(64) && !words.is_empty() && words.get(words.len() - 1) >> (len % 64) != 0 {
            return Err(WireError::Corrupt("BitVector garbage bits"));
        }
        if block_rank.len() != words.len().div_ceil(WORDS_PER_BLOCK) + 1 {
            return Err(WireError::Corrupt("BitVector block directory size"));
        }
        if sub_rank.len() != words.len() {
            return Err(WireError::Corrupt("BitVector sub directory size"));
        }
        let ones = block_rank.get(block_rank.len() - 1);
        if ones as usize > len {
            return Err(WireError::Corrupt("BitVector ones count"));
        }
        Ok(Self { words, len, block_rank, sub_rank, ones: ones as usize })
    }

    /// Verifies the persisted directories against the payload in one
    /// streaming popcount pass (no allocation). After this succeeds, every
    /// `rank`/`select` probe is in bounds by construction.
    pub fn validate(&self) -> Result<(), WireError> {
        let mut total = 0u64;
        for w in 0..self.words.len() {
            let blk = w / WORDS_PER_BLOCK;
            if w % WORDS_PER_BLOCK == 0 && self.block_rank.get(blk) != total {
                return Err(WireError::Corrupt("BitVector block directory"));
            }
            if self.sub_rank.get(w) as u64 != total - self.block_rank.get(blk) {
                return Err(WireError::Corrupt("BitVector sub directory"));
            }
            total += self.words.get(w).count_ones() as u64;
        }
        if self.block_rank.get(self.block_rank.len() - 1) != total {
            return Err(WireError::Corrupt("BitVector ones count"));
        }
        Ok(())
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitvector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of one bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Total number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.ones
    }

    /// The bit at position `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        debug_assert!(pos < self.len);
        (self.words.get(pos / 64) >> (pos % 64)) & 1 == 1
    }

    /// Number of ones strictly before `pos`. `pos` may equal `len`.
    #[inline]
    pub fn rank1(&self, pos: usize) -> usize {
        debug_assert!(pos <= self.len);
        if pos == 0 {
            return 0;
        }
        let word = pos / 64;
        let bit = pos % 64;
        if word == self.words.len() {
            return self.ones;
        }
        let base = self.block_rank.get(word / WORDS_PER_BLOCK) as usize
            + self.sub_rank.get(word) as usize;
        let partial = if bit == 0 {
            0
        } else {
            (self.words.get(word) & ((1u64 << bit) - 1)).count_ones() as usize
        };
        base + partial
    }

    /// Number of zeros strictly before `pos`.
    #[inline]
    pub fn rank0(&self, pos: usize) -> usize {
        pos - self.rank1(pos)
    }

    /// Position of the `k`-th one (0-based), or `None` if `k >= count_ones()`.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k >= self.ones {
            return None;
        }
        // Superblock: largest blk with block_rank[blk] ≤ k (partition point).
        let mut lo = 0usize;
        let mut hi = self.block_rank.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.block_rank.get(mid) as usize <= k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let blk = lo - 1;
        let base = self.block_rank.get(blk) as usize;
        let rel = k - base;
        let w_lo = blk * WORDS_PER_BLOCK;
        let w_hi = (w_lo + WORDS_PER_BLOCK).min(self.words.len());
        let mut w = w_lo;
        for cand in (w_lo + 1)..w_hi {
            if (self.sub_rank.get(cand) as usize) <= rel {
                w = cand;
            } else {
                break;
            }
        }
        let count = base + self.sub_rank.get(w) as usize;
        Some(w * 64 + select_in_word(self.words.get(w), k - count))
    }

    /// Position of the `k`-th zero (0-based), or `None` if `k >= count_zeros()`.
    pub fn select0(&self, k: usize) -> Option<usize> {
        if k >= self.len - self.ones {
            return None;
        }
        let mut lo = 0usize;
        let mut hi = self.block_rank.len() - 1;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            let zeros_before =
                (mid * WORDS_PER_BLOCK * 64).min(self.len) - self.block_rank.get(mid) as usize;
            if zeros_before <= k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let blk = lo;
        let base = (blk * WORDS_PER_BLOCK * 64).min(self.len) - self.block_rank.get(blk) as usize;
        let rel = k - base;
        let w_lo = blk * WORDS_PER_BLOCK;
        let w_hi = (w_lo + WORDS_PER_BLOCK).min(self.words.len());
        let mut w = w_lo;
        for cand in (w_lo + 1)..w_hi {
            let zeros_in_prefix = (cand - w_lo) * 64 - self.sub_rank.get(cand) as usize;
            if zeros_in_prefix <= rel {
                w = cand;
            } else {
                break;
            }
        }
        let count = base + (w - w_lo) * 64 - self.sub_rank.get(w) as usize;
        Some(w * 64 + select_in_word(!self.words.get(w), k - count))
    }

    /// Streaming iterator over the positions of all set bits, in order.
    pub fn iter_ones(&self) -> OnesIterView<'a> {
        OnesIterView {
            words: self.words,
            word_idx: 0,
            cur: if self.words.is_empty() { 0 } else { self.words.get(0) },
            remaining: self.ones,
        }
    }

    /// [`Self::iter_ones`] starting at the `k`-th one (0-based): one
    /// [`Self::select1`] to seek, then the same forward scan. Empty when
    /// `k >= count_ones()`.
    pub fn iter_ones_from(&self, k: usize) -> OnesIterView<'a> {
        let (word_idx, cur) = match self.select1(k) {
            Some(pos) => (pos / 64, self.words.get(pos / 64) & (!0u64 << (pos % 64))),
            None => (0, 0),
        };
        OnesIterView {
            words: self.words,
            word_idx,
            cur,
            remaining: self.ones.saturating_sub(k),
        }
    }

    /// Payload plus rank directories in bytes, as
    /// [`BitVector::size_in_bytes`] counts them.
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 8 + self.block_rank.len() * 8 + self.sub_rank.len() * 2
    }
}

/// Streaming iterator over set-bit positions of a [`BitVectorView`].
#[derive(Clone, Copy, Debug)]
pub struct OnesIterView<'a> {
    words: U64sView<'a>,
    word_idx: usize,
    /// Unconsumed set bits of `words[word_idx]`.
    cur: u64,
    remaining: usize,
}

impl Iterator for OnesIterView<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        while self.cur == 0 {
            self.word_idx += 1;
            self.cur = self.words.get(self.word_idx);
        }
        let pos = self.word_idx * 64 + self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        self.remaining -= 1;
        Some(pos)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for OnesIterView<'_> {}

/// Borrowed counterpart of [`EliasFano`]: a monotone sequence queried
/// straight from serialized bytes.
#[derive(Clone, Copy, Debug)]
pub struct EliasFanoView<'a> {
    high: BitVectorView<'a>,
    low: BitBufView<'a>,
    low_bits: usize,
    len: usize,
    universe: u64,
}

impl<'a> EliasFanoView<'a> {
    /// Parses the [`EliasFano`] wire encoding, borrowing the components.
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let universe = r.u64()?;
        let low_bits = r.read_len()?;
        if low_bits > 64 {
            return Err(WireError::Corrupt("EliasFano low_bits"));
        }
        let high = BitVectorView::read(r)?;
        let low = BitBufView::read(r)?;
        if len.checked_mul(low_bits) != Some(low.len()) || high.count_ones() != len {
            return Err(WireError::Corrupt("EliasFano parts"));
        }
        Ok(Self { high, low, low_bits, len, universe })
    }

    /// Verifies the high-bits rank directories (see
    /// [`BitVectorView::validate`]).
    pub fn validate(&self) -> Result<(), WireError> {
        self.high.validate()
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

    /// Number of elements ≤ `x`.
    pub fn rank_leq(&self, x: u64) -> usize {
        if self.len == 0 || self.universe == 0 {
            return 0;
        }
        if x >= self.universe - 1 {
            return self.len;
        }
        let h = (x >> self.low_bits) as usize;
        let start = if h == 0 {
            0
        } else {
            match self.high.select0(h - 1) {
                Some(p) => p - (h - 1),
                None => return self.len,
            }
        };
        let end = match self.high.select0(h) {
            Some(p) => p - h,
            None => self.len,
        };
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

    /// Index of the last element ≤ `x`, or `None` if all elements are > `x`.
    pub fn predecessor_index(&self, x: u64) -> Option<usize> {
        let r = self.rank_leq(x);
        if r == 0 {
            None
        } else {
            Some(r - 1)
        }
    }

    /// Streaming iterator over the elements in order.
    pub fn iter(&self) -> EliasFanoIterView<'a> {
        EliasFanoIterView {
            low: self.low,
            low_bits: self.low_bits,
            len: self.len,
            i: 0,
            ones: self.high.iter_ones(),
        }
    }

    /// A sequential cursor over the elements from index `i` on
    /// (`i <= len()`; `iter_from(len())` is empty): one `select1` to seek,
    /// then the forward scan of [`Self::iter`] — reading `k` consecutive
    /// elements costs one random access plus `k` sequential steps, where
    /// `k` calls of [`Self::get`] cost `k` random accesses.
    pub fn iter_from(&self, i: usize) -> EliasFanoIterView<'a> {
        debug_assert!(i <= self.len);
        EliasFanoIterView {
            low: self.low,
            low_bits: self.low_bits,
            len: self.len,
            i,
            ones: self.high.iter_ones_from(i),
        }
    }

    /// High and low parts in bytes, as [`EliasFano::size_in_bytes`] counts
    /// them.
    pub fn size_in_bytes(&self) -> usize {
        self.high.size_in_bytes() + self.low.size_in_bytes()
    }
}

/// Streaming iterator over an [`EliasFanoView`] sequence.
#[derive(Clone, Copy, Debug)]
pub struct EliasFanoIterView<'a> {
    low: BitBufView<'a>,
    low_bits: usize,
    len: usize,
    /// Next element index.
    i: usize,
    /// Forward scan over the unary-coded high parts.
    ones: OnesIterView<'a>,
}

impl Iterator for EliasFanoIterView<'_> {
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

impl ExactSizeIterator for EliasFanoIterView<'_> {}

/// Borrowed counterpart of [`PackedVec`]: fixed-width integers over
/// serialized bytes.
#[derive(Clone, Copy, Debug)]
pub struct PackedVecView<'a> {
    buf: BitBufView<'a>,
    width: usize,
    len: usize,
}

impl<'a> PackedVecView<'a> {
    /// Parses the [`PackedVec`] wire encoding, borrowing the payload.
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let width = r.read_len()?;
        if width > 64 {
            return Err(WireError::Corrupt("PackedVec width"));
        }
        let buf = BitBufView::read(r)?;
        if len.checked_mul(width) != Some(buf.len()) {
            return Err(WireError::Corrupt("PackedVec payload size"));
        }
        Ok(Self { buf, width, len })
    }

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

    /// Size of the packed payload in bytes, as [`PackedVec::size_in_bytes`]
    /// counts it.
    pub fn size_in_bytes(&self) -> usize {
        self.buf.size_in_bytes()
    }
}

/// Borrowed counterpart of [`WaveletMatrix`]: `access`/`rank` over `u8`
/// symbols straight from serialized bytes.
#[derive(Clone, Copy, Debug)]
pub struct WaveletMatrixView<'a> {
    /// At most 8 levels (`bits ≤ 8`), held inline so parsing never
    /// allocates; only the first `bits` entries are meaningful.
    levels: [BitVectorView<'a>; 8],
    zeros: [usize; 8],
    len: usize,
    bits: usize,
}

impl<'a> WaveletMatrixView<'a> {
    /// Parses the [`WaveletMatrix`] wire encoding, borrowing the levels.
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let bits = r.read_len()?;
        let zeros_wire = r.u64s_ref()?;
        let n_levels = r.read_len()?;
        if n_levels != bits || zeros_wire.len() != bits || bits > 8 {
            return Err(WireError::Corrupt("WaveletMatrix level count"));
        }
        let mut zeros = [0usize; 8];
        for (slot, z) in zeros.iter_mut().zip(zeros_wire.iter()) {
            *slot = usize::try_from(z).map_err(|_| WireError::Corrupt("WaveletMatrix zeros"))?;
        }
        let mut levels = [BitVectorView::UNUSED; 8];
        for (slot, &level_zeros) in levels.iter_mut().zip(&zeros).take(n_levels) {
            let l = BitVectorView::read(r)?;
            if l.len() != len {
                return Err(WireError::Corrupt("WaveletMatrix level length"));
            }
            if l.count_zeros() != level_zeros {
                return Err(WireError::Corrupt("WaveletMatrix zeros"));
            }
            *slot = l;
        }
        Ok(Self { levels, zeros, len, bits })
    }

    /// The levels in use, most significant bit first.
    fn levels(&self) -> &[BitVectorView<'a>] {
        &self.levels[..self.bits]
    }

    /// Verifies every level's rank directories.
    pub fn validate(&self) -> Result<(), WireError> {
        self.levels().iter().try_for_each(BitVectorView::validate)
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The symbol at position `i`.
    pub fn access(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        let mut i = i;
        let mut sym = 0u8;
        for (level, bv) in self.levels().iter().enumerate() {
            let bit = bv.get(i);
            sym = (sym << 1) | bit as u8;
            i = if bit { self.zeros[level] + bv.rank1(i) } else { bv.rank0(i) };
        }
        sym
    }

    /// Combined `access(i)` and `rank(access(i), i)` in a single traversal.
    pub fn access_rank(&self, i: usize) -> (u8, usize) {
        debug_assert!(i < self.len);
        let mut pos = i;
        let mut bucket = 0usize;
        let mut sym = 0u8;
        for (level, bv) in self.levels().iter().enumerate() {
            let bit = bv.get(pos);
            sym = (sym << 1) | bit as u8;
            if bit {
                pos = self.zeros[level] + bv.rank1(pos);
                bucket = self.zeros[level] + bv.rank1(bucket);
            } else {
                pos = bv.rank0(pos);
                bucket = bv.rank0(bucket);
            }
        }
        (sym, pos - bucket)
    }

    /// Number of occurrences of `sym` in the prefix of length `pos`.
    pub fn rank(&self, sym: u8, pos: usize) -> usize {
        debug_assert!(pos <= self.len);
        if (sym as u64) >> self.bits != 0 {
            return 0;
        }
        let mut s = 0usize;
        let mut e = pos;
        for (level, bv) in self.levels().iter().enumerate() {
            let shift = self.bits - 1 - level;
            if (sym >> shift) & 1 == 0 {
                s = bv.rank0(s);
                e = bv.rank0(e);
            } else {
                s = self.zeros[level] + bv.rank1(s);
                e = self.zeros[level] + bv.rank1(e);
            }
        }
        e - s
    }

    /// Levels plus the per-level zero counts in bytes, as
    /// [`WaveletMatrix::size_in_bytes`] counts them.
    pub fn size_in_bytes(&self) -> usize {
        self.levels().iter().map(BitVectorView::size_in_bytes).sum::<usize>() + self.bits * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn view_of<'a>(bytes: &'a [u8]) -> WireReader<'a> {
        WireReader::new(bytes)
    }

    #[test]
    fn bitvector_view_matches_owned() {
        let mut rng = StdRng::seed_from_u64(5);
        for &n in &[0usize, 1, 63, 64, 65, 511, 512, 513, 4000] {
            let bits: Vec<bool> = (0..n).map(|_| rng.random_bool(0.37)).collect();
            let bv = BitVector::from_bools(&bits);
            let bytes = bv.to_wire_bytes();
            let mut r = view_of(&bytes);
            let view = BitVectorView::read(&mut r).unwrap();
            assert!(r.is_exhausted());
            view.validate().unwrap();
            assert_eq!(view.len(), bv.len());
            assert_eq!(view.count_ones(), bv.count_ones());
            assert_eq!(view.size_in_bytes(), bv.size_in_bytes());
            for pos in 0..=n {
                assert_eq!(view.rank1(pos), bv.rank1(pos), "rank1({pos}) n={n}");
            }
            for k in 0..bv.count_ones() {
                assert_eq!(view.select1(k), bv.select1(k), "select1({k}) n={n}");
            }
            for k in 0..bv.count_zeros() {
                assert_eq!(view.select0(k), bv.select0(k), "select0({k}) n={n}");
            }
            let ones_view: Vec<usize> = view.iter_ones().collect();
            let ones_owned: Vec<usize> = bv.iter_ones().collect();
            assert_eq!(ones_view, ones_owned);
        }
    }

    #[test]
    fn elias_fano_view_matches_owned() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v = 0u64;
        let values: Vec<u64> = (0..700).map(|_| { v += rng.random_range(0..40); v }).collect();
        let ef = EliasFano::new(&values);
        let bytes = ef.to_wire_bytes();
        let mut r = view_of(&bytes);
        let view = EliasFanoView::read(&mut r).unwrap();
        assert!(r.is_exhausted());
        view.validate().unwrap();
        assert_eq!(view.size_in_bytes(), ef.size_in_bytes());
        for (i, &x) in values.iter().enumerate() {
            assert_eq!(view.get(i), x);
        }
        for probe in 0..=values.last().copied().unwrap() + 3 {
            assert_eq!(view.rank_leq(probe), ef.rank_leq(probe), "rank_leq({probe})");
        }
        let streamed: Vec<u64> = view.iter().collect();
        assert_eq!(streamed, values);
    }

    #[test]
    fn packed_and_wavelet_views_match_owned() {
        let values: Vec<u64> = (0..450).map(|i| i * 13 % 777).collect();
        let p = PackedVec::new(&values);
        let bytes = p.to_wire_bytes();
        let mut r = view_of(&bytes);
        let view = PackedVecView::read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(view.size_in_bytes(), p.size_in_bytes());
        for (i, &x) in values.iter().enumerate() {
            assert_eq!(view.get(i), x);
        }

        let symbols: Vec<u8> = (0..600).map(|i| (i % 11) as u8).collect();
        let wm = WaveletMatrix::new(&symbols);
        let bytes = wm.to_wire_bytes();
        let mut r = view_of(&bytes);
        let view = WaveletMatrixView::read(&mut r).unwrap();
        assert!(r.is_exhausted());
        view.validate().unwrap();
        assert_eq!(view.size_in_bytes(), wm.size_in_bytes());
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(view.access(i), s);
            assert_eq!(view.access_rank(i), wm.access_rank(i));
        }
        for s in 0..11u8 {
            assert_eq!(view.rank(s, symbols.len()), wm.rank(s, symbols.len()));
        }
    }

    #[test]
    fn view_truncation_never_panics() {
        let bv = BitVector::from_bools(&(0..300).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let bytes = bv.to_wire_bytes();
        for cut in 0..bytes.len() {
            let mut r = view_of(&bytes[..cut]);
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
        let mut r = view_of(&tampered);
        let outcome = BitVectorView::read(&mut r).and_then(|v| v.validate());
        assert!(outcome.is_err(), "tampered directory accepted by view");
    }
}
