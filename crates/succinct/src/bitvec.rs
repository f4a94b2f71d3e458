//! Plain bitvector with constant-time rank and directory-guided select.
//!
//! Rank uses an interleaved two-level directory in the style of `rank9`
//! (Vigna, WEA 2008): absolute counts every 512 bits plus 9-bit relative
//! counts every 64 bits. Select reuses the same directory — a binary search
//! over superblock counts, a ≤8-entry scan of the relative counts, and a
//! single in-word select — so it needs no extra space and touches at most
//! three cache lines, which is what the NeaTS random-access path (one
//! `rank` on `S` plus wavelet-matrix traversals) cares about.

use crate::bits::BitBuf;
use crate::views::{Halves, U16sView, U64sView, Words};
use crate::wire::{Wire, WireError, WireReader, WireWriter};

const WORDS_PER_BLOCK: usize = 8; // 512-bit superblocks

/// An immutable bitvector supporting `rank1`, `rank0`, `select1`, `select0`.
#[derive(Clone, Copy, Debug)]
pub struct BitVector<W = Vec<u64>, H = Vec<u16>> {
    words: W,
    len: usize,
    /// `block_rank[i]` = number of ones before bit `i * 512`, plus the total
    /// as a last entry.
    block_rank: W,
    /// `sub_rank[i]` = ones in the superblock of word `i` before word `i`,
    /// relative to the superblock start (fits in 9 bits; stored flat).
    sub_rank: H,
    ones: usize,
}

impl BitVector {
    /// Builds from a [`BitBuf`].
    pub fn from_bitbuf(buf: &BitBuf) -> Self {
        Self::from_words(buf.words().to_vec(), buf.len())
    }

    /// Builds from a boolean slice (test/convenience constructor).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut buf = BitBuf::with_capacity(bits.len());
        for &b in bits {
            buf.push_bit(b);
        }
        Self::from_bitbuf(&buf)
    }

    /// Builds from raw words and a bit length. Bits beyond `len` are masked.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert!(len <= words.len() * 64);
        words.truncate(len.div_ceil(64));
        // Mask garbage in the last word so popcounts are exact.
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        let n_words = words.len();
        let n_blocks = n_words.div_ceil(WORDS_PER_BLOCK).max(1);
        let mut block_rank = Vec::with_capacity(n_blocks + 1);
        let mut sub_rank = vec![0u16; n_words];
        let mut total: u64 = 0;
        for (w, &word) in words.iter().enumerate() {
            if w % WORDS_PER_BLOCK == 0 {
                block_rank.push(total);
            }
            sub_rank[w] = (total - block_rank[w / WORDS_PER_BLOCK]) as u16;
            total += word.count_ones() as u64;
        }
        block_rank.push(total);
        let ones = total as usize;
        Self { words, len, block_rank, sub_rank, ones }
    }
}

impl<W: Words, H: Halves> BitVector<W, H> {
    /// Filler for the unused tail of [`crate::WaveletMatrix`]'s inline level
    /// array; never probed.
    pub(crate) fn unused() -> Self {
        Self { words: W::default(), len: 0, block_rank: W::default(), sub_rank: H::default(), ones: 0 }
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
    ///
    /// Binary search over the rank directory (superblocks, then the ≤8
    /// relative counts of one superblock, then one word): O(log n) probes
    /// touching at most three cache lines.
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
        // Word within the superblock via the u16 relative counts.
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
        // zeros before superblock blk = blk·512 − block_rank[blk]; the key is
        // derived, not stored.
        let mut lo = 0usize;
        let mut hi = self.block_rank.len() - 1; // block_rank has n_blocks+1 entries
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

    /// The raw payload words.
    pub fn words(&self) -> W::Cursor<'_> {
        self.words.cursor()
    }

    /// Streaming iterator over the positions of all set bits, in order.
    ///
    /// A single forward scan of the payload words — O(len/64 + ones) for the
    /// whole walk with no directory probes, versus `select1` per element
    /// (a binary search each). Use for sequential decompression-style walks.
    pub fn iter_ones(&self) -> OnesIter<W::Cursor<'_>> {
        OnesIter {
            words: self.words.cursor(),
            word_idx: 0,
            cur: if self.words.is_empty() { 0 } else { self.words.get(0) },
            remaining: self.ones,
        }
    }

    /// [`Self::iter_ones`] starting at the `k`-th one (0-based): one
    /// [`Self::select1`] to seek, then the same forward scan. Empty when
    /// `k >= count_ones()`.
    pub fn iter_ones_from(&self, k: usize) -> OnesIter<W::Cursor<'_>> {
        let (word_idx, cur) = match self.select1(k) {
            Some(pos) => (pos / 64, self.words.get(pos / 64) & (!0u64 << (pos % 64))),
            None => (0, 0),
        };
        OnesIter { words: self.words.cursor(), word_idx, cur, remaining: self.ones.saturating_sub(k) }
    }

    /// Payload plus rank directories in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 8 + self.block_rank.len() * 8 + self.sub_rank.len() * 2
    }
}

impl Wire for BitVector {
    fn write(&self, w: &mut WireWriter) {
        // The rank/select directories are persisted alongside the payload so
        // a borrowed read answers rank/select without an O(n) rebuild.
        w.u64(self.len as u64);
        w.u64_slice(&self.words);
        w.u64_slice(&self.block_rank);
        w.u16_slice(&self.sub_rank);
    }
}

impl<'a> BitVector<U64sView<'a>, U16sView<'a>> {
    /// Parses the wire encoding, borrowing payload and directories. Checks
    /// every *structural* invariant (exact section lengths, masked trailing
    /// bits); directory *contents* are checked by [`Self::validate`].
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
}

/// Streaming iterator over set-bit positions (see [`BitVector::iter_ones`]);
/// `C` is the `Copy` word source — `&[u64]` or [`U64sView`].
#[derive(Clone, Copy, Debug)]
pub struct OnesIter<C> {
    words: C,
    word_idx: usize,
    /// Unconsumed set bits of `words[word_idx]`.
    cur: u64,
    remaining: usize,
}

impl<C: Words> Iterator for OnesIter<C> {
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

impl<C: Words> ExactSizeIterator for OnesIter<C> {}

/// `select_in_byte[k * 256 + b]` = position of the `(k+1)`-th set bit of
/// byte `b` (0 when `b` has fewer than `k+1` set bits — callers guarantee
/// the rank is in range). 2 KiB, built at compile time.
static SELECT_IN_BYTE: [u8; 2048] = build_select_in_byte();

const fn build_select_in_byte() -> [u8; 2048] {
    let mut table = [0u8; 2048];
    let mut k = 0;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let mut seen = 0;
            let mut bit = 0;
            while bit < 8 {
                if (b >> bit) & 1 == 1 {
                    if seen == k {
                        table[k * 256 + b] = bit as u8;
                        break;
                    }
                    seen += 1;
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    table
}

/// Position (0-based) of the `k`-th set bit within `word`. `k` must be less
/// than `word.count_ones()`.
///
/// Branchless broadword select (Vigna, WEA 2008 §4): SWAR byte-wise
/// popcounts folded into per-byte inclusive prefix sums with one multiply,
/// a parallel `≤` comparison to locate the byte containing the answer, and
/// a 2 KiB table for the final in-byte select. Constant ~12 ops versus the
/// previous `O(k)` clear-lowest-bit loop (up to 63 iterations); this sits
/// under every `EliasFano::get` on the random-access path.
#[inline]
pub(crate) fn select_in_word(word: u64, k: usize) -> usize {
    debug_assert!(k < word.count_ones() as usize);
    const ONES: u64 = 0x0101_0101_0101_0101;
    const MSBS: u64 = 0x8080_8080_8080_8080;
    // Byte-wise popcounts (classic SWAR reduction)...
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // ...turned into inclusive per-byte prefix sums by the ONES multiply.
    let prefix = s.wrapping_mul(ONES);
    // Per-byte "prefix ≤ k" flags: byte values are ≤ 64 and k ≤ 63, so the
    // subtraction borrows out of a byte's MSB exactly when prefix > k.
    let k_spread = (k as u64) * ONES;
    let leq = (((k_spread | MSBS) - prefix) & MSBS) >> 7;
    // Number of bytes fully before the target byte = sum of the 0/1 flags,
    // folded into the top byte by one more ONES multiply.
    let byte_idx = (leq.wrapping_mul(ONES) >> 56) as usize;
    // Ones before that byte: the previous byte's inclusive prefix (0 for
    // byte 0 — the `<< 8` shifts a zero byte into place).
    let bits_before = ((prefix << 8) >> (byte_idx * 8)) as usize & 0xFF;
    let byte = (word >> (byte_idx * 8)) as usize & 0xFF;
    byte_idx * 8 + SELECT_IN_BYTE[(k - bits_before) * 256 + byte] as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn naive_rank1(bits: &[bool], pos: usize) -> usize {
        bits[..pos].iter().filter(|&&b| b).count()
    }

    #[test]
    fn select_in_word_basic() {
        assert_eq!(select_in_word(0b1, 0), 0);
        assert_eq!(select_in_word(0b1010, 0), 1);
        assert_eq!(select_in_word(0b1010, 1), 3);
        assert_eq!(select_in_word(u64::MAX, 63), 63);
    }

    /// Reference implementation the SWAR version replaced.
    fn select_in_word_naive(mut word: u64, k: usize) -> usize {
        for _ in 0..k {
            word &= word - 1;
        }
        word.trailing_zeros() as usize
    }

    #[test]
    fn select_in_word_matches_naive() {
        // Structured edge words plus random ones, every valid rank.
        let mut words: Vec<u64> = vec![
            1,
            u64::MAX,
            1 << 63,
            (1 << 63) | 1,
            0xAAAA_AAAA_AAAA_AAAA,
            0x5555_5555_5555_5555,
            0x8000_0000_0000_0001,
            0x00FF_00FF_00FF_00FF,
            0xFF00_0000_0000_0000,
        ];
        let mut rng = StdRng::seed_from_u64(1234);
        words.extend((0..2000).map(|_| rng.random::<u64>()));
        words.extend((0..500).map(|_| rng.random::<u64>() & rng.random::<u64>() & rng.random::<u64>()));
        for w in words {
            for k in 0..w.count_ones() as usize {
                assert_eq!(
                    select_in_word(w, k),
                    select_in_word_naive(w, k),
                    "word={w:#x} k={k}"
                );
            }
        }
    }

    #[test]
    fn rank_select_small() {
        let bits = [true, false, true, true, false, true];
        let bv = BitVector::from_bools(&bits);
        assert_eq!(bv.len(), 6);
        assert_eq!(bv.count_ones(), 4);
        assert_eq!(bv.rank1(0), 0);
        assert_eq!(bv.rank1(1), 1);
        assert_eq!(bv.rank1(6), 4);
        assert_eq!(bv.rank0(6), 2);
        assert_eq!(bv.select1(0), Some(0));
        assert_eq!(bv.select1(1), Some(2));
        assert_eq!(bv.select1(3), Some(5));
        assert_eq!(bv.select1(4), None);
        assert_eq!(bv.select0(0), Some(1));
        assert_eq!(bv.select0(1), Some(4));
        assert_eq!(bv.select0(2), None);
    }

    #[test]
    fn empty_bitvector() {
        let bv = BitVector::from_bools(&[]);
        assert_eq!(bv.len(), 0);
        assert_eq!(bv.rank1(0), 0);
        assert_eq!(bv.select1(0), None);
        assert_eq!(bv.select0(0), None);
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let ones = BitVector::from_bools(&vec![true; 1000]);
        for i in 0..=1000 {
            assert_eq!(ones.rank1(i), i);
        }
        for k in 0..1000 {
            assert_eq!(ones.select1(k), Some(k));
        }
        assert_eq!(ones.select0(0), None);

        let zeros = BitVector::from_bools(&vec![false; 1000]);
        assert_eq!(zeros.count_ones(), 0);
        for k in 0..1000 {
            assert_eq!(zeros.select0(k), Some(k));
        }
        assert_eq!(zeros.select1(0), None);
    }

    #[test]
    fn rank_matches_naive_random() {
        let mut rng = StdRng::seed_from_u64(42);
        for &n in &[1usize, 63, 64, 65, 511, 512, 513, 5000] {
            for &density in &[0.01f64, 0.5, 0.99] {
                let bits: Vec<bool> = (0..n).map(|_| rng.random_bool(density)).collect();
                let bv = BitVector::from_bools(&bits);
                for pos in 0..=n {
                    assert_eq!(bv.rank1(pos), naive_rank1(&bits, pos), "n={n} d={density} pos={pos}");
                }
            }
        }
    }

    #[test]
    fn select_matches_naive_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for &n in &[64usize, 1000, 4096, 10_000] {
            for &density in &[0.02f64, 0.5, 0.98] {
                let bits: Vec<bool> = (0..n).map(|_| rng.random_bool(density)).collect();
                let bv = BitVector::from_bools(&bits);
                let ones: Vec<usize> = bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
                let zeros: Vec<usize> =
                    bits.iter().enumerate().filter(|(_, &b)| !b).map(|(i, _)| i).collect();
                for (k, &p) in ones.iter().enumerate() {
                    assert_eq!(bv.select1(k), Some(p), "select1({k}) n={n} d={density}");
                }
                for (k, &p) in zeros.iter().enumerate() {
                    assert_eq!(bv.select0(k), Some(p), "select0({k}) n={n} d={density}");
                }
            }
        }
    }

    #[test]
    fn select_rank_inverse() {
        let mut rng = StdRng::seed_from_u64(99);
        let bits: Vec<bool> = (0..20_000).map(|_| rng.random_bool(0.3)).collect();
        let bv = BitVector::from_bools(&bits);
        for k in 0..bv.count_ones() {
            let p = bv.select1(k).unwrap();
            assert_eq!(bv.rank1(p), k);
            assert!(bv.get(p));
        }
    }
}
