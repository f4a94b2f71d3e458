//! Wavelet matrix over a small integer alphabet.
//!
//! The NeaTS layout regards the function-kind array `K` as a string over the
//! alphabet `{0, …, |F|−1}` and needs `access(i)` and `rank_c(i)` in
//! O(log |F|) time (paper §III-C). We implement the *wavelet matrix* variant
//! (Claude, Navarro, Ordóñez 2015), which is simpler than the pointer-based
//! wavelet tree and has identical asymptotics.

use crate::bits::bits_for;
use crate::bitvec::BitVector;
use crate::views::{Halves, U16sView, U64sView, Words};
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// The deepest matrix a `u8` alphabet needs.
const MAX_LEVELS: usize = 8;

/// A wavelet matrix supporting `access` and `rank_c` over `u8` symbols.
#[derive(Clone, Copy, Debug)]
pub struct WaveletMatrix<W = Vec<u64>, H = Vec<u16>> {
    /// At most 8 levels (`bits ≤ 8`), held inline so parsing never
    /// allocates; only the first `bits` entries are meaningful.
    levels: [BitVector<W, H>; MAX_LEVELS],
    /// Number of zeros at each level.
    zeros: [usize; MAX_LEVELS],
    len: usize,
    bits: usize,
}

impl WaveletMatrix {
    /// Builds from a symbol sequence. The alphabet size is inferred from the
    /// maximum symbol.
    pub fn new(symbols: &[u8]) -> Self {
        let len = symbols.len();
        let max = symbols.iter().copied().max().unwrap_or(0);
        let bits = bits_for(max as u64).max(1);
        let mut levels = std::array::from_fn(|_| BitVector::unused());
        let mut zeros = [0usize; MAX_LEVELS];
        let mut cur: Vec<u8> = symbols.to_vec();
        for level in 0..bits {
            let shift = bits - 1 - level;
            let lvl_bits: Vec<bool> = cur.iter().map(|&s| (s >> shift) & 1 == 1).collect();
            let bv = BitVector::from_bools(&lvl_bits);
            zeros[level] = bv.count_zeros();
            // Stable partition: zeros first, then ones.
            let mut next = Vec::with_capacity(len);
            next.extend(cur.iter().copied().filter(|&s| (s >> shift) & 1 == 0));
            next.extend(cur.iter().copied().filter(|&s| (s >> shift) & 1 == 1));
            cur = next;
            levels[level] = bv;
        }
        Self { levels, zeros, len, bits }
    }
}

impl<W: Words, H: Halves> WaveletMatrix<W, H> {
    /// The levels in use, most significant bit first.
    fn levels(&self) -> &[BitVector<W, H>] {
        &self.levels[..self.bits]
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
    ///
    /// Tracking the bucket start alongside the position yields the rank for
    /// free: at each level both indices are mapped by the same rank
    /// transform, and at the leaf their difference is the number of earlier
    /// occurrences of the symbol. This halves the work of the NeaTS random
    /// access hot path (Algorithm 3 needs both the kind and its rank).
    pub fn access_rank(&self, i: usize) -> (u8, usize) {
        debug_assert!(i < self.len);
        let mut pos = i;
        let mut bucket = 0usize; // start of the symbol's bucket at this level
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

    /// Number of occurrences of `sym` in the prefix of length `pos`
    /// (the paper's `K.rank_f(i)` with `pos = i`).
    pub fn rank(&self, sym: u8, pos: usize) -> usize {
        debug_assert!(pos <= self.len);
        if (sym as u64) >> self.bits != 0 {
            return 0; // symbol wider than the matrix: cannot occur
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

    /// Levels plus the per-level zero counts in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.levels().iter().map(BitVector::size_in_bytes).sum::<usize>() + self.bits * 8
    }
}

impl Wire for WaveletMatrix {
    fn write(&self, w: &mut WireWriter) {
        w.u64(self.len as u64);
        w.u64(self.bits as u64);
        w.u64_slice(&self.zeros[..self.bits].iter().map(|&z| z as u64).collect::<Vec<_>>());
        w.u64(self.bits as u64);
        for l in self.levels() {
            l.write(w);
        }
    }
}

impl<'a> WaveletMatrix<U64sView<'a>, U16sView<'a>> {
    /// Parses the wire encoding, borrowing the levels.
    pub fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let bits = r.read_len()?;
        let zeros_wire = r.u64s_ref()?;
        let n_levels = r.read_len()?;
        if n_levels != bits || zeros_wire.len() != bits || bits > MAX_LEVELS {
            return Err(WireError::Corrupt("WaveletMatrix level count"));
        }
        let mut zeros = [0usize; MAX_LEVELS];
        for (slot, z) in zeros.iter_mut().zip(zeros_wire.iter()) {
            *slot = usize::try_from(z).map_err(|_| WireError::Corrupt("WaveletMatrix zeros"))?;
        }
        let mut levels = [BitVector::unused(); MAX_LEVELS];
        for (slot, &level_zeros) in levels.iter_mut().zip(&zeros).take(n_levels) {
            let l = BitVector::read(r)?;
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

    /// Verifies every level's rank directories.
    pub fn validate(&self) -> Result<(), WireError> {
        self.levels().iter().try_for_each(BitVector::validate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check(symbols: &[u8]) {
        let wm = WaveletMatrix::new(symbols);
        assert_eq!(wm.len(), symbols.len());
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(wm.access(i), s, "access({i})");
        }
        let max = symbols.iter().copied().max().unwrap_or(0);
        for sym in 0..=max {
            for pos in 0..=symbols.len() {
                let expected = symbols[..pos].iter().filter(|&&s| s == sym).count();
                assert_eq!(wm.rank(sym, pos), expected, "rank({sym}, {pos})");
            }
        }
    }

    #[test]
    fn empty() {
        let wm = WaveletMatrix::new(&[]);
        assert_eq!(wm.len(), 0);
        assert_eq!(wm.rank(0, 0), 0);
    }

    #[test]
    fn single_symbol_alphabet() {
        check(&[0, 0, 0, 0]);
    }

    #[test]
    fn binary_alphabet() {
        check(&[0, 1, 1, 0, 1, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn four_kinds_like_neats() {
        // NeaTS uses 4 function kinds (linear, exponential, quadratic, radical).
        check(&[0, 1, 2, 3, 2, 1, 0, 3, 3, 0, 2, 2, 1]);
    }

    #[test]
    fn non_power_of_two_alphabet() {
        check(&[0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0, 6, 6]);
    }

    #[test]
    fn random_sequences() {
        let mut rng = StdRng::seed_from_u64(17);
        for &sigma in &[2u8, 3, 4, 9, 16] {
            let symbols: Vec<u8> = (0..300).map(|_| rng.random_range(0..sigma)).collect();
            check(&symbols);
        }
    }

    #[test]
    fn access_rank_matches_separate_calls() {
        let mut rng = StdRng::seed_from_u64(23);
        for &sigma in &[2u8, 4, 7, 11] {
            let symbols: Vec<u8> = (0..500).map(|_| rng.random_range(0..sigma)).collect();
            let wm = WaveletMatrix::new(&symbols);
            for i in 0..symbols.len() {
                let (sym, rank) = wm.access_rank(i);
                assert_eq!(sym, wm.access(i), "sym at {i}");
                assert_eq!(rank, wm.rank(sym, i), "rank at {i}");
            }
        }
    }

    #[test]
    fn rank_at_full_length_counts_all() {
        let symbols = vec![1u8, 2, 1, 1, 3];
        let wm = WaveletMatrix::new(&symbols);
        assert_eq!(wm.rank(1, 5), 3);
        assert_eq!(wm.rank(2, 5), 1);
        assert_eq!(wm.rank(3, 5), 1);
        assert_eq!(wm.rank(0, 5), 0);
    }
}
