//! The NeaTS compressed layout (paper §III-C) and its query algorithms.
//!
//! A compressed series is the tuple `⟨S, B, O, C, K, P⟩`:
//!
//! * `S` — fragment start positions, Elias-Fano coded (or a plain bitvector
//!   with constant-time rank, the paper's O(1) alternative);
//! * `B` — per-fragment correction bit widths, bit-packed;
//! * `O` — cumulative correction bit offsets, Elias-Fano coded;
//! * `C` — the packed corrections bit string;
//! * `K` — the function-kind string, a wavelet matrix supporting `rank_f`;
//! * `P` — per-kind concatenated parameter arrays, indexed by `K.rank_f(i)`.
//!
//! [`NeaTSCompressed::decompress`] is the paper's Algorithm 2,
//! [`NeaTSCompressed::get`] is Algorithm 3, and
//! [`NeaTSCompressed::scan_range`] is the range query of §IV-C4 (one random
//! access followed by a sequential scan).

use crate::fit::{max_abs_residual, model_value, Fragment, Kind, Params};
use crate::partition::Partition;
use succinct::{bits_for_residual_bound, BitBuf, BitVector, EliasFano, PackedVec, WaveletMatrix};
use timeseries::CompressedSeries;

/// How the fragment-start array `S` answers rank queries (ablation D5 in
/// DESIGN.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RankMode {
    /// Elias-Fano: smallest space, `O(min(log m, log n/m))` rank.
    #[default]
    EliasFano,
    /// Plain bitvector of length n: larger, constant-time rank (paper's
    /// "we can easily achieve O(1) time" remark).
    BitVector,
}

/// The start index `S` in one of its two representations.
#[derive(Clone, Debug)]
enum StartIndex {
    Ef(EliasFano),
    Bv(BitVector),
}

impl StartIndex {
    fn build(starts: &[u64], n: usize, mode: RankMode) -> Self {
        match mode {
            RankMode::EliasFano => StartIndex::Ef(EliasFano::new(starts)),
            RankMode::BitVector => {
                let mut buf = BitBuf::with_capacity(n);
                let mut next = 0usize;
                for &s in starts {
                    while next < s as usize {
                        buf.push_bit(false);
                        next += 1;
                    }
                    buf.push_bit(true);
                    next += 1;
                }
                while next < n {
                    buf.push_bit(false);
                    next += 1;
                }
                StartIndex::Bv(BitVector::from_bitbuf(&buf))
            }
        }
    }

    /// Index of the fragment covering position `k` (`S.rank(k)` in the paper).
    #[inline]
    fn fragment_of(&self, k: usize) -> usize {
        match self {
            StartIndex::Ef(ef) => ef.rank_leq(k as u64) - 1,
            StartIndex::Bv(bv) => bv.rank1(k + 1) - 1,
        }
    }

    /// Start position of fragment `i`.
    #[inline]
    fn start_of(&self, i: usize) -> usize {
        match self {
            StartIndex::Ef(ef) => ef.get(i) as usize,
            StartIndex::Bv(bv) => bv.select1(i).expect("fragment index in range"),
        }
    }

    /// Streaming iterator over all fragment starts in order (one forward
    /// scan, no per-element select).
    fn iter(&self) -> StartIter<'_> {
        match self {
            StartIndex::Ef(ef) => StartIter::Ef(ef.iter()),
            StartIndex::Bv(bv) => StartIter::Bv(bv.iter_ones()),
        }
    }

    fn size_in_bytes(&self) -> usize {
        match self {
            StartIndex::Ef(ef) => ef.size_in_bytes(),
            StartIndex::Bv(bv) => bv.size_in_bytes(),
        }
    }
}

/// Streaming fragment-start walk over either `S` representation.
enum StartIter<'a> {
    Ef(succinct::EliasFanoIter<'a>),
    Bv(succinct::OnesIter<'a>),
}

impl Iterator for StartIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            StartIter::Ef(it) => it.next().map(|v| v as usize),
            StartIter::Bv(it) => it.next(),
        }
    }
}

/// A NeaTS-compressed time series with lossless random access.
#[derive(Clone, Debug)]
pub struct NeaTSCompressed {
    n: usize,
    shift: i64,
    starts: StartIndex,
    widths: PackedVec,
    offsets: EliasFano,
    corrections: BitBuf,
    kinds: WaveletMatrix,
    /// Distinct kinds in use; wavelet-matrix symbols index into this.
    kind_table: Vec<Kind>,
    /// Per kind-table entry: concatenated parameters, `param_count` f64 bit
    /// patterns per fragment of that kind.
    params: Vec<Vec<u64>>,
    origin_deltas: PackedVec,
}

impl NeaTSCompressed {
    /// Encodes a partition produced by Algorithm 1.
    ///
    /// Correction widths are derived from each fragment's *measured* maximum
    /// residual (≥ the planned `⌈log(2ε+1)⌉` only under floating-point edge
    /// cases), which keeps decompression exactly lossless.
    pub fn encode(values: &[i64], partition: &Partition, shift: i64, mode: RankMode) -> Self {
        let n = values.len();
        let m = partition.fragments.len();
        let mut starts = Vec::with_capacity(m);
        let mut widths = Vec::with_capacity(m);
        let mut offsets = Vec::with_capacity(m + 1);
        let mut kind_syms = Vec::with_capacity(m);
        let mut origin_deltas = Vec::with_capacity(m);
        let mut kind_table: Vec<Kind> = Vec::new();
        let mut params: Vec<Vec<u64>> = Vec::new();
        let mut corrections = BitBuf::new();

        offsets.push(0u64);
        for frag in &partition.fragments {
            let r = max_abs_residual(values, frag, shift);
            let w = bits_for_residual_bound(r);
            // Bias-coded corrections in wrapping u64 arithmetic: exact for
            // |c| ≤ r < 2^{w-1}, and still bijective at w = 64 where the
            // residual itself may wrap i64 (extreme-magnitude data).
            let bias = if w == 0 { 0u64 } else { 1u64 << (w - 1) };
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            for (off, &y) in values[frag.start..frag.end].iter().enumerate() {
                let c = y.wrapping_sub(model_value(frag, frag.start + off, shift));
                debug_assert!(y.abs_diff(model_value(frag, frag.start + off, shift)) <= r);
                corrections.push_bits((c as u64).wrapping_add(bias) & mask, w);
            }
            starts.push(frag.start as u64);
            widths.push(w as u64);
            offsets.push(corrections.len() as u64);
            let sym = match kind_table.iter().position(|&k| k == frag.kind) {
                Some(s) => s,
                None => {
                    kind_table.push(frag.kind);
                    params.push(Vec::new());
                    kind_table.len() - 1
                }
            };
            kind_syms.push(sym as u8);
            let p = &mut params[sym];
            p.push(frag.params.m.to_bits());
            p.push(frag.params.b.to_bits());
            if frag.kind.param_count() == 3 {
                p.push(frag.params.extra.to_bits());
            }
            origin_deltas.push((frag.start - frag.origin) as u64);
        }
        corrections.shrink_to_fit();

        Self {
            n,
            shift,
            starts: StartIndex::build(&starts, n, mode),
            widths: PackedVec::new(&widths),
            offsets: EliasFano::new(&offsets),
            corrections,
            kinds: WaveletMatrix::new(&kind_syms),
            kind_table,
            params,
            origin_deltas: PackedVec::new(&origin_deltas),
        }
    }

    /// Number of fragments `m`.
    pub fn fragment_count(&self) -> usize {
        self.widths.len()
    }

    /// Index of the fragment covering position `k` (the paper's `S.rank`).
    pub fn fragment_index_of(&self, k: usize) -> usize {
        debug_assert!(k < self.n);
        self.starts.fragment_of(k)
    }

    /// The correction bit width `B[i]` of fragment `i`.
    pub fn correction_width_of(&self, i: usize) -> usize {
        self.widths.get(i) as usize
    }

    /// The global positivity shift stored in the header.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Reconstructs the fragment descriptor for fragment `i` (used by the
    /// sequential algorithms and for inspection).
    pub fn fragment(&self, i: usize) -> Fragment {
        let start = self.starts.start_of(i);
        let end = if i + 1 < self.fragment_count() { self.starts.start_of(i + 1) } else { self.n };
        let (sym, rank) = self.kinds.access_rank(i);
        let kind = self.kind_table[sym as usize];
        let params = self.params_of(sym, rank);
        let origin = start - self.origin_deltas.get(i) as usize;
        Fragment { kind, params, start, end, origin }
    }

    #[inline]
    fn params_of(&self, sym: u8, rank: usize) -> Params {
        let kind = self.kind_table[sym as usize];
        let pc = kind.param_count();
        let base = rank * pc;
        let arr = &self.params[sym as usize];
        Params {
            m: f64::from_bits(arr[base]),
            b: f64::from_bits(arr[base + 1]),
            extra: if pc == 3 { f64::from_bits(arr[base + 2]) } else { 0.0 },
        }
    }

    /// Reads the correction for position `k` of fragment `i` starting at
    /// `start`.
    #[inline]
    fn correction(&self, i: usize, start: usize, k: usize) -> i64 {
        let w = self.widths.get(i) as usize;
        if w == 0 {
            return 0;
        }
        let o = self.offsets.get(i) as usize + (k - start) * w;
        let bias = 1u64 << (w - 1);
        self.corrections.get_bits(o, w).wrapping_sub(bias) as i64
    }

    /// Per-kind fragment counts, for inspection and the model-selection
    /// variant.
    pub fn kind_histogram(&self) -> Vec<(Kind, usize)> {
        let m = self.fragment_count();
        self.kind_table
            .iter()
            .enumerate()
            .map(|(sym, &kind)| (kind, self.kinds.rank(sym as u8, m)))
            .collect()
    }

    /// Appends fragment `i`'s values in `[from, to)` to `out` — the shared
    /// inner loop of Algorithms 2 and 3's scan.
    ///
    /// The function-kind dispatch is hoisted out of the loop (the paper
    /// vectorises this loop with `std::experimental::simd`; we rely on the
    /// monomorphised closure auto-vectorising). Each arm calls
    /// `Kind::eval` with a *constant* kind so the computation is
    /// bit-identical to [`model_value`], which encoding used — that identity
    /// is what makes the scheme lossless.
    fn emit_fragment_range(&self, i: usize, frag: &Fragment, from: usize, to: usize, out: &mut Vec<i64>) {
        let w = self.widths.get(i) as usize;
        let o0 = self.offsets.get(i) as usize + (from - frag.start) * w;
        self.emit_loop_dispatch(frag, from, to, w, o0, out);
    }

    /// Kind-dispatched emit over `[from, to)` reading `w`-bit corrections
    /// starting at bit `o0`.
    fn emit_loop_dispatch(&self, frag: &Fragment, from: usize, to: usize, w: usize, o0: usize, out: &mut Vec<i64>) {
        let p = frag.params;
        macro_rules! dispatch {
            ($kind:expr) => {
                self.emit_loop(|u| $kind.eval(p, u), frag, from, to, w, o0, out)
            };
        }
        match frag.kind {
            Kind::Linear => dispatch!(Kind::Linear),
            Kind::Quadratic => dispatch!(Kind::Quadratic),
            Kind::Exponential => dispatch!(Kind::Exponential),
            Kind::Sqrt => dispatch!(Kind::Sqrt),
            Kind::Logarithmic => dispatch!(Kind::Logarithmic),
            Kind::Power => dispatch!(Kind::Power),
            Kind::QuadOffset => dispatch!(Kind::QuadOffset),
            Kind::QuadLinear => dispatch!(Kind::QuadLinear),
            Kind::CubicLinear => dispatch!(Kind::CubicLinear),
            Kind::CubicQuad => dispatch!(Kind::CubicQuad),
            Kind::Gaussian => dispatch!(Kind::Gaussian),
        }
    }

    /// The monomorphised emit loop shared by all kinds; `o0` is the bit
    /// offset of the first correction to read.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn emit_loop<F: Fn(f64) -> f64>(
        &self,
        eval: F,
        frag: &Fragment,
        from: usize,
        to: usize,
        w: usize,
        o0: usize,
        out: &mut Vec<i64>,
    ) {
        let shift_sub = if frag.kind.log_domain() { self.shift } else { 0 };
        let origin = frag.origin;
        // Pass 1: the pure floating-point model loop. Writing through a
        // resized slice (not push) lets LLVM vectorise the polynomial kinds.
        let base = out.len();
        out.resize(base + (to - from), 0);
        let slice = &mut out[base..];
        for (j, v) in slice.iter_mut().enumerate() {
            let f = eval((from + j - origin + 1) as f64);
            *v = crate::fit::floor_to_i64(f).wrapping_sub(shift_sub);
        }
        // Pass 2: add the packed corrections with a register-resident word
        // cursor (cheaper than recomputing word/bit from absolute offsets).
        if w > 0 {
            let bias = 1u64 << (w - 1);
            let words = self.corrections.words();
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            let mut word_idx = o0 / 64;
            let mut bit = o0 % 64;
            let mut cur = words[word_idx];
            for v in &mut out[base..] {
                let mut raw = cur >> bit;
                if bit + w > 64 {
                    raw |= words[word_idx + 1] << (64 - bit);
                }
                *v = v.wrapping_add((raw & mask).wrapping_sub(bias) as i64);
                bit += w;
                if bit >= 64 {
                    bit -= 64;
                    word_idx += 1;
                    cur = if word_idx < words.len() { words[word_idx] } else { 0 };
                }
            }
        }
    }
}

impl NeaTSCompressed {
    /// Writes all components, marking one container section per component
    /// (used by [`crate::serial`]).
    pub(crate) fn write_wire(&self, sw: &mut crate::serial::SectionWriter) {
        use succinct::Wire;
        let w = &mut sw.w;
        w.u64(self.n as u64);
        w.i64(self.shift);
        match &self.starts {
            StartIndex::Ef(_) => w.u8(0),
            StartIndex::Bv(_) => w.u8(1),
        }
        sw.mark(); // header
        match &self.starts {
            StartIndex::Ef(ef) => ef.write(&mut sw.w),
            StartIndex::Bv(bv) => bv.write(&mut sw.w),
        }
        sw.mark(); // starts
        self.widths.write(&mut sw.w);
        sw.mark(); // widths
        self.offsets.write(&mut sw.w);
        sw.mark(); // offsets
        self.corrections.write(&mut sw.w);
        sw.mark(); // corrections
        self.kinds.write(&mut sw.w);
        sw.mark(); // kinds
        crate::serial::write_kind_table(&mut sw.w, &self.kind_table);
        sw.mark(); // kind-table
        crate::serial::write_params(&mut sw.w, &self.params);
        sw.mark(); // params
        self.origin_deltas.write(&mut sw.w);
        sw.mark(); // origin-deltas
    }

    /// Reads and *validates* all components: every cross-structure invariant
    /// needed by `get`/`decompress` is checked, so corrupted input can never
    /// cause a panic or out-of-bounds access later.
    pub(crate) fn read_wire(
        r: &mut succinct::WireReader<'_>,
    ) -> Result<Self, succinct::WireError> {
        use succinct::{Wire, WireError};
        let n = r.read_len()?;
        let shift = r.i64()?;
        let starts = match r.u8()? {
            0 => StartIndex::Ef(succinct::EliasFano::read(r)?),
            1 => StartIndex::Bv(BitVector::read(r)?),
            _ => return Err(WireError::Corrupt("start index tag")),
        };
        let widths = PackedVec::read(r)?;
        let offsets = succinct::EliasFano::read(r)?;
        let corrections = BitBuf::read(r)?;
        let kinds = WaveletMatrix::read(r)?;
        let (kind_table, params) = crate::serial::KindParams::read(r)?.into_owned_parts();
        let origin_deltas = PackedVec::read(r)?;

        let m = widths.len();
        let starts_len = match &starts {
            StartIndex::Ef(ef) => ef.len(),
            StartIndex::Bv(bv) => bv.count_ones(),
        };
        if starts_len != m || kinds.len() != m || origin_deltas.len() != m {
            return Err(WireError::Corrupt("fragment count mismatch"));
        }
        if offsets.len() != m + 1 {
            return Err(WireError::Corrupt("offsets length"));
        }
        if m > 0 && offsets.get(m) as usize > corrections.len() {
            return Err(WireError::Corrupt("corrections overflow"));
        }
        // n and m must be zero together: n > 0 with no fragments would make
        // fragment_of underflow, and the BitVector start index must hold
        // exactly one bit per position or rank1(k + 1) reads out of bounds.
        if (m == 0) != (n == 0) {
            return Err(WireError::Corrupt("fragment count vs series length"));
        }
        if let StartIndex::Bv(bv) = &starts {
            if bv.len() != n {
                return Err(WireError::Corrupt("start bitvector length"));
            }
        }
        // Per-fragment validation: starts strictly increasing from 0,
        // symbols within the table, offsets consistent with widths, origins
        // in range, parameter arrays long enough.
        let mut prev_start = 0usize;
        let mut counts = vec![0usize; kind_table.len()];
        for i in 0..m {
            let start = match &starts {
                StartIndex::Ef(ef) => ef.get(i) as usize,
                StartIndex::Bv(bv) => bv.select1(i).ok_or(WireError::Corrupt("start select"))?,
            };
            if i == 0 && start != 0 {
                return Err(WireError::Corrupt("first fragment start"));
            }
            if i > 0 && start <= prev_start {
                return Err(WireError::Corrupt("starts not increasing"));
            }
            if start >= n {
                return Err(WireError::Corrupt("start beyond series"));
            }
            let end = if i + 1 < m {
                match &starts {
                    StartIndex::Ef(ef) => ef.get(i + 1) as usize,
                    StartIndex::Bv(bv) => {
                        bv.select1(i + 1).ok_or(WireError::Corrupt("start select"))?
                    }
                }
            } else {
                n
            };
            if end <= start || end > n {
                return Err(WireError::Corrupt("fragment bounds"));
            }
            let w = widths.get(i) as usize;
            if w > 64 {
                return Err(WireError::Corrupt("correction width"));
            }
            let o = offsets.get(i) as usize;
            let o_next = offsets.get(i + 1) as usize;
            if o_next < o || o_next - o != (end - start) * w {
                return Err(WireError::Corrupt("offset stride"));
            }
            let sym = kinds.access(i) as usize;
            if sym >= kind_table.len() {
                return Err(WireError::Corrupt("kind symbol"));
            }
            counts[sym] += 1;
            if origin_deltas.get(i) as usize > start {
                return Err(WireError::Corrupt("origin delta"));
            }
            prev_start = start;
        }
        for (sym, &count) in counts.iter().enumerate() {
            if params[sym].len() != count * kind_table[sym].param_count() {
                return Err(WireError::Corrupt("params length"));
            }
        }
        Ok(Self {
            n,
            shift,
            starts,
            widths,
            offsets,
            corrections,
            kinds,
            kind_table,
            params,
            origin_deltas,
        })
    }
}

impl CompressedSeries for NeaTSCompressed {
    fn len(&self) -> usize {
        self.n
    }

    fn size_in_bytes(&self) -> usize {
        let header = 8 + 8 + self.kind_table.len() + 8; // n, shift, kinds, misc
        header
            + self.starts.size_in_bytes()
            + self.widths.size_in_bytes()
            + self.offsets.size_in_bytes()
            + self.corrections.size_in_bytes()
            + self.kinds.size_in_bytes()
            + self.params.iter().map(|p| p.len() * 8).sum::<usize>()
            + self.origin_deltas.size_in_bytes()
    }

    /// Algorithm 2: full decompression, fragment by fragment.
    ///
    /// The sequential pass avoids the per-fragment rank/select machinery of
    /// the random-access path entirely: fragment starts stream out of the
    /// Elias-Fano iterator, per-kind parameter ranks are incremental
    /// counters, and the correction bit offset is a running cursor
    /// (corrections are stored contiguously in fragment order).
    fn decompress(&self) -> Vec<i64> {
        let m = self.fragment_count();
        let mut out = Vec::with_capacity(self.n);
        let mut ranks = vec![0usize; self.kind_table.len()];
        let mut o = 0usize;
        let mut starts = self.starts.iter();
        let mut start = starts.next().unwrap_or(0);
        for i in 0..m {
            let end = starts.next().unwrap_or(self.n);
            let sym = self.kinds.access(i);
            let kind = self.kind_table[sym as usize];
            let params = self.params_of(sym, ranks[sym as usize]);
            ranks[sym as usize] += 1;
            let origin = start - self.origin_deltas.get(i) as usize;
            let frag = Fragment { kind, params, start, end, origin };
            let w = self.widths.get(i) as usize;
            self.emit_loop_dispatch(&frag, start, end, w, o, &mut out);
            o += (end - start) * w;
            start = end;
        }
        out
    }

    /// Algorithm 3: random access to the value at position `k`.
    fn get(&self, k: usize) -> i64 {
        debug_assert!(k < self.n);
        let i = self.starts.fragment_of(k);
        let start = self.starts.start_of(i);
        let (sym, rank) = self.kinds.access_rank(i);
        let params = self.params_of(sym, rank);
        let kind = self.kind_table[sym as usize];
        let origin = start - self.origin_deltas.get(i) as usize;
        let frag = Fragment { kind, params, start, end: self.n, origin };
        model_value(&frag, k, self.shift).wrapping_add(self.correction(i, start, k))
    }

    /// Range query: one rank to locate the first fragment, then a sequential
    /// scan across fragments (paper §IV-C4).
    fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        if count == 0 {
            return;
        }
        debug_assert!(start + count <= self.n);
        let end = start + count;
        let mut i = self.starts.fragment_of(start);
        let mut pos = start;
        while pos < end {
            let frag = self.fragment(i);
            let to = frag.end.min(end);
            self.emit_fragment_range(i, &frag, pos, to, out);
            pos = to;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition, positivity_shift, PartitionConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build(values: &[i64], kinds: &[Kind], epsilons: &[u64], mode: RankMode) -> NeaTSCompressed {
        let max_eps = epsilons.iter().copied().max().unwrap_or(0);
        let shift = positivity_shift(values, max_eps);
        let cfg = PartitionConfig::lossless(kinds, epsilons, shift);
        let part = partition(values, &cfg);
        NeaTSCompressed::encode(values, &part, shift, mode)
    }

    fn random_walk(n: usize, seed: u64, step: i64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 0i64;
        (0..n).map(|_| { v += rng.random_range(-step..=step); v }).collect()
    }

    #[test]
    fn lossless_roundtrip_both_rank_modes() {
        let values = random_walk(3000, 5, 20);
        for mode in [RankMode::EliasFano, RankMode::BitVector] {
            let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 2, 8, 32], mode);
            assert_eq!(c.len(), values.len());
            assert_eq!(c.decompress(), values, "{mode:?} decompress");
            for (k, &v) in values.iter().enumerate() {
                assert_eq!(c.get(k), v, "{mode:?} get({k})");
            }
        }
    }

    #[test]
    fn scan_range_matches_slice() {
        let values = random_walk(2000, 11, 50);
        let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 2, 8], RankMode::EliasFano);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = rng.random_range(0..values.len());
            let l = rng.random_range(0..=(values.len() - s).min(300));
            let mut out = Vec::new();
            c.scan_range(s, l, &mut out);
            assert_eq!(out, &values[s..s + l], "range [{s}, {})", s + l);
        }
    }

    #[test]
    fn compresses_smooth_data_well() {
        // A smooth sine + small noise: NeaTS must beat raw 64-bit storage by a lot.
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<i64> = (0..20_000)
            .map(|k| (10_000.0 * ((k as f64) / 500.0).sin()) as i64 + rng.random_range(-3..4))
            .collect();
        let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 2, 8, 32, 128], RankMode::EliasFano);
        assert_eq!(c.decompress(), values);
        let ratio = c.size_in_bytes() as f64 / (values.len() * 8) as f64;
        assert!(ratio < 0.25, "ratio {ratio} too poor for smooth data");
    }

    #[test]
    fn empty_series() {
        let c = build(&[], &[Kind::Linear], &[0], RankMode::EliasFano);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.decompress(), Vec::<i64>::new());
        assert_eq!(c.fragment_count(), 0);
    }

    #[test]
    fn single_value_series() {
        for mode in [RankMode::EliasFano, RankMode::BitVector] {
            let c = build(&[-77], &[Kind::Linear], &[0], mode);
            assert_eq!(c.get(0), -77);
            assert_eq!(c.decompress(), vec![-77]);
        }
    }

    #[test]
    fn constant_series_is_tiny() {
        let values = vec![42i64; 10_000];
        let c = build(&values, &[Kind::Linear], &[0], RankMode::EliasFano);
        assert_eq!(c.decompress(), values);
        assert_eq!(c.fragment_count(), 1);
        assert!(c.size_in_bytes() < 200, "constant series took {} bytes", c.size_in_bytes());
    }

    #[test]
    fn negative_values_with_log_kinds() {
        let values = random_walk(1500, 17, 10); // goes negative
        assert!(values.iter().any(|&v| v < 0));
        let c = build(
            &values,
            &[Kind::Linear, Kind::Exponential, Kind::Gaussian],
            &[0, 4, 16],
            RankMode::EliasFano,
        );
        assert_eq!(c.decompress(), values);
        assert!(c.shift() > 0);
    }

    #[test]
    fn fragment_descriptors_are_consistent() {
        let values = random_walk(2000, 23, 30);
        let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 2, 8], RankMode::EliasFano);
        let m = c.fragment_count();
        let mut covered = 0usize;
        for i in 0..m {
            let f = c.fragment(i);
            assert_eq!(f.start, covered, "fragment {i} start");
            assert!(f.end > f.start);
            assert!(f.origin <= f.start);
            covered = f.end;
        }
        assert_eq!(covered, values.len());
        let hist = c.kind_histogram();
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, m);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let values = vec![i64::MAX / 4, i64::MIN / 4, 0, i64::MAX / 4, -1, 1];
        let c = build(&values, &[Kind::Linear], &[0, 2], RankMode::EliasFano);
        assert_eq!(c.decompress(), values);
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(c.get(k), v);
        }
    }

    #[test]
    fn size_accounts_for_all_components() {
        let values = random_walk(5000, 31, 100);
        let c = build(&values, &Kind::NEATS_DEFAULT, &[0, 8], RankMode::EliasFano);
        // size must at least cover corrections + params
        let params_bytes: usize = c.params.iter().map(|p| p.len() * 8).sum();
        assert!(c.size_in_bytes() >= c.corrections.size_in_bytes() + params_bytes);
    }
}
