//! The read path: Algorithms 2 and 3, the range scan and the aggregate
//! queries, answered straight from serialized archive bytes.
//!
//! There is one decoder, and it is [`ArchiveView`]: one struct, one body per
//! algorithm, for both products of the paper. A lossy archive is a lossless
//! archive with its corrections dropped — the residuals are stored "or
//! simply discard\[ed\] to obtain a lossy time series representation with
//! maximum error guarantees" — so the only thing the decoder knows about
//! flavor is which of the two its `Residuals` are: the `B`, `O`, `C`
//! columns, or the bound ε they were discarded under. A lossy fragment
//! decodes exactly like a lossless fragment whose fit was exact (correction
//! width 0): the model values, nothing added.
//!
//! [`ArchiveView::open`] validates the container frame (checksum +
//! structural invariants) *once* and then answers `at(k)`, `range(..)`,
//! scans and the aggregate queries directly over the borrowed `&[u8]`, with
//! no heap allocation at all: the succinct structures are read through the
//! borrowed views of [`succinct::views`], whose rank/select directories are
//! persisted in the archive rather than rebuilt.
//! [`NeaTSCompressed`](crate::NeaTSCompressed) and
//! [`NeaTSLossy`](crate::NeaTSLossy) are a frame plus the view over it and
//! delegate every query here; the store borrows its segments' views from
//! the pack buffer the same way.
//!
//! Opening is two steps, and [`ArchiveView::open`] is literally one after
//! the other:
//!
//! * [`ArchiveView::parse`] — O(sections): frame header, section table,
//!   every structure's header and the cross-structure counts, reading the
//!   section sequence of the frame's flavor
//!   ([`ArchiveFlavor::section_names`]). Bounds-checked and panic-free on
//!   any bytes, no allocation.
//! * [`ArchiveView::verify`] — O(bytes): the frame CRC, the rank/select
//!   directories, the kind-symbol census and the fragment-geometry walk.
//!   Only after it succeeds are queries guaranteed in bounds. This is the
//!   one place an archive's structure is validated.
//!
//! Untrusted bytes go through `open`. `parse` alone is for a caller that
//! holds bytes which already passed `open` and cannot have changed since —
//! the store re-parses an immutable, already-verified segment on a cache
//! miss instead of re-running the O(bytes) pass — or bytes the encoder in
//! this process just produced.
//!
//! Query semantics are held to the encoder's *input* by
//! `tests/view_differential.rs`: every answer is property-tested against
//! the series and the partition the archive was built from, for lossless
//! and lossy archives alike.

use crate::aggregate::{fragment_model_sum, Estimate};
use crate::fit::{floor_to_i64, model_value, Fragment, Kind};
use crate::serial::{self, ArchiveFlavor, Frame, KindParams, Section};
use std::ops::Range;
use succinct::{
    BitBufView, BitVectorView, EliasFanoIterView, EliasFanoView, OnesIterView, PackedVecView,
    WaveletMatrixView, WireError, WireReader,
};
use timeseries::TimeSeries;

/// Borrowed fragment-start index `S` in either representation (see
/// [`crate::RankMode`]).
#[derive(Clone, Copy, Debug)]
enum StartIndexView<'a> {
    Ef(EliasFanoView<'a>),
    Bv(BitVectorView<'a>),
}

impl<'a> StartIndexView<'a> {
    /// Index of the fragment covering position `k`.
    #[inline]
    fn fragment_of(&self, k: usize) -> usize {
        match self {
            StartIndexView::Ef(ef) => ef.rank_leq(k as u64) - 1,
            StartIndexView::Bv(bv) => bv.rank1(k + 1) - 1,
        }
    }

    /// Start position of fragment `i`.
    #[inline]
    fn start_of(&self, i: usize) -> usize {
        match self {
            StartIndexView::Ef(ef) => ef.get(i) as usize,
            StartIndexView::Bv(bv) => bv.select1(i).expect("fragment index in range"),
        }
    }

    /// Number of fragments indexed.
    fn len(&self) -> usize {
        match self {
            StartIndexView::Ef(ef) => ef.len(),
            StartIndexView::Bv(bv) => bv.count_ones(),
        }
    }

    /// Verifies the rank/select directories.
    fn validate(&self) -> Result<(), WireError> {
        match self {
            StartIndexView::Ef(ef) => ef.validate(),
            StartIndexView::Bv(bv) => bv.validate(),
        }
    }

    /// Bytes of the index and its rank directories.
    fn size_in_bytes(&self) -> usize {
        match self {
            StartIndexView::Ef(ef) => ef.size_in_bytes(),
            StartIndexView::Bv(bv) => bv.size_in_bytes(),
        }
    }

    /// Streaming iterator over the fragment starts from fragment `i` on:
    /// one select to seek (none from 0 under Elias-Fano), then a forward
    /// scan.
    fn iter_from(&self, i: usize) -> StartIterView<'a> {
        match self {
            StartIndexView::Ef(ef) => StartIterView::Ef(ef.iter_from(i)),
            StartIndexView::Bv(bv) => StartIterView::Bv(bv.iter_ones_from(i)),
        }
    }
}

/// Streaming fragment-start walk over either `S` representation.
enum StartIterView<'a> {
    Ef(EliasFanoIterView<'a>),
    Bv(OnesIterView<'a>),
}

impl Iterator for StartIterView<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            StartIterView::Ef(it) => it.next().map(|v| v as usize),
            StartIterView::Bv(it) => it.next(),
        }
    }
}

/// Kind symbols: per-symbol ranks at `m` give the counts in O(σ·log σ); each
/// must match its parameter array, and they sum to `m` iff no out-of-table
/// symbol occurs anywhere.
fn verify_kind_symbols(
    kinds: &WaveletMatrixView<'_>,
    kind_params: &KindParams<'_>,
    m: usize,
) -> Result<(), WireError> {
    let mut total_syms = 0usize;
    for (sym, (kind, params)) in kind_params.kinds().iter().zip(kind_params.params()).enumerate() {
        let count = kinds.rank(sym as u8, m);
        if params.len() != count * kind.param_count() {
            return Err(WireError::Corrupt("params length"));
        }
        total_syms += count;
    }
    if total_syms != m {
        return Err(WireError::Corrupt("kind symbol"));
    }
    Ok(())
}

/// What became of the residuals `y − ⌊f(u)⌋`: the one thing the two flavors
/// differ in.
#[derive(Clone, Copy, Debug)]
enum Residuals<'a> {
    /// Lossless: stored, as the correction columns of §III-C.
    Stored {
        /// `B`: per-fragment correction bit widths.
        widths: PackedVecView<'a>,
        /// `O`: cumulative correction bit offsets.
        offsets: EliasFanoView<'a>,
        /// `C`: the packed, bias-coded corrections.
        bits: BitBufView<'a>,
    },
    /// Lossy: discarded, each of them within `eps + 1` (the bound the fit
    /// ran under, plus one for flooring).
    Dropped { eps: u64 },
}

/// One fragment's share of a range query: the fragment, the positions of the
/// range inside it, and where its corrections are.
struct Piece {
    frag: Fragment,
    range: Range<usize>,
    /// Correction bit width: 0 for an exact fit and in a lossy archive.
    w: usize,
    /// Bit offset of the fragment's first correction (`O[i]`).
    o: usize,
}

/// Values decoded per step of the exact aggregates: the whole of their
/// working memory (2 KiB of stack), whatever the range.
const FOLD_BLOCK: usize = 256;

/// A zero-copy view over a serialized archive of either flavor.
///
/// ```
/// use neats_core::{ArchiveView, NeaTS};
/// use timeseries::TimeSeries;
///
/// let ts = TimeSeries::from_values((0..2000).map(|k| k * k / 40).collect());
/// let bytes = NeaTS::compress(&ts).to_bytes();
/// let view = ArchiveView::open(&bytes).unwrap();
/// assert_eq!(view.at(1234), ts.values()[1234]);
/// let mut window = Vec::new();
/// view.range(100..164, &mut window);
/// assert_eq!(window, &ts.values()[100..164]);
///
/// // The same view over the lossy product: the same queries, within ε + 1.
/// let lossy = NeaTS::builder().build_lossy(&ts, 20).to_bytes();
/// let view = ArchiveView::open(&lossy).unwrap();
/// assert_eq!(view.eps(), Some(20));
/// assert!(view.at(1234).abs_diff(ts.values()[1234]) <= 21);
/// ```
#[derive(Clone, Debug)]
pub struct ArchiveView<'a> {
    /// The container frame the view was parsed from (for the CRC pass).
    frame: Frame<'a>,
    n: usize,
    shift: i64,
    starts: StartIndexView<'a>,
    residuals: Residuals<'a>,
    kinds: WaveletMatrixView<'a>,
    /// Distinct kinds in use and their parameter words, held inline.
    kind_params: KindParams<'a>,
    origin_deltas: PackedVecView<'a>,
}

impl<'a> ArchiveView<'a> {
    /// Opens an archive produced by
    /// [`NeaTSCompressed::to_bytes`](crate::NeaTSCompressed::to_bytes) or
    /// [`NeaTSLossy::to_bytes`](crate::NeaTSLossy::to_bytes): verifies the
    /// frame checksum, validates every structural invariant the query
    /// algorithms rely on, and borrows all payloads in place. The one entry
    /// point for untrusted bytes: [`Self::parse`], then [`Self::verify`].
    pub fn open(data: &'a [u8]) -> Result<Self, WireError> {
        let view = Self::parse(data)?;
        view.verify()?;
        Ok(view)
    }

    /// [`Self::open`], additionally returning the frame's section table —
    /// one parse and one checksum pass serve both (the `neats stat` path).
    pub fn open_with_sections(data: &'a [u8]) -> Result<(Self, Vec<Section>), WireError> {
        let view = Self::open(data)?;
        let sections = view.frame.sections();
        Ok((view, sections))
    }

    /// The O(sections) half of [`Self::open`]: parses the frame header and
    /// every structure's header, borrowing all payloads in place, without
    /// reading the payloads themselves. Never panics and never allocates,
    /// whatever the bytes; corrupt headers are an `Err`.
    ///
    /// **Valid on its own only for bytes that already passed [`Self::open`]
    /// and have not changed since.** Nothing here checks the checksum, the
    /// rank/select directories or the fragment geometry, so querying a
    /// parsed-only view of other bytes may panic or answer nonsense (never
    /// undefined behaviour: every read is bounds-checked). The store's
    /// segment cache is the intended caller: pack bytes are immutable for
    /// the life of a `Store`, so a segment verified once is re-parsed, not
    /// re-verified, on later cache misses.
    pub fn parse(data: &'a [u8]) -> Result<Self, WireError> {
        let frame = serial::parse_frame(data)?;
        let mut r = WireReader::new(frame.payload);
        let n = r.read_len()?;
        let shift = r.i64()?;
        // The rest of the header, then the sections only one flavor has: a
        // lossless frame tags its start index and carries `B`, `O`, `C`; a
        // lossy frame states ε and always indexes starts with Elias-Fano.
        let (starts, residuals) = match frame.flavor {
            ArchiveFlavor::Lossless => {
                let starts = match r.u8()? {
                    0 => StartIndexView::Ef(EliasFanoView::read(&mut r)?),
                    1 => StartIndexView::Bv(BitVectorView::read(&mut r)?),
                    _ => return Err(WireError::Corrupt("start index tag")),
                };
                let widths = PackedVecView::read(&mut r)?;
                let offsets = EliasFanoView::read(&mut r)?;
                let bits = BitBufView::read(&mut r)?;
                (starts, Residuals::Stored { widths, offsets, bits })
            }
            ArchiveFlavor::Lossy => {
                let eps = r.u64()?;
                (StartIndexView::Ef(EliasFanoView::read(&mut r)?), Residuals::Dropped { eps })
            }
        };
        let kinds = WaveletMatrixView::read(&mut r)?;
        let kind_params = KindParams::read(&mut r)?;
        let origin_deltas = PackedVecView::read(&mut r)?;
        if !r.is_exhausted() {
            return Err(WireError::Corrupt("trailing bytes"));
        }

        let m = origin_deltas.len();
        if starts.len() != m || kinds.len() != m {
            return Err(WireError::Corrupt("fragment count mismatch"));
        }
        if let Residuals::Stored { widths, offsets, .. } = &residuals {
            if widths.len() != m {
                return Err(WireError::Corrupt("fragment count mismatch"));
            }
            if offsets.len() != m + 1 {
                return Err(WireError::Corrupt("offsets length"));
            }
        }
        // Every point must be covered by a fragment and vice versa: a
        // crafted archive with n > 0 but m == 0 would make fragment_of
        // underflow on the first query.
        if (m == 0) != (n == 0) {
            return Err(WireError::Corrupt("fragment count vs series length"));
        }
        // In BitVector rank mode the index is one bit per position; a
        // shorter vector would send rank1(k + 1) out of bounds.
        if let StartIndexView::Bv(bv) = &starts {
            if bv.len() != n {
                return Err(WireError::Corrupt("start bitvector length"));
            }
        }
        Ok(Self { frame, n, shift, starts, residuals, kinds, kind_params, origin_deltas })
    }

    /// The O(bytes) half of [`Self::open`], over the bytes this view was
    /// parsed from: the frame CRC, then every invariant the query algorithms
    /// rely on (rank/select directories, kind symbols within the table and
    /// matching the parameter arrays, fragments tiling `0..len` with
    /// consistent origins and — where corrections are stored — consistent
    /// widths and offsets), so corrupted input can never cause a panic or
    /// an out-of-bounds access later.
    pub fn verify(&self) -> Result<(), WireError> {
        self.frame.verify_checksum()?;
        let (n, m) = (self.n, self.fragment_count());
        // Rank/select directories first, so the structural loop below (and
        // every later query) probes in bounds.
        self.starts.validate()?;
        self.kinds.validate()?;
        // Where corrections are stored: their widths, and a cursor over
        // their offsets with the offset it last yielded.
        let mut stored = match &self.residuals {
            Residuals::Stored { widths, offsets, bits } => {
                offsets.validate()?;
                if m > 0 && offsets.get(m) as usize > bits.len() {
                    return Err(WireError::Corrupt("corrections overflow"));
                }
                let mut offsets_it = offsets.iter();
                let first = offsets_it.next().unwrap_or(0) as usize;
                Some((widths, offsets_it, first))
            }
            Residuals::Dropped { .. } => None,
        };
        verify_kind_symbols(&self.kinds, &self.kind_params, m)?;
        // Fragment geometry: one streaming pass over starts and offsets
        // (no per-fragment select).
        let mut starts_it = self.starts.iter_from(0);
        let mut cur_start = starts_it.next();
        for i in 0..m {
            let start = cur_start.expect("length checked at parse");
            if i == 0 && start != 0 {
                return Err(WireError::Corrupt("first fragment start"));
            }
            if start >= n {
                return Err(WireError::Corrupt("start beyond series"));
            }
            cur_start = starts_it.next();
            let end = cur_start.unwrap_or(n);
            if end <= start || end > n {
                return Err(WireError::Corrupt("fragment bounds"));
            }
            if let Some((widths, offsets_it, o_prev)) = &mut stored {
                let w = widths.get(i) as usize;
                if w > 64 {
                    return Err(WireError::Corrupt("correction width"));
                }
                let o_next = offsets_it.next().expect("length checked at parse") as usize;
                if o_next < *o_prev || o_next - *o_prev != (end - start) * w {
                    return Err(WireError::Corrupt("offset stride"));
                }
                *o_prev = o_next;
            }
            if self.origin_deltas.get(i) as usize > start {
                return Err(WireError::Corrupt("origin delta"));
            }
        }
        Ok(())
    }

    /// Number of data points represented.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the archive covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Which representation the archive holds (the frame's flavor byte).
    pub fn flavor(&self) -> ArchiveFlavor {
        self.frame.flavor
    }

    /// The error bound a lossy archive was built under; `None` for a
    /// lossless archive, whose values are exact.
    pub fn eps(&self) -> Option<u64> {
        match self.residuals {
            Residuals::Stored { .. } => None,
            Residuals::Dropped { eps } => Some(eps),
        }
    }

    /// This view, if the archive is lossless.
    pub fn as_lossless(&self) -> Option<&Self> {
        self.eps().is_none().then_some(self)
    }

    /// The global positivity shift stored in the header.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Compressed size in bytes by the paper's accounting: the bits of
    /// `S, B, O, C, K, P` with their rank directories (a lossy archive has
    /// no `B, O, C`; its ε counts instead) plus the fixed header fields — no
    /// container framing, which PLA, AA and the other competitors do not
    /// carry either.
    pub fn size_in_bytes(&self) -> usize {
        let header = 8 + 8 + self.kind_params.kinds().len() + 8; // n, shift, kinds, misc
        let residuals = match &self.residuals {
            Residuals::Stored { widths, offsets, bits } => {
                widths.size_in_bytes() + offsets.size_in_bytes() + bits.size_in_bytes()
            }
            Residuals::Dropped { .. } => 8,
        };
        header
            + self.starts.size_in_bytes()
            + residuals
            + self.kinds.size_in_bytes()
            + self.kind_params.params().iter().map(|p| p.len() * 8).sum::<usize>()
            + self.origin_deltas.size_in_bytes()
    }

    /// Number of fragments `m`.
    pub fn fragment_count(&self) -> usize {
        self.origin_deltas.len()
    }

    /// Index of the fragment covering position `k`.
    pub fn fragment_index_of(&self, k: usize) -> usize {
        debug_assert!(k < self.n);
        self.starts.fragment_of(k)
    }

    /// The correction bit width `B[i]` of fragment `i`: 0 for an exact fit,
    /// and for every fragment of a lossy archive.
    pub fn correction_width_of(&self, i: usize) -> usize {
        match &self.residuals {
            Residuals::Stored { widths, .. } => widths.get(i) as usize,
            Residuals::Dropped { .. } => 0,
        }
    }

    /// The largest magnitude a residual of a piece can have: `2^(w−1)`
    /// where `w`-bit corrections are stored, `ε + 1` where they were
    /// dropped. What every estimate's error bound is made of.
    fn residual_bound(&self, piece: &Piece) -> f64 {
        match (&self.residuals, piece.w) {
            (Residuals::Stored { .. }, 0) => 0.0,
            (Residuals::Stored { .. }, w) => (1u64 << (w - 1)) as f64,
            (Residuals::Dropped { eps }, _) => *eps as f64 + 1.0,
        }
    }

    /// Where fragment `i`'s corrections from its local position `skip` on
    /// are: the bit string, their width and the first one's bit offset.
    /// `None` when there is nothing to add to the model — an exact fit, or
    /// a lossy archive.
    #[inline]
    fn corrections_from(&self, i: usize, skip: usize) -> Option<(&BitBufView<'a>, usize, usize)> {
        let Residuals::Stored { widths, offsets, bits } = &self.residuals else {
            return None;
        };
        let w = widths.get(i) as usize;
        (w > 0).then(|| (bits, w, offsets.get(i) as usize + skip * w))
    }

    /// The descriptor of fragment `i`, whose bounds the caller has.
    #[inline]
    fn model_of(&self, i: usize, start: usize, end: usize) -> Fragment {
        let (sym, rank) = self.kinds.access_rank(i);
        let (kind, params) = self.kind_params.model(sym, rank);
        let origin = start - self.origin_deltas.get(i) as usize;
        Fragment { kind, params, start, end, origin }
    }

    /// Reconstructs the fragment descriptor for fragment `i`.
    pub fn fragment(&self, i: usize) -> Fragment {
        let start = self.starts.start_of(i);
        let end = if i + 1 < self.fragment_count() { self.starts.start_of(i + 1) } else { self.n };
        self.model_of(i, start, end)
    }

    /// Per-kind fragment counts.
    pub fn kind_histogram(&self) -> Vec<(Kind, usize)> {
        let m = self.fragment_count();
        self.kind_params
            .kinds()
            .iter()
            .enumerate()
            .map(|(sym, &kind)| (kind, self.kinds.rank(sym as u8, m)))
            .collect()
    }

    /// Algorithm 3: random access to the value at position `k` — exact for
    /// a lossless archive, within ε + 1 of the original for a lossy one.
    pub fn at(&self, k: usize) -> i64 {
        debug_assert!(k < self.n);
        let i = self.starts.fragment_of(k);
        let start = self.starts.start_of(i);
        // Evaluating the model never reads the fragment's end: passing `n`
        // saves the select that would find it.
        let frag = self.model_of(i, start, self.n);
        let correction = match self.corrections_from(i, k - start) {
            Some((bits, w, o)) => bits.get_bits(o, w).wrapping_sub(1u64 << (w - 1)) as i64,
            None => 0,
        };
        model_value(&frag, k, self.shift).wrapping_add(correction)
    }

    /// Appends the values in `range` to `out`: [`Self::scan_range`] by
    /// bounds instead of start and count.
    pub fn range(&self, range: Range<usize>, out: &mut Vec<i64>) {
        self.scan_range(range.start, range.len(), out)
    }

    /// The pieces `[start, start + count)` falls into, in order — the one
    /// fragment walk under Algorithm 2, the range scan, the exact aggregates
    /// and the estimates. One rank locates the first fragment; from there
    /// fragment starts stream out of the start index's iterator, the
    /// correction bit offset is a running cursor (corrections are stored
    /// contiguously in fragment order), and each kind's parameter rank is a
    /// counter, seeded by one wavelet rank the first time the kind appears.
    fn pieces(&self, start: usize, count: usize) -> impl Iterator<Item = Piece> + '_ {
        debug_assert!(start + count <= self.n);
        let end = start + count;
        let mut pos = start;
        let mut i = if count == 0 { 0 } else { self.starts.fragment_of(start) };
        let mut starts = self.starts.iter_from(i);
        let mut frag_start = starts.next().unwrap_or(0);
        let mut o = match &self.residuals {
            Residuals::Stored { offsets, .. } => offsets.get(i) as usize,
            Residuals::Dropped { .. } => 0,
        };
        let mut ranks = [None; Kind::ALL.len()];
        std::iter::from_fn(move || {
            (pos < end).then(|| {
                let frag_end = starts.next().unwrap_or(self.n);
                let sym = self.kinds.access(i);
                let rank = ranks[sym as usize].unwrap_or_else(|| self.kinds.rank(sym, i));
                ranks[sym as usize] = Some(rank + 1);
                let (kind, params) = self.kind_params.model(sym, rank);
                let origin = frag_start - self.origin_deltas.get(i) as usize;
                let frag = Fragment { kind, params, start: frag_start, end: frag_end, origin };
                let piece = Piece { frag, range: pos..frag_end.min(end), w: self.correction_width_of(i), o };
                o += (frag_end - frag_start) * piece.w;
                pos = piece.range.end;
                frag_start = frag_end;
                i += 1;
                piece
            })
        })
    }

    /// Decodes positions `from..from + out.len()` of `piece`'s fragment into
    /// `out`: the model values, plus the stored corrections if there are
    /// any.
    fn decode_piece(&self, piece: &Piece, from: usize, out: &mut [i64]) {
        model_values(&piece.frag, self.shift, from, out);
        if let (Residuals::Stored { bits, .. }, w @ 1..) = (&self.residuals, piece.w) {
            add_corrections(bits, w, piece.o + (from - piece.frag.start) * w, out);
        }
    }

    /// Range query (§IV-C4): appends the values in `[start, start + count)`
    /// to `out`.
    pub fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        let base = out.len();
        out.resize(base + count, 0);
        let window = &mut out[base..];
        for piece in self.pieces(start, count) {
            let Range { start: from, end } = piece.range;
            self.decode_piece(&piece, from, &mut window[from - start..end - start]);
        }
    }

    /// Algorithm 2: the whole series, fragment by fragment (decompression of
    /// a lossless archive, reconstruction of a lossy one) — the range scan
    /// over `0..len`.
    pub fn materialize(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.n);
        self.scan_range(0, self.n, &mut out);
        out
    }

    /// Streaming fold over the values in `[start, start + count)`, decoded
    /// a [`FOLD_BLOCK`] at a time: no allocation, and memory independent of
    /// `count`.
    fn fold_range<A>(
        &self,
        start: usize,
        count: usize,
        mut acc: A,
        mut f: impl FnMut(A, i64) -> A,
    ) -> A {
        let mut block = [0i64; FOLD_BLOCK];
        for piece in self.pieces(start, count) {
            for from in piece.range.clone().step_by(FOLD_BLOCK) {
                let buf = &mut block[..(piece.range.end - from).min(FOLD_BLOCK)];
                self.decode_piece(&piece, from, buf);
                acc = buf.iter().fold(acc, |acc, &v| f(acc, v));
            }
        }
        acc
    }

    /// Exact range sum of the archive's values (the stored values for a
    /// lossless archive, the ε-bounded approximations for a lossy one), as
    /// `i128` to avoid overflow — what `neats sum --exact` answers.
    pub fn sum_range_exact(&self, start: usize, count: usize) -> i128 {
        self.fold_range(start, count, 0i128, |acc, v| acc + v as i128)
    }

    /// Measured maximum absolute error against the original values (0 for
    /// a lossless archive, at most ε + 1 for a lossy one).
    pub fn max_error(&self, original: &TimeSeries) -> u64 {
        let mut originals = original.values().iter();
        self.fold_range(0, self.n, 0u64, |worst, v| {
            originals.next().map_or(worst, |y| worst.max(y.abs_diff(v)))
        })
    }

    /// Approximate range sum from the learned functions only, in
    /// O(#overlapping fragments) for closed-form kinds and with no
    /// correction reads. The bound charges every point its fragment's
    /// residual bound (`2^{w−1}` stored, `ε + 1` dropped) plus one unit for
    /// the closed form summing `f` instead of `⌊f⌋`.
    pub fn sum_range_estimate(&self, start: usize, count: usize) -> Estimate {
        let mut sum = Estimate { value: 0.0, max_error: 0.0 };
        for piece in self.pieces(start, count) {
            sum.value += fragment_model_sum(&piece.frag, piece.range.start, piece.range.end, self.shift);
            sum.max_error += piece.range.len() as f64 * (self.residual_bound(&piece) + 1.0);
        }
        sum
    }
}

/// The model values `⌊f(u)⌋ − shift` of `frag` at positions
/// `from..from + out.len()` — the inner loop of Algorithm 2 and of every
/// scan.
///
/// The function-kind dispatch is hoisted out of the loop: each arm calls
/// `Kind::eval` with a *constant* kind, so the loop body is one kind's
/// straight-line arithmetic and the computation is bit-identical to
/// [`model_value`], which encoding used — that identity is what makes the
/// scheme lossless. (The paper vectorises this loop with
/// `std::experimental::simd`. Here the f64 → i64 conversion in
/// [`floor_to_i64`] is scalar at the x86-64 baseline, which has no packed
/// form of it, so each value costs one evaluation and one scalar
/// conversion.)
fn model_values(frag: &Fragment, shift: i64, from: usize, out: &mut [i64]) {
    /// The loop itself, monomorphised per kind.
    #[inline(always)]
    fn fill(eval: impl Fn(f64) -> f64, first_u: usize, shift_sub: i64, out: &mut [i64]) {
        for (j, v) in out.iter_mut().enumerate() {
            *v = floor_to_i64(eval((first_u + j) as f64)).wrapping_sub(shift_sub);
        }
    }
    let p = frag.params;
    let first_u = from - frag.origin + 1;
    let shift_sub = if frag.kind.log_domain() { shift } else { 0 };
    macro_rules! dispatch {
        ($kind:expr) => {
            fill(|u| $kind.eval(p, u), first_u, shift_sub, out)
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

/// Adds to `out` the `w`-bit bias-coded corrections (`w ≥ 1`) stored from
/// bit `o0` of `bits` on, with a register-resident word cursor (cheaper
/// than recomputing word/bit from absolute offsets).
fn add_corrections(bits: &BitBufView<'_>, w: usize, o0: usize, out: &mut [i64]) {
    let bias = 1u64 << (w - 1);
    let words = bits.words();
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    let mut word_idx = o0 / 64;
    let mut bit = o0 % 64;
    let mut cur = words.get(word_idx);
    for v in out {
        let mut raw = cur >> bit;
        if bit + w > 64 {
            raw |= words.get(word_idx + 1) << (64 - bit);
        }
        *v = v.wrapping_add((raw & mask).wrapping_sub(bias) as i64);
        bit += w;
        if bit >= 64 {
            bit -= 64;
            word_idx += 1;
            cur = if word_idx < words.len() { words.get(word_idx) } else { 0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeaTS, RankMode};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use timeseries::{CompressedSeries, TimeSeries};

    fn walk(n: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 0i64;
        TimeSeries::from_values((0..n).map(|_| { v += rng.random_range(-40..41); v }).collect())
    }

    #[test]
    fn lossless_view_answers_match_owned() {
        let ts = walk(3000, 1);
        for mode in [RankMode::EliasFano, RankMode::BitVector] {
            let c = NeaTS::builder().rank_mode(mode).build(&ts);
            let bytes = c.to_bytes();
            let view = ArchiveView::open(&bytes).unwrap();
            assert_eq!(view.len(), c.len());
            assert_eq!(view.eps(), None);
            assert_eq!(view.fragment_count(), c.view().fragment_count());
            // A view opened from the bytes and the handle that owns them
            // both decode to the input.
            for (k, &y) in ts.values().iter().enumerate() {
                assert_eq!(view.at(k), y, "{mode:?} at({k})");
                assert_eq!(c.get(k), y, "{mode:?} get({k})");
            }
            assert_eq!(view.materialize(), ts.values(), "{mode:?}");
            assert_eq!(c.decompress(), ts.values(), "{mode:?}");
        }
    }

    #[test]
    fn lossy_view_answers_match_owned() {
        let ts = walk(2000, 2);
        let l = NeaTS::builder().build_lossy(&ts, 25);
        let bytes = l.to_bytes();
        let view = ArchiveView::open(&bytes).unwrap();
        assert_eq!(view.eps(), Some(25));
        assert!(view.as_lossless().is_none());
        for (k, &y) in ts.values().iter().enumerate() {
            assert_eq!(view.at(k), l.approximate(k), "at({k})");
            assert!(y.abs_diff(view.at(k)) <= 26, "at({k}) outside eps + 1");
        }
        assert_eq!(view.materialize(), l.reconstruct());
    }

    #[test]
    fn empty_archive_opens() {
        let c = NeaTS::compress(&TimeSeries::from_values(vec![]));
        let bytes = c.to_bytes();
        let view = ArchiveView::open(&bytes).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.materialize(), Vec::<i64>::new());
    }

    #[test]
    fn view_range_matches_slice() {
        let ts = walk(2000, 3);
        let bytes = NeaTS::compress(&ts).to_bytes();
        let view = ArchiveView::open(&bytes).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..60 {
            let s = rng.random_range(0..ts.len());
            let l = rng.random_range(0..=(ts.len() - s).min(400));
            let mut out = Vec::new();
            view.range(s..s + l, &mut out);
            assert_eq!(out, &ts.values()[s..s + l], "range [{s}, {})", s + l);
        }
    }

    #[test]
    fn exact_aggregates_cross_fold_blocks_and_fragments() {
        // Ranges longer than a fold block, starting and ending inside
        // fragments: the block boundaries must not show in the answer.
        let ts = walk(5 * FOLD_BLOCK + 77, 5);
        let lossless = NeaTS::compress(&ts);
        let lossy = NeaTS::builder().build_lossy(&ts, 30);
        for (view, decoded) in [
            (lossless.view(), ts.values().to_vec()),
            (lossy.view(), lossy.reconstruct()),
        ] {
            for (s, c) in [(0, decoded.len()), (3, FOLD_BLOCK), (FOLD_BLOCK - 1, 2 * FOLD_BLOCK + 2), (9, 0)] {
                let slice = &decoded[s..s + c];
                assert_eq!(view.sum_range_exact(s, c), slice.iter().map(|&v| v as i128).sum::<i128>());
            }
        }
    }

    #[test]
    fn view_is_no_larger_than_the_enum_it_replaced() {
        // The store's segment cache holds one of these per entry. The
        // two-variant enum this struct replaced was 1200 bytes (the size of
        // its lossless variant); the budget is that plus an `Option<u64>`.
        assert!(std::mem::size_of::<ArchiveView<'_>>() <= 1200 + 16, "{}", std::mem::size_of::<ArchiveView<'_>>());
    }
}
