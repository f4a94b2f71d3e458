//! The read path: Algorithms 2 and 3, the range scan and the aggregate
//! queries, answered straight from serialized archive bytes.
//!
//! There is one decoder, and it is here. [`ArchiveView::open`] validates the
//! container frame (checksum + structural invariants) *once* and then
//! answers `at(k)`, `range(..)`, scans and the aggregate queries directly
//! over the borrowed `&[u8]`, with no heap allocation at all: the succinct
//! structures are read through the borrowed views of [`succinct::views`],
//! whose rank/select directories are persisted in the archive rather than
//! rebuilt. [`NeaTSCompressed`](crate::NeaTSCompressed) and
//! [`NeaTSLossy`](crate::NeaTSLossy) are a frame plus the view over it and
//! delegate every query here; the store borrows its segments' views from
//! the pack buffer the same way.
//!
//! Opening is two steps, and [`ArchiveView::open`] is literally one after
//! the other:
//!
//! * [`ArchiveView::parse`] — O(sections): frame header, section table,
//!   every structure's header and the cross-structure counts. Bounds-checked
//!   and panic-free on any bytes, no allocation.
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

use crate::aggregate::{fragment_model_extremes, fragment_model_sum, Estimate};
use crate::fit::{model_value, Fragment, Kind};
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

    /// Streaming iterator over all fragment starts in order.
    fn iter(&self) -> StartIterView<'a> {
        match self {
            StartIndexView::Ef(ef) => StartIterView::Ef(ef.iter()),
            StartIndexView::Bv(bv) => StartIterView::Bv(bv.iter_ones()),
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
/// ```
#[derive(Clone, Debug)]
pub enum ArchiveView<'a> {
    /// A lossless archive (models + corrections).
    Lossless(LosslessView<'a>),
    /// A lossy archive (models only, ε-bounded).
    Lossy(LossyView<'a>),
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
        let sections = view.frame().sections();
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
        let view = match frame.flavor {
            ArchiveFlavor::Lossless => ArchiveView::Lossless(LosslessView::parse(frame, &mut r)?),
            ArchiveFlavor::Lossy => ArchiveView::Lossy(LossyView::parse(frame, &mut r)?),
        };
        if !r.is_exhausted() {
            return Err(WireError::Corrupt("trailing bytes"));
        }
        Ok(view)
    }

    /// The O(bytes) half of [`Self::open`], over the bytes this view was
    /// parsed from: the frame CRC, then every invariant the query algorithms
    /// rely on (rank/select directories, kind symbols within the table and
    /// matching the parameter arrays, fragments tiling `0..len` with
    /// consistent correction offsets and origins).
    pub fn verify(&self) -> Result<(), WireError> {
        self.frame().verify_checksum()?;
        match self {
            ArchiveView::Lossless(v) => v.verify(),
            ArchiveView::Lossy(v) => v.verify(),
        }
    }

    fn frame(&self) -> &Frame<'a> {
        match self {
            ArchiveView::Lossless(v) => &v.frame,
            ArchiveView::Lossy(v) => &v.frame,
        }
    }

    /// Number of data points represented.
    pub fn len(&self) -> usize {
        match self {
            ArchiveView::Lossless(v) => v.len(),
            ArchiveView::Lossy(v) => v.len(),
        }
    }

    /// Whether the archive covers no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which representation the archive holds.
    pub fn flavor(&self) -> ArchiveFlavor {
        match self {
            ArchiveView::Lossless(_) => ArchiveFlavor::Lossless,
            ArchiveView::Lossy(_) => ArchiveFlavor::Lossy,
        }
    }

    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        match self {
            ArchiveView::Lossless(v) => v.fragment_count(),
            ArchiveView::Lossy(v) => v.fragment_count(),
        }
    }

    /// The global positivity shift stored in the header.
    pub fn shift(&self) -> i64 {
        match self {
            ArchiveView::Lossless(v) => v.shift(),
            ArchiveView::Lossy(v) => v.shift(),
        }
    }

    /// The value at position `k`: exact for lossless archives, the ε-bounded
    /// approximation for lossy ones.
    pub fn at(&self, k: usize) -> i64 {
        match self {
            ArchiveView::Lossless(v) => v.get(k),
            ArchiveView::Lossy(v) => v.approximate(k),
        }
    }

    /// Appends the values in `range` to `out` (one fragment rank, then a
    /// sequential scan).
    pub fn range(&self, range: Range<usize>, out: &mut Vec<i64>) {
        match self {
            ArchiveView::Lossless(v) => v.scan_range(range.start, range.len(), out),
            ArchiveView::Lossy(v) => v.scan_range(range.start, range.len(), out),
        }
    }

    /// Materialises the whole series (decompression for lossless archives,
    /// reconstruction for lossy ones).
    pub fn materialize(&self) -> Vec<i64> {
        match self {
            ArchiveView::Lossless(v) => v.decompress(),
            ArchiveView::Lossy(v) => v.reconstruct(),
        }
    }

    /// Approximate range sum from the learned functions only, with a
    /// guaranteed error bound.
    pub fn sum_range_estimate(&self, start: usize, count: usize) -> Estimate {
        match self {
            ArchiveView::Lossless(v) => v.sum_range_estimate(start, count),
            ArchiveView::Lossy(v) => v.sum_range_estimate(start, count),
        }
    }

    /// Exact range sum of the archive's values (the stored values for
    /// lossless archives, the ε-bounded approximations for lossy ones), as
    /// `i128` to avoid overflow. Used by the multi-series store to push sums
    /// down to individual segments and stitch across their boundaries.
    pub fn sum_range_exact(&self, start: usize, count: usize) -> i128 {
        match self {
            ArchiveView::Lossless(v) => v.sum_range_exact(start, count),
            ArchiveView::Lossy(v) => v.sum_range_exact(start, count),
        }
    }

    /// Exact minimum and maximum over `[start, start + count)` of the
    /// archive's values (`None` for an empty range). Like
    /// [`Self::sum_range_exact`], this is the segment-local aggregate the
    /// store's cross-segment pushdown folds over.
    pub fn min_max_range_exact(&self, start: usize, count: usize) -> Option<(i64, i64)> {
        match self {
            ArchiveView::Lossless(v) => v.min_max_range_exact(start, count),
            ArchiveView::Lossy(v) => v.min_max_range_exact(start, count),
        }
    }

    /// Per-kind fragment counts.
    pub fn kind_histogram(&self) -> Vec<(Kind, usize)> {
        match self {
            ArchiveView::Lossless(v) => v.kind_histogram(),
            ArchiveView::Lossy(v) => v.kind_histogram(),
        }
    }

    /// The lossless view, if this archive is lossless.
    pub fn as_lossless(&self) -> Option<&LosslessView<'a>> {
        match self {
            ArchiveView::Lossless(v) => Some(v),
            ArchiveView::Lossy(_) => None,
        }
    }

    /// The lossy view, if this archive is lossy.
    pub fn as_lossy(&self) -> Option<&LossyView<'a>> {
        match self {
            ArchiveView::Lossy(v) => Some(v),
            ArchiveView::Lossless(_) => None,
        }
    }
}

/// The lossless query surface over borrowed bytes: Algorithm 2
/// ([`Self::decompress`]), Algorithm 3 ([`Self::get`]), the range query of
/// §IV-C4 ([`Self::scan_range`]) and the aggregates.
#[derive(Clone, Debug)]
pub struct LosslessView<'a> {
    /// The container frame the view was parsed from (for the CRC pass).
    frame: Frame<'a>,
    n: usize,
    shift: i64,
    starts: StartIndexView<'a>,
    widths: PackedVecView<'a>,
    offsets: EliasFanoView<'a>,
    corrections: BitBufView<'a>,
    kinds: WaveletMatrixView<'a>,
    /// Distinct kinds in use and their parameter words, held inline.
    kind_params: KindParams<'a>,
    origin_deltas: PackedVecView<'a>,
}

impl<'a> LosslessView<'a> {
    /// Parses the lossless payload: every structure's header plus the
    /// cross-structure counts that need no probe into a payload.
    fn parse(frame: Frame<'a>, r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let n = r.read_len()?;
        let shift = r.i64()?;
        let starts = match r.u8()? {
            0 => StartIndexView::Ef(EliasFanoView::read(r)?),
            1 => StartIndexView::Bv(BitVectorView::read(r)?),
            _ => return Err(WireError::Corrupt("start index tag")),
        };
        let widths = PackedVecView::read(r)?;
        let offsets = EliasFanoView::read(r)?;
        let corrections = BitBufView::read(r)?;
        let kinds = WaveletMatrixView::read(r)?;
        let kind_params = KindParams::read(r)?;
        let origin_deltas = PackedVecView::read(r)?;

        let m = widths.len();
        if starts.len() != m || kinds.len() != m || origin_deltas.len() != m {
            return Err(WireError::Corrupt("fragment count mismatch"));
        }
        if offsets.len() != m + 1 {
            return Err(WireError::Corrupt("offsets length"));
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
        Ok(Self {
            frame,
            n,
            shift,
            starts,
            widths,
            offsets,
            corrections,
            kinds,
            kind_params,
            origin_deltas,
        })
    }

    /// Validates the payloads: every cross-structure invariant `get`,
    /// `scan_range` and `decompress` rely on, so corrupted input can never
    /// cause a panic or an out-of-bounds access later.
    fn verify(&self) -> Result<(), WireError> {
        let (n, m) = (self.n, self.widths.len());
        // Rank/select directories first, so the structural loop below (and
        // every later query) probes in bounds.
        self.starts.validate()?;
        self.offsets.validate()?;
        self.kinds.validate()?;
        if m > 0 && self.offsets.get(m) as usize > self.corrections.len() {
            return Err(WireError::Corrupt("corrections overflow"));
        }
        verify_kind_symbols(&self.kinds, &self.kind_params, m)?;
        // Fragment geometry: one streaming pass over starts and offsets
        // (no per-fragment select).
        let mut starts_it = self.starts.iter();
        let mut offsets_it = self.offsets.iter();
        let mut cur_start = starts_it.next();
        let mut o_prev = offsets_it.next().unwrap_or(0) as usize;
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
            let w = self.widths.get(i) as usize;
            if w > 64 {
                return Err(WireError::Corrupt("correction width"));
            }
            let o_next = offsets_it.next().expect("length checked at parse") as usize;
            if o_next < o_prev || o_next - o_prev != (end - start) * w {
                return Err(WireError::Corrupt("offset stride"));
            }
            o_prev = o_next;
            if self.origin_deltas.get(i) as usize > start {
                return Err(WireError::Corrupt("origin delta"));
            }
        }
        Ok(())
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The global positivity shift stored in the header.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Compressed size in bytes by the paper's accounting: the bits of
    /// `S, B, O, C, K, P` with their rank directories plus the fixed header
    /// fields — no container framing, which PLA, AA and the other
    /// competitors do not carry either.
    pub fn size_in_bytes(&self) -> usize {
        let header = 8 + 8 + self.kind_params.kinds().len() + 8; // n, shift, kinds, misc
        header
            + self.starts.size_in_bytes()
            + self.widths.size_in_bytes()
            + self.offsets.size_in_bytes()
            + self.corrections.size_in_bytes()
            + self.kinds.size_in_bytes()
            + self.kind_params.params().iter().map(|p| p.len() * 8).sum::<usize>()
            + self.origin_deltas.size_in_bytes()
    }

    /// Number of fragments `m`.
    pub fn fragment_count(&self) -> usize {
        self.widths.len()
    }

    /// Index of the fragment covering position `k`.
    pub fn fragment_index_of(&self, k: usize) -> usize {
        debug_assert!(k < self.n);
        self.starts.fragment_of(k)
    }

    /// The correction bit width `B[i]` of fragment `i`.
    pub fn correction_width_of(&self, i: usize) -> usize {
        self.widths.get(i) as usize
    }

    /// Reconstructs the fragment descriptor for fragment `i`.
    pub fn fragment(&self, i: usize) -> Fragment {
        let start = self.starts.start_of(i);
        let end = if i + 1 < self.fragment_count() { self.starts.start_of(i + 1) } else { self.n };
        let (sym, rank) = self.kinds.access_rank(i);
        let (kind, params) = self.kind_params.model(sym, rank);
        let origin = start - self.origin_deltas.get(i) as usize;
        Fragment { kind, params, start, end, origin }
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

    /// Algorithm 3: random access to the value at position `k`.
    pub fn get(&self, k: usize) -> i64 {
        debug_assert!(k < self.n);
        let i = self.starts.fragment_of(k);
        let start = self.starts.start_of(i);
        let (sym, rank) = self.kinds.access_rank(i);
        let (kind, params) = self.kind_params.model(sym, rank);
        let origin = start - self.origin_deltas.get(i) as usize;
        let frag = Fragment { kind, params, start, end: self.n, origin };
        model_value(&frag, k, self.shift).wrapping_add(self.correction(i, start, k))
    }

    /// Range query: one rank to locate the first fragment, then a sequential
    /// scan across fragments.
    pub fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
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
            let w = self.widths.get(i) as usize;
            let o0 = self.offsets.get(i) as usize + (pos - frag.start) * w;
            self.emit_loop_dispatch(&frag, pos, to, w, o0, out);
            pos = to;
            i += 1;
        }
    }

    /// Algorithm 2: full decompression, fragment by fragment.
    ///
    /// The sequential pass avoids the per-fragment rank/select machinery of
    /// the random-access path entirely: fragment starts stream out of the
    /// Elias-Fano iterator, per-kind parameter ranks are incremental
    /// counters, and the correction bit offset is a running cursor
    /// (corrections are stored contiguously in fragment order).
    pub fn decompress(&self) -> Vec<i64> {
        let m = self.fragment_count();
        let mut out = Vec::with_capacity(self.n);
        let mut ranks = [0usize; Kind::ALL.len()];
        let mut o = 0usize;
        let mut starts = self.starts.iter();
        let mut start = starts.next().unwrap_or(0);
        for i in 0..m {
            let end = starts.next().unwrap_or(self.n);
            let sym = self.kinds.access(i);
            let (kind, params) = self.kind_params.model(sym, ranks[sym as usize]);
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

    /// Kind-dispatched emit over `[from, to)` reading `w`-bit corrections
    /// starting at bit `o0` — the shared inner loop of Algorithms 2 and 3's
    /// scan.
    ///
    /// The function-kind dispatch is hoisted out of the loop (the paper
    /// vectorises this loop with `std::experimental::simd`; we rely on the
    /// monomorphised closure auto-vectorising). Each arm calls
    /// `Kind::eval` with a *constant* kind so the computation is
    /// bit-identical to [`model_value`], which encoding used — that identity
    /// is what makes the scheme lossless.
    fn emit_loop_dispatch(
        &self,
        frag: &Fragment,
        from: usize,
        to: usize,
        w: usize,
        o0: usize,
        out: &mut Vec<i64>,
    ) {
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
    /// offset of the first correction to read (correction words are read
    /// through the unaligned view).
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
            let mut cur = words.get(word_idx);
            for v in &mut out[base..] {
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
    }

    /// Exact range sum (scan-based), as `i128` to avoid overflow.
    pub fn sum_range_exact(&self, start: usize, count: usize) -> i128 {
        let mut out = Vec::with_capacity(count);
        self.scan_range(start, count, &mut out);
        out.iter().map(|&v| v as i128).sum()
    }

    /// Exact range minimum and maximum (scan-based); `None` when `count` is
    /// zero.
    pub fn min_max_range_exact(&self, start: usize, count: usize) -> Option<(i64, i64)> {
        if count == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(count);
        self.scan_range(start, count, &mut out);
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for &v in &out {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// Approximate range sum from the learned functions only, in
    /// O(#overlapping fragments) for closed-form kinds and with no
    /// correction reads. The bound accounts for the per-fragment correction
    /// magnitude (`2^{w−1}`) plus one unit of flooring per point.
    pub fn sum_range_estimate(&self, start: usize, count: usize) -> Estimate {
        if count == 0 {
            return Estimate { value: 0.0, max_error: 0.0 };
        }
        debug_assert!(start + count <= self.n);
        let end = start + count;
        let mut i = self.fragment_index_of(start);
        let mut pos = start;
        let mut value = 0.0f64;
        let mut max_error = 0.0f64;
        while pos < end {
            let frag = self.fragment(i);
            let to = frag.end.min(end);
            value += fragment_model_sum(&frag, pos, to, self.shift);
            let w = self.correction_width_of(i);
            let bias = if w == 0 { 0.0 } else { (1u64 << (w - 1)) as f64 };
            max_error += (to - pos) as f64 * (bias + 1.0);
            pos = to;
            i += 1;
        }
        Estimate { value, max_error }
    }

    /// Approximate range mean with the same guarantee, scaled by `1/count`.
    pub fn mean_range_estimate(&self, start: usize, count: usize) -> Estimate {
        let s = self.sum_range_estimate(start, count);
        let n = count.max(1) as f64;
        Estimate { value: s.value / n, max_error: s.max_error / n }
    }

    /// Approximate range minimum and maximum from the learned functions
    /// only (no correction reads), each with a guaranteed error bound of
    /// the fragment's correction magnitude.
    ///
    /// Extremes of each fragment's model come from endpoint/stationary-point
    /// analysis: O(1) per overlapping fragment.
    pub fn min_max_range_estimate(&self, start: usize, count: usize) -> (Estimate, Estimate) {
        assert!(count > 0, "min/max of an empty range is undefined");
        debug_assert!(start + count <= self.n);
        let end = start + count;
        let mut i = self.fragment_index_of(start);
        let mut pos = start;
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        let mut bound = 0.0f64;
        while pos < end {
            let frag = self.fragment(i);
            let to = frag.end.min(end);
            let (flo, fhi) = fragment_model_extremes(&frag, pos, to, self.shift);
            lo = lo.min(flo);
            hi = hi.max(fhi);
            let w = self.correction_width_of(i);
            let bias = if w == 0 { 0.0 } else { (1u64 << (w - 1)) as f64 };
            bound = bound.max(bias);
            pos = to;
            i += 1;
        }
        (
            Estimate { value: lo as f64, max_error: bound },
            Estimate { value: hi as f64, max_error: bound },
        )
    }
}

/// The ε-bounded query surface of a NeaTS-L archive over borrowed bytes.
#[derive(Clone, Debug)]
pub struct LossyView<'a> {
    /// The container frame the view was parsed from (for the CRC pass).
    frame: Frame<'a>,
    n: usize,
    shift: i64,
    eps: u64,
    starts: EliasFanoView<'a>,
    kinds: WaveletMatrixView<'a>,
    kind_params: KindParams<'a>,
    origin_deltas: PackedVecView<'a>,
}

impl<'a> LossyView<'a> {
    /// Parses the lossy payload: every structure's header plus the
    /// cross-structure counts that need no probe into a payload.
    fn parse(frame: Frame<'a>, r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let n = r.read_len()?;
        let shift = r.i64()?;
        let eps = r.u64()?;
        let starts = EliasFanoView::read(r)?;
        let kinds = WaveletMatrixView::read(r)?;
        let kind_params = KindParams::read(r)?;
        let origin_deltas = PackedVecView::read(r)?;
        let m = starts.len();
        if kinds.len() != m || origin_deltas.len() != m {
            return Err(WireError::Corrupt("fragment count mismatch"));
        }
        // See the lossless parser: n and m must be zero together, or
        // fragment_of underflows on a crafted archive.
        if (m == 0) != (n == 0) {
            return Err(WireError::Corrupt("fragment count vs series length"));
        }
        Ok(Self { frame, n, shift, eps, starts, kinds, kind_params, origin_deltas })
    }

    /// Validates the payloads: every invariant the queries rely on.
    fn verify(&self) -> Result<(), WireError> {
        self.starts.validate()?;
        self.kinds.validate()?;
        verify_kind_symbols(&self.kinds, &self.kind_params, self.starts.len())?;
        let mut prev = 0usize;
        for (i, s) in self.starts.iter().enumerate() {
            let s = s as usize;
            if (i == 0 && s != 0) || (i > 0 && s <= prev) || s >= self.n {
                return Err(WireError::Corrupt("fragment starts"));
            }
            if self.origin_deltas.get(i) as usize > s {
                return Err(WireError::Corrupt("origin delta"));
            }
            prev = s;
        }
        Ok(())
    }

    /// Number of data points represented.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the approximation covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The error bound the approximation was built under.
    pub fn eps(&self) -> u64 {
        self.eps
    }

    /// The global positivity shift stored in the header.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Compressed size in bytes (parameters plus access structures; the
    /// paper's accounting, without container framing).
    pub fn size_in_bytes(&self) -> usize {
        let header = 8 + 8 + 8 + self.kind_params.kinds().len() + 8;
        header
            + self.starts.size_in_bytes()
            + self.kinds.size_in_bytes()
            + self.kind_params.params().iter().map(|p| p.len() * 8).sum::<usize>()
            + self.origin_deltas.size_in_bytes()
    }

    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.origin_deltas.len()
    }

    /// Index of the fragment covering position `k`.
    pub fn fragment_index_of(&self, k: usize) -> usize {
        debug_assert!(k < self.n);
        self.starts.rank_leq(k as u64) - 1
    }

    /// Reconstructs the fragment descriptor for fragment `i`.
    pub fn fragment(&self, i: usize) -> Fragment {
        let start = self.starts.get(i) as usize;
        let end = if i + 1 < self.fragment_count() {
            self.starts.get(i + 1) as usize
        } else {
            self.n
        };
        let sym = self.kinds.access(i);
        let (kind, params) = self.kind_params.model(sym, self.kinds.rank(sym, i));
        let origin = start - self.origin_deltas.get(i) as usize;
        Fragment { kind, params, start, end, origin }
    }

    /// The approximated value at position `k` (random access).
    pub fn approximate(&self, k: usize) -> i64 {
        debug_assert!(k < self.n);
        let i = self.starts.rank_leq(k as u64) - 1;
        let frag = self.fragment(i);
        model_value(&frag, k, self.shift)
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

    /// Appends the approximated values in `[start, start + count)` to `out`:
    /// one rank, then a sequential fragment walk.
    pub fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        if count == 0 {
            return;
        }
        debug_assert!(start + count <= self.n);
        let end = start + count;
        let mut i = self.fragment_index_of(start);
        let mut pos = start;
        while pos < end {
            let frag = self.fragment(i);
            let to = frag.end.min(end);
            for k in pos..to {
                out.push(model_value(&frag, k, self.shift));
            }
            pos = to;
            i += 1;
        }
    }

    /// Materialises the whole approximated series.
    ///
    /// Sequential walk: fragment starts stream out of the Elias-Fano
    /// iterator and per-kind parameter ranks are incremental counters, so no
    /// per-fragment select/rank machinery runs.
    pub fn reconstruct(&self) -> Vec<i64> {
        let m = self.fragment_count();
        let mut out = Vec::with_capacity(self.n);
        let mut ranks = [0usize; Kind::ALL.len()];
        let mut starts = self.starts.iter();
        let mut start = starts.next().map(|v| v as usize).unwrap_or(0);
        for i in 0..m {
            let end = starts.next().map(|v| v as usize).unwrap_or(self.n);
            let sym = self.kinds.access(i);
            let (kind, params) = self.kind_params.model(sym, ranks[sym as usize]);
            ranks[sym as usize] += 1;
            let origin = start - self.origin_deltas.get(i) as usize;
            let frag = Fragment { kind, params, start, end, origin };
            for k in start..end {
                out.push(model_value(&frag, k, self.shift));
            }
            start = end;
        }
        out
    }

    /// Streaming fold over the approximated values in
    /// `[start, start + count)`: one rank, then a fragment walk evaluating
    /// the models directly — no allocation.
    fn fold_range<A>(&self, start: usize, count: usize, mut acc: A, f: impl Fn(A, i64) -> A) -> A {
        if count == 0 {
            return acc;
        }
        debug_assert!(start + count <= self.n);
        let end = start + count;
        let mut i = self.fragment_index_of(start);
        let mut pos = start;
        while pos < end {
            let frag = self.fragment(i);
            let to = frag.end.min(end);
            for k in pos..to {
                acc = f(acc, model_value(&frag, k, self.shift));
            }
            pos = to;
            i += 1;
        }
        acc
    }

    /// Exact range sum of the ε-bounded approximations, as `i128` to avoid
    /// overflow (a streaming fragment walk, no allocation).
    pub fn sum_range_exact(&self, start: usize, count: usize) -> i128 {
        self.fold_range(start, count, 0i128, |acc, v| acc + v as i128)
    }

    /// Exact range minimum and maximum of the ε-bounded approximations;
    /// `None` when `count` is zero (a streaming fragment walk, no
    /// allocation).
    pub fn min_max_range_exact(&self, start: usize, count: usize) -> Option<(i64, i64)> {
        self.fold_range(start, count, None, |acc: Option<(i64, i64)>, v| match acc {
            Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
            None => Some((v, v)),
        })
    }

    /// Measured maximum absolute error against the original values.
    pub fn max_error(&self, original: &TimeSeries) -> u64 {
        original
            .values()
            .iter()
            .enumerate()
            .map(|(k, &v)| v.abs_diff(self.approximate(k)))
            .max()
            .unwrap_or(0)
    }

    /// Approximate range sum from the lossy model, with error bound
    /// `count·(ε+2)`: ε from the NeaTS-L guarantee, +1 for flooring, +1 for
    /// the closed form summing f instead of ⌊f⌋.
    pub fn sum_range_estimate(&self, start: usize, count: usize) -> Estimate {
        if count == 0 {
            return Estimate { value: 0.0, max_error: 0.0 };
        }
        debug_assert!(start + count <= self.n);
        let end = start + count;
        let mut i = self.fragment_index_of(start);
        let mut pos = start;
        let mut value = 0.0f64;
        while pos < end {
            let frag = self.fragment(i);
            let to = frag.end.min(end);
            value += fragment_model_sum(&frag, pos, to, self.shift);
            pos = to;
            i += 1;
        }
        Estimate { value, max_error: count as f64 * (self.eps as f64 + 2.0) }
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
        let lossy = view.as_lossy().unwrap();
        assert_eq!(lossy.eps(), 25);
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
}
