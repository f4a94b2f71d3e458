//! Persistence of compressed series: the versioned, checksummed container
//! frame the encoders write and [`crate::view::ArchiveView`] reads.
//!
//! ## Container frame (version 2)
//!
//! ```text
//! u64  magic            "NeaTSFRM" (little-endian)
//! u64  version          2
//! u8   flavor           0 = lossless, 1 = lossy
//! u64  section_count    9 (lossless) or 6 (lossy)
//! 2·u64 per section     (offset, length) into the payload, contiguous from 0
//! u64  payload_len
//! u64  checksum         CRC-64/XZ over every preceding byte + the payload
//! …    payload          the flavor's sections, concatenated
//! ```
//!
//! The checksum covers the whole header (everything before the checksum
//! field) *and* the payload, so any single-byte corruption anywhere in an
//! archive is rejected deterministically (CRC-64 detects every error burst
//! shorter than 64 bits). Truncations are rejected by the length fields.
//! The section table lets tools (`neats stat`) report the layout breakdown
//! without decoding, and reserves room for section-level evolution.
//!
//! Opening untrusted bytes ([`crate::view::ArchiveView::open`], and through
//! it both `from_bytes`) is *validating*: beyond the checksum, every
//! structural invariant the query algorithms rely on is re-checked, so even
//! a crafted buffer with a correct checksum can never cause a panic or
//! out-of-bounds read.

use crate::fit::{Fragment, Kind, Params};
use succinct::{
    Crc64, PackedVec, U64sView, WaveletMatrix, Wire, WireError, WireReader, WireWriter,
};

/// Container magic: the ASCII bytes `NeaTSFRM`, read as a little-endian u64.
pub(crate) const FRAME_MAGIC: u64 = u64::from_le_bytes(*b"NeaTSFRM");
/// Current container version.
pub(crate) const FRAME_VERSION: u64 = 2;

/// Which compressed representation an archive holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchiveFlavor {
    /// A [`NeaTSCompressed`](crate::NeaTSCompressed) archive (models +
    /// corrections, lossless).
    Lossless,
    /// A [`NeaTSLossy`](crate::NeaTSLossy) archive (models only, ε-bounded).
    Lossy,
}

impl ArchiveFlavor {
    fn tag(self) -> u8 {
        match self {
            ArchiveFlavor::Lossless => 0,
            ArchiveFlavor::Lossy => 1,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ArchiveFlavor::Lossless => "lossless",
            ArchiveFlavor::Lossy => "lossy",
        }
    }

    /// The fixed section names of this flavor's payload, in order.
    pub fn section_names(self) -> &'static [&'static str] {
        match self {
            ArchiveFlavor::Lossless => &[
                "header",
                "starts",
                "widths",
                "offsets",
                "corrections",
                "kinds",
                "kind-table",
                "params",
                "origin-deltas",
            ],
            ArchiveFlavor::Lossy => {
                &["header", "starts", "kinds", "kind-table", "params", "origin-deltas"]
            }
        }
    }
}

/// One entry of the container's section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section {
    /// Fixed per-flavor section name (see [`ArchiveFlavor::section_names`]).
    pub name: &'static str,
    /// Byte offset into the payload.
    pub offset: usize,
    /// Section length in bytes.
    pub len: usize,
}

/// A payload writer that records section boundaries as it goes.
pub(crate) struct SectionWriter {
    pub(crate) w: WireWriter,
    marks: Vec<usize>,
}

impl SectionWriter {
    pub(crate) fn new() -> Self {
        Self { w: WireWriter::new(), marks: Vec::new() }
    }

    /// Ends the current section at the writer's position.
    pub(crate) fn mark(&mut self) {
        self.marks.push(self.w.len());
    }
}

/// Wraps a recorded payload into the container frame.
pub(crate) fn frame(flavor: ArchiveFlavor, payload: SectionWriter) -> Vec<u8> {
    let SectionWriter { w, marks } = payload;
    let payload_bytes = w.finish();
    debug_assert_eq!(marks.len(), flavor.section_names().len());
    debug_assert_eq!(marks.last().copied().unwrap_or(0), payload_bytes.len());
    let mut h = WireWriter::new();
    h.u64(FRAME_MAGIC);
    h.u64(FRAME_VERSION);
    h.u8(flavor.tag());
    h.u64(marks.len() as u64);
    let mut prev = 0usize;
    for &m in &marks {
        h.u64(prev as u64);
        h.u64((m - prev) as u64);
        prev = m;
    }
    h.u64(payload_bytes.len() as u64);
    let mut crc = Crc64::new();
    crc.update(h.as_slice());
    crc.update(&payload_bytes);
    h.u64(crc.finish());
    let mut out = h.finish();
    out.extend_from_slice(&payload_bytes);
    out
}

/// A parsed container frame: the flavor, the payload slice, and what the
/// checksum pass needs. Parsing ([`parse_frame`]) is O(sections) and
/// allocation-free; the one O(bytes) step, the CRC, is
/// [`Frame::verify_checksum`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame<'a> {
    pub(crate) flavor: ArchiveFlavor,
    pub(crate) payload: &'a [u8],
    /// Every byte before the checksum field (the CRC covers it).
    header: &'a [u8],
    /// The `(offset, length)` pairs of the section table, 16 bytes each,
    /// already checked to tile the payload.
    table: &'a [u8],
    stored_crc: u64,
}

impl Frame<'_> {
    /// Recomputes CRC-64/XZ over header + payload (one sequential read of
    /// the whole archive) and compares it with the stored checksum.
    pub(crate) fn verify_checksum(&self) -> Result<(), WireError> {
        let mut crc = Crc64::new();
        crc.update(self.header);
        crc.update(self.payload);
        if crc.finish() != self.stored_crc {
            return Err(WireError::Corrupt("checksum mismatch"));
        }
        Ok(())
    }

    /// The section table, named per flavor.
    pub(crate) fn sections(&self) -> Vec<Section> {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize;
        self.flavor
            .section_names()
            .iter()
            .zip(self.table.chunks_exact(16))
            .map(|(&name, e)| Section { name, offset: word(&e[..8]), len: word(&e[8..]) })
            .collect()
    }
}

/// Parses the container frame of `data`: magic, version, flavor, a section
/// table that tiles the payload, and exact total length. Checks everything
/// except the checksum ([`Frame::verify_checksum`]); never panics, never
/// allocates.
pub(crate) fn parse_frame(data: &[u8]) -> Result<Frame<'_>, WireError> {
    let mut r = WireReader::new(data);
    if r.u64()? != FRAME_MAGIC {
        return Err(WireError::Corrupt("bad container magic"));
    }
    if r.u64()? != FRAME_VERSION {
        return Err(WireError::Corrupt("unsupported container version"));
    }
    let flavor = match r.u8()? {
        0 => ArchiveFlavor::Lossless,
        1 => ArchiveFlavor::Lossy,
        _ => return Err(WireError::Corrupt("unknown archive flavor")),
    };
    let count = flavor.section_names().len();
    if r.read_len()? != count {
        return Err(WireError::Corrupt("section count"));
    }
    let table_start = r.pos();
    let mut expect_off = 0usize;
    for _ in 0..count {
        let offset = r.read_len()?;
        let len = r.read_len()?;
        if offset != expect_off {
            return Err(WireError::Corrupt("section table not contiguous"));
        }
        expect_off = offset.checked_add(len).ok_or(WireError::Corrupt("section table overflow"))?;
    }
    let table = &data[table_start..r.pos()];
    let payload_len = r.read_len()?;
    if payload_len != expect_off {
        return Err(WireError::Corrupt("section table does not cover payload"));
    }
    let header = &data[..r.pos()];
    let stored_crc = r.u64()?;
    if r.remaining() < payload_len {
        return Err(WireError::Truncated);
    }
    if r.remaining() > payload_len {
        return Err(WireError::Corrupt("trailing bytes"));
    }
    let payload = &data[data.len() - payload_len..];
    Ok(Frame { flavor, payload, header, table, stored_crc })
}

/// Reads an archive's flavor and section table without decoding the payload
/// (for tooling that only inspects the frame; `neats stat` uses
/// [`crate::view::ArchiveView::open_with_sections`] to get the view and the
/// table from a single parse). The checksum is still verified.
pub fn frame_info(data: &[u8]) -> Result<(ArchiveFlavor, Vec<Section>), WireError> {
    let frame = parse_frame(data)?;
    frame.verify_checksum()?;
    Ok((frame.flavor, frame.sections()))
}

/// The per-fragment model columns both flavors end with, under
/// construction: the kind string `K`, the kind table, the parameter arrays
/// `P` and the fragment origins.
#[derive(Default)]
pub(crate) struct ModelSections {
    kind_syms: Vec<u8>,
    /// Distinct kinds in use; wavelet-matrix symbols index into this.
    kind_table: Vec<Kind>,
    /// Per kind-table entry: concatenated parameters, `param_count` f64 bit
    /// patterns per fragment of that kind.
    params: Vec<Vec<u64>>,
    origin_deltas: Vec<u64>,
}

impl ModelSections {
    /// Appends the next fragment's model.
    pub(crate) fn push(&mut self, frag: &Fragment) {
        let sym = match self.kind_table.iter().position(|&k| k == frag.kind) {
            Some(s) => s,
            None => {
                self.kind_table.push(frag.kind);
                self.params.push(Vec::new());
                self.kind_table.len() - 1
            }
        };
        self.kind_syms.push(sym as u8);
        let p = &mut self.params[sym];
        p.push(frag.params.m.to_bits());
        p.push(frag.params.b.to_bits());
        if frag.kind.param_count() == 3 {
            p.push(frag.params.extra.to_bits());
        }
        self.origin_deltas.push((frag.start - frag.origin) as u64);
    }

    /// Writes the `kinds`, `kind-table`, `params` and `origin-deltas`
    /// sections, in that order.
    pub(crate) fn write(&self, sw: &mut SectionWriter) {
        WaveletMatrix::new(&self.kind_syms).write(&mut sw.w);
        sw.mark(); // kinds
        sw.w.u64(self.kind_table.len() as u64);
        for &k in &self.kind_table {
            sw.w.u8(k as u8);
        }
        sw.mark(); // kind-table
        sw.w.u64(self.params.len() as u64);
        for p in &self.params {
            sw.w.u64_slice(p);
        }
        sw.mark(); // params
        PackedVec::new(&self.origin_deltas).write(&mut sw.w);
        sw.mark(); // origin-deltas
    }
}

/// The kind table and the per-kind parameter words of an archive, read into
/// fixed inline storage (a table never has more than [`Kind::ALL`]`.len()`
/// entries), so parsing them performs no heap allocation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KindParams<'a> {
    len: usize,
    kinds: [Kind; Kind::ALL.len()],
    params: [U64sView<'a>; Kind::ALL.len()],
}

impl<'a> KindParams<'a> {
    /// Reads the kind-table and params sections, validating tags, arity
    /// (one parameter array per table entry) and that every array's length
    /// is a multiple of its kind's parameter count.
    pub(crate) fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        if len > Kind::ALL.len() {
            return Err(WireError::Corrupt("kind table too large"));
        }
        let mut kinds = [Kind::Linear; Kind::ALL.len()];
        for slot in &mut kinds[..len] {
            *slot = Kind::from_tag(r.u8()?).ok_or(WireError::Corrupt("unknown kind tag"))?;
        }
        if r.read_len()? != len {
            return Err(WireError::Corrupt("params arity"));
        }
        let mut params = [U64sView::default(); Kind::ALL.len()];
        for (slot, kind) in params.iter_mut().zip(&kinds[..len]) {
            let p = r.u64s_ref()?;
            if !p.len().is_multiple_of(kind.param_count()) {
                return Err(WireError::Corrupt("params not a multiple of arity"));
            }
            *slot = p;
        }
        Ok(Self { len, kinds, params })
    }

    /// The kind table: symbol → kind.
    #[inline]
    pub(crate) fn kinds(&self) -> &[Kind] {
        &self.kinds[..self.len]
    }

    /// Per kind-table entry: the borrowed concatenated parameter words.
    #[inline]
    pub(crate) fn params(&self) -> &[U64sView<'a>] {
        &self.params[..self.len]
    }

    /// The kind and parameters of the `rank`-th fragment (in fragment order)
    /// using kind-table entry `sym`.
    #[inline]
    pub(crate) fn model(&self, sym: u8, rank: usize) -> (Kind, Params) {
        let kind = self.kinds()[sym as usize];
        let pc = kind.param_count();
        let base = rank * pc;
        let arr = &self.params()[sym as usize];
        let params = Params {
            m: f64::from_bits(arr.get(base)),
            b: f64::from_bits(arr.get(base + 1)),
            extra: if pc == 3 { f64::from_bits(arr.get(base + 2)) } else { 0.0 },
        };
        (kind, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ArchiveView;
    use crate::{NeaTS, NeaTSCompressed, NeaTSLossy};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use timeseries::{CompressedSeries, TimeSeries};

    fn walk(n: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 0i64;
        TimeSeries::from_values((0..n).map(|_| { v += rng.random_range(-25..26); v }).collect())
    }

    #[test]
    fn lossless_roundtrip_through_bytes() {
        let ts = walk(3000, 1);
        let c = NeaTS::compress(&ts);
        let bytes = c.to_bytes();
        let back = NeaTSCompressed::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), c.len());
        assert_eq!(back.decompress(), ts.values());
        for k in (0..ts.len()).step_by(61) {
            assert_eq!(back.get(k), ts.values()[k]);
        }
        // The bytes round-trip unchanged through the container frame.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn lossless_bytes_are_close_to_reported_size() {
        let ts = walk(20_000, 2);
        let c = NeaTS::compress(&ts);
        let bytes = c.to_bytes().len();
        let reported = c.size_in_bytes();
        // The wire format adds per-structure length prefixes and the frame
        // header only.
        assert!(bytes < reported * 13 / 10, "wire {bytes} vs reported {reported}");
    }

    #[test]
    fn lossy_roundtrip_through_bytes() {
        let ts = walk(2000, 3);
        let l = NeaTS::builder().build_lossy(&ts, 40);
        let bytes = l.to_bytes();
        let back = NeaTSLossy::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), l.len());
        assert_eq!(back.eps(), Some(40));
        assert_eq!(back.reconstruct(), l.reconstruct());
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn wrong_flavor_rejected() {
        let ts = walk(100, 4);
        let c = NeaTS::compress(&ts);
        let l = NeaTS::builder().build_lossy(&ts, 5);
        // Swapped formats must be rejected up front.
        assert!(NeaTSCompressed::from_bytes(&l.to_bytes()).is_err());
        assert!(NeaTSLossy::from_bytes(&c.to_bytes()).is_err());
    }

    #[test]
    fn frame_info_reports_the_section_table() {
        let ts = walk(800, 12);
        let bytes = NeaTS::compress(&ts).to_bytes();
        let (flavor, sections) = frame_info(&bytes).unwrap();
        assert_eq!(flavor, ArchiveFlavor::Lossless);
        assert_eq!(sections.len(), ArchiveFlavor::Lossless.section_names().len());
        assert_eq!(sections[0].name, "header");
        assert_eq!(sections[0].offset, 0);
        // Sections tile the payload contiguously.
        let mut expect = 0usize;
        for s in &sections {
            assert_eq!(s.offset, expect);
            expect += s.len;
        }
        let lossy = NeaTS::builder().build_lossy(&ts, 9).to_bytes();
        let (flavor, sections) = frame_info(&lossy).unwrap();
        assert_eq!(flavor, ArchiveFlavor::Lossy);
        assert_eq!(sections.len(), ArchiveFlavor::Lossy.section_names().len());
    }

    #[test]
    fn truncation_never_panics() {
        let ts = walk(500, 5);
        let bytes = NeaTS::compress(&ts).to_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(NeaTSCompressed::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let lossy = NeaTS::builder().build_lossy(&ts, 16).to_bytes();
        for cut in (0..lossy.len()).step_by(7) {
            assert!(NeaTSLossy::from_bytes(&lossy[..cut]).is_err(), "lossy cut {cut}");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        // CRC-64 over header + payload: every single-byte corruption must be
        // rejected — exhaustively, not probabilistically, and for both
        // flavors. `from_bytes` is a copy followed by `ArchiveView::open`,
        // so this is the suite for both.
        let ts = walk(400, 6);
        let bytes = NeaTS::compress(&ts).to_bytes();
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << (pos % 8);
            assert!(NeaTSCompressed::from_bytes(&corrupted).is_err(), "from_bytes accepted flip at {pos}");
        }
        let lossy = NeaTS::builder().build_lossy(&ts, 12).to_bytes();
        for pos in 0..lossy.len() {
            let mut corrupted = lossy.clone();
            corrupted[pos] ^= 1 << (pos % 8);
            assert!(NeaTSLossy::from_bytes(&corrupted).is_err(), "lossy from_bytes accepted flip at {pos}");
        }
    }

    #[test]
    fn random_bitflips_are_rejected_lossy_too() {
        let ts = walk(400, 6);
        let l = NeaTS::builder().build_lossy(&ts, 12);
        let bytes = l.to_bytes();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let mut corrupted = bytes.clone();
            let pos = rng.random_range(0..corrupted.len());
            corrupted[pos] ^= 1 << rng.random_range(0..8);
            assert!(NeaTSLossy::from_bytes(&corrupted).is_err(), "flip at {pos} accepted");
        }
    }

    /// Byte offset of the frame's checksum field.
    fn crc_offset(bytes: &[u8]) -> usize {
        let count = u64::from_le_bytes(bytes[17..25].try_into().unwrap()) as usize;
        25 + count * 16 + 8
    }

    /// Recomputes and rewrites the frame checksum after a payload patch, so
    /// tests can exercise *crafted* (checksum-valid) archives rather than
    /// merely corrupt ones.
    fn repack_with_valid_crc(bytes: &mut [u8]) {
        let off = crc_offset(bytes);
        let mut crc = succinct::Crc64::new();
        crc.update(&bytes[..off]);
        crc.update(&bytes[off + 8..]);
        let v = crc.finish();
        bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Overwrites the `n` header field (first payload u64) and re-checksums.
    fn patch_n(bytes: &mut [u8], n: u64) {
        let payload = crc_offset(bytes) + 8;
        bytes[payload..payload + 8].copy_from_slice(&n.to_le_bytes());
        repack_with_valid_crc(bytes);
    }

    #[test]
    fn crafted_checksum_valid_archives_are_rejected() {
        // A valid checksum is no license to trust the payload: structural
        // validation must still reject archives whose header lies. These are
        // the cases where only the n/m and bitvector-length cross-checks
        // stand between a crafted file and a query-time panic.

        // m == 0 but n > 0 (lossless, Elias-Fano mode).
        let mut crafted = NeaTS::compress(&TimeSeries::from_values(vec![])).to_bytes();
        patch_n(&mut crafted, 1000);
        assert!(NeaTSCompressed::from_bytes(&crafted).is_err(), "from_bytes accepted n>0, m=0");

        // m == 0 but n > 0 (lossy).
        let mut crafted =
            NeaTS::builder().build_lossy(&TimeSeries::from_values(vec![]), 5).to_bytes();
        patch_n(&mut crafted, 1000);
        assert!(NeaTSLossy::from_bytes(&crafted).is_err(), "lossy from_bytes accepted n>0, m=0");

        // BitVector rank mode with n larger than the start bitvector: the
        // single constant fragment has correction width 0, so every stride
        // check passes and only the bitvector-length check can reject it.
        let ts = TimeSeries::from_values(vec![42; 500]);
        let c = NeaTS::builder()
            .rank_mode(crate::RankMode::BitVector)
            .kinds(&[Kind::Linear])
            .epsilons(&[0])
            .build(&ts);
        let mut crafted = c.to_bytes();
        patch_n(&mut crafted, 505);
        assert!(NeaTSCompressed::from_bytes(&crafted).is_err(), "from_bytes accepted short start bv");

        // Sanity: the patch helper itself round-trips an unpatched archive.
        let mut untouched = c.to_bytes();
        repack_with_valid_crc(&mut untouched);
        assert!(ArchiveView::open(&untouched).is_ok());
    }

    #[test]
    fn empty_series_serialises() {
        let ts = TimeSeries::from_values(vec![]);
        let c = NeaTS::compress(&ts);
        let back = NeaTSCompressed::from_bytes(&c.to_bytes()).unwrap();
        assert!(back.is_empty());
    }
}
