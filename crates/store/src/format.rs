//! The pack wire format: header, catalog, and footer.
//!
//! The catalog is the only region the reader must trust to *locate* data, so
//! it gets its own CRC-64 in the footer; every value frame is additionally
//! self-checksummed (the v2 container frame), and every timestamp blob's
//! CRC is recorded in its catalog entry. Parsing is validating throughout:
//! a crafted catalog that passes its checksum still cannot make any query
//! panic or read out of bounds.

use crate::StoreError;
use std::collections::HashMap;
use succinct::{crc64, WireReader, WireWriter};

/// Pack header magic: the ASCII bytes `NeaTSPAK`, read as a little-endian u64.
pub(crate) const PACK_MAGIC: u64 = u64::from_le_bytes(*b"NeaTSPAK");
/// Footer end magic: the ASCII bytes `NeaTSEND`.
pub(crate) const END_MAGIC: u64 = u64::from_le_bytes(*b"NeaTSEND");
/// Current pack format version.
pub(crate) const PACK_VERSION: u64 = 1;
/// Fixed header length: magic + version.
pub(crate) const HEADER_LEN: usize = 16;
/// Fixed footer length: catalog offset + length + CRC + end magic.
pub(crate) const FOOTER_LEN: usize = 32;

/// How a series' segments were compressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreMode {
    /// Lossless NeaTS archives: queries return the exact ingested values.
    Lossless,
    /// Lossy (NeaTS-L) archives under the given error bound: queries return
    /// ε-bounded approximations.
    Lossy {
        /// The maximum absolute error of every served value.
        eps: u64,
    },
}

impl StoreMode {
    /// Human-readable name (`lossless` / `lossy`).
    pub fn name(self) -> &'static str {
        match self {
            StoreMode::Lossless => "lossless",
            StoreMode::Lossy { .. } => "lossy",
        }
    }

    fn tag(self) -> u8 {
        match self {
            StoreMode::Lossless => 0,
            StoreMode::Lossy { .. } => 1,
        }
    }

    fn eps(self) -> u64 {
        match self {
            StoreMode::Lossless => 0,
            StoreMode::Lossy { eps } => eps,
        }
    }

    /// The mode `frame` was compressed under. A series' catalog mode is a
    /// promise about every value it serves (exact, or within `eps`), so the
    /// writer and the segment parser both hold each frame to it: flavor
    /// *and* bound must be equal.
    pub(crate) fn of(frame: &neats_core::ArchiveView<'_>) -> Self {
        match frame.eps() {
            None => StoreMode::Lossless,
            Some(eps) => StoreMode::Lossy { eps },
        }
    }
}

/// One segment's catalog entry: where its two blobs live in the pack, and
/// the index/time slice of the series it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Byte offset of the value frame (a self-checksummed container frame).
    pub(crate) data_offset: usize,
    /// Byte length of the value frame.
    pub(crate) data_len: usize,
    /// Byte offset of the timestamp blob (`u64` base + Elias-Fano).
    pub(crate) ts_offset: usize,
    /// Byte length of the timestamp blob.
    pub(crate) ts_len: usize,
    /// CRC-64/XZ of the timestamp blob.
    pub(crate) ts_crc: u64,
    /// Series-global index of the segment's first point.
    pub(crate) first_index: usize,
    /// Number of points in the segment.
    pub(crate) count: usize,
    /// First (smallest) timestamp in the segment.
    pub(crate) t_min: u64,
    /// Last (largest) timestamp in the segment.
    pub(crate) t_max: u64,
}

impl SegmentMeta {
    /// Series-global index of the segment's first point.
    pub fn first_index(&self) -> usize {
        self.first_index
    }

    /// Number of points in the segment.
    pub fn count(&self) -> usize {
        self.count
    }

    /// First timestamp covered.
    pub fn t_min(&self) -> u64 {
        self.t_min
    }

    /// Last timestamp covered.
    pub fn t_max(&self) -> u64 {
        self.t_max
    }

    /// Stored bytes of the segment (value frame + timestamp blob).
    pub fn stored_bytes(&self) -> usize {
        self.data_len + self.ts_len
    }
}

/// One series' catalog entry: its name, compression mode, and time-ordered
/// segment list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesEntry {
    pub(crate) name: String,
    pub(crate) mode: StoreMode,
    pub(crate) segments: Vec<SegmentMeta>,
}

impl SeriesEntry {
    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How the series' segments were compressed.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// Number of points across all segments.
    pub fn len(&self) -> usize {
        self.segments.last().map(|s| s.first_index + s.count).unwrap_or(0)
    }

    /// Whether the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time-ordered segment table.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// First timestamp across all segments.
    pub fn t_min(&self) -> u64 {
        self.segments.first().map(|s| s.t_min).unwrap_or(0)
    }

    /// Last timestamp across all segments.
    pub fn t_max(&self) -> u64 {
        self.segments.last().map(|s| s.t_max).unwrap_or(0)
    }

    /// Stored bytes across all segments (value frames + timestamp blobs).
    pub fn stored_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.stored_bytes()).sum()
    }
}

/// Renders the catalog bytes for `series` (without footer).
fn write_catalog(series: &[SeriesEntry]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(series.len() as u64);
    for s in series {
        w.bytes(s.name.as_bytes());
        w.u8(s.mode.tag());
        w.u64(s.mode.eps());
        w.u64(s.segments.len() as u64);
        for m in &s.segments {
            w.u64(m.data_offset as u64);
            w.u64(m.data_len as u64);
            w.u64(m.ts_offset as u64);
            w.u64(m.ts_len as u64);
            w.u64(m.ts_crc);
            w.u64(m.first_index as u64);
            w.u64(m.count as u64);
            w.u64(m.t_min);
            w.u64(m.t_max);
        }
    }
    w.finish()
}

/// Appends catalog + footer to a pack whose data region is complete,
/// returning the finished pack bytes.
pub(crate) fn seal(mut pack: Vec<u8>, series: &[SeriesEntry]) -> Vec<u8> {
    debug_assert!(pack.len() >= HEADER_LEN, "seal needs a pack with a header");
    let catalog = write_catalog(series);
    let catalog_offset = pack.len();
    let crc = crc64(&catalog);
    pack.extend_from_slice(&catalog);
    let mut f = WireWriter::new();
    f.u64(catalog_offset as u64);
    f.u64(catalog.len() as u64);
    f.u64(crc);
    f.u64(END_MAGIC);
    pack.extend_from_slice(&f.finish());
    pack
}

/// A fresh pack prefix: header only, data region empty.
pub(crate) fn empty_pack() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(PACK_MAGIC);
    w.u64(PACK_VERSION);
    w.finish()
}

/// Validates the pack framing and catalog of `data` and parses the series
/// table. Returns the entries and the catalog offset (the data region is
/// `HEADER_LEN..catalog_offset`). Every structural invariant queries rely
/// on is checked here; segment *blob* contents are validated lazily when a
/// segment is first opened.
pub(crate) fn parse_pack(data: &[u8]) -> Result<(Vec<SeriesEntry>, usize), StoreError> {
    if data.len() < HEADER_LEN + 8 + FOOTER_LEN {
        return Err(StoreError::Corrupt("pack too short"));
    }
    let mut h = WireReader::new(&data[..HEADER_LEN]);
    if h.u64()? != PACK_MAGIC {
        return Err(StoreError::Corrupt("bad pack magic"));
    }
    if h.u64()? != PACK_VERSION {
        return Err(StoreError::Corrupt("unsupported pack version"));
    }
    let mut f = WireReader::new(&data[data.len() - FOOTER_LEN..]);
    let catalog_offset = f.read_len()?;
    let catalog_len = f.read_len()?;
    let stored_crc = f.u64()?;
    if f.u64()? != END_MAGIC {
        return Err(StoreError::Corrupt("bad pack end magic"));
    }
    // The catalog must end exactly where the footer begins; a single-byte
    // corruption of either footer length field breaks this equality.
    if catalog_offset < HEADER_LEN
        || catalog_offset
            .checked_add(catalog_len)
            .map(|end| end != data.len() - FOOTER_LEN)
            .unwrap_or(true)
    {
        return Err(StoreError::Corrupt("catalog bounds"));
    }
    let catalog = &data[catalog_offset..catalog_offset + catalog_len];
    if crc64(catalog) != stored_crc {
        return Err(StoreError::Corrupt("catalog checksum mismatch"));
    }

    let mut r = WireReader::new(catalog);
    let series_count = r.read_len()?;
    let mut series = Vec::new();
    let mut seen: HashMap<String, ()> = HashMap::new();
    for _ in 0..series_count {
        let name_bytes = r.bytes_ref()?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| StoreError::Corrupt("series name not UTF-8"))?
            .to_string();
        if name.is_empty() {
            return Err(StoreError::Corrupt("empty series name"));
        }
        if seen.insert(name.clone(), ()).is_some() {
            return Err(StoreError::Corrupt("duplicate series name"));
        }
        let mode = match r.u8()? {
            0 => {
                if r.u64()? != 0 {
                    return Err(StoreError::Corrupt("lossless series with nonzero eps"));
                }
                StoreMode::Lossless
            }
            1 => StoreMode::Lossy { eps: r.u64()? },
            _ => return Err(StoreError::Corrupt("unknown series mode")),
        };
        let seg_count = r.read_len()?;
        if seg_count == 0 {
            return Err(StoreError::Corrupt("series with no segments"));
        }
        let mut segments = Vec::with_capacity(seg_count.min(1 << 20));
        let mut next_index = 0usize;
        let mut prev_t_max: Option<u64> = None;
        for _ in 0..seg_count {
            let m = SegmentMeta {
                data_offset: r.read_len()?,
                data_len: r.read_len()?,
                ts_offset: r.read_len()?,
                ts_len: r.read_len()?,
                ts_crc: r.u64()?,
                first_index: r.read_len()?,
                count: r.read_len()?,
                t_min: r.u64()?,
                t_max: r.u64()?,
            };
            if m.count == 0 {
                return Err(StoreError::Corrupt("empty segment"));
            }
            // Segments tile the series' index space contiguously from 0 and
            // partition its time span in order.
            if m.first_index != next_index {
                return Err(StoreError::Corrupt("segment index not contiguous"));
            }
            next_index = m
                .first_index
                .checked_add(m.count)
                .ok_or(StoreError::Corrupt("segment index overflow"))?;
            if m.t_min > m.t_max {
                return Err(StoreError::Corrupt("segment time span inverted"));
            }
            if let Some(p) = prev_t_max {
                if m.t_min <= p {
                    return Err(StoreError::Corrupt("segment time spans overlap"));
                }
            }
            prev_t_max = Some(m.t_max);
            // Both blobs must lie fully inside the data region.
            for (off, len) in [(m.data_offset, m.data_len), (m.ts_offset, m.ts_len)] {
                if off < HEADER_LEN
                    || off
                        .checked_add(len)
                        .map(|end| end > catalog_offset)
                        .unwrap_or(true)
                {
                    return Err(StoreError::Corrupt("segment blob out of bounds"));
                }
            }
            if m.ts_len < 8 {
                return Err(StoreError::Corrupt("timestamp blob too short"));
            }
            segments.push(m);
        }
        series.push(SeriesEntry { name, mode, segments });
    }
    if !r.is_exhausted() {
        return Err(StoreError::Corrupt("catalog trailing bytes"));
    }
    Ok((series, catalog_offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_catalog_roundtrips() {
        let pack = seal(empty_pack(), &[]);
        let (series, off) = parse_pack(&pack).unwrap();
        assert!(series.is_empty());
        assert_eq!(off, HEADER_LEN);
    }

    #[test]
    fn truncations_rejected() {
        let pack = seal(empty_pack(), &[]);
        for cut in 0..pack.len() {
            assert!(parse_pack(&pack[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn catalog_region_per_byte_corruption_rejected() {
        // The catalog region = catalog bytes + footer. Flip every byte of a
        // minimal pack; all are in the catalog region here, and every flip
        // must be rejected.
        let pack = seal(empty_pack(), &[]);
        for pos in HEADER_LEN..pack.len() {
            for bit in [1u8, 0x80] {
                let mut bad = pack.clone();
                bad[pos] ^= bit;
                assert!(parse_pack(&bad).is_err(), "flip at {pos}");
            }
        }
    }
}
