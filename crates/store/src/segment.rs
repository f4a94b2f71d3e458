//! An opened segment: the zero-copy value view and timestamp index,
//! borrowed from the pack's shared byte buffer.
//!
//! This is the one place the crate uses `unsafe` (the crate root denies it
//! everywhere else). A [`SegmentView`] must
//! hold both the `Arc<[u8]>` that owns the pack bytes *and* views that
//! borrow from those bytes — a self-referential pair Rust's lifetimes can't
//! express directly. The views are transmuted to `'static` internally and
//! **never exposed at that lifetime**: every accessor reborrows them at the
//! lifetime of `&self`, so callers cannot outlive the buffer.

use crate::format::{SegmentMeta, StoreMode};
use crate::StoreError;
use neats_core::ArchiveView;
use std::sync::Arc;
use succinct::{crc64, EliasFanoView, WireReader};

/// An opened segment: value archive view + timestamp index, both borrowing
/// the pack buffer kept alive by `_pack`.
///
/// Opening has two halves. [`Self::parse`] is O(sections): it reads the
/// headers of the value frame and the timestamp blob and checks them
/// against the catalog entry — point counts, time base, and the series'
/// mode: a frame of another flavor, or built under another ε than the
/// catalog advertises, is corrupt. [`Self::verify`] is O(bytes): both checksums,
/// the rank/select directories, the fragment geometry, strict timestamp
/// monotonicity and the time span. [`Self::open`] — the only entry point for
/// a segment not verified before — is one after the other. Pack bytes are
/// immutable for the life of a `Store`, so the store verifies a segment once
/// and only re-parses it on later cache misses.
pub(crate) struct SegmentView {
    /// Owns the bytes the two views below borrow. Must stay alive as long
    /// as this struct; never mutated (`Arc<[u8]>` contents are immutable).
    _pack: Arc<[u8]>,
    /// SAFETY invariant: borrows from `_pack`'s heap allocation, which is
    /// stable (moving the `Arc` does not move the bytes) and outlives this
    /// struct. Only ever reborrowed at `&self`'s lifetime.
    view: ArchiveView<'static>,
    /// SAFETY invariant: same as `view`.
    ts: EliasFanoView<'static>,
    /// First timestamp; stamps are stored rebased so the Elias-Fano
    /// universe is the segment's time *span*.
    ts_base: u64,
}

impl SegmentView {
    /// Opens and fully validates one segment of `pack`: [`Self::parse`],
    /// then [`Self::verify`].
    pub(crate) fn open(
        pack: &Arc<[u8]>,
        meta: &SegmentMeta,
        mode: StoreMode,
    ) -> Result<Self, StoreError> {
        let seg = Self::parse(pack, meta, mode)?;
        seg.verify(meta)?;
        Ok(seg)
    }

    /// Parses the headers of the value frame and the timestamp blob and
    /// checks them against the catalog entry (point counts, time base, the
    /// series' `mode`) without reading either payload. Never panics,
    /// whatever the bytes. On its own, valid only for a segment of this
    /// very `pack` buffer that already passed [`Self::open`] (see
    /// [`ArchiveView::parse`]).
    pub(crate) fn parse(
        pack: &Arc<[u8]>,
        meta: &SegmentMeta,
        mode: StoreMode,
    ) -> Result<Self, StoreError> {
        // Blob bounds were validated against the data region at catalog
        // parse time.
        let frame = &pack[meta.data_offset..meta.data_offset + meta.data_len];
        let view = ArchiveView::parse(frame)?;
        if view.len() != meta.count {
            return Err(StoreError::Corrupt("segment frame point count"));
        }
        if StoreMode::of(&view) != mode {
            return Err(StoreError::Corrupt("segment frame mode"));
        }

        let mut r = WireReader::new(Self::ts_blob(pack, meta));
        let ts_base = r.u64()?;
        let ts = EliasFanoView::read(&mut r)?;
        if !r.is_exhausted() {
            return Err(StoreError::Corrupt("timestamp blob trailing bytes"));
        }
        if ts.len() != meta.count {
            return Err(StoreError::Corrupt("timestamp count mismatch"));
        }
        if ts_base != meta.t_min {
            return Err(StoreError::Corrupt("timestamp base mismatch"));
        }

        // SAFETY: both views borrow from `pack`'s heap allocation. The
        // `Arc` clone stored alongside them keeps that allocation alive for
        // the lifetime of the returned struct, the bytes are never mutated,
        // and the accessors below reborrow the views at `&self`'s lifetime,
        // so no `'static` reference ever escapes.
        let view: ArchiveView<'static> = unsafe { std::mem::transmute(view) };
        let ts: EliasFanoView<'static> = unsafe { std::mem::transmute(ts) };
        Ok(Self { _pack: Arc::clone(pack), view, ts, ts_base })
    }

    /// Everything O(bytes): the value frame's own checksum and structure
    /// (via [`ArchiveView::verify`]), the timestamp blob's catalog-recorded
    /// CRC and its rank/select directories, strict stamp monotonicity, and
    /// the agreement of the last stamp with the catalog's time span. `meta`
    /// must be the entry this view was parsed with.
    fn verify(&self, meta: &SegmentMeta) -> Result<(), StoreError> {
        self.view.verify()?;
        if crc64(Self::ts_blob(&self._pack, meta)) != meta.ts_crc {
            return Err(StoreError::Corrupt("timestamp blob checksum mismatch"));
        }
        self.ts.validate()?;
        // `meta.count > 0` is a catalog invariant, so stamp 0 exists.
        if self.ts.get(0) != 0 {
            return Err(StoreError::Corrupt("timestamp base mismatch"));
        }
        let mut prev = 0u64;
        for (i, v) in self.ts.iter().enumerate() {
            if i > 0 && v <= prev {
                return Err(StoreError::Corrupt("timestamps not strictly increasing"));
            }
            prev = v;
        }
        if self.ts_base.checked_add(prev) != Some(meta.t_max) {
            return Err(StoreError::Corrupt("timestamp span mismatch"));
        }
        Ok(())
    }

    fn ts_blob<'p>(pack: &'p [u8], meta: &SegmentMeta) -> &'p [u8] {
        &pack[meta.ts_offset..meta.ts_offset + meta.ts_len]
    }

    /// The segment's value archive, reborrowed at `&self`'s lifetime
    /// (`ArchiveView` is covariant in its lifetime parameter).
    pub(crate) fn archive<'s>(&'s self) -> &'s ArchiveView<'s> {
        &self.view
    }

    /// The timestamp of the segment-local point `i`.
    pub(crate) fn timestamp(&self, i: usize) -> u64 {
        self.ts_base + self.ts.get(i)
    }

    /// The timestamps of the segment-local points `first..`, in order: one
    /// seek, then a sequential scan of the Elias-Fano column — the cursor a
    /// time range zips with its decoded values.
    pub(crate) fn stamps_from(&self, first: usize) -> impl Iterator<Item = u64> + '_ {
        let base = self.ts_base;
        self.ts.iter_from(first).map(move |t| base + t)
    }

    /// Number of stamps ≤ `t` in this segment (0 when `t` precedes it).
    pub(crate) fn stamps_leq(&self, t: u64) -> usize {
        if t < self.ts_base {
            return 0;
        }
        self.ts.rank_leq(t - self.ts_base)
    }

    /// Segment-local index of the first point with timestamp ≥ `t`.
    pub(crate) fn lower_bound(&self, t: u64) -> usize {
        if t <= self.ts_base {
            return 0;
        }
        self.ts.rank_leq(t - self.ts_base - 1)
    }

    /// The segment-local index holding exactly timestamp `t`, if any.
    pub(crate) fn index_of_time(&self, t: u64) -> Option<usize> {
        let r = self.stamps_leq(t);
        if r == 0 || self.timestamp(r - 1) != t {
            return None;
        }
        Some(r - 1)
    }
}
