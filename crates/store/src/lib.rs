//! # neats-store — a multi-series, segmented packfile store
//!
//! The compressor crates serve one archive at a time; a production system
//! holds *many* series, each too long for a single archive to be the right
//! unit of compression, caching, or retention. This crate adds the container
//! layer: an append-only **packfile** holding a catalog of named series,
//! each split into time-partitioned **segments**, where every segment's
//! value column is a self-contained checksummed NeaTS container frame (the
//! `neats_core::ArchiveView` v2 frame) and its timestamp column is an
//! Elias-Fano blob.
//!
//! * [`StoreWriter`] ingests `(series, timestamps, values)` batches, splits
//!   them into bounded-size segments, and compresses all segments **in
//!   parallel** (via `neats_core::parallel`) at [`StoreWriter::finish`].
//! * [`Store`] opens a pack once into an `Arc<[u8]>` and serves every query
//!   zero-copy through borrowed [`neats_core::ArchiveView`]s, with a sharded
//!   LRU cache of opened segment views. Each segment is verified (CRCs +
//!   structure) once per `Store` value, on first touch; later cache misses
//!   only re-parse its headers, because the pack bytes are immutable.
//!   `Store` is `Send + Sync`: any number of reader threads may query it
//!   concurrently.
//! * Queries stitch across segment boundaries: [`Store::get`],
//!   [`Store::at_time`], [`Store::range`] / [`Store::range_chunks`] by
//!   index, and [`Store::range_by_time_chunks`] by time.
//! * [`StoreWriter::append_to`] extends a pack: its data region is carried
//!   over verbatim, new segments go behind it, and a fresh catalog replaces
//!   the old one. A pack only grows by what is appended.
//! * [`obs`], [`histogram`] and [`failpoint`] — the system's runtime: the
//!   metrics registry, request stage spans and trace ring, the wait-free
//!   latency histogram, and the fault-injection registry. They live in the
//!   lowest layer that records into them (the cache and the reader mark
//!   the cache and decode spans; segment open is a failpoint site), and
//!   ingest and serve use them from here.
//!
//! ## Pack layout (version 1)
//!
//! ```text
//! u64  magic            "NeaTSPAK"
//! u64  version          1
//! …    data region      segment blobs, back to back:
//!                         value frames   (self-checksummed v2 container frames)
//!                         timestamp blobs (u64 base + Elias-Fano of stamp − base)
//! …    catalog          series_count, then per series:
//!                         name, mode (lossless / lossy ε), segment table
//!                         (per segment: value-frame offset/len, timestamp
//!                          blob offset/len/CRC, first_index, count, t_min, t_max)
//! u64  catalog_offset   ┐
//! u64  catalog_len      │ footer: locates and checksums the catalog
//! u64  catalog_crc      │ (CRC-64/XZ over the catalog bytes)
//! u64  end magic        ┘ "NeaTSEND"
//! ```
//!
//! Any single-byte corruption of the catalog region (catalog bytes or
//! footer) is rejected deterministically at [`Store::open`]; corruption
//! inside a segment blob is rejected when that segment is first opened (the
//! value frame carries its own CRC-64, the timestamp blob's CRC lives in the
//! catalog) and the verdict is remembered for the life of the `Store`.
//!
//! The full byte-level offset tables, the catalog record grammar, how
//! holding a segment's view here compares to a single-archive view or
//! handle, and the `segment.rs` unsafe-lifetime invariants are documented in
//! `ARCHITECTURE.md` at the repository root; the HTTP serving layer over
//! this store is the `neats-serve` crate.
//!
//! ```
//! use neats_store::{Store, StoreConfig, StoreWriter};
//!
//! let mut w = StoreWriter::new(StoreConfig::default());
//! let stamps: Vec<u64> = (0..1000).map(|i| 1_700_000_000 + i * 60).collect();
//! let values: Vec<i64> = (0..1000).map(|k| k * k / 50).collect();
//! w.ingest("cpu", &stamps, &values).unwrap();
//! let pack = w.finish().unwrap();
//!
//! let store = Store::open(pack).unwrap();
//! assert_eq!(store.get("cpu", 123).unwrap(), values[123]);
//! assert_eq!(store.at_time("cpu", stamps[500]).unwrap(), Some(values[500]));
//! ```

// `segment` is the one module allowed `unsafe` (see its docs).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod failpoint;
mod format;
pub mod histogram;
pub mod obs;
#[allow(unsafe_code)]
mod segment;
mod store;
mod writer;

pub use cache::CacheStats;
pub use format::{SegmentMeta, SeriesEntry, StoreMode};
pub use store::{RangeScratch, Store, StoreOptions};
pub use writer::{check_stamps, StoreConfig, StoreWriter, DEFAULT_SEGMENT_POINTS};

use succinct::{EliasFano, WireError};

/// The largest timestamp a pack can hold. A segment's stamps are stored as
/// an Elias-Fano sequence rebased to the segment's first, whose universe —
/// the time span plus one — must itself fit a `u64`; reserving `u64::MAX`
/// keeps every span representable however a series is later cut into
/// segments.
pub const MAX_TIMESTAMP: u64 = EliasFano::MAX_VALUE;

/// Errors from building, opening, or querying a pack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The pack (or a segment blob) violates a structural invariant.
    Corrupt(&'static str),
    /// A wire-level decode failure (truncation, checksum mismatch, …).
    Wire(WireError),
    /// The named series is not in the catalog.
    UnknownSeries(String),
    /// An index beyond the queried dimension (point index vs series
    /// length, or segment index vs segment count).
    OutOfRange {
        /// The requested index.
        index: usize,
        /// The length of the indexed dimension.
        len: usize,
    },
    /// An index range that is inverted or beyond the series length.
    BadRange {
        /// Range start (inclusive).
        start: usize,
        /// Range end (exclusive).
        end: usize,
        /// The series length.
        len: usize,
    },
    /// An ingested batch whose timestamps do not strictly increase (within
    /// the batch, or relative to the series' last stored timestamp).
    TimestampOrder {
        /// The series being ingested.
        series: String,
        /// Position of the offending timestamp within the batch.
        index: usize,
    },
    /// An ingested timestamp above [`MAX_TIMESTAMP`].
    TimestampUnrepresentable {
        /// The series being ingested.
        series: String,
        /// Position of the offending timestamp within the batch.
        index: usize,
    },
    /// Timestamp and value columns of a batch differ in length.
    LengthMismatch {
        /// Length of the timestamp column.
        timestamps: usize,
        /// Length of the value column.
        values: usize,
    },
    /// An ingest into an existing series under a different [`StoreMode`].
    ModeMismatch {
        /// The series whose stored mode differs from the writer's config.
        series: String,
    },
    /// An ingested series name that is empty.
    EmptyName,
    /// An underlying I/O failure (path-based open/write helpers only).
    Io(String),
    /// A segment failed CRC/structural validation on load and is
    /// quarantined: queries touching it fail with this error while every
    /// other segment and series keeps serving. Sticky for the lifetime of
    /// the [`Store`] value: nothing is verified twice, pass or fail (a fresh
    /// [`Store::open`] of the pack starts with every segment unverified).
    Quarantined {
        /// The series whose segment is quarantined.
        series: String,
        /// The segment index within that series.
        segment: usize,
    },
    /// The write path is in read-only *degraded* mode after an I/O fault
    /// (`ENOSPC`, injected failpoint, …): reads keep serving, writes are
    /// rejected with this error until a background retry succeeds.
    Degraded {
        /// Human-readable description of the fault that tripped the mode.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Corrupt(what) => write!(f, "corrupt pack: {what}"),
            StoreError::Wire(e) => write!(f, "corrupt pack: {e}"),
            StoreError::UnknownSeries(name) => write!(f, "unknown series {name:?}"),
            StoreError::OutOfRange { index, len } => {
                write!(f, "index {index} out of range (length {len})")
            }
            StoreError::BadRange { start, end, len } => {
                write!(
                    f,
                    "range {start}..{end} out of bounds (series length {len})"
                )
            }
            StoreError::TimestampOrder { series, index } => {
                write!(
                    f,
                    "series {series:?}: timestamp at batch index {index} does not increase"
                )
            }
            StoreError::TimestampUnrepresentable { series, index } => {
                write!(
                    f,
                    "series {series:?}: timestamp at batch index {index} exceeds the largest storable timestamp {MAX_TIMESTAMP}"
                )
            }
            StoreError::LengthMismatch { timestamps, values } => {
                write!(f, "{timestamps} timestamps vs {values} values")
            }
            StoreError::ModeMismatch { series } => {
                write!(f, "series {series:?} was stored under a different mode")
            }
            StoreError::EmptyName => write!(f, "series name must be non-empty"),
            StoreError::Io(msg) => write!(f, "i/o error: {msg}"),
            StoreError::Quarantined { series, segment } => {
                write!(
                    f,
                    "series {series:?} segment {segment} is quarantined (failed validation)"
                )
            }
            StoreError::Degraded { reason } => {
                write!(f, "ingest degraded (read-only): {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}
