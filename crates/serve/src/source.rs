//! The data source behind the server: an immutable pack or a live
//! ingestion directory.
//!
//! Every endpoint is written against [`Source`], which delegates each
//! query to either a [`Store`] (read-only packfile, the original serving
//! mode) or an [`Ingestor`] (live directory: sealed pack + mutable heads,
//! see [`neats_ingest`]). The two backends share the query surface and the
//! [`StoreError`] contract, so the grammar, status codes, and rendering
//! code are identical in both modes; the only live-only endpoint is
//! `POST /write`, which answers `405` on a pack.

use neats_ingest::{Ingestor, SeriesSummary};
use neats_store::{CacheStats, RangeScratch, Store, StoreError, StoreMode};
use std::ops::Range;
use std::sync::Arc;

/// What the server serves: a sealed pack or a live ingestion directory.
/// Cloning is cheap (an `Arc` bump) — metric scrape closures hold clones.
#[derive(Clone)]
pub enum Source {
    /// An immutable packfile, served zero-copy. Writes are rejected.
    Pack(Arc<Store>),
    /// A live ingestion directory: queries span sealed + head state, and
    /// `POST /write` appends.
    Live(Arc<Ingestor>),
}

impl From<Arc<Store>> for Source {
    fn from(store: Arc<Store>) -> Self {
        Source::Pack(store)
    }
}

impl From<Store> for Source {
    fn from(store: Store) -> Self {
        Source::Pack(Arc::new(store))
    }
}

impl From<Arc<Ingestor>> for Source {
    fn from(ing: Arc<Ingestor>) -> Self {
        Source::Live(ing)
    }
}

impl From<Ingestor> for Source {
    fn from(ing: Ingestor) -> Self {
        Source::Live(Arc::new(ing))
    }
}

impl Source {
    /// The live ingestor, when serving one (`None` for a pack).
    pub fn live(&self) -> Option<&Arc<Ingestor>> {
        match self {
            Source::Pack(_) => None,
            Source::Live(ing) => Some(ing),
        }
    }

    /// Whether this source accepts writes.
    pub fn is_live(&self) -> bool {
        matches!(self, Source::Live(_))
    }

    /// The value at `idx`.
    pub fn get(&self, series: &str, idx: usize) -> Result<i64, StoreError> {
        match self {
            Source::Pack(s) => s.get(series, idx),
            Source::Live(i) => i.get(series, idx),
        }
    }

    /// The value whose timestamp is exactly `t`, if any.
    pub fn at_time(&self, series: &str, t: u64) -> Result<Option<i64>, StoreError> {
        match self {
            Source::Pack(s) => s.at_time(series, t),
            Source::Live(i) => i.at_time(series, t),
        }
    }

    /// Streams the values at positions `range` in bounded chunks, decoded
    /// into the caller's `scratch`.
    pub fn range_chunks_in(
        &self,
        scratch: &mut RangeScratch,
        series: &str,
        range: Range<usize>,
        f: impl FnMut(&[i64]),
    ) -> Result<(), StoreError> {
        match self {
            Source::Pack(s) => s.range_chunks_in(scratch, series, range, f),
            Source::Live(i) => i.range_chunks_in(scratch, series, range, f),
        }
    }

    /// Streams all `(timestamp, value)` pairs with timestamp in
    /// `[t_lo, t_hi]` in bounded chunks, decoded into the caller's
    /// `scratch`.
    pub fn range_by_time_chunks_in(
        &self,
        scratch: &mut RangeScratch,
        series: &str,
        t_lo: u64,
        t_hi: u64,
        f: impl FnMut(&[(u64, i64)]),
    ) -> Result<(), StoreError> {
        match self {
            Source::Pack(s) => s.range_by_time_chunks_in(scratch, series, t_lo, t_hi, f),
            Source::Live(i) => i.range_by_time_chunks_in(scratch, series, t_lo, t_hi, f),
        }
    }

    /// Catalog summaries: pack entries in catalog order, or the live view
    /// (sealed + head, name-sorted — live catalog positions depend on seal
    /// timing and would not be stable across recovery).
    pub fn summaries(&self) -> Vec<SeriesSummary> {
        match self {
            Source::Pack(s) => s
                .entries()
                .iter()
                .map(|e| SeriesSummary {
                    name: e.name().to_string(),
                    mode: e.mode(),
                    points: e.len(),
                    segments: e.segments().len(),
                    t_min: e.t_min(),
                    t_max: e.t_max(),
                })
                .collect(),
            Source::Live(i) => i.series_summaries(),
        }
    }

    /// Number of live series.
    pub fn series_count(&self) -> usize {
        match self {
            Source::Pack(s) => s.series_count(),
            Source::Live(i) => i.series_count(),
        }
    }

    /// Total points across all series.
    pub fn total_points(&self) -> usize {
        match self {
            Source::Pack(s) => s.total_points(),
            Source::Live(i) => i.total_points(),
        }
    }

    /// Segment-view cache counters of the current generation.
    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Source::Pack(s) => s.cache_stats(),
            Source::Live(i) => i.cache_stats(),
        }
    }

    /// Times the current generation ran the O(bytes) segment verification:
    /// once per segment touched, not once per cache miss.
    pub fn segment_verifications(&self) -> u64 {
        match self {
            Source::Pack(s) => s.segment_verifications(),
            Source::Live(i) => i.segment_verifications(),
        }
    }

    /// Number of quarantined segments (failed validation on load; isolated
    /// so the rest of the store keeps serving).
    pub fn quarantined_count(&self) -> usize {
        match self {
            Source::Pack(s) => s.quarantined_count(),
            Source::Live(i) => i.quarantined_count(),
        }
    }

    /// Total quarantine insertions observed (monotone per store generation;
    /// a live source's counter restarts when a seal swaps generations).
    pub fn quarantine_events(&self) -> u64 {
        match self {
            Source::Pack(s) => s.quarantine_events(),
            Source::Live(i) => i.quarantine_events(),
        }
    }

    /// Registers the source's counters into `reg` as scrape-time closures
    /// (each holds a clone of this source). A live source additionally
    /// registers the full ingest write-path families — see
    /// [`Ingestor::register_metrics`].
    pub fn register_metrics(&self, reg: &neats_store::obs::Registry) {
        let s = self.clone();
        reg.counter_fn(
            "neats_store_cache_hits_total",
            "Segment-view cache lookups served from an open view (current generation).",
            &[],
            move || s.cache_stats().hits,
        );
        let s = self.clone();
        reg.counter_fn(
            "neats_store_cache_misses_total",
            "Segment-view cache lookups that had to open the segment (current generation).",
            &[],
            move || s.cache_stats().misses,
        );
        let s = self.clone();
        reg.counter_fn(
            "neats_store_segment_verifications_total",
            "Segment opens that ran the O(bytes) verification (CRCs, directories, geometry): \
             once per segment touched; the other cache misses only re-parse (current generation).",
            &[],
            move || s.segment_verifications(),
        );
        let s = self.clone();
        reg.counter_fn(
            "neats_store_cache_evictions_total",
            "Segment views evicted to make room (LRU per shard, current generation).",
            &[],
            move || s.cache_stats().evictions,
        );
        let s = self.clone();
        reg.gauge_fn(
            "neats_store_cache_entries",
            "Segment views currently cached.",
            &[],
            move || s.cache_stats().entries as f64,
        );
        let s = self.clone();
        reg.gauge_fn(
            "neats_store_quarantined_segments",
            "Segments currently quarantined (failed validation; isolated from serving).",
            &[],
            move || s.quarantined_count() as f64,
        );
        let s = self.clone();
        reg.counter_fn(
            "neats_store_quarantine_events_total",
            "Quarantine insertions observed (current store generation).",
            &[],
            move || s.quarantine_events(),
        );
        let s = self.clone();
        reg.gauge_fn("neats_store_series", "Live series count.", &[], move || {
            s.series_count() as f64
        });
        let s = self.clone();
        reg.gauge_fn(
            "neats_store_points",
            "Total points across all series (sealed + heads on a live source).",
            &[],
            move || s.total_points() as f64,
        );
        if let Source::Live(ing) = self {
            ing.register_metrics(reg);
        }
    }
}

/// Used by `/series` to render the `eps` field.
pub(crate) fn mode_eps(mode: StoreMode) -> u64 {
    match mode {
        StoreMode::Lossless => 0,
        StoreMode::Lossy { eps } => eps,
    }
}
