//! The data source behind the server: an immutable pack or a live
//! ingestion directory.
//!
//! Every endpoint is written against [`Source`]: a [`Store`] (read-only
//! packfile, the original serving mode) or an [`Ingestor`] (live
//! directory: sealed pack + mutable heads, see [`neats_ingest`]). It keeps
//! only what differs between the two:
//!
//! * the four value reads ([`Source::get`], [`Source::at_time`],
//!   [`Source::range_chunks_in`], [`Source::range_by_time_chunks_in`])
//!   forward to the backend, since a live directory stitches its heads
//!   onto the sealed answer;
//! * [`Source::summaries`] is the one catalog merge: every series and
//!   point count the server reports is derived from it;
//! * [`Source::store`] is the sealed store itself (the pack, or the live
//!   directory's current generation), whose cache, verification and
//!   quarantine counters `/stats` and `/metrics` read directly.
//!
//! Both backends share the [`StoreError`] contract, so the grammar, status
//! codes, and rendering code are identical in both modes; the only
//! live-only endpoint is `POST /write`, which answers `405` on a pack.

use neats_ingest::Ingestor;
use neats_store::{RangeScratch, SeriesSummary, Store, StoreError, StoreMode};
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
    /// timing and would not be stable across recovery). Every catalog
    /// number the server reports (`/series`, `/stats`, the
    /// `neats_store_series` / `neats_store_points` gauges) comes from here.
    pub fn summaries(&self) -> Vec<SeriesSummary> {
        match self {
            Source::Pack(s) => s.entries().iter().map(|e| e.summary()).collect(),
            Source::Live(i) => i.series_summaries(),
        }
    }

    /// The sealed store: the pack, or the live directory's current
    /// generation. Its cache, verification and quarantine counters are the
    /// ones `/stats` and `/metrics` report; on a live source they restart
    /// when a seal swaps in a new generation.
    pub fn store(&self) -> Arc<Store> {
        match self {
            Source::Pack(s) => s.clone(),
            Source::Live(i) => i.store(),
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
            move || s.store().cache_stats().hits,
        );
        let s = self.clone();
        reg.counter_fn(
            "neats_store_cache_misses_total",
            "Segment-view cache lookups that had to open the segment (current generation).",
            &[],
            move || s.store().cache_stats().misses,
        );
        let s = self.clone();
        reg.counter_fn(
            "neats_store_segment_verifications_total",
            "Segment opens that ran the O(bytes) verification (CRCs, directories, geometry): \
             once per segment touched; the other cache misses only re-parse (current generation).",
            &[],
            move || s.store().segment_verifications(),
        );
        let s = self.clone();
        reg.counter_fn(
            "neats_store_cache_evictions_total",
            "Segment views evicted to make room (LRU per shard, current generation).",
            &[],
            move || s.store().cache_stats().evictions,
        );
        let s = self.clone();
        reg.gauge_fn(
            "neats_store_cache_entries",
            "Segment views currently cached.",
            &[],
            move || s.store().cache_stats().entries as f64,
        );
        let s = self.clone();
        reg.gauge_fn(
            "neats_store_quarantined_segments",
            "Segments currently quarantined (failed validation; isolated from serving).",
            &[],
            move || s.store().quarantined_count() as f64,
        );
        let s = self.clone();
        reg.counter_fn(
            "neats_store_quarantine_events_total",
            "Quarantine insertions observed (current store generation).",
            &[],
            move || s.store().quarantined_count() as u64,
        );
        let s = self.clone();
        reg.gauge_fn("neats_store_series", "Live series count.", &[], move || {
            s.summaries().len() as f64
        });
        let s = self.clone();
        reg.gauge_fn(
            "neats_store_points",
            "Total points across all series (sealed + heads on a live source).",
            &[],
            move || s.summaries().iter().map(|e| e.points).sum::<usize>() as f64,
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
