//! A sharded LRU cache of opened segment views.
//!
//! The first open of a segment costs two CRC passes plus structural
//! validation over the whole blob; every later open of it (the store
//! remembers which segments it has verified — pack bytes are immutable)
//! costs a header parse and an allocation, about a microsecond; serving a
//! point query from an opened view costs a handful of rank/select probes.
//! A server answering many queries against a working set of segments
//! therefore still wants opened views kept around.
//!
//! The cache is sharded to keep lock hold times short under concurrent
//! readers: a Fibonacci hash of the (series, segment) key picks one of up
//! to [`MAX_SHARDS`] independently locked maps, so every open view exists
//! at most once and the whole capacity is usable from any number of
//! threads. Eviction is least-recently-used per shard (exact LRU via a
//! monotone global tick; the per-shard scan is over at most
//! `capacity / shards` entries).

use crate::segment::SegmentView;
use crate::StoreError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum number of independently locked shards (fewer when the requested
/// capacity is smaller, so tiny caches still respect their bound).
const MAX_SHARDS: usize = 8;

/// Cache key: (series index, segment index) within the catalog.
pub(crate) type SegKey = (u32, u32);

#[derive(Default)]
struct Shard {
    entries: HashMap<SegKey, (u64, Arc<SegmentView>)>,
}

/// Hit/miss counters and current size of a store's segment-view cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-open view.
    pub hits: u64,
    /// Lookups that had to open the segment: verify + parse on its first
    /// touch, parse alone afterwards (`Store::segment_verifications` counts
    /// the former).
    pub misses: u64,
    /// Entries evicted to make room (LRU per shard).
    pub evictions: u64,
    /// Views currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

pub(crate) struct SegmentCache {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard; 0 disables caching entirely.
    shard_cap: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SegmentCache {
    /// A cache for about `capacity` opened views in total (`capacity == 0`
    /// disables caching: every lookup re-parses). The capacity is divided
    /// over the shards, so the bound is per shard: a working set that
    /// hashes unevenly can hold slightly more than `capacity` in total
    /// (at most `capacity + shards − 1`) and thrash a shard before the
    /// whole budget is used — the standard sharded-LRU trade-off for
    /// short lock hold times.
    pub(crate) fn new(capacity: usize) -> Self {
        // Tiny caches get one entry per shard and exactly `capacity`
        // shards, so their documented bound stays exact.
        let shards = MAX_SHARDS.min(capacity.max(1));
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: if capacity == 0 {
                0
            } else {
                capacity.div_ceil(shards)
            },
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: SegKey) -> usize {
        // Fibonacci hash of the packed key; series and segment indices are
        // both small and sequential, so multiply-shift spreads them well.
        let packed = ((key.0 as u64) << 32) | key.1 as u64;
        (packed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    /// Returns the cached view for `key`, or opens one with `open`,
    /// caches, and returns it. `open` runs outside the shard lock, so a
    /// slow first-touch verification never blocks readers of other segments
    /// in the same shard; two racing misses on one key may both open, and the later
    /// insert wins — harmless, since views of the same bytes are
    /// interchangeable.
    pub(crate) fn get_or_open(
        &self,
        key: SegKey,
        open: impl FnOnce() -> Result<SegmentView, StoreError>,
    ) -> Result<Arc<SegmentView>, StoreError> {
        if self.shard_cap > 0 {
            let _probe = crate::obs::stage(crate::obs::Stage::Cache);
            let mut shard = self.shards[self.shard_of(key)].lock().expect("cache lock");
            if let Some((stamp, view)) = shard.entries.get_mut(&key) {
                *stamp = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(view));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let view = {
            // Opening (verify + parse on first touch, parse alone after):
            // the "segment decode" stage of a request trace.
            let _decode = crate::obs::stage(crate::obs::Stage::Decode);
            Arc::new(open()?)
        };
        if self.shard_cap > 0 {
            let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
            let mut shard = self.shards[self.shard_of(key)].lock().expect("cache lock");
            if shard.entries.len() >= self.shard_cap && !shard.entries.contains_key(&key) {
                // Evict the least-recently-used entry of this shard.
                if let Some(&lru) = shard
                    .entries
                    .iter()
                    .min_by_key(|(_, (s, _))| *s)
                    .map(|(k, _)| k)
                {
                    shard.entries.remove(&lru);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            shard.entries.insert(key, (stamp, Arc::clone(&view)));
        }
        Ok(view)
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache lock").entries.len())
                .sum(),
        }
    }
}
