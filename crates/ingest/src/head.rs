//! The in-memory mutable head of one series: a raw tail plus chunks
//! compressed with the configured `IngestConfig::builder`, positioned after
//! the sealed pack data.

use neats_core::NeaTSCompressed;
use timeseries::CompressedSeries;

/// Head-local storage for the points of one series that are not yet sealed
/// into the pack. Point `k` (head-local) lives either in a compressed chunk
/// (for `k < chunked_len`) or in the raw tail. `first_index` anchors the
/// head in the series' global index space: global index `first_index + k`
/// is head-local `k`, and the invariant the ingestor maintains is that
/// `first_index` equals the sealed length visible in the *same* snapshot.
pub(crate) struct Head {
    /// Series-global index of the head's first point.
    pub first_index: usize,
    /// Last timestamp sealed into the pack before this head (ordering
    /// floor when the head is empty).
    pub floor: Option<u64>,
    /// Head-local timestamps for every head point (strictly increasing).
    stamps: Vec<u64>,
    /// Compressed chunks, oldest first.
    chunks: Vec<NeaTSCompressed>,
    /// Head-local start index of each chunk.
    chunk_starts: Vec<usize>,
    /// Total points held in `chunks`.
    chunked_len: usize,
    /// Raw values for head-local positions `chunked_len..len()`.
    tail: Vec<i64>,
}

impl Head {
    pub fn new(first_index: usize, floor: Option<u64>) -> Self {
        Self {
            first_index,
            floor,
            stamps: Vec::new(),
            chunks: Vec::new(),
            chunk_starts: Vec::new(),
            chunked_len: 0,
            tail: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    pub fn chunked_len(&self) -> usize {
        self.chunked_len
    }

    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// The ordering floor for the next append: the last head stamp, or the
    /// last sealed stamp when the head is empty.
    pub fn last_stamp(&self) -> Option<u64> {
        self.stamps.last().copied().or(self.floor)
    }

    pub fn first_stamp(&self) -> Option<u64> {
        self.stamps.first().copied()
    }

    pub fn stamp(&self, k: usize) -> u64 {
        self.stamps[k]
    }

    /// Appends validated points (caller has checked ordering and lengths).
    pub fn append(&mut self, stamps: &[u64], values: &[i64]) {
        debug_assert_eq!(stamps.len(), values.len());
        debug_assert!(self
            .last_stamp()
            .map(|p| stamps.first().map(|&t| t > p).unwrap_or(true))
            .unwrap_or(true));
        self.stamps.extend_from_slice(stamps);
        self.tail.extend_from_slice(values);
    }

    /// The oldest `n` raw tail values, for compression outside the head
    /// lock; `None` if the tail is shorter.
    pub fn tail_prefix(&self, n: usize) -> Option<Vec<i64>> {
        (self.tail.len() >= n && n > 0).then(|| self.tail[..n].to_vec())
    }

    /// Installs a chunk compressed from [`Self::tail_prefix`], draining the
    /// raw values it now covers.
    pub fn install_chunk(&mut self, chunk: NeaTSCompressed) {
        let n = chunk.len();
        debug_assert!(n > 0 && n <= self.tail.len());
        self.chunk_starts.push(self.chunked_len);
        self.chunked_len += n;
        self.chunks.push(chunk);
        self.tail.drain(..n);
    }

    /// The value at head-local position `k` (caller checks `k < len()`).
    pub fn value(&self, k: usize) -> i64 {
        if k < self.chunked_len {
            let ci = self.chunk_starts.partition_point(|&s| s <= k) - 1;
            self.chunks[ci].get(k - self.chunk_starts[ci])
        } else {
            self.tail[k - self.chunked_len]
        }
    }

    /// Appends the values at head-local positions `lo..hi` to `out`.
    pub fn values_range(&self, lo: usize, hi: usize, out: &mut Vec<i64>) {
        debug_assert!(lo <= hi && hi <= self.len());
        let mut k = lo;
        while k < hi.min(self.chunked_len) {
            let ci = self.chunk_starts.partition_point(|&s| s <= k) - 1;
            let start = self.chunk_starts[ci];
            let to = (start + self.chunks[ci].len()).min(hi);
            self.chunks[ci].scan_range(k - start, to - k, out);
            k = to;
        }
        if hi > self.chunked_len {
            let from = k.max(self.chunked_len) - self.chunked_len;
            out.extend_from_slice(&self.tail[from..hi - self.chunked_len]);
        }
    }

    /// First head-local index with stamp ≥ `t`.
    pub fn lower_bound(&self, t: u64) -> usize {
        self.stamps.partition_point(|&s| s < t)
    }

    /// Number of head points with stamp ≤ `t`.
    pub fn count_leq(&self, t: u64) -> usize {
        self.stamps.partition_point(|&s| s <= t)
    }

    /// Head-local index of the point stamped exactly `t`, if any.
    pub fn index_of_time(&self, t: u64) -> Option<usize> {
        self.stamps.binary_search(&t).ok()
    }

    /// Serialises every compressed chunk with its stamps — what a seal
    /// moves into the pack.
    pub fn sealed_parts(&self) -> Vec<(Vec<u8>, Vec<u64>)> {
        self.chunks
            .iter()
            .zip(&self.chunk_starts)
            .map(|(c, &start)| (c.to_bytes(), self.stamps[start..start + c.len()].to_vec()))
            .collect()
    }

    /// The raw tail with its stamps — what a seal re-logs into the rotated
    /// WAL.
    pub fn tail_parts(&self) -> (Vec<u64>, Vec<i64>) {
        (self.stamps[self.chunked_len..].to_vec(), self.tail.clone())
    }

    /// The head as it continues after its chunks were sealed: same tail,
    /// `first_index` advanced past the sealed points, floor at the last
    /// sealed stamp.
    pub fn trimmed_after_seal(&self) -> Head {
        let floor = if self.chunked_len > 0 {
            Some(self.stamps[self.chunked_len - 1])
        } else {
            self.floor
        };
        Head {
            first_index: self.first_index + self.chunked_len,
            floor,
            stamps: self.stamps[self.chunked_len..].to_vec(),
            chunks: Vec::new(),
            chunk_starts: Vec::new(),
            chunked_len: 0,
            tail: self.tail.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neats_core::NeaTS;
    use timeseries::TimeSeries;

    fn compress(values: &[i64]) -> NeaTSCompressed {
        NeaTS::builder().threads(1).build(&TimeSeries::from_values(values.to_vec()))
    }

    #[test]
    fn mixed_chunked_and_tail_reads() {
        let mut h = Head::new(100, Some(50));
        let stamps: Vec<u64> = (0..300u64).map(|i| 51 + i * 2).collect();
        let values: Vec<i64> = (0..300).map(|k: i64| k * k % 173 - 40).collect();
        h.append(&stamps, &values);
        assert_eq!(h.last_stamp(), stamps.last().copied());

        // Roll two chunks of 128, leaving 44 in the tail.
        for _ in 0..2 {
            let raw = h.tail_prefix(128).unwrap();
            h.install_chunk(compress(&raw));
        }
        assert_eq!(h.chunked_len(), 256);
        assert_eq!(h.tail_len(), 44);
        assert_eq!(h.len(), 300);

        for k in [0usize, 127, 128, 255, 256, 299] {
            assert_eq!(h.value(k), values[k], "value({k})");
        }
        let mut out = Vec::new();
        h.values_range(100, 280, &mut out);
        assert_eq!(out, &values[100..280]);

        // Time lookups.
        assert_eq!(h.index_of_time(stamps[37]), Some(37));
        assert_eq!(h.index_of_time(stamps[37] + 1), None);
        assert_eq!(h.lower_bound(stamps[10]), 10);
        assert_eq!(h.count_leq(stamps[10]), 11);

        // Seal parts cover exactly the chunks; the trimmed head keeps the
        // tail and advances its anchor.
        let parts = h.sealed_parts();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].1, &stamps[..128]);
        let t = h.trimmed_after_seal();
        assert_eq!(t.first_index, 356);
        assert_eq!(t.len(), 44);
        assert_eq!(t.floor, Some(stamps[255]));
        assert_eq!(t.value(0), values[256]);
        let (ts, vs) = h.tail_parts();
        assert_eq!(ts, &stamps[256..]);
        assert_eq!(vs, &values[256..]);
    }

    #[test]
    fn empty_head_floor() {
        let h = Head::new(0, None);
        assert!(h.is_empty());
        assert_eq!(h.last_stamp(), None);
        let t = h.trimmed_after_seal();
        assert_eq!(t.first_index, 0);
        assert_eq!(t.floor, None);
    }
}
