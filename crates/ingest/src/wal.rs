//! The write-ahead log: byte layout, append handle, and torn-write replay.
//!
//! ## File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic   "NeaTSWAL" (little-endian u64)
//! 8       8     version 1
//! 16      …     records, back to back
//! ```
//!
//! Each record:
//!
//! ```text
//! offset  size  field
//! 0       4     len      payload length (little-endian u32, 1 ≤ len ≤ 2^28)
//! 4       8     crc      CRC-64/XZ of the payload bytes
//! 12      len   payload
//! ```
//!
//! The payload is wire-encoded (`succinct::WireWriter` conventions):
//!
//! ```text
//! u8   kind                      1 = append
//! bytes series                   length-prefixed UTF-8 name
//! u64s  stamps                   length-prefixed, strictly increasing
//! u64s  values                   length-prefixed, i64 two's-complement
//! ```
//!
//! Kind 2 was a series delete. No build writes it any more, and an intact
//! (CRC-valid) kind-2 record is *rejected*, not truncated: replaying past
//! it would drop the deletion, and truncating at it would drop every
//! acknowledged append logged after it.
//!
//! ## Recovery contract
//!
//! [`replay`] scans records in order and stops at the **first** record that
//! is torn (runs past end of file), fails its CRC, or decodes to invalid
//! content (unknown kind, empty name, non-UTF-8 name, mismatched column
//! lengths, non-increasing stamps, trailing payload bytes). Everything
//! before that point is returned; everything from that record's first byte
//! on is reported for truncation. A file too short to hold the 16-byte
//! header is treated as a torn header: no records, rewrite from scratch. A
//! full-size header with the wrong magic or version (the wrong file), or an
//! intact kind-2 record, is *rejected*: neither is a torn write.

use crate::manifest::sync_dir;
use neats_store::histogram::AtomicHistogram;
use neats_store::StoreError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use succinct::{crc64, WireReader, WireWriter};

/// `"NeaTSWAL"` as a little-endian u64.
pub const WAL_MAGIC: u64 = u64::from_le_bytes(*b"NeaTSWAL");
/// Current WAL format version.
pub const WAL_VERSION: u64 = 1;
/// Bytes before the first record.
pub const WAL_HEADER_LEN: usize = 16;
/// Per-record framing bytes (`u32` length + `u64` CRC).
pub const RECORD_OVERHEAD: usize = 12;
/// Upper bound on a record payload; a declared length beyond this is treated
/// as corruption rather than an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// One logical WAL operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Points appended to one series (columns have equal, non-zero length;
    /// stamps strictly increase within the record).
    Append {
        /// The series name (non-empty UTF-8).
        series: String,
        /// Per-point timestamps.
        stamps: Vec<u64>,
        /// Per-point values.
        values: Vec<i64>,
    },
}

/// The record kind an earlier build wrote for a series delete.
const KIND_DELETE: u8 = 2;

/// When `append` pushes bytes to the OS, when does it force them to disk?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record — an acknowledged append survives a crash.
    Always,
    /// `fsync` every N records (and on seal/rotation). Bounded loss window.
    EveryN(u64),
    /// Never `fsync` from the append path; only seals and rotations sync.
    Never,
}

/// The 16 header bytes of a fresh WAL.
pub fn header_bytes() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..8].copy_from_slice(&WAL_MAGIC.to_le_bytes());
    h[8..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Encodes one record (framing + payload) ready to append to a WAL.
pub fn encode_record(op: &WalOp) -> Vec<u8> {
    let WalOp::Append { series, stamps, values } = op;
    let mut w = WireWriter::new();
    w.u8(1);
    w.bytes(series.as_bytes());
    w.u64_slice(stamps);
    let as_u64: Vec<u64> = values.iter().map(|&v| v as u64).collect();
    w.u64_slice(&as_u64);
    let payload = w.finish();
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_PAYLOAD);
    let mut rec = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc64(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

/// Decodes and validates one payload. Any deviation from the grammar is an
/// error (the caller treats it as the truncation point).
fn decode_payload(payload: &[u8]) -> Result<WalOp, ()> {
    let mut r = WireReader::new(payload);
    if r.u8().map_err(|_| ())? != 1 {
        return Err(());
    }
    let name = r.bytes_ref().map_err(|_| ())?;
    let series = std::str::from_utf8(name).map_err(|_| ())?.to_string();
    let stamps = r.u64_vec().map_err(|_| ())?;
    let values: Vec<i64> = r.u64s_ref().map_err(|_| ())?.iter().map(|v| v as i64).collect();
    if series.is_empty()
        || stamps.is_empty()
        || stamps.len() != values.len()
        || stamps.windows(2).any(|w| w[1] <= w[0])
        || !r.is_exhausted()
    {
        return Err(());
    }
    Ok(WalOp::Append { series, stamps, values })
}

/// Replays a WAL image: returns the decoded operations and the number of
/// leading bytes that are valid (the prefix a recovering ingestor keeps).
///
/// * shorter than the header → `(no ops, 0)`: torn header, rewrite;
/// * wrong magic/version, or an intact record of the retired kind 2 →
///   [`StoreError::Corrupt`] (not recoverable: nothing is truncated);
/// * otherwise ops up to the first torn/corrupt/invalid record, with
///   `valid_len` pointing at that record's first byte.
pub fn replay(bytes: &[u8]) -> Result<(Vec<WalOp>, usize), StoreError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Ok((Vec::new(), 0));
    }
    let magic = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
    let version = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if magic != WAL_MAGIC {
        return Err(StoreError::Corrupt("wal: bad magic"));
    }
    if version != WAL_VERSION {
        return Err(StoreError::Corrupt("wal: unsupported version"));
    }
    let mut ops = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    loop {
        let Some(frame) = bytes.get(pos..pos + RECORD_OVERHEAD) else { break };
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let crc = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
        if len == 0 || len > MAX_PAYLOAD {
            break;
        }
        let Some(payload) = bytes.get(pos + RECORD_OVERHEAD..pos + RECORD_OVERHEAD + len) else {
            break;
        };
        if crc64(payload) != crc {
            break;
        }
        if payload[0] == KIND_DELETE {
            return Err(StoreError::Corrupt("wal: delete record (kind 2) is no longer supported"));
        }
        let Ok(op) = decode_payload(payload) else { break };
        ops.push(op);
        pos += RECORD_OVERHEAD + len;
    }
    Ok((ops, pos))
}

/// An append handle over a WAL file, applying an [`FsyncPolicy`].
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    len: u64,
    /// Records appended since the last sync (drives `EveryN`).
    unsynced: u64,
    /// Latency sinks installed by [`Self::instrument`] (nanoseconds);
    /// `None` keeps the hot path untimed.
    append_ns: Option<Arc<AtomicHistogram>>,
    sync_ns: Option<Arc<AtomicHistogram>>,
}

impl Wal {
    /// Creates (truncating) a fresh WAL at `path`: header written and
    /// synced, along with the containing directory.
    pub fn create(path: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self, StoreError> {
        if neats_store::failpoint::triggered("wal.create") {
            return Err(neats_store::failpoint::io_error("wal.create").into());
        }
        let path = path.into();
        let mut file =
            OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        file.write_all(&header_bytes())?;
        file.sync_all()?;
        if let Some(dir) = path.parent() {
            sync_dir(dir)?;
        }
        Ok(Self {
            file,
            path,
            policy,
            len: WAL_HEADER_LEN as u64,
            unsynced: 0,
            append_ns: None,
            sync_ns: None,
        })
    }

    /// Opens an existing WAL, replays it, truncates any torn suffix (or
    /// rewrites a torn header), and positions the handle for appends.
    pub fn open_replay(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<(Self, Vec<WalOp>), StoreError> {
        let path = path.into();
        let bytes = std::fs::read(&path)?;
        let (ops, valid_len) = replay(&bytes)?;
        if valid_len < WAL_HEADER_LEN {
            // Torn header: nothing recoverable, start the file over.
            let wal = Self::create(path, policy)?;
            return Ok((wal, ops));
        }
        let file = OpenOptions::new().write(true).open(&path)?;
        if (valid_len as u64) < bytes.len() as u64 {
            file.set_len(valid_len as u64)?;
            file.sync_all()?;
        }
        let mut wal = Self {
            file,
            path,
            policy,
            len: valid_len as u64,
            unsynced: 0,
            append_ns: None,
            sync_ns: None,
        };
        use std::io::Seek;
        wal.file.seek(std::io::SeekFrom::Start(wal.len))?;
        Ok((wal, ops))
    }

    /// Installs latency sinks: every [`Self::append`] records its wall
    /// time (encode + write + any policy-driven sync) into `append_ns`,
    /// and every [`Self::sync`] records the `fsync` time into `sync_ns`.
    /// Nanosecond units. Uninstrumented handles pay nothing.
    pub fn instrument(
        &mut self,
        append_ns: Arc<AtomicHistogram>,
        sync_ns: Arc<AtomicHistogram>,
    ) {
        self.append_ns = Some(append_ns);
        self.sync_ns = Some(sync_ns);
    }

    /// Appends one record, then syncs according to the policy. On success
    /// the operation is in the OS (and, under `Always`, on disk).
    pub fn append(&mut self, op: &WalOp) -> Result<(), StoreError> {
        if neats_store::failpoint::triggered("wal.append") {
            return Err(neats_store::failpoint::io_error("wal.append").into());
        }
        // The write stage of a request trace: WAL time (encode + write +
        // policy-driven fsync) on the serving thread. No-op off-request.
        let _write = neats_store::obs::stage(neats_store::obs::Stage::Write);
        let started = self.append_ns.is_some().then(std::time::Instant::now);
        let rec = encode_record(op);
        self.file.write_all(&rec)?;
        self.len += rec.len() as u64;
        self.unsynced += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        if let (Some(h), Some(t)) = (&self.append_ns, started) {
            h.record(t.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Forces everything appended so far to disk.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if neats_store::failpoint::triggered("wal.sync") {
            return Err(neats_store::failpoint::io_error("wal.sync").into());
        }
        let started = self.sync_ns.is_some().then(std::time::Instant::now);
        self.file.sync_all()?;
        self.unsynced = 0;
        if let (Some(h), Some(t)) = (&self.sync_ns, started) {
            h.record(t.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Repairs the file after a failed [`Self::append`]: truncates any
    /// partially written tail back to the last acknowledged record and
    /// re-syncs. `self.len` only advances after a fully successful write,
    /// so truncating to it is always safe — and because truncation needs
    /// no free space, this works even when the failure was `ENOSPC`.
    pub fn repair(&mut self) -> Result<(), StoreError> {
        if neats_store::failpoint::triggered("wal.repair") {
            return Err(neats_store::failpoint::io_error("wal.repair").into());
        }
        self.file.set_len(self.len)?;
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::Start(self.len))?;
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Current file length in bytes (header + committed records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the WAL holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == WAL_HEADER_LEN as u64
    }

    /// The file path this handle appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Append {
                series: "cpu".into(),
                stamps: vec![1, 5, 9],
                values: vec![-3, 0, 7],
            },
            WalOp::Append { series: "mem".into(), stamps: vec![2], values: vec![i64::MIN] },
            WalOp::Append { series: "cpu".into(), stamps: vec![11], values: vec![i64::MAX] },
        ]
    }

    fn image(ops: &[WalOp]) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        for op in ops {
            bytes.extend_from_slice(&encode_record(op));
        }
        bytes
    }

    #[test]
    fn roundtrip_and_full_consumption() {
        let ops = sample_ops();
        let bytes = image(&ops);
        let (got, valid) = replay(&bytes).unwrap();
        assert_eq!(got, ops);
        assert_eq!(valid, bytes.len());
    }

    #[test]
    fn every_truncation_recovers_a_record_prefix() {
        let ops = sample_ops();
        let bytes = image(&ops);
        // Record boundaries in the image.
        let mut boundaries = vec![WAL_HEADER_LEN];
        for op in &ops {
            boundaries.push(boundaries.last().unwrap() + encode_record(op).len());
        }
        for cut in 0..=bytes.len() {
            let (got, valid) = replay(&bytes[..cut]).unwrap();
            if cut < WAL_HEADER_LEN {
                assert_eq!(valid, 0, "cut {cut}");
                assert!(got.is_empty());
            } else {
                let keep = boundaries.iter().take_while(|&&b| b <= cut).count() - 1;
                assert_eq!(got, ops[..keep], "cut {cut}");
                assert_eq!(valid, boundaries[keep], "cut {cut}");
            }
        }
    }

    #[test]
    fn bad_header_is_rejected_not_truncated() {
        let mut bytes = image(&sample_ops());
        bytes[0] ^= 1;
        assert!(matches!(replay(&bytes), Err(StoreError::Corrupt(_))));
        let mut bytes = image(&sample_ops());
        bytes[8] = 9; // version
        assert!(matches!(replay(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn invalid_content_truncates_even_with_a_valid_crc() {
        // A record whose payload decodes but violates the grammar (stamps
        // not increasing) must stop replay at its start.
        let good = WalOp::Append { series: "s".into(), stamps: vec![1], values: vec![1] };
        let mut w = WireWriter::new();
        w.u8(1);
        w.bytes(b"s");
        w.u64_slice(&[5, 5]);
        w.u64_slice(&[1, 2]);
        let payload = w.finish();
        let mut bytes = image(std::slice::from_ref(&good));
        let start = bytes.len();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let (got, valid) = replay(&bytes).unwrap();
        assert_eq!(got, vec![good]);
        assert_eq!(valid, start);
    }

    /// A CRC-valid delete record, as an earlier build wrote it, between two
    /// appends: replay refuses the file instead of truncating at the record
    /// and losing the acknowledged append behind it.
    #[test]
    fn intact_delete_record_is_rejected_not_truncated() {
        let append = |series: &str| WalOp::Append { series: series.into(), stamps: vec![1], values: vec![1] };
        let mut w = WireWriter::new();
        w.u8(KIND_DELETE);
        w.bytes(b"cpu");
        let payload = w.finish();
        let mut bytes = image(&[append("cpu")]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&encode_record(&append("mem")));
        assert!(matches!(replay(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn file_handle_replays_its_own_appends() {
        let dir = std::env::temp_dir().join(format!("neats-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.log");
        let ops = sample_ops();
        {
            let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            assert!(!wal.is_empty());
        }
        // Reopen replays everything; a torn tail byte is truncated away.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB, 0x01]).unwrap();
        }
        let (wal, got) = Wal::open_replay(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(got, ops);
        assert_eq!(wal.len(), std::fs::metadata(&path).unwrap().len());
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
