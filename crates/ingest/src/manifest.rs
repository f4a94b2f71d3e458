//! The `MANIFEST` file: which pack and WAL are live, committed atomically.
//!
//! Layout (wire conventions, then a trailing CRC):
//!
//! ```text
//! u64   magic     "NeaTSMAN"
//! u64   version   1
//! u64   epoch     generation counter, bumped by every seal
//! bytes pack      file name of the live pack (length-prefixed UTF-8)
//! bytes wal       file name of the live WAL
//! u64   crc       CRC-64/XZ of all preceding bytes
//! ```
//!
//! [`Manifest::write_to`] writes `MANIFEST.tmp`, syncs it, renames it over
//! `MANIFEST`, and syncs the directory. The rename is the commit point: a
//! crash before it leaves the old manifest (and the old pack + WAL, which
//! are never modified in place); a crash after it leaves the new one. Any
//! other corruption of the manifest is a hard error — unlike a torn WAL
//! tail, a damaged manifest means the commit protocol was violated.

use neats_store::StoreError;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use succinct::{crc64, WireReader, WireWriter};

/// `"NeaTSMAN"` as a little-endian u64.
pub const MANIFEST_MAGIC: u64 = u64::from_le_bytes(*b"NeaTSMAN");
/// Current manifest format version.
pub const MANIFEST_VERSION: u64 = 1;
/// The manifest file name inside an ingest directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// The decoded manifest: the live generation's file names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Generation counter (fresh directories start at 0).
    pub epoch: u64,
    /// File name of the live pack, relative to the ingest directory.
    pub pack: String,
    /// File name of the live WAL, relative to the ingest directory.
    pub wal: String,
}

/// Canonical pack file name for a generation.
pub fn pack_name(epoch: u64) -> String {
    format!("pack-{epoch:06}.pack")
}

/// Canonical WAL file name for a generation.
pub fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch:06}.log")
}

/// Best-effort `fsync` of a directory so a rename or create is durable.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    if neats_store::failpoint::triggered("dir.sync") {
        return Err(neats_store::failpoint::io_error("dir.sync"));
    }
    // Directory fsync is a POSIX-ism; *opening* may fail on exotic
    // filesystems, in which case the rename is still ordered by the
    // file-level syncs around it. A failed `sync_all` on an opened
    // directory handle is a real durability fault though — a rename that
    // never reaches the directory block can roll back on power loss — so
    // it must propagate to the caller instead of being swallowed.
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

impl Manifest {
    /// Serialises the manifest (including the trailing CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(MANIFEST_MAGIC);
        w.u64(MANIFEST_VERSION);
        w.u64(self.epoch);
        w.bytes(self.pack.as_bytes());
        w.bytes(self.wal.as_bytes());
        let crc = crc64(w.as_slice());
        w.u64(crc);
        w.finish()
    }

    /// Parses and validates a manifest image.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < 8 {
            return Err(StoreError::Corrupt("manifest: truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let crc = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if crc64(body) != crc {
            return Err(StoreError::Corrupt("manifest: checksum mismatch"));
        }
        let mut r = WireReader::new(body);
        if r.u64()? != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt("manifest: bad magic"));
        }
        if r.u64()? != MANIFEST_VERSION {
            return Err(StoreError::Corrupt("manifest: unsupported version"));
        }
        let epoch = r.u64()?;
        let pack = String::from_utf8(r.bytes()?)
            .map_err(|_| StoreError::Corrupt("manifest: pack name not UTF-8"))?;
        let wal = String::from_utf8(r.bytes()?)
            .map_err(|_| StoreError::Corrupt("manifest: wal name not UTF-8"))?;
        if pack.is_empty() || wal.is_empty() {
            return Err(StoreError::Corrupt("manifest: empty file name"));
        }
        if !r.is_exhausted() {
            return Err(StoreError::Corrupt("manifest: trailing bytes"));
        }
        Ok(Self { epoch, pack, wal })
    }

    /// Atomically installs this manifest in `dir` (tmp + fsync + rename +
    /// directory fsync). On return the new generation is committed.
    pub fn write_to(&self, dir: &Path) -> Result<(), StoreError> {
        if neats_store::failpoint::triggered("manifest.commit") {
            return Err(neats_store::failpoint::io_error("manifest.commit").into());
        }
        let tmp = dir.join(MANIFEST_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        // The rename is the commit point, but it is only durable once the
        // directory block carrying it is on disk — a swallowed error here
        // would ack a generation that can vanish on power loss.
        sync_dir(dir)?;
        Ok(())
    }

    /// Reads the manifest from `dir`; `None` if the directory has none yet
    /// (a fresh directory). A stale `MANIFEST.tmp` from an interrupted
    /// commit is removed.
    pub fn read_from(dir: &Path) -> Result<Option<Self>, StoreError> {
        let _ = fs::remove_file(dir.join(MANIFEST_TMP));
        let path = dir.join(MANIFEST_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Self::decode(&bytes).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_every_byte_flip_rejected() {
        let m = Manifest { epoch: 7, pack: pack_name(7), wal: wal_name(7) };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(Manifest::decode(&bad).is_err(), "flip at byte {i} bit {bit} accepted");
            }
        }
        for cut in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn write_read_cycle() {
        let dir =
            std::env::temp_dir().join(format!("neats-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::read_from(&dir).unwrap(), None);
        let m = Manifest { epoch: 1, pack: pack_name(1), wal: wal_name(1) };
        m.write_to(&dir).unwrap();
        assert_eq!(Manifest::read_from(&dir).unwrap(), Some(m.clone()));
        // A later manifest replaces it atomically.
        let m2 = Manifest { epoch: 2, ..m };
        m2.write_to(&dir).unwrap();
        assert_eq!(Manifest::read_from(&dir).unwrap(), Some(m2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
