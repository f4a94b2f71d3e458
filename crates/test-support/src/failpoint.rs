//! [`FailpointFile`], the crash-consistency model of the ingest fault
//! matrix: bytes written before the last effective sync barrier are
//! durable; bytes after it may survive in full, in part, or not at all. A
//! "crash image" is any prefix of the written bytes at least as long as
//! the synced length.

/// An in-memory file with write/sync recording and injectable faults.
#[derive(Clone, Debug)]
pub struct FailpointFile {
    data: Vec<u8>,
    synced_len: usize,
    /// Remaining write budget; once exhausted, writes are (partially)
    /// dropped and the file is `killed`.
    budget: Option<usize>,
    drop_syncs: bool,
    killed: bool,
}

impl Default for FailpointFile {
    fn default() -> Self {
        Self::new()
    }
}

impl FailpointFile {
    /// A file with no fault injected.
    pub fn new() -> Self {
        Self { data: Vec::new(), synced_len: 0, budget: None, drop_syncs: false, killed: false }
    }

    /// A file that accepts exactly `budget` more bytes; the write that
    /// crosses the budget is applied partially and the file dies.
    pub fn kill_after(budget: usize) -> Self {
        Self { budget: Some(budget), ..Self::new() }
    }

    /// Makes every subsequent sync a silent no-op (a misbehaving disk, or a
    /// writer configured with `FsyncPolicy::Never`).
    pub fn dropping_syncs(mut self) -> Self {
        self.drop_syncs = true;
        self
    }

    /// Appends bytes, honouring the kill budget. Returns `false` once the
    /// file has died (the write was dropped or only partially applied).
    pub fn write(&mut self, bytes: &[u8]) -> bool {
        if self.killed {
            return false;
        }
        match self.budget {
            Some(b) if b < bytes.len() => {
                self.data.extend_from_slice(&bytes[..b]);
                self.budget = Some(0);
                self.killed = true;
                false
            }
            Some(b) => {
                self.data.extend_from_slice(bytes);
                self.budget = Some(b - bytes.len());
                true
            }
            None => {
                self.data.extend_from_slice(bytes);
                true
            }
        }
    }

    /// A sync barrier: everything written so far becomes durable — unless
    /// syncs are being dropped or the file has died. Returns whether the
    /// barrier took effect.
    pub fn sync(&mut self) -> bool {
        if self.killed || self.drop_syncs {
            return false;
        }
        self.synced_len = self.data.len();
        true
    }

    /// Everything written so far (the most optimistic crash image).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Bytes guaranteed durable.
    pub fn synced_len(&self) -> usize {
        self.synced_len
    }

    /// Every crash image consistent with the model: each prefix cut from
    /// `synced_len` (nothing past the barrier survived) to the full length
    /// (everything survived).
    pub fn crash_images(&self) -> impl Iterator<Item = &[u8]> {
        (self.synced_len..=self.data.len()).map(move |cut| &self.data[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_kills_mid_write() {
        let mut f = FailpointFile::kill_after(5);
        assert!(f.write(b"abc"));
        assert!(f.sync());
        assert!(!f.write(b"defg")); // only "de" lands
        assert_eq!(f.data(), b"abcde");
        assert!(f.killed);
        assert!(!f.sync(), "a dead file cannot sync");
        assert_eq!(f.synced_len(), 3);
        assert!(!f.write(b"x"), "writes after death are dropped");
        assert_eq!(f.data(), b"abcde");
        let images: Vec<&[u8]> = f.crash_images().collect();
        assert_eq!(images, vec![&b"abc"[..], b"abcd", b"abcde"]);
    }

    #[test]
    fn dropped_syncs_leave_nothing_durable() {
        let mut f = FailpointFile::new().dropping_syncs();
        f.write(b"hello");
        assert!(!f.sync());
        assert_eq!(f.synced_len(), 0);
        assert_eq!(f.crash_images().count(), 6); // cuts 0..=5
    }
}
