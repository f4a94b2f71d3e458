//! Where the bytes of a pack go: models → corrections → index → frame →
//! timestamps → catalog. Counted exactly, from the pack's own section
//! tables, and required to sum to the pack's length.

use neats_core::ArchiveView;
use neats_store::Store;
use succinct::WireReader;

/// One segment's value frame inside the pack bytes.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    pub offset: usize,
    pub len: usize,
    pub first_index: usize,
    pub count: usize,
}

/// Bytes of a pack by what they hold.
#[derive(Clone, Copy, Debug, Default)]
pub struct ByteStack {
    /// Function kinds, kind table, parameters, origin deltas.
    pub models: usize,
    /// Bit-packed residuals.
    pub corrections: usize,
    /// Fragment starts, correction widths and offsets.
    pub index: usize,
    /// Container frame: magic, section table, checksum, payload header.
    pub frame: usize,
    /// Elias-Fano timestamp blobs.
    pub timestamps: usize,
    /// Pack header, catalog and footer.
    pub catalog: usize,
    pub fragments: usize,
    pub values: usize,
}

impl ByteStack {
    pub fn total(&self) -> usize {
        self.models + self.corrections + self.index + self.frame + self.timestamps + self.catalog
    }

    /// The value archives alone — what the paper's ratios describe.
    pub fn value_bytes(&self) -> usize {
        self.models + self.corrections + self.index + self.frame
    }
}

/// Length of the container frame starting at `data[0]`: the fixed head,
/// the section table and the payload length it declares (layout in
/// `crates/neats-core/src/serial.rs`). The caller proves the answer right
/// by opening the slice, which checks the frame's CRC.
fn frame_len(data: &[u8]) -> Option<usize> {
    let mut r = WireReader::new(data);
    r.u64().ok()?; // magic
    r.u64().ok()?; // version
    r.u8().ok()?; // flavor
    let sections = r.read_len().ok()?;
    for _ in 0..sections {
        r.u64().ok()?;
        r.u64().ok()?;
    }
    let payload = r.read_len().ok()?;
    r.u64().ok()?; // crc
    r.pos().checked_add(payload)
}

/// Every segment's value frame (per series, in catalog order) and the byte
/// stack of the pack they sit in.
pub struct Walked {
    pub frames: Vec<Vec<Frame>>,
    pub stack: ByteStack,
}

/// Walks a freshly written pack — blobs back to back in catalog order,
/// value frame then timestamp blob — opening every frame on the way.
pub fn walk(store: &Store) -> Result<Walked, String> {
    let pack = store.as_bytes();
    let mut stack = ByteStack::default();
    let mut frames = Vec::new();
    // Pack header: magic + version.
    let mut pos = 16usize;
    for entry in store.entries() {
        let mut per_series = Vec::new();
        for seg in entry.segments() {
            let len = frame_len(&pack[pos..]).ok_or("unreadable frame head")?;
            let slice = pack.get(pos..pos + len).ok_or("frame runs past the pack")?;
            let (view, sections) = ArchiveView::open_with_sections(slice)
                .map_err(|e| format!("frame at {pos}: {e}"))?;
            if view.len() != seg.count() {
                return Err(format!(
                    "frame at {pos} holds {} values, catalog says {}",
                    view.len(),
                    seg.count()
                ));
            }
            let mut payload = 0;
            for s in &sections {
                payload += s.len;
                match s.name {
                    "corrections" => stack.corrections += s.len,
                    "starts" | "widths" | "offsets" => stack.index += s.len,
                    "header" => stack.frame += s.len,
                    _ => stack.models += s.len,
                }
            }
            stack.frame += len - payload;
            stack.timestamps += seg.stored_bytes() - len;
            stack.fragments += view.fragment_count();
            stack.values += seg.count();
            per_series.push(Frame {
                offset: pos,
                len,
                first_index: seg.first_index(),
                count: seg.count(),
            });
            pos += seg.stored_bytes();
        }
        frames.push(per_series);
    }
    stack.catalog = 16 + (pack.len() - pos);
    Ok(Walked { frames, stack })
}
