//! The stream-codec interface and the block-wise random-access wrapper.
//!
//! Gorilla, Chimp, TSXor and the LZ codecs compress a whole stream and do
//! not support random access natively. Following the paper's protocol
//! (§IV-A2), the benchmark applies them "to blocks of 1000 consecutive
//! values" and keeps "an array that maps each block index to a pointer
//! referencing the starting byte of the block in the compressed output";
//! random access then decompresses one block.

use timeseries::{CompressedSeries, Compressor, TimeSeries};

/// Number of values per block in the paper's random-access protocol.
pub const BLOCK_SIZE: usize = 1000;

/// A sequential codec over 64-bit words.
pub trait StreamCodec: Clone {
    /// Display name for tables and figures.
    fn name(&self) -> &'static str;

    /// Encodes a word stream.
    fn encode(&self, words: &[u64]) -> Vec<u8>;

    /// Decodes exactly `n` words from `data`.
    fn decode(&self, data: &[u8], n: usize) -> Vec<u64>;

    /// Whether the codec expects IEEE-754 bit patterns (XOR family) rather
    /// than raw two's-complement integers.
    fn wants_float_bits(&self) -> bool {
        false
    }
}

/// How integer values are mapped to the codec's 64-bit words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ValueMode {
    /// `i64` reinterpreted as `u64`.
    RawBits,
    /// Value converted to the original double (`v / 10^digits`) and its IEEE
    /// bits compressed — the representation the float-oriented XOR codecs
    /// are designed for. Falls back to raw bits when a value exceeds 2⁵³.
    F64Bits(u8),
}

impl ValueMode {
    fn choose<C: StreamCodec>(codec: &C, ts: &TimeSeries) -> Self {
        let exact = ts.values().iter().all(|&v| v.unsigned_abs() < (1u64 << 53));
        if codec.wants_float_bits() && exact {
            ValueMode::F64Bits(ts.fractional_digits())
        } else {
            ValueMode::RawBits
        }
    }

    #[inline]
    fn encode_word(self, v: i64) -> u64 {
        match self {
            ValueMode::RawBits => v as u64,
            ValueMode::F64Bits(d) => (v as f64 / 10f64.powi(d as i32)).to_bits(),
        }
    }

    #[inline]
    fn decode_word(self, w: u64) -> i64 {
        match self {
            ValueMode::RawBits => w as i64,
            ValueMode::F64Bits(d) => (f64::from_bits(w) * 10f64.powi(d as i32)).round() as i64,
        }
    }
}

/// A stream codec lifted to a block-wise randomly-accessible compressor.
#[derive(Clone, Debug)]
pub struct Blockwise<C: StreamCodec> {
    codec: C,
}

impl<C: StreamCodec> Blockwise<C> {
    /// Wraps `codec` with the paper's 1000-value blocks.
    pub fn new(codec: C) -> Self {
        Self { codec }
    }
}

impl<C: StreamCodec> Compressor for Blockwise<C> {
    type Output = BlockwiseCompressed<C>;

    fn name(&self) -> &'static str {
        self.codec.name()
    }

    fn compress(&self, ts: &TimeSeries) -> BlockwiseCompressed<C> {
        let mode = ValueMode::choose(&self.codec, ts);
        let values = ts.values();
        let mut data = Vec::new();
        let mut offsets = Vec::with_capacity(values.len() / BLOCK_SIZE + 2);
        offsets.push(0u64);
        let mut words = Vec::with_capacity(BLOCK_SIZE);
        for block in values.chunks(BLOCK_SIZE) {
            words.clear();
            words.extend(block.iter().map(|&v| mode.encode_word(v)));
            let enc = self.codec.encode(&words);
            data.extend_from_slice(&enc);
            offsets.push(data.len() as u64);
        }
        data.shrink_to_fit();
        BlockwiseCompressed {
            codec: self.codec.clone(),
            mode,
            n: values.len(),
            data,
            offsets,
        }
    }
}

/// Block-compressed output with a per-block pointer array.
#[derive(Clone, Debug)]
pub struct BlockwiseCompressed<C: StreamCodec> {
    codec: C,
    mode: ValueMode,
    n: usize,
    data: Vec<u8>,
    offsets: Vec<u64>,
}

impl<C: StreamCodec> BlockwiseCompressed<C> {
    fn decode_block(&self, b: usize) -> Vec<i64> {
        let lo = self.offsets[b] as usize;
        let hi = self.offsets[b + 1] as usize;
        let count = (self.n - b * BLOCK_SIZE).min(BLOCK_SIZE);
        self.codec
            .decode(&self.data[lo..hi], count)
            .into_iter()
            .map(|w| self.mode.decode_word(w))
            .collect()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

impl<C: StreamCodec> CompressedSeries for BlockwiseCompressed<C> {
    fn len(&self) -> usize {
        self.n
    }

    fn size_in_bytes(&self) -> usize {
        // payload + block pointer array + header
        self.data.len() + self.offsets.len() * 8 + 16
    }

    fn decompress(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.n);
        for b in 0..self.block_count() {
            out.extend(self.decode_block(b));
        }
        out
    }

    fn get(&self, k: usize) -> i64 {
        debug_assert!(k < self.n);
        self.decode_block(k / BLOCK_SIZE)[k % BLOCK_SIZE]
    }

    fn scan_range(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        if count == 0 {
            return;
        }
        let end = start + count;
        debug_assert!(end <= self.n);
        let first = start / BLOCK_SIZE;
        let last = (end - 1) / BLOCK_SIZE;
        for b in first..=last {
            let block = self.decode_block(b);
            let base = b * BLOCK_SIZE;
            let lo = start.max(base) - base;
            let hi = (end.min(base + block.len())) - base;
            out.extend_from_slice(&block[lo..hi]);
        }
    }
}

/// A sequential bit reader over a byte slice (little-endian within bytes),
/// shared by the bit-oriented codecs.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Starts reading at bit 0 of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Reads `width` bits (≤ 64) as the low bits of the result.
    #[inline]
    pub fn read(&mut self, width: usize) -> u64 {
        debug_assert!(width <= 64);
        let mut out = 0u64;
        let mut got = 0usize;
        while got < width {
            let byte = self.data[self.pos / 8];
            let bit = self.pos % 8;
            let avail = 8 - bit;
            let take = avail.min(width - got);
            let chunk = ((byte >> bit) as u64) & ((1u64 << take) - 1);
            out |= chunk << got;
            got += take;
            self.pos += take;
        }
        out
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        let b = (self.data[self.pos / 8] >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        b
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// A bit writer producing a byte vector (little-endian within bytes),
/// shared by the bit-oriented codecs.
#[derive(Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit: usize, // bits used in the last byte (0 ⇒ last byte full/absent)
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `width` bits of `value` (≤ 64).
    #[inline]
    pub fn write(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        let mut done = 0usize;
        while done < width {
            if self.bit == 0 {
                self.bytes.push(0);
            }
            let space = 8 - self.bit;
            let take = space.min(width - done);
            let chunk = ((value >> done) & ((1u64 << take) - 1)) as u8;
            *self.bytes.last_mut().expect("pushed above") |= chunk << self.bit;
            self.bit = (self.bit + take) % 8;
            done += take;
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write(bit as u64, 1);
    }

    /// Finishes and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 - if self.bit == 0 { 0 } else { 8 - self.bit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial raw codec used to exercise the block-wise machinery.
    #[derive(Clone)]
    struct RawCodec;

    impl StreamCodec for RawCodec {
        fn name(&self) -> &'static str {
            "raw"
        }
        fn encode(&self, words: &[u64]) -> Vec<u8> {
            words.iter().flat_map(|w| w.to_le_bytes()).collect()
        }
        fn decode(&self, data: &[u8], n: usize) -> Vec<u64> {
            (0..n).map(|i| u64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().unwrap())).collect()
        }
    }

    #[test]
    fn blockwise_roundtrip_and_access() {
        let ts = TimeSeries::from_values((0..2500).map(|k| k * 3 - 1000).collect());
        let c = Blockwise::new(RawCodec).compress(&ts);
        assert_eq!(c.block_count(), 3);
        assert_eq!(c.decompress(), ts.values());
        for k in [0usize, 999, 1000, 1001, 2499] {
            assert_eq!(c.get(k), ts.values()[k]);
        }
        let mut out = Vec::new();
        c.scan_range(950, 200, &mut out);
        assert_eq!(out, &ts.values()[950..1150]);
    }

    #[test]
    fn blockwise_empty() {
        let ts = TimeSeries::from_values(vec![]);
        let c = Blockwise::new(RawCodec).compress(&ts);
        assert_eq!(c.len(), 0);
        assert_eq!(c.decompress(), Vec::<i64>::new());
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        let items: Vec<(u64, usize)> =
            vec![(1, 1), (0b1011, 4), (0xFFFF_FFFF, 32), (0, 7), (u64::MAX, 64), (5, 3)];
        for &(v, width) in &items {
            w.write(v, width);
        }
        let total: usize = items.iter().map(|&(_, w)| w).sum();
        assert_eq!(w.bit_len(), total);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &items {
            assert_eq!(r.read(width), v & if width == 64 { u64::MAX } else { (1 << width) - 1 });
        }
    }

    #[test]
    fn bit_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, true, false, true, false, false, false, true, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), b);
        }
    }
}
