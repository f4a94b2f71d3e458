//! The unified [`Codec`] trait: one interface over every compressor in the
//! evaluation — NeaTS in all its flavours (lossless/lossy, batch/streaming)
//! and every baseline — so the benchmark matrix and the conformance suite
//! drive them identically.
//!
//! The contract a [`CodecArchive`] must honour (checked by the conformance
//! suite, not merely documented):
//!
//! * lossless (`epsilon_for` returns `None`): `decompress` reproduces the
//!   input exactly, `random_access(k)` equals `decompress()[k]`, and
//!   `range_scan` equals the slice of the full materialisation;
//! * lossy (`epsilon_for` returns `Some(ε)`): every reconstructed value is
//!   within `ε + 1` of the original (the `+1` is the floor the paper's
//!   integer-domain construction allows), and random access / range scans
//!   agree with `decompress` *exactly* — approximation error may exist, but
//!   the three read paths must tell one consistent story.

use lossless_baselines::{Alp, Blockwise, Chimp, Chimp128, Dac, Elf, EntropyLz, FastLz, Gorilla, Leco, TsXor};
use lossy_baselines::{AdaptiveApprox, Pla};
use neats_core::{NeaTS, NeaTSBuilder, NeaTSLossy, NeaTSWriter};
use timeseries::{AnyCompressor, CompressedSeries, TimeSeries};

/// A compressed archive produced by a [`Codec`], exposing the four read
/// paths the paper evaluates.
pub trait CodecArchive {
    /// Number of points in the original series.
    fn len(&self) -> usize;
    /// Total compressed size in bytes, including access structures.
    fn size_in_bytes(&self) -> usize;
    /// The `k`-th value (0-based) — the paper's O(1) random-access query.
    fn random_access(&self, k: usize) -> i64;
    /// Appends values in `[start, start + count)` to `out`.
    fn range_scan(&self, start: usize, count: usize, out: &mut Vec<i64>);
    /// Materialises the whole series.
    fn decompress(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len());
        self.range_scan(0, self.len(), &mut out);
        out
    }
}

/// One contender of the benchmark/conformance matrix.
pub trait Codec {
    /// Display name, stable across runs (keys the committed JSON records).
    fn name(&self) -> &'static str;

    /// The error bound this codec will use for `ts`: `None` for lossless
    /// codecs (exact reproduction required), `Some(ε)` for lossy ones
    /// (|x − x̂| ≤ ε + 1 required). Lossy codecs derive ε from the data so
    /// one policy covers shapes whose ranges differ by fifteen orders of
    /// magnitude.
    fn epsilon_for(&self, ts: &TimeSeries) -> Option<u64>;

    /// Compresses `ts` into an archive.
    fn compress(&self, ts: &TimeSeries) -> Box<dyn CodecArchive>;
}

/// The data-dependent ε every lossy contender uses: 0.5 % of the series'
/// value range, floored at 2 so flat shapes still exercise the lossy path.
pub fn lossy_eps(ts: &TimeSeries) -> u64 {
    (ts.delta() / 200).max(2)
}

// ---------------------------------------------------------------------------
// Archives
// ---------------------------------------------------------------------------

/// Adapter: anything implementing the workspace's [`CompressedSeries`] is a
/// [`CodecArchive`] (covers every lossless baseline, the lossless NeaTS
/// flavours and the streaming `ChunkedNeaTS`).
struct SeriesArchive(Box<dyn CompressedSeries>);

impl CodecArchive for SeriesArchive {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn size_in_bytes(&self) -> usize {
        self.0.size_in_bytes()
    }
    fn random_access(&self, k: usize) -> i64 {
        self.0.get(k)
    }
    fn range_scan(&self, start: usize, count: usize, out: &mut Vec<i64>) {
        self.0.scan_range(start, count, out);
    }
    fn decompress(&self) -> Vec<i64> {
        self.0.decompress()
    }
}

/// Lossy archives (NeaTS-L, PLA, AA) share one adapter shape; a range scan
/// is the type's own where it has one, else one random access per index.
macro_rules! lossy_archive {
    ($name:ident, $inner:ty) => {
        lossy_archive!($name, $inner, |a: &$inner, start, count, out: &mut Vec<i64>| {
            out.extend((start..start + count).map(|k| a.approximate(k)))
        });
    };
    ($name:ident, $inner:ty, $scan:expr) => {
        struct $name($inner);
        impl CodecArchive for $name {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn size_in_bytes(&self) -> usize {
                self.0.size_in_bytes()
            }
            fn random_access(&self, k: usize) -> i64 {
                self.0.approximate(k)
            }
            fn range_scan(&self, start: usize, count: usize, out: &mut Vec<i64>) {
                ($scan)(&self.0, start, count, out)
            }
            fn decompress(&self) -> Vec<i64> {
                self.0.reconstruct()
            }
        }
    };
}

lossy_archive!(NeaTSLossyArchive, NeaTSLossy, |a: &NeaTSLossy, start, count, out| {
    a.view().scan_range(start, count, out)
});
lossy_archive!(PlaArchive, Pla);
lossy_archive!(AaArchive, AdaptiveApprox);

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// Any [`AnyCompressor`] (the ten lossless baselines) as a [`Codec`].
struct Baseline(Box<dyn AnyCompressor>);

impl Codec for Baseline {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn epsilon_for(&self, _ts: &TimeSeries) -> Option<u64> {
        None
    }
    fn compress(&self, ts: &TimeSeries) -> Box<dyn CodecArchive> {
        Box::new(SeriesArchive(self.0.compress_boxed(ts)))
    }
}

/// A lossless NeaTS flavour (NeaTS / LeaTS / SNeaTS).
struct NeaTSCodec {
    name: &'static str,
    builder: NeaTSBuilder,
}

impl Codec for NeaTSCodec {
    fn name(&self) -> &'static str {
        self.name
    }
    fn epsilon_for(&self, _ts: &TimeSeries) -> Option<u64> {
        None
    }
    fn compress(&self, ts: &TimeSeries) -> Box<dyn CodecArchive> {
        Box::new(SeriesArchive(Box::new(self.builder.build(ts))))
    }
}

/// The lossy NeaTS flavour.
struct NeaTSLossyCodec;

impl Codec for NeaTSLossyCodec {
    fn name(&self) -> &'static str {
        "NeaTS-L"
    }
    fn epsilon_for(&self, ts: &TimeSeries) -> Option<u64> {
        Some(lossy_eps(ts))
    }
    fn compress(&self, ts: &TimeSeries) -> Box<dyn CodecArchive> {
        Box::new(NeaTSLossyArchive(NeaTS::builder().build_lossy(ts, lossy_eps(ts))))
    }
}

/// SNeaTS streaming ingestion: values pushed through [`NeaTSWriter`] in
/// batches, finished into a [`ChunkedNeaTS`]. Exercises the chunked build
/// path rather than the batch partitioner.
struct StreamingCodec;

impl Codec for StreamingCodec {
    fn name(&self) -> &'static str {
        "NeaTS-stream"
    }
    fn epsilon_for(&self, _ts: &TimeSeries) -> Option<u64> {
        None
    }
    fn compress(&self, ts: &TimeSeries) -> Box<dyn CodecArchive> {
        let mut w = NeaTSWriter::with_defaults();
        w.extend(ts.values().iter().copied());
        Box::new(SeriesArchive(Box::new(w.finish())))
    }
}

/// The two lossy baselines.
struct PlaCodec;

impl Codec for PlaCodec {
    fn name(&self) -> &'static str {
        "PLA"
    }
    fn epsilon_for(&self, ts: &TimeSeries) -> Option<u64> {
        Some(lossy_eps(ts))
    }
    fn compress(&self, ts: &TimeSeries) -> Box<dyn CodecArchive> {
        Box::new(PlaArchive(Pla::compress(ts, lossy_eps(ts))))
    }
}

struct AaCodec;

impl Codec for AaCodec {
    fn name(&self) -> &'static str {
        "AA"
    }
    fn epsilon_for(&self, ts: &TimeSeries) -> Option<u64> {
        Some(lossy_eps(ts))
    }
    fn compress(&self, ts: &TimeSeries) -> Box<dyn CodecArchive> {
        Box::new(AaArchive(AdaptiveApprox::compress(ts, lossy_eps(ts))))
    }
}

/// Every contender of the matrix: five NeaTS flavours and twelve
/// baselines, each a row of `BENCHMARKS.md` and of the conformance sweep.
pub fn all_codecs() -> Vec<Box<dyn Codec>> {
    let mut v: Vec<Box<dyn Codec>> = vec![
        // --- NeaTS flavours -------------------------------------------------
        Box::new(NeaTSCodec { name: "NeaTS", builder: NeaTS::builder() }),
        Box::new(NeaTSCodec { name: "LeaTS", builder: NeaTS::leats() }),
        Box::new(NeaTSCodec { name: "SNeaTS", builder: NeaTS::sneats() }),
        Box::new(StreamingCodec),
        Box::new(NeaTSLossyCodec),
        // --- lossy baselines ------------------------------------------------
        Box::new(PlaCodec),
        Box::new(AaCodec),
    ];
    // --- lossless baselines: the paper's nine plus Elf ----------------------
    for comp in lossless_baselines::paper_competitors() {
        v.push(Box::new(Baseline(comp)));
    }
    v.push(Box::new(Baseline(Box::new(Blockwise::new(Elf)))));
    v
}

/// Names of the lossless baselines, for asserting roster completeness.
pub fn baseline_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> =
        lossless_baselines::paper_competitors().iter().map(|c| c.name()).collect();
    names.push(Blockwise::new(Elf).name());
    names
}

// Keep the unused-import lint honest: the concrete baseline types are named
// here so rustdoc links resolve and the roster above stays greppable.
#[allow(dead_code)]
fn _roster_types() -> (Alp, Chimp, Chimp128, Dac, EntropyLz, FastLz, Gorilla, Leco, TsXor) {
    (Alp, Chimp, Chimp128, Dac::default(), EntropyLz::default(), FastLz, Gorilla, Leco, TsXor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::shapes::Shape;

    #[test]
    fn roster_covers_neats_flavours_and_twelve_baselines() {
        let codecs = all_codecs();
        let names: Vec<&str> = codecs.iter().map(|c| c.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate codec names: {names:?}");

        let neats: Vec<&&str> = names.iter().filter(|n| n.contains("NeaTS") || n.contains("eaTS")).collect();
        assert_eq!(neats.len(), 5, "NeaTS flavours: {names:?}");
        // Twelve baselines: ten lossless + PLA + AA.
        let baselines = names.len() - neats.len();
        assert!(baselines >= 12, "only {baselines} baselines in {names:?}");
        for required in baseline_names() {
            assert!(names.contains(&required), "{required} missing from roster");
        }
    }

    #[test]
    fn lossy_eps_floors_and_scales() {
        let flat = Shape::Constant.generate(100);
        assert_eq!(lossy_eps(&flat), 2);
        let wild = Shape::Extreme.generate(5000);
        assert!(lossy_eps(&wild) > 1 << 40);
    }
}
