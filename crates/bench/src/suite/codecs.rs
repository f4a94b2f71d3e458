//! The roster of the benchmark matrix: every compressor in the evaluation —
//! NeaTS in all its flavours (lossless and lossy) and every
//! baseline — as a [`timeseries::Compressor`], so the matrix and the
//! conformance suite drive them identically.
//!
//! The contract a [`CompressedSeries`] archive must honour (checked by
//! [`super::matrix::check_conformance`], not merely documented):
//!
//! * exact (`eps()` is `None`): `decompress` reproduces the input exactly,
//!   `get(k)` equals `decompress()[k]`, and `scan_range` equals the slice
//!   of the full materialisation;
//! * approximate (`eps()` is `Some(ε)`): every reconstructed value is
//!   within `ε + 1` of the original (the `+1` is the floor the paper's
//!   integer-domain construction allows), and random access / range scans
//!   agree with `decompress` *exactly* — approximation error may exist, but
//!   the three read paths must tell one consistent story.

use lossless_baselines::{paper_competitors, Blockwise, Elf};
use lossy_baselines::{AdaptiveApprox, Pla};
use neats_core::{NeaTS, NeaTSCompressor};
use timeseries::{AnyCompressor, CompressedSeries, Compressor, TimeSeries};

/// The data-dependent ε every lossy contender uses: 0.5 % of the series'
/// value range, floored at 2 so flat shapes still exercise the lossy path.
/// Derived from the data so one policy covers shapes whose ranges differ by
/// fifteen orders of magnitude.
pub fn lossy_eps(ts: &TimeSeries) -> u64 {
    (ts.delta() / 200).max(2)
}

/// A roster entry that is a way of calling a compressor rather than a
/// compressor type of its own: a display name and the build.
struct Entry<F>(&'static str, F);

impl<A: CompressedSeries, F: Fn(&TimeSeries) -> A> Compressor for Entry<F> {
    type Output = A;

    fn name(&self) -> &'static str {
        self.0
    }

    fn compress(&self, ts: &TimeSeries) -> A {
        (self.1)(ts)
    }
}

/// Every contender of the matrix: four NeaTS flavours and twelve
/// baselines, each a row of `BENCHMARKS.md` and of the conformance sweep.
pub fn all_codecs() -> Vec<Box<dyn AnyCompressor>> {
    let mut v: Vec<Box<dyn AnyCompressor>> = vec![
        // --- NeaTS flavours -------------------------------------------------
        Box::new(NeaTSCompressor::neats()),
        Box::new(NeaTSCompressor::leats()),
        Box::new(NeaTSCompressor::sneats()),
        Box::new(Entry("NeaTS-L", |ts: &TimeSeries| {
            NeaTS::builder().build_lossy(ts, lossy_eps(ts))
        })),
        // --- lossy baselines ------------------------------------------------
        Box::new(Entry("PLA", |ts: &TimeSeries| Pla::compress(ts, lossy_eps(ts)))),
        Box::new(Entry("AA", |ts: &TimeSeries| AdaptiveApprox::compress(ts, lossy_eps(ts)))),
    ];
    // --- lossless baselines: the paper's nine plus Elf ----------------------
    v.extend(paper_competitors());
    v.push(Box::new(Blockwise::new(Elf)));
    v
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
        assert_eq!(neats.len(), 4, "NeaTS flavours: {names:?}");
        // Twelve baselines: ten lossless + PLA + AA.
        let baselines = names.len() - neats.len();
        assert!(baselines >= 12, "only {baselines} baselines in {names:?}");
        let elf: Box<dyn AnyCompressor> = Box::new(Blockwise::new(Elf));
        for required in paper_competitors().iter().chain([&elf]).map(|c| c.name()) {
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
