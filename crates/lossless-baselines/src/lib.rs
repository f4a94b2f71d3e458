//! # lossless-baselines — the paper's lossless competitors, from scratch
//!
//! Every special-purpose compressor of Table III plus the two general-purpose
//! stand-ins, all implementing the workspace's
//! [`timeseries::Compressor`]/[`timeseries::CompressedSeries`] interface:
//!
//! | Module | Compressor | Random access |
//! |---|---|---|
//! | [`gorilla`] | Gorilla XOR (VLDB 2015) | block-wise |
//! | [`chimp`] | Chimp & Chimp128 (VLDB 2022) | block-wise |
//! | [`tsxor`] | TSXor (SPIRE 2021) | block-wise |
//! | [`dac`] | Directly Addressable Codes (IP&M 2013) | native |
//! | [`elf`] | Elf-style erasing compression (VLDB 2023) | block-wise |
//! | [`leco`] | LeCo-style learned compression (SIGMOD 2024) | native |
//! | [`alp`] | ALP-style pseudodecimal (SIGMOD 2024) | native |
//! | [`lz`] | FastLz (Lz4/Snappy class), EntropyLz (Zstd/Xz class) | block-wise |
//!
//! Stream codecs without native random access are lifted with
//! [`stream::Blockwise`], the paper's 1000-value-block protocol (§IV-A2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod alp;
pub mod chimp;
pub mod dac;
pub mod elf;
pub mod gorilla;
pub mod huffman;
pub mod leco;
pub mod lz;
pub mod stream;
pub mod tsxor;

pub use alp::Alp;
pub use chimp::{Chimp, Chimp128};
pub use dac::Dac;
pub use elf::Elf;
pub use gorilla::Gorilla;
pub use leco::Leco;
pub use lz::{EntropyLz, FastLz};
pub use stream::{Blockwise, StreamCodec, BLOCK_SIZE};
pub use tsxor::TsXor;

use timeseries::AnyCompressor;

/// Every lossless competitor of the paper's evaluation, in Table III column
/// order, ready for uniform benchmarking. Stream codecs are pre-wrapped in
/// the 1000-value block protocol.
pub fn paper_competitors() -> Vec<Box<dyn AnyCompressor>> {
    vec![
        Box::new(Blockwise::new(EntropyLz::default())), // Xz/Brotli/Zstd class
        Box::new(Blockwise::new(FastLz)),               // Lz4/Snappy class
        Box::new(Blockwise::new(Chimp128)),
        Box::new(Blockwise::new(Chimp)),
        Box::new(Blockwise::new(TsXor)),
        Box::new(Dac::default()),
        Box::new(Blockwise::new(Gorilla)),
        Box::new(Leco),
        Box::new(Alp),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use timeseries::{Dataset, TimeSeries};

    /// Cross-compressor conformance: every competitor round-trips every
    /// dataset generator and supports consistent random access.
    #[test]
    fn all_competitors_roundtrip_all_datasets() {
        for ds in Dataset::ALL {
            let ts = ds.generate(2500);
            for comp in paper_competitors() {
                let c = comp.compress_boxed(&ts);
                assert_eq!(c.len(), ts.len(), "{} on {}", comp.name(), ds.abbrev());
                assert_eq!(
                    c.decompress(),
                    ts.values(),
                    "{} decompress on {}",
                    comp.name(),
                    ds.abbrev()
                );
                for k in [0usize, 1, 999, 1000, 2499] {
                    assert_eq!(c.get(k), ts.values()[k], "{} get({k}) on {}", comp.name(), ds.abbrev());
                }
            }
        }
    }

    #[test]
    fn scan_range_consistency() {
        let ts = Dataset::StocksUsa.generate(3000);
        let mut rng = StdRng::seed_from_u64(1);
        for comp in paper_competitors() {
            let c = comp.compress_boxed(&ts);
            for _ in 0..20 {
                let s = rng.random_range(0..ts.len());
                let l = rng.random_range(0..(ts.len() - s).min(500));
                let mut out = Vec::new();
                c.scan_range(s, l, &mut out);
                assert_eq!(out, &ts.values()[s..s + l], "{} scan", comp.name());
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let comps = paper_competitors();
        let mut names: Vec<&str> = comps.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), comps.len());
    }

    #[test]
    fn sizes_are_positive_and_reported() {
        let ts = TimeSeries::from_values((0..2000).map(|k| k * 7 % 1000).collect());
        for comp in paper_competitors() {
            let c = comp.compress_boxed(&ts);
            assert!(c.size_in_bytes() > 0, "{}", comp.name());
        }
    }
}
