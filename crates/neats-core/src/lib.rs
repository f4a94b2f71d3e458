//! # neats-core — the NeaTS compressor
//!
//! A from-scratch implementation of *NeaTS: Nonlinear error-bounded
//! approximation for Time Series* (ICDE 2025):
//!
//! * [`fit`] — Theorem 1: optimal longest-fragment ε-approximation with
//!   linear, exponential, quadratic, radical, logarithmic, power, polynomial
//!   and Gaussian families, via a generalised O'Rourke stabbing-line
//!   algorithm.
//! * [`partition`] — Algorithm 1: the shortest-path partitioner minimising
//!   the encoded size over all `(function, ε)` choices.
//! * [`layout`] — the succinct compressed representation `⟨S, B, O, C, K,
//!   P⟩`: its encoder, and [`NeaTSCompressed`], the encoded archive plus
//!   the view over it.
//! * [`lossy`] — NeaTS-L, the lossy variant with a maximum-error guarantee.
//! * [`view`] — [`ArchiveView`], the one decoder: full decompression
//!   (Algorithm 2), O(1)-ish random access (Algorithm 3), range scans and
//!   aggregates, answered straight from serialized archive bytes.
//! * [`variants`] — LeaTS (linear-only) and SNeaTS (model selection).
//! * [`parallel`] — the std-only work-stealing fan-out behind the
//!   partitioner's stage 1, the lossy build and the store writer.
//!
//! How these modules compose into the full system (container formats, read
//! paths, threading model) is documented in `ARCHITECTURE.md` at the
//! repository root.
//!
//! ## Example
//!
//! ```
//! use neats_core::NeaTS;
//! use timeseries::{CompressedSeries, TimeSeries};
//!
//! let ts = TimeSeries::from_values((0..500).map(|k| k * k / 10).collect());
//! let compressed = NeaTS::compress(&ts);
//! assert_eq!(compressed.decompress(), ts.values());
//! assert_eq!(compressed.get(123), ts.values()[123]);
//! ```

// `owned` is the one module allowed `unsafe` (see its docs).
#![deny(unsafe_code)]
#![warn(missing_docs)]
pub mod aggregate;
pub mod fit;
pub mod layout;
pub mod lossy;
#[allow(unsafe_code)]
mod owned;
pub mod parallel;
pub mod partition;
pub mod serial;
pub mod variants;
pub mod view;

pub use aggregate::Estimate;
pub use fit::{Fragment, Kind, Params};
pub use layout::{NeaTSCompressed, RankMode};
pub use lossy::NeaTSLossy;
pub use partition::{default_epsilons, positivity_shift, Pair, Partition, PartitionConfig};
pub use serial::{frame_info, ArchiveFlavor, Section};
pub use variants::ModelSelection;
pub use view::ArchiveView;

use timeseries::{Compressor, TimeSeries};

/// Entry point for building NeaTS compressors.
pub struct NeaTS;

impl NeaTS {
    /// A builder with the paper's defaults: the linear, exponential,
    /// quadratic and radical function families, the automatic ε set
    /// `{0, 2, 4, …, 2^⌈log Δ⌉}`, and Elias-Fano fragment ranks.
    pub fn builder() -> NeaTSBuilder {
        NeaTSBuilder::default()
    }

    /// Compresses with the default configuration.
    pub fn compress(ts: &TimeSeries) -> NeaTSCompressed {
        Self::builder().build(ts)
    }

    /// The LeaTS variant: linear functions only (§IV-C1).
    pub fn leats() -> NeaTSBuilder {
        NeaTSBuilder { kinds: vec![Kind::Linear], ..Default::default() }
    }

    /// The SNeaTS variant: model selection keeps the top-5 most-used
    /// `(f, ε)` pairs from the first 10% of the data (§IV-C1).
    pub fn sneats() -> NeaTSBuilder {
        NeaTSBuilder { model_selection: Some(ModelSelection::default()), ..Default::default() }
    }
}

/// Configurable NeaTS compression pipeline.
#[derive(Clone, Debug)]
pub struct NeaTSBuilder {
    kinds: Vec<Kind>,
    epsilons: Option<Vec<u64>>,
    rank_mode: RankMode,
    model_selection: Option<ModelSelection>,
    threads: usize,
}

impl Default for NeaTSBuilder {
    fn default() -> Self {
        Self {
            kinds: Kind::NEATS_DEFAULT.to_vec(),
            epsilons: None,
            rank_mode: RankMode::default(),
            model_selection: None,
            threads: 0,
        }
    }
}

impl NeaTSBuilder {
    /// Sets the function families Algorithm 1 may choose from.
    pub fn kinds(mut self, kinds: &[Kind]) -> Self {
        assert!(!kinds.is_empty(), "need at least one function kind");
        self.kinds = kinds.to_vec();
        self
    }

    /// Sets an explicit error-bound set E (default: `{0, 2, …, 2^⌈log Δ⌉}`
    /// derived from the data range).
    pub fn epsilons(mut self, epsilons: &[u64]) -> Self {
        assert!(!epsilons.is_empty(), "need at least one epsilon");
        self.epsilons = Some(epsilons.to_vec());
        self
    }

    /// Chooses the rank structure for the fragment-start array `S`.
    pub fn rank_mode(mut self, mode: RankMode) -> Self {
        self.rank_mode = mode;
        self
    }

    /// Enables SNeaTS-style model selection.
    pub fn model_selection(mut self, policy: ModelSelection) -> Self {
        self.model_selection = Some(policy);
        self
    }

    /// Sets the worker-thread count for the partitioner's parallel stage
    /// (`0` = automatic: `NEATS_THREADS`, else all available cores). The
    /// compressed output is bit-identical for every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn epsilon_set(&self, ts: &TimeSeries) -> Vec<u64> {
        self.epsilons.clone().unwrap_or_else(|| default_epsilons(ts.delta()))
    }

    /// Runs the full lossless pipeline: shift → (optional model selection) →
    /// Algorithm 1 → succinct encoding.
    pub fn build(&self, ts: &TimeSeries) -> NeaTSCompressed {
        let values = ts.values();
        let epsilons = self.epsilon_set(ts);
        let max_eps = epsilons.iter().copied().max().unwrap_or(0);
        let shift = positivity_shift(values, max_eps);
        let cfg = match self.model_selection {
            Some(policy) if !values.is_empty() => {
                let pairs = variants::select_pairs(
                    values,
                    &self.kinds,
                    &epsilons,
                    shift,
                    policy,
                    self.threads,
                );
                PartitionConfig { pairs, ..PartitionConfig::lossless(&self.kinds, &epsilons, shift) }
            }
            _ => PartitionConfig::lossless(&self.kinds, &epsilons, shift),
        }
        .with_threads(self.threads);
        let part = partition::partition(values, &cfg);
        NeaTSCompressed::encode(values, &part, shift, self.rank_mode)
    }

    /// Runs the lossy pipeline (NeaTS-L) under the error bound `eps`.
    pub fn build_lossy(&self, ts: &TimeSeries, eps: u64) -> NeaTSLossy {
        NeaTSLossy::compress_with_threads(ts, &self.kinds, eps, self.threads)
    }
}

/// A named, reusable compressor wrapper implementing the benchmark trait.
#[derive(Clone, Debug)]
pub struct NeaTSCompressor {
    builder: NeaTSBuilder,
    name: &'static str,
}

impl NeaTSCompressor {
    /// Full NeaTS.
    pub fn neats() -> Self {
        Self { builder: NeaTS::builder(), name: "NeaTS" }
    }

    /// Linear-only LeaTS.
    pub fn leats() -> Self {
        Self { builder: NeaTS::leats(), name: "LeaTS" }
    }

    /// Model-selected SNeaTS.
    pub fn sneats() -> Self {
        Self { builder: NeaTS::sneats(), name: "SNeaTS" }
    }
}

impl Compressor for NeaTSCompressor {
    type Output = NeaTSCompressed;

    fn name(&self) -> &'static str {
        self.name
    }

    fn compress(&self, ts: &TimeSeries) -> NeaTSCompressed {
        self.builder.build(ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use timeseries::CompressedSeries;

    fn walk(n: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 0i64;
        TimeSeries::from_values((0..n).map(|_| { v += rng.random_range(-30..31); v }).collect())
    }

    #[test]
    fn default_pipeline_roundtrips() {
        let ts = walk(4000, 1);
        let c = NeaTS::compress(&ts);
        assert_eq!(c.decompress(), ts.values());
    }

    #[test]
    fn leats_roundtrips_and_uses_only_linear() {
        let ts = walk(3000, 2);
        let c = NeaTS::leats().build(&ts);
        assert_eq!(c.decompress(), ts.values());
        for (kind, count) in c.view().kind_histogram() {
            if count > 0 {
                assert_eq!(kind, Kind::Linear);
            }
        }
    }

    #[test]
    fn sneats_roundtrips() {
        let ts = walk(5000, 3);
        let c = NeaTS::sneats().build(&ts);
        assert_eq!(c.decompress(), ts.values());
    }

    #[test]
    fn sneats_no_worse_than_2x_neats_size() {
        let ts = walk(8000, 4);
        let full = NeaTS::compress(&ts);
        let fast = NeaTS::sneats().build(&ts);
        assert!(
            (fast.size_in_bytes() as f64) < 2.0 * full.size_in_bytes() as f64,
            "sneats {} vs neats {}",
            fast.size_in_bytes(),
            full.size_in_bytes()
        );
    }

    #[test]
    fn custom_epsilons_and_kinds() {
        let ts = walk(2000, 5);
        let c = NeaTS::builder()
            .kinds(&[Kind::Linear, Kind::Sqrt])
            .epsilons(&[0, 4, 16])
            .rank_mode(RankMode::BitVector)
            .build(&ts);
        assert_eq!(c.decompress(), ts.values());
    }

    #[test]
    fn compressor_trait_is_usable() {
        let ts = walk(1000, 6);
        let comp = NeaTSCompressor::neats();
        assert_eq!(comp.name(), "NeaTS");
        let out = comp.compress(&ts);
        assert_eq!(out.len(), ts.len());
        assert_eq!(out.get(500), ts.values()[500]);
    }

    #[test]
    fn empty_series_via_builder() {
        let ts = TimeSeries::from_values(vec![]);
        let c = NeaTS::compress(&ts);
        assert!(c.is_empty());
    }
}
