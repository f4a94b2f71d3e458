//! # NeaTS — learned compression of nonlinear time series with random access
//!
//! This is a from-scratch Rust reproduction of the ICDE 2025 paper
//! *Learned Compression of Nonlinear Time Series With Random Access*
//! (Guerra, Vinciguerra, Boffa, Ferragina).
//!
//! The umbrella crate re-exports the whole workspace:
//!
//! * [`core`] — the NeaTS compressor itself: the generalised O'Rourke fitter
//!   (Theorem 1), the space-optimal partitioner (Algorithm 1), the compressed
//!   layout with O(1) random access (Algorithms 2–3), the lossy variant
//!   NeaTS-L, and the LeaTS / SNeaTS variants.
//! * [`store`] — the multi-series segmented packfile store: parallel batch
//!   ingestion, a checksummed catalog, and concurrent zero-copy serving
//!   with a sharded segment-view cache — the way to serve many series from
//!   one file.
//! * [`ingest`] — the live write path: a crash-safe per-series write-ahead
//!   log, in-memory mutable heads whose chunks are `NeaTS::builder()` builds,
//!   background sealing into pack segments, and generation-swapped reads so
//!   queries never block on writers.
//! * [`serve`] — the network frontend: a multi-threaded HTTP/1.1 query
//!   server over a [`store`] pack or a live [`ingest`] directory, with
//!   keep-alive, batched queries, a write endpoint, graceful shutdown, and
//!   `/stats` latency histograms (protocol spec in `docs/PROTOCOL.md`,
//!   system picture in `ARCHITECTURE.md`).
//! * [`succinct`] — bitvectors with rank/select, Elias-Fano sequences, packed
//!   integer vectors and a wavelet tree; the substrate the layout is built on.
//! * [`timeseries`] — the `TimeSeries` type, compressor traits, and the 16
//!   synthetic dataset generators mirroring the paper's evaluation corpus.
//! * [`lossy`] — the PLA and Adaptive Approximation lossy baselines.
//! * [`lossless`] — Gorilla, Chimp, Chimp128, TSXor, DAC, LeCo-style,
//!   ALP-style and two LZ77 codecs, plus the block-wise random-access wrapper.
//!
//! ## Quickstart
//!
//! ```
//! use neats::core::NeaTS;
//! use neats::timeseries::{CompressedSeries, TimeSeries};
//!
//! let values: Vec<i64> = (1..=1000).map(|x| {
//!     let x = x as f64;
//!     (40.0 * (x / 90.0).sin() + x.sqrt() * 3.0) as i64
//! }).collect();
//! let ts = TimeSeries::from_values(values.clone());
//!
//! let compressed = NeaTS::builder().build(&ts);
//! assert_eq!(compressed.len(), 1000);
//! // Lossless random access to any value without decompressing the rest:
//! assert_eq!(compressed.get(499), values[499]);
//! // Full decompression:
//! assert_eq!(compressed.decompress(), values);
//! ```

#![warn(missing_docs)]
pub use lossless_baselines as lossless;
pub use lossy_baselines as lossy;
pub use neats_core as core;
pub use neats_ingest as ingest;
pub use neats_serve as serve;
pub use neats_store as store;
pub use succinct;
pub use timeseries;
