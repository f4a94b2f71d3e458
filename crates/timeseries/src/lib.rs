//! # timeseries — types, traits, and evaluation datasets
//!
//! Shared foundation of the NeaTS workspace:
//!
//! * [`types::TimeSeries`] — integer time series with implicit timestamps
//!   `1..=n` and decimal-scaling metadata (paper Definition 1).
//! * [`types::Compressor`] / [`types::CompressedSeries`] — the uniform
//!   interface every compressor in the evaluation implements (compress,
//!   decompress, random access, range scan). Lossy archives implement it
//!   too: [`types::CompressedSeries::eps`] says which contract an archive
//!   was built under — `None` is exact, `Some(ε)` is within `ε + 1`.
//! * [`datasets::Dataset`] — deterministic synthetic stand-ins for the 16
//!   real-world datasets of the paper's evaluation (§IV-A1).
//! * [`io`] — loading real fixed-precision text data with the paper's
//!   `× 10^digits` transform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod datasets;
pub mod gen;
pub mod io;
pub mod types;

pub use datasets::Dataset;
pub use types::{
    checked_scale, compression_ratio_pct, mape_pct, AnyCompressor, CompressedSeries, Compressor,
    TimeSeries, ValueError, ValueErrorKind,
};
