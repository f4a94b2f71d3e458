//! The unified codec suite behind `neats bench all`.
//!
//! [`all_codecs`] is NeaTS (lossless and lossy) and every baseline
//! compressor in the evaluation behind the workspace's one
//! `timeseries::Compressor` / `CompressedSeries` pair; [`shapes::Shape`]
//! widens the dataset matrix with adversarial inputs; [`matrix`] sweeps the
//! full cross-product, checks conformance inline, and renders the committed
//! `BENCH_all.json` / `BENCHMARKS.md` artifacts.

pub mod codecs;
pub mod matrix;
pub mod shapes;

pub use codecs::all_codecs;
pub use matrix::{run_matrix, MatrixConfig, MatrixReport};
pub use shapes::Shape;
