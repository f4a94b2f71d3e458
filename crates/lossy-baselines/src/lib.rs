//! # lossy-baselines — the paper's lossy competitors
//!
//! * [`pla::Pla`] — optimal Piecewise Linear Approximation (O'Rourke 1981),
//!   the minimum-segment linear baseline of Table II.
//! * [`aa::AdaptiveApprox`] — the Adaptive Approximation heuristic
//!   (Xu et al., EDBT 2012) combining anchored linear, exponential, and
//!   quadratic functions, also from Table II.
//!
//! Both implement [`timeseries::CompressedSeries`] with `eps() = Some(ε)`,
//! as [`neats_core::NeaTSLossy`] does (`get` = `approximate`, `decompress`
//! = `reconstruct`; size, `max_error` and MAPE come with the trait), so the
//! Table II harness and the benchmark matrix treat the three uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod aa;
pub mod pla;

pub use aa::AdaptiveApprox;
pub use pla::Pla;
