//! The repo's one benchmark: four workloads over the real `neats serve`
//! binary and the library beneath it, eleven end-to-end metrics, and a
//! layer-by-layer cost and byte stack. See `README.md` beside this crate.

pub mod bytestack;
pub mod config;
pub mod fixture;
pub mod http;
pub mod layers;
pub mod loadgen;
pub mod metrics;
pub mod pipeline;
pub mod server;
pub mod trace;
pub mod traffic;
