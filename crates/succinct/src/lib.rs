//! # succinct — compact data structures for the NeaTS layout
//!
//! This crate provides the succinct-data-structure substrate that the paper
//! takes from the `sdsl` and `sux` C++ libraries (§IV-A), re-implemented from
//! scratch in safe Rust:
//!
//! * [`bits::BitBuf`] — append-only, randomly-readable bit buffer (the
//!   corrections stream `C`).
//! * [`bitvec::BitVector`] — plain bitvector with constant-time `rank` and
//!   directory-guided `select` (rank9-style directory).
//! * [`elias_fano::EliasFano`] — monotone sequences with O(1) `get`, fast
//!   `rank_leq` and a sequential cursor (the arrays `S` and `O`, and the
//!   store's timestamp column).
//! * [`packed::PackedVec`] — fixed-width packed integer vectors (the array
//!   `B`, parameter arrays).
//! * [`wavelet::WaveletMatrix`] — `access`/`rank_c` over small alphabets
//!   (the function-kind string `K`).
//! * [`crc`] — the CRC-64 used by the archive container frame.
//!
//! Each structure is **one** generic type whose queries are written once
//! over *where its words live* ([`views::Words`]): `Vec<u64>` when it was
//! just built (`BitVector`, `EliasFano`, … — the default parameters; these
//! have the constructors and [`wire::Wire::write`]), or little-endian bytes
//! borrowed from a serialized archive (`BitVectorView<'a>`,
//! `EliasFanoView<'a>`, … — aliases of the same types over
//! [`views::U64sView`]; these have `read` and `validate`, and are the
//! `ArchiveView` read path of `neats-core`). Everything is monomorphised:
//! there is no second implementation to keep in step and no dynamic
//! dispatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod bits;
pub mod bitvec;
pub mod crc;
pub mod elias_fano;
pub mod packed;
pub mod views;
pub mod wavelet;
pub mod wire;

pub use bits::{bits_for, bits_for_residual_bound, BitBuf};
pub use bitvec::{BitVector, OnesIter};
pub use crc::{crc64, Crc64};
pub use elias_fano::{EliasFano, EliasFanoIter};
pub use packed::{zigzag_decode, zigzag_encode, PackedVec};
pub use views::{
    BitBufView, BitVectorView, EliasFanoIterView, EliasFanoView, Halves, OnesIterView,
    PackedVecView, U16sView, U64sView, WaveletMatrixView, Words,
};
pub use wavelet::WaveletMatrix;
pub use wire::{Wire, WireError, WireReader, WireWriter};
