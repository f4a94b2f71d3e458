//! # neats-ingest — the live write path for NeaTS packs
//!
//! `neats-store` builds packs offline and serves them immutably; this crate
//! adds the missing half of the system: **live ingestion** with crash
//! safety, implementing the ingestion scenario the paper sketches in §IV-C1
//! (a lightweight path when points first arrive, NeaTS compression running
//! in the background).
//!
//! An [`Ingestor`] owns a directory with three kinds of files:
//!
//! * a **pack** (`pack-NNNNNN.pack`) — an ordinary `neats_store` packfile
//!   holding everything sealed so far, served zero-copy through an
//!   [`Arc<Store>`](neats_store::Store);
//! * a **write-ahead log** (`wal-NNNNNN.log`) — length-prefixed, CRC-64'd
//!   records of every accepted append since the pack was written
//!   (see [`wal`] for the byte layout and the torn-write recovery rules);
//! * a **`MANIFEST`** — a tiny checksummed file naming the live pack and
//!   WAL. Replacing it via atomic rename is the *single commit point* of a
//!   seal: a crash on either side of the rename recovers a consistent
//!   generation.
//!
//! In memory, each series keeps a mutable **head**: recent points held as a
//! raw tail plus chunks compressed with the configured
//! [`IngestConfig::builder`] (full-pool NeaTS by default), each a
//! self-contained archive frame cut every `chunk_points` from the head's
//! sealed boundary. Chunks are cut under the writer lock — by the append
//! that fills one, and by every seal and background tick. Reopening a
//! directory compresses nothing: the WAL replays into raw tails that answer
//! at once, and the first tick cuts the same chunks the crashed process
//! held. When enough chunks accumulate, [`Ingestor::seal`] folds them into the pack as
//! pre-compressed segments — no recompression — writes a rotated WAL
//! carrying only the unsealed tails, commits the new generation, and swaps
//! the readers' view. Readers never block on any of this: a query takes one
//! brief read-lock to snapshot `(store, head)` and then runs entirely on
//! that snapshot, so concurrent queries see a consistent sealed+head world
//! even while a seal replaces the generation underneath them.
//!
//! A live directory is append-only: no API removes a series or reclaims
//! pack bytes, so a seal only ever adds segments behind the ones already
//! sealed.
//!
//! Errors are [`neats_store::StoreError`] throughout — the ingestor extends
//! the store's query surface, so it reuses its error contract (and the
//! serving layer's status mapping) rather than inventing a parallel one.
//!
//! ```
//! use neats_ingest::{Ingestor, IngestConfig};
//!
//! let dir = std::env::temp_dir().join(format!("neats-ingest-doc-{}", std::process::id()));
//! let ing = Ingestor::open(&dir, IngestConfig::default()).unwrap();
//! ing.append("cpu", &[1000, 1001, 1002], &[5, 6, 7]).unwrap();
//! assert_eq!(ing.get("cpu", 2).unwrap(), 7);
//! ing.seal().unwrap();                       // fold full chunks into the pack
//! assert_eq!(ing.get("cpu", 2).unwrap(), 7); // answers are unchanged
//! # drop(ing); std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! Live ingestion is **lossless-only**: the WAL stores exact points, heads
//! store exact points, and sealed segments are exact. Lossy compression
//! remains an offline choice (`neats store build --eps …`); appending to a
//! lossy series in an adopted pack is a
//! [`ModeMismatch`](neats_store::StoreError::ModeMismatch) error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod head;
pub mod manifest;
mod ingestor;
pub mod wal;

pub use ingestor::{BackgroundConfig, BackgroundHandle, IngestConfig, Ingestor, SeriesSummary};
pub use wal::{FsyncPolicy, WalOp};
