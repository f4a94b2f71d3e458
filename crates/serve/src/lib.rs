//! # neats-serve — the HTTP query server over the pack store
//!
//! The paper's headline feature — random access into learned-compressed
//! series — pays off at system scale when queries are served concurrently
//! over the wire. This crate is that serving frontend: a std-only (zero
//! dependencies beyond the workspace) TCP server — one connection state
//! machine, driven by an epoll readiness reactor on Linux and by a
//! thread-per-connection pool where there is no poller — that mounts a
//! packfile via [`neats_store::Store`] and speaks a minimal HTTP/1.1
//! subset:
//!
//! | Endpoint | Answer |
//! |---|---|
//! | `GET /series` | the catalog, as JSON |
//! | `GET /q/<series>?idx=K` \| `?idx=A..B` \| `?t=T` \| `?t=A..B` | one query, plain text |
//! | `POST /q` | many queries (one per body line), one framed response |
//! | `POST /write` | live point ingestion (one `<series> <t> <v>` per line) |
//! | `GET /stats` | cache hit rate + per-endpoint latency percentiles, JSON |
//! | `GET /metrics` | every counter, Prometheus text exposition (0.0.4) |
//! | `GET /debug/requests` | recent requests with per-stage timings, JSON |
//!
//! The server mounts a [`Source`]: either a read-only packfile
//! ([`neats_store::Store`], the original mode — `POST /write` answers 405)
//! or a live ingestion directory ([`neats_ingest::Ingestor`]), where
//! queries span sealed + head state and writes are crash-safe through the
//! WAL.
//!
//! The exact request/response grammar, status codes, and batch frame format
//! are specified in `docs/PROTOCOL.md` at the repository root, with `curl`
//! examples mirrored by the loopback integration test; the system-level
//! picture (how this layer sits on `store` → `neats-core` → `succinct`)
//! is in `ARCHITECTURE.md`.
//!
//! ## Design
//!
//! * **One server, two drivers** — one accept loop and one sans-I/O
//!   connection state machine (the `conn` module: strict parsing, limits,
//!   pipelining, `100-continue`, idle / request / write deadlines, a
//!   bounded write buffer, the shutdown-drain rule) run under whichever
//!   driver the platform gives; a driver only moves bytes and time. Which
//!   one is observed at [`Server::bind`] ([`Server::mode`]), not
//!   configured. [`ServeConfig::threads`] is the serving-thread count
//!   under either (`0` = all cores).
//! * **The readiness driver** (Linux) — the accept loop round-robins
//!   admitted connections into per-shard inboxes; each serving thread
//!   multiplexes *all* of its connections over one epoll instance (the
//!   std-only `polling` shim in `vendor/`): a slab of non-blocking
//!   sockets, oneshot interest re-armed as each connection asks, and a
//!   timer wheel of deadlines — an idle keep-alive connection costs a
//!   slab entry, never a thread, and a stalled reader is disconnected at
//!   the write deadline.
//! * **The blocking driver** (no poller) — [`Server::run`] feeds a
//!   closeable queue drained by `threads` workers
//!   (the crate's private `queue` module); one worker runs a connection's
//!   state machine for its keep-alive lifetime, waking at most every
//!   [`ServeConfig::poll_interval`] for deadlines and shutdown.
//! * **Zero-copy serving, one rendering path** — every shard/worker
//!   borrows the one `Arc<Store>`; responses are rendered straight from the
//!   store's zero-copy [`neats_core::ArchiveView`]s via
//!   [`neats_store::Store::range_chunks_in`], so *decode* buffers are
//!   bounded by one segment regardless of range length (the rendered text
//!   body is still accumulated in full for `Content-Length` framing). Every
//!   integer goes through one table-driven formatter, and the decode and
//!   body buffers are the worker's own [`Scratch`], lent to the handler per
//!   request: a range request allocates nothing in steady state, and what
//!   a worker retains is bounded by [`SCRATCH_RETAIN_BYTES`].
//! * **Keep-alive & pipelining** — connections serve any number of
//!   requests; buffered pipelined requests are handled in order.
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] (the
//!   SIGTERM-equivalent hook) stops the accept loop, drains accepted
//!   connections, finishes in-flight requests (a half-received request is
//!   answered 408), then [`Server::run`] returns with the open-connection
//!   counter at exactly zero.
//! * **Observability** — every counter lives in one
//!   [`neats_store::obs::Registry`] built at [`Server::bind`]: per-endpoint
//!   request/error counters and latency histograms
//!   ([`neats_store::histogram::AtomicHistogram`]), connection/byte counters, the
//!   store's cache counters, and — on a live source — the ingest
//!   write-path families (WAL append/fsync latency, seal durations,
//!   degraded transitions). `/stats` renders them as JSON, `GET /metrics`
//!   as Prometheus text, both reading the same atomics. Each request is
//!   traced through stage spans (parse → route → cache → decode → render →
//!   write) into a fixed-size lock-free ring served at
//!   `GET /debug/requests`; requests over the slow-query threshold
//!   ([`ServeConfig::slow_query_us`]) are counted, flagged in the ring,
//!   and logged to stderr; the ring holds [`ServeConfig::trace_ring`]
//!   requests.
//!
//! ## Ingest → serve → query roundtrip
//!
//! ```
//! use neats_serve::{ServeConfig, Server};
//! use neats_store::{Store, StoreConfig, StoreWriter};
//! use std::io::{Read, Write};
//! use std::sync::Arc;
//!
//! // Ingest: build a pack with one series.
//! let mut w = StoreWriter::new(StoreConfig::default());
//! let stamps: Vec<u64> = (0..100).map(|i| 1_000 + i * 60).collect();
//! let values: Vec<i64> = (0..100).map(|k: i64| k * k % 83).collect();
//! w.ingest("cpu", &stamps, &values).unwrap();
//! let store = Arc::new(Store::open(w.finish().unwrap()).unwrap());
//!
//! // Serve: bind an ephemeral port and run the server on its own thread.
//! let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let running = std::thread::spawn(move || server.run());
//!
//! // Query: a point lookup over plain HTTP/1.1.
//! let mut conn = std::net::TcpStream::connect(addr).unwrap();
//! conn.write_all(b"GET /q/cpu?idx=42 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! let body = response.split("\r\n\r\n").nth(1).unwrap();
//! assert_eq!(body.trim().parse::<i64>().unwrap(), store.get("cpu", 42).unwrap());
//!
//! // Shut down gracefully; run() returns after the drain.
//! handle.shutdown();
//! running.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod handler;
mod http;
mod queue;
mod reactor;
mod render;
mod server;
mod source;
mod stats;

pub use http::{Limits, Method, Request, Response};
pub use render::{Scratch, SCRATCH_RETAIN_BYTES};
pub use server::{ServeConfig, Server, ServerHandle, MAX_CONNS_ENV, SHED_WATERMARK_ENV};
pub use source::Source;
pub use stats::{Endpoint, EndpointStats, ServerStats};
