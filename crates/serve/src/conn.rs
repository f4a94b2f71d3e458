//! The connection state machine: one HTTP/1.1 keep-alive connection as
//! buffers, flags and deadlines — no socket, no poller, no clock.
//!
//! A [`Connection`] is what both serving drivers run. A driver moves bytes
//! and time; everything the protocol decides lives here, once:
//!
//! * bytes the driver read go in through [`Connection::received`] (or
//!   [`Connection::peer_closed`] / [`Connection::broken`]);
//! * [`Connection::process`] finds complete heads, parses them with the
//!   strict parser in [`crate::http`], enforces the [`Limits`], waits for
//!   bodies, answers `Expect: 100-continue`, and dispatches every complete
//!   request through `handler::handle` (under the crate's one
//!   `catch_unwind` — a panicking handler answers 500 and closes) into the
//!   write buffer, pipelined requests in order;
//! * [`Connection::flush`] offers the write buffer to whatever `Write` the
//!   driver hands it and stops when that says `WouldBlock` or `TimedOut`;
//! * [`Connection::settle`] is the per-wake epilogue: it re-arms the idle /
//!   request / write deadlines against the driver's `now` and answers
//!   [`Next`] — close, or wait for read and/or write readiness until a
//!   deadline;
//! * [`Connection::expire`] applies a passed deadline (408, or a cut for a
//!   reader that stalled past the write deadline) and
//!   [`Connection::drain`] the graceful-shutdown rule.
//!
//! ## Deadlines
//!
//! Between requests a connection carries the idle deadline (408 on
//! expiry); a started request must complete within the request timeout
//! (408 — progress does not extend it, so slow-drip clients still lose);
//! and buffered response bytes must drain within the request timeout or
//! the connection is dropped and counted in `timeouts` (the write-side
//! slowloris defense — wall-clock, not per syscall).
//!
//! ## Bounded write buffer
//!
//! [`Connection::process`] stops parsing and dispatching while more than
//! [`WRITE_HIGH_WATER`] response bytes are unflushed, and [`Next::Wait`]
//! then asks for write readiness only: a peer that pipelines requests
//! without reading their answers meets TCP backpressure instead of growing
//! the server's heap. Unflushed bytes are therefore at most the high-water
//! mark plus one response (capping a *single* huge response is a separate
//! matter), and the read buffer at most one request plus one read.
//!
//! ## Shutdown
//!
//! Graceful drain: in-flight and fully-buffered pipelined requests are
//! answered with `Connection: close`; idle connections close immediately;
//! a request caught half-sent is answered `408 server shutting down`.

use crate::handler;
use crate::http::{self, HttpError, Limits, Method, Request, Response};
use crate::render::Scratch;
use crate::server::Shared;
use crate::source::Source;
use crate::stats::ServerStats;
use std::io::{ErrorKind, Write};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Unflushed response bytes above which a connection stops parsing and
/// reading until the peer takes some (see the module docs). The same
/// 1 MiB a worker's [`crate::SCRATCH_RETAIN_BYTES`] allows.
pub(crate) const WRITE_HIGH_WATER: usize = 1 << 20;

/// Compact a partially flushed write buffer once the flushed prefix
/// exceeds this many bytes (amortizes the memmove).
const WRITE_COMPACT: usize = 64 * 1024;

/// What a serving thread (reactor shard or pool worker) lends every
/// connection it runs: the source and shared server state the handler
/// reads, the limits, and the thread's own render buffers.
pub(crate) struct Env<'a> {
    pub(crate) source: &'a Source,
    pub(crate) shared: &'a Shared,
    pub(crate) limits: &'a Limits,
    /// Reported as the concurrency on `/stats`.
    pub(crate) threads: usize,
    /// Decode and body buffers lent to the handler for each request and
    /// taken back once its response is in the connection's write buffer.
    pub(crate) scratch: Scratch,
}

/// What the driver should do with the connection next.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Next {
    /// Finished, cut, or broken: release the socket.
    Close,
    /// Come back when the socket is readable (`read`) and/or writable
    /// (`write`), or at `deadline` (then call [`Connection::expire`]),
    /// whichever is first.
    Wait {
        read: bool,
        write: bool,
        deadline: Instant,
    },
}

/// A parsed head waiting for its body.
struct PendingBody {
    method: Method,
    path: String,
    query: String,
    keep_alive: bool,
    /// Body bytes still expected (`Content-Length`).
    need: usize,
    /// Size of the already-drained head, for the `bytes_in` counter.
    head_bytes: usize,
}

/// One connection's full protocol state.
pub(crate) struct Connection {
    /// Received, not-yet-parsed bytes (keep-alive pipelining keeps later
    /// requests here across dispatches).
    rbuf: Vec<u8>,
    /// Serialized responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf`.
    wpos: usize,
    pending_body: Option<PendingBody>,
    /// Idle deadline between requests, request deadline once one started.
    read_deadline: Instant,
    read_deadline_is_idle: bool,
    /// Armed while `wbuf` has unflushed bytes: the stalled-reader cutoff.
    write_deadline: Option<Instant>,
    /// Close once `wbuf` drains (error responses, `Connection: close`).
    close_after_flush: bool,
    /// Peer half-closed its send direction; no more bytes will arrive.
    eof: bool,
    /// Nothing more can be done on this socket — it failed, its reader
    /// stalled past the write deadline, or it sat idle at shutdown:
    /// [`Self::settle`] answers [`Next::Close`] whatever is buffered.
    finished: bool,
    /// A request completed since the last [`Self::settle`] (hands a
    /// pipelined successor a fresh request deadline).
    completed_this_pass: bool,
}

impl Connection {
    /// A fresh connection, idle since `now`.
    pub(crate) fn new(now: Instant, limits: &Limits) -> Self {
        Self {
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending_body: None,
            read_deadline: now + limits.idle_timeout,
            read_deadline_is_idle: true,
            write_deadline: None,
            close_after_flush: false,
            eof: false,
            finished: false,
            completed_this_pass: false,
        }
    }

    /// Response bytes not yet accepted by the socket.
    pub(crate) fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// A request has started but not finished arriving.
    fn mid_request(&self) -> bool {
        self.pending_body.is_some() || !self.rbuf.is_empty()
    }

    /// Whether the driver should read from the socket at all: not after
    /// the last response is decided, and not while the write buffer is
    /// over the high-water mark.
    pub(crate) fn wants_read(&self) -> bool {
        !(self.eof || self.close_after_flush || self.finished)
            && self.unflushed() <= WRITE_HIGH_WATER
    }

    /// The earliest armed deadline.
    pub(crate) fn next_deadline(&self) -> Instant {
        match self.write_deadline {
            // Once the last response is decided no read deadline applies.
            Some(w) if self.close_after_flush => w,
            Some(w) => w.min(self.read_deadline),
            None => self.read_deadline,
        }
    }

    /// Bytes the driver read from the socket.
    pub(crate) fn received(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
    }

    /// The peer half-closed: no more bytes will arrive.
    pub(crate) fn peer_closed(&mut self) {
        self.eof = true;
    }

    /// The socket failed; close without ceremony.
    pub(crate) fn broken(&mut self) {
        self.finished = true;
    }

    /// Appends an error response, counts it, and marks the connection for
    /// close-after-flush: answer the `HttpError`, then close.
    fn fail(&mut self, stats: &ServerStats, status: u16, reason: &str) {
        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        if status == 408 {
            stats.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        http::append_response(&mut self.wbuf, &Response::error(status, reason), false);
        self.close_after_flush = true;
        self.rbuf.clear();
        self.pending_body = None;
    }

    /// Parses and dispatches every complete request in the read buffer,
    /// pipelined ones in order, until input runs out, the connection is
    /// marked to close, or the write buffer passes [`WRITE_HIGH_WATER`].
    /// Returns whether it stopped for the last reason — the caller should
    /// come back once a flush has made room ([`Self::service`] does).
    pub(crate) fn process(&mut self, env: &mut Env<'_>) -> bool {
        let stats = &env.shared.stats;
        loop {
            if self.close_after_flush || self.finished {
                return false;
            }
            if self.unflushed() > WRITE_HIGH_WATER {
                return true;
            }
            // Body phase: wait for Content-Length bytes, then dispatch.
            if let Some(pb) = self.pending_body.take() {
                if self.rbuf.len() < pb.need {
                    self.pending_body = Some(pb);
                    if self.eof {
                        // The peer half-closed; this body can never complete.
                        self.fail(stats, 400, "truncated request body");
                    }
                    return false;
                }
                let body: Vec<u8> = self.rbuf[..pb.need].to_vec();
                self.rbuf.drain(..pb.need);
                let wire_bytes = pb.head_bytes + body.len();
                let req = Request {
                    method: pb.method,
                    path: pb.path,
                    query: pb.query,
                    keep_alive: pb.keep_alive,
                    body,
                    wire_bytes,
                };
                self.dispatch(env, req);
                continue;
            }
            // Head phase: find and parse a complete head.
            let Some(end) = http::find_head_end(&self.rbuf) else {
                if self.rbuf.len() > env.limits.max_header_bytes {
                    self.fail(stats, 431, "request head too large");
                } else if self.eof && !self.rbuf.is_empty() {
                    self.fail(stats, 400, "truncated request head");
                }
                return false;
            };
            // The limit applies even when the oversized head arrived in
            // one read, terminator and all.
            if end > env.limits.max_header_bytes {
                self.fail(stats, 431, "request head too large");
                return false;
            }
            // Arm the request trace at head parse. If this request's body
            // completes in a later wake, another connection's parse on the
            // same thread may re-arm the span in between and this request
            // loses its parse time — a bounded inaccuracy accepted for
            // running many connections per thread.
            neats_store::obs::span_begin();
            let parsed = {
                let _parse = neats_store::obs::stage(neats_store::obs::Stage::Parse);
                http::parse_head(&self.rbuf[..end])
            };
            // Drain the head even when parsing fails, so a pipelined
            // follow-up can't replay it (the connection closes anyway).
            self.rbuf.drain(..end);
            match parsed {
                Err(HttpError { status, reason }) => {
                    self.fail(stats, status, &reason);
                    return false;
                }
                Ok((method, path, query, keep_alive, content_length, expects_continue)) => {
                    if content_length > env.limits.max_body_bytes {
                        self.fail(stats, 413, "body too large");
                        return false;
                    }
                    if expects_continue && content_length > 0 {
                        // Minimal 100-continue support so curl-style
                        // clients don't stall, via the write buffer like
                        // everything else.
                        self.wbuf
                            .extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                    }
                    self.pending_body = Some(PendingBody {
                        method,
                        path,
                        query,
                        keep_alive,
                        need: content_length,
                        head_bytes: end,
                    });
                }
            }
        }
    }

    /// Runs the handler for one complete request and buffers its response.
    fn dispatch(&mut self, env: &mut Env<'_>, req: Request) {
        // A handler panic must not take down the serving thread (a shard's
        // whole slab of connections, or a slot of the fixed worker pool,
        // would die with it); the panicking request gets a 500 and its
        // connection closes.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            handler::handle(
                env.source,
                &env.shared.stats,
                &env.shared.obs,
                env.threads,
                &req,
                &mut env.scratch,
            )
        }));
        let (resp, close_after) = match result {
            Ok(resp) => (resp, false),
            Err(_) => {
                env.shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                (Response::error(500, "internal error"), true)
            }
        };
        let shutting_down = env.shared.shutdown.load(Ordering::SeqCst);
        // On shutdown, drain: requests the client already pipelined in full
        // are still answered before the close.
        let keep = req.keep_alive
            && !close_after
            && (!shutting_down || http::find_head_end(&self.rbuf).is_some());
        http::append_response(&mut self.wbuf, &resp, keep);
        env.scratch.reclaim(resp);
        self.completed_this_pass = true;
        if !keep {
            self.close_after_flush = true;
            self.rbuf.clear();
        }
    }

    /// Writes as much buffered response as `out` accepts right now:
    /// stops at `WouldBlock` (a non-blocking socket's send buffer is
    /// full) or `TimedOut` (a blocking socket's write timeout passed).
    pub(crate) fn flush(&mut self, out: &mut impl Write, stats: &ServerStats) {
        if self.finished {
            return;
        }
        while self.wpos < self.wbuf.len() {
            match out.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.finished = true;
                    return;
                }
                Ok(n) => {
                    self.wpos += n;
                    stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(_) => {
                    self.finished = true;
                    return;
                }
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > WRITE_COMPACT {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// One wake's worth of work: process, flush, and — when processing
    /// stopped at the high-water mark and the flush made room — again, so
    /// requests held back by backpressure are answered as the peer reads.
    pub(crate) fn service(&mut self, env: &mut Env<'_>, out: &mut impl Write) {
        loop {
            let held_back = self.process(env);
            self.flush(out, &env.shared.stats);
            if !held_back || self.finished || self.unflushed() > WRITE_HIGH_WATER {
                return;
            }
        }
    }

    /// The per-wake epilogue: close when finished or broken, otherwise
    /// re-arm the deadlines and say what to wait for.
    pub(crate) fn settle(&mut self, now: Instant, limits: &Limits) -> Next {
        let write_pending = self.unflushed() > 0;
        // Done when the socket is gone, the last response has drained, or
        // the peer half-closed and everything it fully sent is answered
        // (truncated partials were failed in `process`).
        if self.finished || (!write_pending && (self.close_after_flush || self.eof)) {
            return Next::Close;
        }
        // Read deadline: idle between requests, request deadline once one
        // starts. Progress never extends a running request deadline, but a
        // *completed* request hands its pipelined successor a fresh window.
        let mid = self.mid_request();
        if mid && (self.read_deadline_is_idle || self.completed_this_pass) {
            self.read_deadline = now + limits.request_timeout;
            self.read_deadline_is_idle = false;
        } else if !mid && !self.read_deadline_is_idle {
            self.read_deadline = now + limits.idle_timeout;
            self.read_deadline_is_idle = true;
        }
        self.completed_this_pass = false;
        // Write deadline: armed while response bytes are stuck in the buffer
        // (a reader that stalls past it is disconnected), cleared on drain.
        if !write_pending {
            self.write_deadline = None;
        } else if self.write_deadline.is_none() {
            self.write_deadline = Some(now + limits.request_timeout);
        }
        Next::Wait {
            read: self.wants_read(),
            write: write_pending,
            deadline: self.next_deadline(),
        }
    }

    /// Applies whichever deadline has passed at `now`; returns whether one
    /// had (the driver then flushes and settles).
    pub(crate) fn expire(&mut self, now: Instant, stats: &ServerStats) -> bool {
        if self.write_deadline.is_some_and(|w| w <= now) {
            // Stalled reader: the buffered response cannot be delivered within
            // the deadline — drop the connection (there is no point writing a
            // 408 to a peer that does not read).
            stats.timeouts.fetch_add(1, Ordering::Relaxed);
            self.finished = true;
            return true;
        }
        if !self.close_after_flush && self.read_deadline <= now {
            let reason = if self.read_deadline_is_idle {
                "idle connection timed out"
            } else {
                "request timed out"
            };
            self.fail(stats, 408, reason);
            return true;
        }
        false
    }

    /// The shutdown rule for a connection with nothing left to flush:
    /// close it if idle between requests, answer 408 if a request is
    /// caught half-sent. Returns whether it acted (the driver then flushes
    /// and settles); a connection still flushing is left to its write
    /// deadline.
    pub(crate) fn drain(&mut self, stats: &ServerStats) -> bool {
        if self.finished || self.close_after_flush || self.unflushed() > 0 {
            return false;
        }
        if self.mid_request() {
            // A request caught half-sent cannot be waited for.
            self.fail(stats, 408, "server shutting down");
        } else {
            self.finished = true;
        }
        true
    }
}

#[cfg(test)]
mod tests;
