//! The epoll readiness reactor: shard-per-core event-driven serving.
//!
//! This is the C10K answer to the thread-per-connection capacity bug: a
//! worker that *owns* a keep-alive connection is held hostage by an idle
//! client, so W idle clients (W = pool size) make the server unreachable.
//! Here no thread owns a connection. The accept loop deals admitted
//! connections round-robin to `shards` event-loop threads; each shard owns
//! an epoll [`Poller`] (via the `vendor/polling` syscall shim), a slab of
//! non-blocking connections, and a timer wheel of idle/request/write
//! deadlines. An idle connection costs one slab slot and one wheel entry —
//! ten thousand of them leave every shard free to answer the next request
//! the moment its bytes arrive.
//!
//! ## Per-connection state machine
//!
//! Readiness events drive the same strict parser as the blocking path
//! (`http::find_head_end` / `http::parse_head` — both written to take a
//! byte slice precisely so the two paths cannot diverge): bytes accumulate
//! in a read buffer, complete heads are parsed, bodies waited for, and
//! every complete request is dispatched inline through `handler::handle`
//! (wrapped in `catch_unwind` — a panicking handler answers 500 and closes,
//! same as the threaded path). Responses serialize into a per-connection
//! write buffer flushed opportunistically; when the socket's send buffer
//! fills (a slow or stalled reader), the remainder waits for
//! write-readiness — the shard moves on instead of blocking.
//!
//! ## Deadlines
//!
//! The 50 ms read-timeout poll tick of the blocking path is replaced by a
//! timer wheel (coarse slots, lazy re-check on fire): between requests a
//! connection carries the idle deadline (408 on expiry), a started request
//! must complete within the request timeout (408 — progress does not
//! extend it, so slow-drip clients still lose), and buffered response
//! bytes must drain within the request timeout or the connection is
//! dropped (the write-side slowloris defense the blocking path can only
//! approximate with per-syscall timeouts).
//!
//! ## Shutdown
//!
//! Graceful drain preserves the PR 5–7 contract: in-flight and
//! fully-buffered pipelined requests are answered with
//! `Connection: close`; idle connections close immediately; a request
//! caught half-sent is answered 408 like the blocking path. The shard
//! exits once its slab is empty.

use crate::handler;
use crate::http::{self, HttpError, Limits, Method, Request, Response};
use crate::render::Scratch;
use crate::server::{shed_connection, ServeConfig, Shared};
use crate::source::Source;
use neats_core::parallel::Queue;
use polling::{Event, Events, Poller};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one `Poller::wait`, so a shard re-checks the shutdown
/// flag even if the wake-up notify is somehow lost.
const MAX_WAIT: Duration = Duration::from_millis(500);

/// Bytes read from one connection per readiness event before yielding to
/// the rest of the shard — fairness against a fast bulk sender.
const READ_BUDGET: usize = 64 * 1024;

/// Compact a partially flushed write buffer once the flushed prefix
/// exceeds this many bytes (amortizes the memmove).
const WRITE_COMPACT: usize = 64 * 1024;

/// One accepted connection handed to a shard but not yet registered.
type Inbox = Queue<TcpStream>;

struct ReactorShard {
    poller: Poller,
    inbox: Inbox,
}

/// Runs the reactor until shutdown: the calling thread accepts, `shards`
/// scoped threads run event loops. Fails with `Unsupported` *before*
/// touching the listener when the platform has no epoll, so the caller can
/// fall back to the threaded path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    listener: &TcpListener,
    source: &Source,
    shared: &Arc<Shared>,
    cfg: &ServeConfig,
    limits: &Limits,
    shards: usize,
    max_conns: u64,
    watermark: u64,
) -> std::io::Result<()> {
    // Probe epoll first: every shard gets its own poller, and a platform
    // without epoll fails here with the listener untouched.
    let shards: Vec<ReactorShard> = (0..shards.max(1))
        .map(|_| {
            Ok(ReactorShard {
                poller: Poller::new()?,
                inbox: Inbox::new(),
            })
        })
        .collect::<std::io::Result<_>>()?;
    std::thread::scope(|s| {
        for (idx, shard) in shards.iter().enumerate() {
            let n = shards.len();
            s.spawn(move || shard_loop(shard, idx, source, shared, limits, n));
        }
        // The accept loop mirrors the threaded path: non-blocking accept
        // with a short tick so shutdown is observed even if the wake-up
        // connect never lands, and admission control sheds past the
        // connection cap (or an inbox backlog past the watermark — only
        // possible when the event loops themselves have stalled).
        let accept_tick = Duration::from_millis(2).min(cfg.poll_interval);
        let nonblocking = listener.set_nonblocking(true).is_ok();
        let mut next_shard = 0usize;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((conn, _peer)) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break; // likely the wake-up connection; drop it
                    }
                    if conn.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if shared.open_conns.load(Ordering::Relaxed) >= max_conns
                        || shared.queued.load(Ordering::Relaxed) >= watermark
                    {
                        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                        shed_connection(conn);
                        continue;
                    }
                    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    shared.open_conns.fetch_add(1, Ordering::Relaxed);
                    shared.queued.fetch_add(1, Ordering::Relaxed);
                    let shard = &shards[next_shard % shards.len()];
                    next_shard = next_shard.wrapping_add(1);
                    if !shard.inbox.push(conn) {
                        // Closed between the shutdown check and the push:
                        // the connection was dropped, never registered.
                        // Undo the optimistic accounting or /stats lies for
                        // the whole drain.
                        shared.stats.accepted.fetch_sub(1, Ordering::Relaxed);
                        shared.open_conns.fetch_sub(1, Ordering::Relaxed);
                        shared.queued.fetch_sub(1, Ordering::Relaxed);
                        break;
                    }
                    let _ = shard.poller.notify();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock && nonblocking => {
                    std::thread::sleep(accept_tick);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion): back
                    // off briefly instead of spinning.
                    std::thread::sleep(cfg.poll_interval);
                }
            }
        }
        shared.accept_exited.store(true, Ordering::SeqCst);
        for shard in &shards {
            shard.inbox.close();
            let _ = shard.poller.notify();
        }
    });
    Ok(())
}

/// What a connection is waiting to read.
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

/// One registered connection's full state.
struct ConnState {
    stream: TcpStream,
    /// Received, not-yet-parsed bytes (keep-alive pipelining keeps later
    /// requests here across dispatches).
    rbuf: Vec<u8>,
    /// Serialized responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf`.
    wpos: usize,
    /// A parsed head waiting for its body.
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
    /// Unrecoverable socket error; close immediately.
    dead: bool,
    /// A request completed during the current pass (resets the request
    /// deadline for a pipelined successor, matching the blocking path's
    /// per-`read_request` timer).
    completed_this_pass: bool,
    /// Tick of this connection's earliest live wheel entry (`u64::MAX`
    /// when none) — wheel entries are hints, re-checked on fire.
    wheel_tick: u64,
    /// Bumped when the slot is reused, killing stale wheel entries.
    gen: u64,
}

impl ConnState {
    fn new(stream: TcpStream, now: Instant, limits: &Limits, gen: u64) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending_body: None,
            read_deadline: now + limits.idle_timeout,
            read_deadline_is_idle: true,
            write_deadline: None,
            close_after_flush: false,
            eof: false,
            dead: false,
            completed_this_pass: false,
            wheel_tick: u64::MAX,
            gen,
        }
    }

    /// Unflushed response bytes remain.
    fn write_pending(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// A request has started but not finished arriving.
    fn mid_request(&self) -> bool {
        self.pending_body.is_some() || !self.rbuf.is_empty()
    }

    /// The earliest armed deadline.
    fn next_deadline(&self) -> Instant {
        match self.write_deadline {
            Some(w) => w.min(self.read_deadline),
            None => self.read_deadline,
        }
    }
}

/// A slab of connections: stable `usize` keys (the epoll registration
/// keys), O(1) insert/remove, freed slots reused with a bumped generation.
struct Slab {
    slots: Vec<Option<ConnState>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_gen: 0,
        }
    }

    fn insert(&mut self, stream: TcpStream, now: Instant, limits: &Limits) -> usize {
        self.live += 1;
        self.next_gen += 1;
        let conn = ConnState::new(stream, now, limits, self.next_gen);
        match self.free.pop() {
            Some(key) => {
                self.slots[key] = Some(conn);
                key
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        }
    }

    fn get_mut(&mut self, key: usize) -> Option<&mut ConnState> {
        self.slots.get_mut(key).and_then(|s| s.as_mut())
    }

    fn remove(&mut self, key: usize) -> Option<ConnState> {
        let conn = self.slots.get_mut(key).and_then(|s| s.take());
        if conn.is_some() {
            self.live -= 1;
            self.free.push(key);
        }
        conn
    }

    fn keys(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&k| self.slots[k].is_some())
            .collect()
    }
}

/// A coarse hashed timer wheel. Entries are *hints*: on fire, the
/// connection's actual deadlines decide; a not-yet-due connection is
/// lazily re-inserted at its real deadline. Insertion is suppressed when
/// an earlier live entry already covers the connection
/// ([`ConnState::wheel_tick`]), so a busy keep-alive connection costs ~one
/// entry, not one per request.
struct TimerWheel {
    /// `slots[tick % len]` holds `(key, gen, tick)` hints.
    slots: Vec<Vec<(usize, u64, u64)>>,
    granularity: Duration,
    start: Instant,
    /// Last processed tick.
    cursor: u64,
    /// Earliest tick of any live entry (`u64::MAX` when empty); recomputed
    /// lazily when crossed.
    nearest: u64,
}

impl TimerWheel {
    fn new(granularity: Duration, slots: usize, now: Instant) -> Self {
        Self {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            start: now,
            cursor: 0,
            nearest: u64::MAX,
        }
    }

    /// The tick that covers `t` (rounded up: an entry never fires early).
    fn tick_of(&self, t: Instant) -> u64 {
        let nanos = t.saturating_duration_since(self.start).as_nanos();
        (nanos / self.granularity.as_nanos()) as u64 + 1
    }

    fn insert(&mut self, key: usize, gen: u64, deadline: Instant) -> u64 {
        let tick = self.tick_of(deadline).max(self.cursor + 1);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push((key, gen, tick));
        self.nearest = self.nearest.min(tick);
        tick
    }

    /// Drains every entry due by `now` into `due` as `(key, gen)` pairs.
    fn advance(&mut self, now: Instant, due: &mut Vec<(usize, u64)>) {
        let target = self.tick_of(now).saturating_sub(1); // ticks fully in the past
        let mut recompute_nearest = false;
        while self.cursor < target {
            // Jump straight to the next tick that can hold a due entry —
            // with a 10k-connection slab the wheel is consulted on every
            // poll wake-up, and walking 100 empty ticks each time would
            // cost more than the timers themselves.
            if self.nearest > target {
                self.cursor = target;
                break;
            }
            self.cursor = self.cursor.max(self.nearest - 1) + 1;
            if self.cursor >= self.nearest {
                recompute_nearest = true;
            }
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            let entries = &mut self.slots[slot];
            let mut i = 0;
            while i < entries.len() {
                if entries[i].2 <= self.cursor {
                    let (key, gen, _) = entries.swap_remove(i);
                    due.push((key, gen));
                } else {
                    i += 1;
                }
            }
        }
        if recompute_nearest {
            self.nearest = self
                .slots
                .iter()
                .flat_map(|s| s.iter().map(|&(_, _, tick)| tick))
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    /// When the next entry could fire (`None` when the wheel is empty).
    fn next_wakeup(&self) -> Option<Instant> {
        if self.nearest == u64::MAX {
            return None;
        }
        Some(self.start + self.granularity * self.nearest as u32)
    }
}

/// Everything a shard loop needs, bundled so the helpers stay callable
/// without threading eight arguments through every function.
struct ShardCtx<'a> {
    poller: &'a Poller,
    source: &'a Source,
    shared: &'a Shared,
    limits: &'a Limits,
    /// Reported as the concurrency on `/stats` (shard count).
    threads: usize,
    conns: Slab,
    wheel: TimerWheel,
    /// Decode and body buffers lent to the handler for each request and
    /// taken back once its response is in the connection's write buffer.
    scratch: Scratch,
}

/// One shard's event loop: drain the inbox, service readiness events,
/// expire deadlines, and — once shutdown starts — drain connections per
/// the graceful contract.
fn shard_loop(
    shard: &ReactorShard,
    idx: usize,
    source: &Source,
    shared: &Arc<Shared>,
    limits: &Limits,
    threads: usize,
) {
    let depth_gauge = shared.obs.shard_depths.get(idx);
    let now = Instant::now();
    let mut ctx = ShardCtx {
        poller: &shard.poller,
        source,
        shared,
        limits,
        threads,
        conns: Slab::new(),
        // 10 ms slots: deadline slop stays well under the second-scale
        // timeouts, and one revolution of 256 slots covers 2.56 s — longer
        // deadlines just re-check lazily a handful of times.
        wheel: TimerWheel::new(Duration::from_millis(10), 256, now),
        scratch: Scratch::new(),
    };
    let mut events = Events::new();
    let mut due: Vec<(usize, u64)> = Vec::new();
    loop {
        // Exit only once the accept loop has closed the inbox: a connection
        // could otherwise be pushed (and counted) right after this shard
        // checked emptiness, and leak. After close() no push can succeed.
        if shared.shutdown.load(Ordering::SeqCst)
            && ctx.conns.live == 0
            && shard.inbox.is_closed()
            && shard.inbox.is_empty()
        {
            break;
        }
        let timeout = ctx
            .wheel
            .next_wakeup()
            .map(|t| t.saturating_duration_since(Instant::now()))
            .unwrap_or(MAX_WAIT)
            .min(MAX_WAIT);
        if shard.poller.wait(&mut events, Some(timeout)).is_err() {
            // Only pathological states (e.g. EBADF after fd corruption)
            // land here; back off so a persistent failure cannot burn the
            // core, and keep serving — deadlines and the inbox still work.
            std::thread::sleep(Duration::from_millis(10));
        }
        let now = Instant::now();
        // New connections first: they may already carry a full request.
        while let Some(stream) = shard.inbox.try_pop() {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            register(&mut ctx, stream, now);
        }
        // Published once per wake-up: exact enough for a scrape, free for
        // the hot path.
        if let Some(g) = depth_gauge {
            g.store(ctx.conns.live as u64, Ordering::Relaxed);
        }
        for ev in events.iter() {
            handle_event(&mut ctx, ev.key, ev.readable, ev.writable);
        }
        due.clear();
        ctx.wheel.advance(Instant::now(), &mut due);
        for &(key, gen) in &due {
            handle_deadline(&mut ctx, key, gen);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            drain_pass(&mut ctx);
        }
    }
}

/// Registers a fresh connection with the poller and the idle deadline.
fn register(ctx: &mut ShardCtx<'_>, stream: TcpStream, now: Instant) {
    let _ = stream.set_nodelay(true);
    ctx.shared.stats.active.fetch_add(1, Ordering::Relaxed);
    let key = ctx.conns.insert(stream, now, ctx.limits);
    let conn = ctx.conns.get_mut(key).expect("just inserted");
    if ctx.poller.add(&conn.stream, Event::readable(key)).is_err() {
        // Registration failed (fd exhaustion inside epoll): nothing can be
        // served; undo and drop.
        let _ = ctx.conns.remove(key);
        ctx.shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        ctx.shared.open_conns.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    let (gen, deadline) = (conn.gen, conn.next_deadline());
    let tick = ctx.wheel.insert(key, gen, deadline);
    if let Some(conn) = ctx.conns.get_mut(key) {
        conn.wheel_tick = tick;
    }
    // A connection may arrive with its first request already in the socket
    // buffer; serve it now rather than waiting for an edge.
    handle_event(ctx, key, true, false);
}

/// Removes a connection entirely.
fn close(ctx: &mut ShardCtx<'_>, key: usize) {
    if let Some(conn) = ctx.conns.remove(key) {
        let _ = ctx.poller.delete(&conn.stream);
        ctx.shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        ctx.shared.open_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Appends an error response, counts it, and marks the connection for
/// close-after-flush — the reactor's equivalent of the blocking path's
/// "answer the `HttpError`, then close".
fn fail(ctx: &mut ShardCtx<'_>, key: usize, status: u16, reason: &str) {
    let Some(conn) = ctx.conns.get_mut(key) else {
        return;
    };
    ctx.shared
        .stats
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    if status == 408 {
        ctx.shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
    }
    http::append_response(&mut conn.wbuf, &Response::error(status, reason), false);
    conn.close_after_flush = true;
    conn.rbuf.clear();
    conn.pending_body = None;
}

/// Services one readiness event (also the entry point for a just-registered
/// connection): flush → read → parse/dispatch → flush → re-arm.
fn handle_event(ctx: &mut ShardCtx<'_>, key: usize, readable: bool, writable: bool) {
    if ctx.conns.get_mut(key).is_none() {
        return; // closed earlier in this batch
    }
    if writable {
        flush(ctx, key);
    }
    if readable {
        do_read(ctx, key);
        process_buffer(ctx, key);
    }
    flush(ctx, key);
    finish(ctx, key);
}

/// Non-blocking read up to the fairness budget.
fn do_read(ctx: &mut ShardCtx<'_>, key: usize) {
    let Some(conn) = ctx.conns.get_mut(key) else {
        return;
    };
    if conn.close_after_flush || conn.eof || conn.dead {
        return;
    }
    let mut total = 0usize;
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                total += n;
                if total >= READ_BUDGET {
                    return; // interest re-arms; epoll re-fires for the rest
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Parses and dispatches every complete request in the read buffer — the
/// non-blocking mirror of the blocking path's `read_request` loop,
/// including pipelining.
fn process_buffer(ctx: &mut ShardCtx<'_>, key: usize) {
    loop {
        let Some(conn) = ctx.conns.get_mut(key) else {
            return;
        };
        if conn.close_after_flush || conn.dead {
            return;
        }
        // Body phase: wait for Content-Length bytes, then dispatch.
        if let Some(pb) = conn.pending_body.take() {
            if conn.rbuf.len() < pb.need {
                let truncated = conn.eof;
                conn.pending_body = Some(pb);
                if truncated {
                    // The peer half-closed; this body can never complete.
                    fail(ctx, key, 400, "truncated request body");
                }
                return;
            }
            let body: Vec<u8> = conn.rbuf[..pb.need].to_vec();
            conn.rbuf.drain(..pb.need);
            let wire_bytes = pb.head_bytes + body.len();
            let req = Request {
                method: pb.method,
                path: pb.path,
                query: pb.query,
                keep_alive: pb.keep_alive,
                body,
                wire_bytes,
            };
            dispatch(ctx, key, req);
            continue;
        }
        // Head phase: find and parse a complete head.
        match http::find_head_end(&conn.rbuf) {
            None => {
                if conn.rbuf.len() > ctx.limits.max_header_bytes {
                    fail(ctx, key, 431, "request head too large");
                } else if conn.eof && !conn.rbuf.is_empty() {
                    fail(ctx, key, 400, "truncated request head");
                }
                return;
            }
            Some(end) => {
                if end > ctx.limits.max_header_bytes {
                    fail(ctx, key, 431, "request head too large");
                    return;
                }
                // Arm the request trace at head parse. If this request's
                // body completes in a later event, another connection's
                // parse may re-arm the span in between and this request
                // loses its parse time — a bounded inaccuracy the
                // single-threaded-per-shard design accepts.
                neats_core::obs::span_begin();
                let parsed = {
                    let _parse = neats_core::obs::stage(neats_core::obs::Stage::Parse);
                    http::parse_head(&conn.rbuf[..end])
                };
                // Drain the head even when parsing fails, so a pipelined
                // follow-up can't replay it (the connection closes anyway).
                conn.rbuf.drain(..end);
                match parsed {
                    Err(HttpError { status, reason }) => {
                        fail(ctx, key, status, &reason);
                        return;
                    }
                    Ok((method, path, query, keep_alive, content_length, expects_continue)) => {
                        if content_length > ctx.limits.max_body_bytes {
                            fail(ctx, key, 413, "body too large");
                            return;
                        }
                        if expects_continue && content_length > 0 {
                            // Minimal 100-continue support, via the write
                            // buffer like everything else.
                            conn.wbuf
                                .extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                        }
                        conn.pending_body = Some(PendingBody {
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
    }
}

/// Runs the handler for one complete request and buffers its response.
fn dispatch(ctx: &mut ShardCtx<'_>, key: usize, req: Request) {
    // A handler panic must not take down the shard (its whole slab of
    // connections would die with it); the panicking request gets a 500 and
    // its connection closes — identical to the threaded path.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        handler::handle(
            ctx.source,
            &ctx.shared.stats,
            &ctx.shared.obs,
            ctx.threads,
            &req,
            &mut ctx.scratch,
        )
    }));
    let (resp, close_after) = match result {
        Ok(resp) => (resp, false),
        Err(_) => {
            ctx.shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            (Response::error(500, "internal error"), true)
        }
    };
    let shutting_down = ctx.shared.shutdown.load(Ordering::SeqCst);
    let Some(conn) = ctx.conns.get_mut(key) else {
        ctx.scratch.reclaim(resp);
        return;
    };
    // On shutdown, drain: requests the client already pipelined in full
    // are still answered before the close.
    let keep = req.keep_alive
        && !close_after
        && (!shutting_down || http::find_head_end(&conn.rbuf).is_some());
    http::append_response(&mut conn.wbuf, &resp, keep);
    ctx.scratch.reclaim(resp);
    conn.completed_this_pass = true;
    if !keep {
        conn.close_after_flush = true;
        conn.rbuf.clear();
    }
}

/// Writes as much buffered response as the socket accepts right now.
fn flush(ctx: &mut ShardCtx<'_>, key: usize) {
    let Some(conn) = ctx.conns.get_mut(key) else {
        return;
    };
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.wpos += n;
                ctx.shared.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > WRITE_COMPACT {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
}

/// The per-event epilogue: close when finished or dead, otherwise re-arm
/// deadlines and epoll interest.
fn finish(ctx: &mut ShardCtx<'_>, key: usize) {
    let now = Instant::now();
    let Some(conn) = ctx.conns.get_mut(key) else {
        return;
    };
    if conn.dead {
        close(ctx, key);
        return;
    }
    let write_pending = conn.write_pending();
    if !write_pending && conn.close_after_flush {
        close(ctx, key);
        return;
    }
    if conn.eof && !write_pending && !conn.close_after_flush {
        // Peer half-closed and everything it fully sent is answered
        // (truncated partials were failed in process_buffer): nothing
        // left to do on this connection.
        close(ctx, key);
        return;
    }
    // Read deadline: idle between requests, request deadline once one
    // starts. Progress never extends a running request deadline, but a
    // *completed* request hands its pipelined successor a fresh window
    // (the blocking path starts a fresh timer per read_request call).
    let mid = conn.mid_request();
    if mid && (conn.read_deadline_is_idle || conn.completed_this_pass) {
        conn.read_deadline = now + ctx.limits.request_timeout;
        conn.read_deadline_is_idle = false;
    } else if !mid && !conn.read_deadline_is_idle {
        conn.read_deadline = now + ctx.limits.idle_timeout;
        conn.read_deadline_is_idle = true;
    }
    conn.completed_this_pass = false;
    // Write deadline: armed while response bytes are stuck in the buffer
    // (a reader that stalls past it is disconnected), cleared on drain.
    if write_pending {
        if conn.write_deadline.is_none() {
            conn.write_deadline = Some(now + ctx.limits.request_timeout);
        }
    } else {
        conn.write_deadline = None;
    }
    // Re-arm epoll interest (registrations are oneshot).
    let want_read = !conn.eof && !conn.close_after_flush;
    let interest = Event {
        key,
        readable: want_read,
        writable: write_pending,
    };
    if ctx.poller.modify(&conn.stream, interest).is_err() {
        close(ctx, key);
        return;
    }
    // Arm the wheel only when no earlier live entry already covers us.
    let (gen, deadline, armed) = (conn.gen, conn.next_deadline(), conn.wheel_tick);
    let tick = ctx.wheel.tick_of(deadline);
    if tick < armed {
        let tick = ctx.wheel.insert(key, gen, deadline);
        if let Some(conn) = ctx.conns.get_mut(key) {
            conn.wheel_tick = tick;
        }
    }
}

/// A wheel entry fired: act if the connection's real deadline passed,
/// else lazily re-arm at the real deadline.
fn handle_deadline(ctx: &mut ShardCtx<'_>, key: usize, gen: u64) {
    let now = Instant::now();
    let Some(conn) = ctx.conns.get_mut(key) else {
        return;
    };
    if conn.gen != gen {
        return; // stale hint for a recycled slot
    }
    conn.wheel_tick = u64::MAX; // this entry is consumed
    if conn.write_deadline.is_some_and(|w| w <= now) {
        // Stalled reader: the buffered response cannot be delivered within
        // the deadline — drop the connection (there is no point writing a
        // 408 to a peer that does not read).
        ctx.shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        close(ctx, key);
        return;
    }
    if conn.read_deadline <= now {
        let (status, reason) = if conn.read_deadline_is_idle {
            (408, "idle connection timed out")
        } else {
            (408, "request timed out")
        };
        fail(ctx, key, status, reason);
        flush(ctx, key);
        finish(ctx, key); // closes now or waits for write readiness
        return;
    }
    // Not actually due (the deadline moved later since this hint was
    // inserted): re-arm at the real deadline.
    let (gen, deadline) = (conn.gen, conn.next_deadline());
    let tick = ctx.wheel.insert(key, gen, deadline);
    if let Some(conn) = ctx.conns.get_mut(key) {
        conn.wheel_tick = tick;
    }
}

/// One shutdown-drain sweep: answer what was fully sent, close what is
/// idle, 408 what is half-sent — the same contract as the blocking path's
/// `should_abort` checks, applied eagerly.
fn drain_pass(ctx: &mut ShardCtx<'_>) {
    for key in ctx.conns.keys() {
        let Some(conn) = ctx.conns.get_mut(key) else {
            continue;
        };
        if conn.close_after_flush || conn.write_pending() {
            continue; // already flushing out; write deadline bounds it
        }
        if conn.mid_request() {
            // A request caught half-sent cannot be waited for.
            fail(ctx, key, 408, "server shutting down");
            flush(ctx, key);
            finish(ctx, key);
        } else {
            // Idle between requests: close immediately.
            close(ctx, key);
        }
    }
}
