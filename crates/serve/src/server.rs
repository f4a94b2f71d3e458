//! The server: a bound listener, one accept loop, and one of two drivers
//! moving bytes for the connection state machine behind it.
//!
//! ## Threading model
//!
//! [`Server::run`] blocks the calling thread on `accept()` and hands every
//! admitted connection to one of `threads` serving threads. What a
//! connection *is* — parsing, limits, pipelining, the idle / request /
//! write deadlines, backpressure, the shutdown rule — is `crate::conn`'s
//! `Connection`, the same under both drivers; a driver only moves bytes
//! and time. Which driver runs is observed at [`Server::bind`], never
//! configured:
//!
//! * **Readiness (wherever the `polling` shim has a backend, i.e. Linux)** —
//!   each serving thread is an event loop (the `crate::reactor` module)
//!   owning an epoll poller, a slab of non-blocking connections, and a
//!   timer wheel of their deadlines. A shard multiplexes thousands of
//!   mostly-idle keep-alive connections; an idle client costs a slab
//!   entry, never a thread.
//! * **Blocking (everywhere else)** — admitted connections are pushed onto
//!   a closeable blocking queue (the `crate::queue` module); each
//!   serving thread pops one connection and runs it for its whole
//!   keep-alive lifetime, waking from a read at most every
//!   [`ServeConfig::poll_interval`]. Simple and portable, but W idle
//!   keep-alive clients occupy all W workers.
//!
//! Under both, requests on one connection are handled serially (HTTP/1.1
//! semantics), requests on different connections in parallel, and the
//! [`Store`] is shared behind an `Arc`: queries run zero-copy against the
//! shared pack bytes, so serving threads never copy archive data.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] is the SIGTERM-equivalent: it sets the
//! shutdown flag and wakes the accept loop with a loopback connection. The
//! accept loop stops accepting; the serving threads then drain — already
//! accepted connections finish the request in flight (plus any pipelined
//! requests the client already sent in full), answer them with
//! `Connection: close`, and close. `run` returns once the drain completes.
//!
//! [`Store`]: neats_store::Store

use crate::conn::{Connection, Env, Next};
use crate::handler;
use crate::http::{Limits, Request, Response};
use crate::queue::Queue;
use crate::reactor::{self, Shard};
use crate::render::Scratch;
use crate::source::Source;
use crate::stats::{Obs, ServerStats};
use neats_store::obs::{Registry, TraceRing};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable naming the default connection cap.
pub const MAX_CONNS_ENV: &str = "NEATS_SERVE_MAX_CONNS";
/// Environment variable naming the default worker-queue shed watermark.
pub const SHED_WATERMARK_ENV: &str = "NEATS_SERVE_SHED_WATERMARK";

/// Server tuning knobs. `Default` matches the documented configuration
/// table in the README.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Serving threads — reactor shards or pool workers, whichever driver
    /// the platform gives (`0` = all cores).
    pub threads: usize,
    /// Maximum request-head bytes before a 431.
    pub max_header_bytes: usize,
    /// Maximum request-body bytes before a 413.
    pub max_body_bytes: usize,
    /// Maximum time a started request may take to arrive before a 408.
    pub request_timeout: Duration,
    /// Longest a blocking-driver worker sleeps in one read or write before
    /// re-checking deadlines and the shutdown flag; bounds how long
    /// shutdown waits for idle keep-alive connections there.
    pub poll_interval: Duration,
    /// Maximum time a keep-alive connection may sit idle between requests
    /// before it is closed with a 408.
    pub idle_timeout: Duration,
    /// Maximum connections held open at once (`0` = automatic:
    /// [`MAX_CONNS_ENV`], else 1024). Connections beyond the cap are shed
    /// at accept time with a canned `503 + Retry-After`.
    pub max_connections: usize,
    /// Worker-queue depth above which new connections are shed (`0` =
    /// automatic: [`SHED_WATERMARK_ENV`], else `4 × threads`, capped at
    /// 64). A deep queue means every worker is busy and new arrivals would
    /// only wait — shedding keeps latency flat for admitted requests.
    /// Under the readiness driver the watermark bounds the
    /// not-yet-registered shard inbox backlog instead (shards drain their
    /// inboxes within one poll wake-up, so it only trips when the event
    /// loops themselves stall).
    pub queue_watermark: usize,
    /// Slow-query threshold in microseconds: a request whose traced total
    /// reaches it is logged to stderr and flagged in `/debug/requests`
    /// (`0` = off).
    pub slow_query_us: u64,
    /// Recent requests kept in the trace ring behind `GET /debug/requests`
    /// (`0` disables tracing).
    pub trace_ring: usize,
    /// What this server serves, for `/stats` and the `neats_build_info`
    /// metric — conventionally the pack path or ingest directory. Purely
    /// informational; empty renders as `""`.
    pub source_label: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            request_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(60),
            max_connections: 0,
            queue_watermark: 0,
            slow_query_us: 0,
            trace_ring: 256,
            source_label: String::new(),
        }
    }
}

/// `0` means automatic: the environment variable, else `fallback`.
fn resolve_knob(configured: usize, env: &str, fallback: usize) -> usize {
    if configured != 0 {
        return configured;
    }
    std::env::var(env)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n != 0)
        .unwrap_or(fallback)
}

/// Assembles the observability bundle at bind time: creates the metrics
/// registry, registers every serve/store/ingest family, and sizes the
/// trace ring. Registration order here is `/metrics` render order.
fn build_obs(
    source: &Source,
    stats: &ServerStats,
    cfg: &ServeConfig,
    threads: usize,
    mode: &'static str,
) -> Obs {
    let registry = Arc::new(Registry::new());
    let source_label = cfg.source_label.clone();
    registry.gauge_fn(
        "neats_build_info",
        "Serving metadata as labels; the value is always 1.",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("mode", mode),
            ("source", &source_label),
        ],
        || 1.0,
    );
    registry
        .gauge(
            "neats_serve_threads",
            "Resolved worker-thread count (the threaded pool size).",
            &[],
        )
        .store(threads as u64, Ordering::Relaxed);
    registry
        .gauge("neats_serve_shards", "Resolved reactor shard count.", &[])
        .store(threads as u64, Ordering::Relaxed);
    stats.register(&registry);
    source.register_metrics(&registry);
    let shard_depths: Vec<Arc<AtomicU64>> = if mode == "reactor" {
        (0..threads)
            .map(|i| {
                let idx = i.to_string();
                registry.gauge(
                    "neats_serve_shard_connections",
                    "Connections currently registered with each reactor shard.",
                    &[("shard", idx.as_str())],
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    Obs {
        registry,
        ring: TraceRing::new(cfg.trace_ring),
        slow_query_us: cfg.slow_query_us,
        shard_depths,
        source_label,
        mode,
    }
}

pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    /// Set by the accept loop on exit; [`ServerHandle::shutdown`] retries
    /// its wake-up connect until this flips (a single connect can race the
    /// loop and be missed).
    pub(crate) accept_exited: AtomicBool,
    /// Connections currently owned by the server (queued or being served).
    pub(crate) open_conns: AtomicU64,
    /// Connections accepted but not yet popped by a worker (blocking
    /// driver) or not yet registered by their shard (readiness driver).
    pub(crate) queued: AtomicU64,
    pub(crate) stats: ServerStats,
    pub(crate) obs: Obs,
}

impl Shared {
    pub(crate) fn new(stats: ServerStats, obs: Obs) -> Self {
        Self {
            shutdown: AtomicBool::new(false),
            accept_exited: AtomicBool::new(false),
            open_conns: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            stats,
            obs,
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] serves until a
/// [`ServerHandle::shutdown`]; the handle is obtained *before* `run` and is
/// cheap to clone across threads.
pub struct Server {
    listener: TcpListener,
    source: Source,
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: usize,
    /// The readiness driver's event loops; `None` where the platform has
    /// no poller, and the blocking driver serves instead.
    shards: Option<Vec<Shard>>,
    cfg: ServeConfig,
}

/// A clonable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Requests graceful shutdown: stop accepting, drain accepted
    /// connections, finish in-flight requests, then let [`Server::run`]
    /// return. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection. A single
        // connect can be missed — the loop may accept it *before* it
        // observes the flag (dropping it as a regular connection) and then
        // block again — so retry with backoff until the loop confirms it
        // exited. The loop also polls the flag on a short tick, so the
        // bounded retry window is belt-and-braces, never a hang.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            match &mut target {
                SocketAddr::V4(a) => a.set_ip(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(a) => a.set_ip(std::net::Ipv6Addr::LOCALHOST),
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut pause = Duration::from_millis(1);
        while !self.shared.accept_exited.load(Ordering::SeqCst)
            && std::time::Instant::now() < deadline
        {
            let _ = TcpStream::connect_timeout(&target, Duration::from_millis(100));
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(50));
        }
    }

    /// Connections the server currently owns (queued, registered with a
    /// reactor shard, or being served by a worker). Drains to zero once a
    /// graceful shutdown completes — the graceful-drain tests assert
    /// exactly that, guarding the accept-path counter bookkeeping.
    pub fn open_connections(&self) -> u64 {
        self.shared.open_conns.load(Ordering::SeqCst)
    }

    /// The address the server is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Server {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port) over
    /// `source` — an `Arc<Store>` (read-only pack) or an
    /// `Arc<neats_ingest::Ingestor>` (live directory; enables
    /// `POST /write`). The serving-thread count is resolved here.
    pub fn bind(
        source: impl Into<Source>,
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
    ) -> std::io::Result<Server> {
        Self::bind_on(source, addr, cfg, true)
    }

    /// [`Self::bind`], with the readiness driver optionally left untried —
    /// how in-crate tests reach the blocking driver on a platform that has
    /// a poller.
    pub(crate) fn bind_on(
        source: impl Into<Source>,
        addr: impl ToSocketAddrs,
        mut cfg: ServeConfig,
        try_readiness: bool,
    ) -> std::io::Result<Server> {
        // A zero poll interval would make set_read_timeout fail (leaving
        // sockets blocking, which breaks shutdown) and turn the accept
        // loop into a busy spin — clamp it to something meaningful.
        cfg.poll_interval = cfg.poll_interval.max(Duration::from_millis(1));
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let threads = match cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        // The driver is observed, not chosen: one poller per serving
        // thread if the platform makes them, the blocking pool if not.
        let shards = try_readiness.then(|| Shard::create(threads).ok()).flatten();
        let mode = if shards.is_some() {
            "reactor"
        } else {
            "threaded"
        };
        let source = source.into();
        let stats = ServerStats::new();
        let obs = build_obs(&source, &stats, &cfg, threads, mode);
        Ok(Server {
            listener,
            source,
            shared: Arc::new(Shared::new(stats, obs)),
            addr,
            threads,
            shards,
            cfg,
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The resolved serving-thread count: event-loop shards under the
    /// readiness driver, pool workers under the blocking one.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Which driver [`Self::run`] will use, as `/stats` and
    /// `neats_build_info` print it: `"reactor"` (readiness) or
    /// `"threaded"` (blocking).
    pub fn mode(&self) -> &'static str {
        self.shared.obs.mode
    }

    /// A shutdown handle; obtain it before calling [`Self::run`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Answers one already-parsed request in process — the step the serving
    /// loops run between parsing a request and serializing its response,
    /// with the same routing, counters and request trace. Query bodies are
    /// rendered into `scratch` and leave in the response; hand them back
    /// with [`Scratch::reclaim`] when done, as a serving worker does, and a
    /// loop of range requests allocates nothing in steady state.
    pub fn answer(&self, req: &Request, scratch: &mut Scratch) -> Response {
        handler::handle(
            &self.source,
            &self.shared.stats,
            &self.shared.obs,
            self.threads,
            req,
            scratch,
        )
    }

    /// Serves until shutdown: the calling thread runs the accept loop,
    /// `threads` scoped threads run the connections — as event loops or
    /// as a blocking pool, whichever [`Self::mode`] says. Returns after
    /// the drain completes.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            source,
            shared,
            addr: _,
            threads,
            shards,
            cfg,
        } = self;
        let limits = Limits {
            max_header_bytes: cfg.max_header_bytes,
            max_body_bytes: cfg.max_body_bytes,
            request_timeout: cfg.request_timeout,
            idle_timeout: cfg.idle_timeout,
        };
        let max_conns = resolve_knob(cfg.max_connections, MAX_CONNS_ENV, 1024) as u64;
        let watermark = resolve_knob(
            cfg.queue_watermark,
            SHED_WATERMARK_ENV,
            (4 * threads).min(64),
        ) as u64;
        // Each serving thread's render buffers outlive its connections.
        let env = || Env {
            source: &source,
            shared: &shared,
            limits: &limits,
            threads,
            scratch: Scratch::new(),
        };
        // The blocking driver's hand-off: workers pop, the accept loop pushes.
        let queue: Queue<TcpStream> = Queue::new();
        std::thread::scope(|s| match &shards {
            Some(shards) => {
                for (idx, shard) in shards.iter().enumerate() {
                    let env = env();
                    s.spawn(move || reactor::shard_loop(shard, idx, env));
                }
                let mut next_shard = 0usize;
                accept_loop(&listener, &shared, &cfg, max_conns, watermark, |conn| {
                    let shard = &shards[next_shard % shards.len()];
                    next_shard = next_shard.wrapping_add(1);
                    shard.offer(conn)
                });
                shards.iter().for_each(Shard::close);
            }
            None => {
                for _ in 0..threads {
                    let (mut env, queue) = (env(), &queue);
                    s.spawn(move || {
                        while let Some(conn) = queue.pop() {
                            env.shared.queued.fetch_sub(1, Ordering::Relaxed);
                            serve_blocking(conn, &mut env, cfg.poll_interval);
                        }
                    });
                }
                accept_loop(&listener, &shared, &cfg, max_conns, watermark, |conn| {
                    queue.push(conn)
                });
                queue.close();
            }
        });
        Ok(())
    }
}

/// The accept loop, the same under both drivers: admission control at the
/// connection cap and the queue watermark, then `hand_off` — into a shard
/// inbox or onto the worker queue; it answers `false` once that is closed.
fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    cfg: &ServeConfig,
    max_conns: u64,
    watermark: u64,
    mut hand_off: impl FnMut(TcpStream) -> bool,
) {
    // Non-blocking accept with a short idle sleep: the loop observes the
    // shutdown flag even if the wake-up connect in ServerHandle::shutdown
    // never lands (wildcard binds, full backlog), so run() can never hang
    // on accept(). The tick is deliberately much shorter than
    // poll_interval — it bounds *accept latency* for every new
    // connection, not just shutdown responsiveness.
    let accept_tick = Duration::from_millis(2).min(cfg.poll_interval);
    let nonblocking = listener.set_nonblocking(true).is_ok();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((conn, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break; // likely the wake-up connection; drop it
                }
                // Admission control: past the connection cap or the queue
                // watermark, every serving thread is saturated and an
                // admitted connection would only queue — answer a canned
                // 503 now so the client can back off, and admitted
                // requests keep their flat latency.
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
                if !hand_off(conn) {
                    // Closed between the shutdown check and the push: the
                    // connection was dropped, never served. Undo the
                    // optimistic accounting above or /stats lies for the
                    // whole drain (and open_conns never returns to zero).
                    shared.stats.accepted.fetch_sub(1, Ordering::Relaxed);
                    shared.open_conns.fetch_sub(1, Ordering::Relaxed);
                    shared.queued.fetch_sub(1, Ordering::Relaxed);
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock && nonblocking => {
                std::thread::sleep(accept_tick);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): back off
                // briefly instead of spinning.
                std::thread::sleep(cfg.poll_interval);
            }
        }
    }
    shared.accept_exited.store(true, Ordering::SeqCst);
}

/// Sheds one connection at accept time with a canned raw `503` (no parsing,
/// no allocation beyond the accepted socket — shedding must stay cheap under
/// exactly the load that triggers it). Strictly non-blocking best-effort:
/// this runs on the accept thread under precisely the load that triggers
/// shedding, so it must never wait on a peer — not even for a write
/// timeout, which would serialize sheds and stall accepts behind every
/// slow-to-read shed client. The 131-byte response virtually always fits
/// the empty send buffer of a fresh connection; a peer whose buffer cannot
/// take it is already misbehaving and just gets the close.
fn shed_connection(conn: TcpStream) {
    const SHED_RESPONSE: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
        Content-Type: text/plain\r\n\
        Content-Length: 9\r\n\
        Retry-After: 1\r\n\
        Connection: close\r\n\
        \r\n\
        overload\n";
    let mut conn = conn;
    if conn.set_nonblocking(true).is_err() {
        return; // can't make it safe to touch; just close
    }
    let _ = conn.write(SHED_RESPONSE);
    // Drain whatever request bytes already arrived (one non-blocking read).
    // Closing a socket with unread data sends an RST that can discard the
    // 503 before the client reads it; the drain makes the common case — a
    // small request that landed before accept — deliver the response
    // cleanly.
    let mut sink = [0u8; 4096];
    let _ = conn.read(&mut sink);
}

/// A blocking socket's `Write` that gives up at `at`: each `write` call is
/// bounded by the socket's write timeout, this bounds a whole flush, so a
/// reader that trickles cannot keep a worker inside one past its tick.
struct Until<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Write for Until<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if Instant::now() >= self.at {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The blocking driver: runs one connection for its whole keep-alive
/// lifetime on the calling worker. Each wake is one bounded wait — a read,
/// or while response bytes are pending the flush itself — for at most
/// `poll_interval` or until the connection's next deadline, whichever is
/// sooner; then the same process → flush → expire → settle the readiness
/// driver runs per event.
fn serve_blocking(stream: TcpStream, env: &mut Env<'_>, poll_interval: Duration) {
    let shared = env.shared;
    shared.stats.active.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let now = Instant::now();
    let mut conn = Connection::new(now, env.limits);
    // Read and write timeouts need a blocking socket (some platforms
    // inherit the listener's non-blocking flag).
    if stream.set_nonblocking(false).is_err() {
        conn.broken();
    }
    let mut next = conn.settle(now, env.limits);
    let mut chunk = [0u8; 4096];
    let mut timeouts_set = Duration::ZERO;
    while let Next::Wait {
        read,
        write,
        deadline,
    } = next
    {
        let tick = poll_interval
            .min(deadline.saturating_duration_since(Instant::now()))
            .max(Duration::from_millis(1));
        if tick != timeouts_set {
            let set = stream
                .set_read_timeout(Some(tick))
                .and_then(|()| stream.set_write_timeout(Some(tick)));
            if set.is_err() {
                break; // an unbounded wait could pin this worker forever
            }
            timeouts_set = tick;
        }
        if read && !write {
            match (&stream).read(&mut chunk) {
                Ok(0) => conn.peer_closed(),
                Ok(n) => conn.received(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => conn.broken(),
            }
        }
        let now = Instant::now();
        let mut out = Until {
            stream: &stream,
            at: now + tick,
        };
        conn.service(env, &mut out);
        let expired = conn.expire(now, &shared.stats);
        let drained = shared.shutdown.load(Ordering::SeqCst) && conn.drain(&shared.stats);
        if expired || drained {
            conn.flush(&mut out, &shared.stats);
        }
        next = conn.settle(now, env.limits);
    }
    shared.stats.active.fetch_sub(1, Ordering::Relaxed);
    shared.open_conns.fetch_sub(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests;
