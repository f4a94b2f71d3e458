//! The server: a bound listener, an accept loop, and one of two serving
//! disciplines behind it.
//!
//! ## Threading model
//!
//! [`Server::run`] blocks the calling thread on `accept()` and serves
//! connections in one of two modes, selected by [`ServeConfig::reactor`]
//! (default [`ReactorMode::Auto`]: the reactor wherever epoll exists,
//! i.e. Linux):
//!
//! * **Reactor (default on Linux)** — `shards` event-loop threads (the
//!   `crate::reactor` module), each owning an epoll poller, a slab of
//!   non-blocking connections, and a timer wheel for idle/request/write
//!   deadlines. A shard multiplexes thousands of mostly-idle keep-alive
//!   connections; an idle client costs a slab entry, never a thread.
//! * **Thread-per-connection (fallback)** — accepted connections are pushed
//!   onto a closeable blocking queue ([`neats_core::parallel::Queue`]);
//!   each of `threads` workers pops one connection and owns it for its
//!   whole keep-alive lifetime. Simple and portable, but W idle keep-alive
//!   clients occupy all W workers.
//!
//! In both modes requests on one connection are handled serially (HTTP/1.1
//! semantics), requests on different connections in parallel, and the
//! [`Store`] is shared behind an `Arc`: queries run zero-copy against the
//! shared pack bytes, so serving threads never copy archive data.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] is the SIGTERM-equivalent: it sets the
//! shutdown flag and wakes the accept loop with a loopback connection. The
//! accept loop stops accepting; both modes then drain — already accepted
//! connections finish the request in flight (plus any pipelined requests
//! the client already sent in full), answer them with `Connection: close`,
//! and close. `run` returns once the drain completes.

use crate::http::{Conn, HttpError, Limits, ReadOutcome, Request, Response};
use crate::render::Scratch;
use crate::source::Source;
use crate::stats::{Obs, ServerStats};
use crate::{handler, http, reactor};
use neats_core::parallel::{effective_threads_env, Queue};
use neats_core::{Registry, TraceRing};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable naming the default worker-thread count.
pub const THREADS_ENV: &str = "NEATS_SERVE_THREADS";
/// Environment variable naming the default connection cap.
pub const MAX_CONNS_ENV: &str = "NEATS_SERVE_MAX_CONNS";
/// Environment variable naming the default worker-queue shed watermark.
pub const SHED_WATERMARK_ENV: &str = "NEATS_SERVE_SHED_WATERMARK";
/// Environment variable selecting the serving mode when
/// [`ServeConfig::reactor`] is [`ReactorMode::Auto`]: `on`/`reactor`/`1`
/// forces the epoll reactor, `off`/`threaded`/`0` forces
/// thread-per-connection, anything else keeps automatic detection.
pub const REACTOR_ENV: &str = "NEATS_SERVE_REACTOR";
/// Environment variable naming the default reactor shard count.
pub const SHARDS_ENV: &str = "NEATS_SERVE_SHARDS";
/// Environment variable naming the default slow-query threshold in
/// microseconds (requests at or above it are logged to stderr and flagged
/// in `/debug/requests`); `0` or unset disables the log.
pub const SLOW_QUERY_ENV: &str = "NEATS_SLOW_QUERY_US";
/// Environment variable naming the default trace-ring capacity (recent
/// requests kept for `GET /debug/requests`); `0` disables tracing.
pub const TRACE_RING_ENV: &str = "NEATS_TRACE_RING";

/// How [`Server::run`] multiplexes connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReactorMode {
    /// Use the epoll readiness reactor where the platform supports it
    /// (Linux), else fall back to thread-per-connection. [`REACTOR_ENV`]
    /// overrides the detection.
    #[default]
    Auto,
    /// Require the reactor: [`Server::run`] fails with
    /// [`std::io::ErrorKind::Unsupported`] on platforms without epoll.
    Reactor,
    /// Force the blocking thread-per-connection path (one worker owns each
    /// connection for its whole keep-alive lifetime).
    Threaded,
}

/// Server tuning knobs. `Default` matches the documented configuration
/// table in the README.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (`0` = automatic: [`THREADS_ENV`], else all cores).
    pub threads: usize,
    /// Maximum request-head bytes before a 431.
    pub max_header_bytes: usize,
    /// Maximum request-body bytes before a 413.
    pub max_body_bytes: usize,
    /// Maximum time a started request may take to arrive before a 408.
    pub request_timeout: Duration,
    /// Poll tick at which blocked reads re-check the shutdown flag; bounds
    /// how long shutdown waits for idle keep-alive connections.
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
    /// only wait — shedding keeps latency flat for admitted requests. In
    /// reactor mode the watermark bounds the not-yet-registered shard
    /// inbox backlog instead (shards drain their inboxes within one poll
    /// wake-up, so it only trips when the event loops themselves stall).
    pub queue_watermark: usize,
    /// Serving discipline: epoll reactor, thread-per-connection, or
    /// automatic platform detection (the default; [`REACTOR_ENV`]
    /// overrides).
    pub reactor: ReactorMode,
    /// Reactor event-loop shards (`0` = automatic: [`SHARDS_ENV`], else
    /// the resolved `threads` count). Each shard runs one event loop and —
    /// when the store is opened with thread-sharded caching — owns its own
    /// slice of the segment-view cache. Ignored in threaded mode.
    pub shards: usize,
    /// Slow-query threshold in microseconds: a request whose traced total
    /// reaches it is logged to stderr and flagged in `/debug/requests`.
    /// `None` = automatic ([`SLOW_QUERY_ENV`], else off); `Some(0)` = off.
    pub slow_query_us: Option<u64>,
    /// Recent requests kept in the trace ring behind `GET /debug/requests`.
    /// `None` = automatic ([`TRACE_RING_ENV`], else 256); `Some(0)`
    /// disables tracing.
    pub trace_ring: Option<usize>,
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
            reactor: ReactorMode::Auto,
            shards: 0,
            slow_query_us: None,
            trace_ring: None,
            source_label: String::new(),
        }
    }
}

/// Applies the [`REACTOR_ENV`] override to an [`ReactorMode::Auto`]
/// configuration; explicit modes win over the environment.
fn resolve_mode(configured: ReactorMode) -> ReactorMode {
    match configured {
        ReactorMode::Auto => match std::env::var(REACTOR_ENV).ok().as_deref().map(str::trim) {
            Some("on") | Some("reactor") | Some("1") => ReactorMode::Reactor,
            Some("off") | Some("threaded") | Some("0") => ReactorMode::Threaded,
            _ => ReactorMode::Auto,
        },
        explicit => explicit,
    }
}

/// `None` means automatic: the environment variable, else `fallback`
/// (unlike [`resolve_knob`], an explicit or environment `0` is meaningful —
/// it disables the feature).
fn resolve_opt_knob<T: Copy + std::str::FromStr>(
    configured: Option<T>,
    env: &str,
    fallback: T,
) -> T {
    configured.unwrap_or_else(|| {
        std::env::var(env)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(fallback)
    })
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
/// registry, registers every serve/store/ingest family, and resolves the
/// tracing knobs. Registration order here is `/metrics` render order.
fn build_obs(
    source: &Source,
    stats: &ServerStats,
    cfg: &ServeConfig,
    threads: usize,
    shards: usize,
) -> Obs {
    let registry = Arc::new(Registry::new());
    let mode = match resolve_mode(cfg.reactor) {
        ReactorMode::Auto if cfg!(target_os = "linux") => "reactor",
        ReactorMode::Reactor => "reactor",
        ReactorMode::Auto | ReactorMode::Threaded => "threaded",
    };
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
        .store(shards as u64, Ordering::Relaxed);
    stats.register(&registry);
    source.register_metrics(&registry);
    let shard_depths: Vec<Arc<AtomicU64>> = if mode == "reactor" {
        (0..shards)
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
        ring: TraceRing::new(resolve_opt_knob(cfg.trace_ring, TRACE_RING_ENV, 256)),
        slow_query_us: resolve_opt_knob(cfg.slow_query_us, SLOW_QUERY_ENV, 0),
        shard_depths,
        source_label,
        mode,
        shards,
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
    /// Connections accepted but not yet popped by a worker (threaded mode)
    /// or not yet registered by their shard (reactor mode).
    pub(crate) queued: AtomicU64,
    pub(crate) stats: ServerStats,
    pub(crate) obs: Obs,
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
    shards: usize,
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

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
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
    /// `POST /write`). The worker count is resolved at [`Self::run`].
    pub fn bind(
        source: impl Into<Source>,
        addr: impl ToSocketAddrs,
        mut cfg: ServeConfig,
    ) -> std::io::Result<Server> {
        // A zero poll interval would make set_read_timeout fail (leaving
        // sockets blocking, which breaks shutdown) and turn the accept
        // loop into a busy spin — clamp it to something meaningful.
        cfg.poll_interval = cfg.poll_interval.max(Duration::from_millis(1));
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let threads = effective_threads_env(cfg.threads, THREADS_ENV);
        let shards = resolve_knob(cfg.shards, SHARDS_ENV, threads);
        let source = source.into();
        let stats = ServerStats::new();
        let obs = build_obs(&source, &stats, &cfg, threads, shards);
        Ok(Server {
            listener,
            source,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                accept_exited: AtomicBool::new(false),
                open_conns: AtomicU64::new(0),
                queued: AtomicU64::new(0),
                stats,
                obs,
            }),
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

    /// The resolved worker-thread count (threaded mode's pool size).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The resolved reactor shard count (reactor mode's event-loop count).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The serving discipline [`Self::run`] will use, after applying the
    /// [`REACTOR_ENV`] override and platform detection — never
    /// [`ReactorMode::Auto`]. (If epoll unexpectedly fails at runtime on a
    /// platform that compiles with it, `run` under `Auto` still falls back
    /// to the threaded path even though this reported the reactor.)
    pub fn mode(&self) -> ReactorMode {
        match resolve_mode(self.cfg.reactor) {
            ReactorMode::Auto if cfg!(target_os = "linux") => ReactorMode::Reactor,
            ReactorMode::Auto => ReactorMode::Threaded,
            explicit => explicit,
        }
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

    /// Serves until shutdown: the calling thread runs the accept loop; the
    /// reactor shards or the worker pool handle connections (per
    /// [`ServeConfig::reactor`]). Returns after the drain completes.
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
        let mode = resolve_mode(cfg.reactor);
        if mode != ReactorMode::Threaded {
            match reactor::run(
                &listener, &source, &shared, &cfg, &limits, shards, max_conns, watermark,
            ) {
                // No epoll on this platform: Auto falls back to the
                // threaded path below (the listener is untouched — the
                // reactor probes its pollers before accepting anything).
                Err(e)
                    if e.kind() == std::io::ErrorKind::Unsupported && mode == ReactorMode::Auto => {
                }
                served => return served,
            }
        }
        run_threaded(
            listener, source, &shared, &cfg, &limits, threads, max_conns, watermark,
        );
        Ok(())
    }
}

/// The blocking fallback: a fixed worker pool draining a closeable queue
/// of accepted connections, each worker owning one connection at a time.
#[allow(clippy::too_many_arguments)]
fn run_threaded(
    listener: TcpListener,
    source: Source,
    shared: &Arc<Shared>,
    cfg: &ServeConfig,
    limits: &Limits,
    threads: usize,
    max_conns: u64,
    watermark: u64,
) {
    let queue: Queue<TcpStream> = Queue::new();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // The worker's render buffers outlive its connections, as a
                // reactor shard's do.
                let mut scratch = Scratch::new();
                while let Some(conn) = queue.pop() {
                    shared.queued.fetch_sub(1, Ordering::Relaxed);
                    serve_connection(&source, shared, cfg, limits, threads, conn, &mut scratch);
                }
            });
        }
        // Non-blocking accept with a short idle sleep: the loop
        // observes the shutdown flag even if the wake-up connect in
        // ServerHandle::shutdown never lands (wildcard binds, full
        // backlog), so run() can never hang on accept(). The tick is
        // deliberately much shorter than poll_interval — it bounds
        // *accept latency* for every new connection, not just shutdown
        // responsiveness.
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
                    // Workers rely on read timeouts, which need a
                    // blocking socket (some platforms inherit the
                    // listener's non-blocking flag).
                    if conn.set_nonblocking(false).is_err() {
                        continue;
                    }
                    // Admission control: past the connection cap or the
                    // queue watermark, every worker is saturated and an
                    // admitted connection would only queue — answer a
                    // canned 503 now so the client can back off, and
                    // admitted requests keep their flat latency.
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
                    if !queue.push(conn) {
                        // The queue closed between the shutdown check
                        // and the push: the connection was dropped, not
                        // queued. Undo the optimistic accounting above
                        // or /stats lies for the whole drain (and
                        // open_conns never returns to zero).
                        shared.stats.accepted.fetch_sub(1, Ordering::Relaxed);
                        shared.open_conns.fetch_sub(1, Ordering::Relaxed);
                        shared.queued.fetch_sub(1, Ordering::Relaxed);
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && nonblocking => {
                    std::thread::sleep(accept_tick);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion):
                    // back off briefly instead of spinning.
                    std::thread::sleep(cfg.poll_interval);
                }
            }
        }
        shared.accept_exited.store(true, Ordering::SeqCst);
        queue.close();
    });
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
pub(crate) fn shed_connection(conn: TcpStream) {
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
    let _ = std::io::Read::read(&mut conn, &mut sink);
}

/// Serves one connection for its whole keep-alive lifetime.
fn serve_connection(
    source: &Source,
    shared: &Shared,
    cfg: &ServeConfig,
    limits: &Limits,
    threads: usize,
    stream: TcpStream,
    scratch: &mut Scratch,
) {
    shared.stats.active.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    // The read timeout is the poll tick: blocked reads wake this often to
    // re-check the shutdown flag.
    let _ = stream.set_read_timeout(Some(cfg.poll_interval));
    // The write deadline is the write-side slowloris defense: a client that
    // stops *reading* while a response is in flight fails the stalled
    // write_all and loses the connection, instead of pinning this worker
    // forever. (Per-syscall, so a trickle-reader can stretch a single large
    // response further — the reactor's wall-clock write deadline is the
    // strict version.)
    let _ = stream.set_write_timeout(Some(cfg.request_timeout));
    let mut conn = Conn::new(stream);
    let mut head = Vec::new();
    let should_abort = || shared.shutdown.load(Ordering::SeqCst);
    loop {
        // Arm the request trace before reading: the parse stage runs inside
        // read_request. Only stage-guarded code accumulates, so time blocked
        // waiting for the next keep-alive request attributes nowhere.
        neats_core::obs::span_begin();
        match conn.read_request(limits, &should_abort) {
            Ok(ReadOutcome::Request(req)) => {
                // A handler panic must not take down the worker (the pool is
                // fixed — a dead worker would shrink capacity forever); the
                // panicking request gets a 500 and its connection closes.
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    handler::handle(source, &shared.stats, &shared.obs, threads, &req, scratch)
                }));
                let (resp, close_after) = match result {
                    Ok(resp) => (resp, false),
                    Err(_) => {
                        shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                        (Response::error(500, "internal error"), true)
                    }
                };
                // On shutdown, drain: requests the client already pipelined
                // in full are still answered before the close.
                let keep = req.keep_alive
                    && !close_after
                    && (!should_abort() || conn.has_buffered_request());
                let written = http::write_response(conn.stream(), &resp, keep, &mut head);
                scratch.reclaim(resp);
                match written {
                    Ok(n) => {
                        shared.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                        if !keep {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            Ok(ReadOutcome::Closed) => break,
            Err(HttpError { status, reason }) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                if status == 408 {
                    // Slow-drip or idle deadline — the slowloris defenses.
                    shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                let resp = Response::error(status, &reason);
                if let Ok(n) = http::write_response(conn.stream(), &resp, false, &mut head) {
                    shared.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                }
                break;
            }
        }
    }
    // Discard any span left armed by a request that never reached the
    // handler — this worker thread is pooled.
    let _ = neats_core::obs::span_take();
    shared.stats.active.fetch_sub(1, Ordering::Relaxed);
    shared.open_conns.fetch_sub(1, Ordering::Relaxed);
}
