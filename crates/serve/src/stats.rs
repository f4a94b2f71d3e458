//! Per-endpoint request counters and latency histograms, rendered by
//! `GET /stats` — plus the serve-layer observability bundle ([`Obs`]).
//!
//! Every counter is an `Arc`'d atomic so it can be registered into the
//! workspace metrics [`Registry`] ([`ServerStats::register`]): `/stats` and
//! `GET /metrics` then read the *same* memory — one source of truth, no
//! sampling skew between the two surfaces.

use neats_store::histogram::AtomicHistogram;
use neats_store::obs::{Registry, TraceRing};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The endpoints the server tracks separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /series`.
    Series,
    /// `GET /q/<series>` — single queries.
    Query,
    /// `POST /q` — batched queries.
    Batch,
    /// `POST /write` — live ingestion (live sources only).
    Write,
    /// `GET /stats`.
    Stats,
    /// `GET /metrics` — Prometheus text exposition.
    Metrics,
    /// `GET /debug/requests` — the recent-request trace ring.
    Debug,
}

impl Endpoint {
    /// All endpoints, in `/stats` render order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Series,
        Endpoint::Query,
        Endpoint::Batch,
        Endpoint::Write,
        Endpoint::Stats,
        Endpoint::Metrics,
        Endpoint::Debug,
    ];

    /// The key this endpoint renders under in the `/stats` JSON (and the
    /// `endpoint` label value on `/metrics`).
    pub fn key(self) -> &'static str {
        match self {
            Endpoint::Series => "series",
            Endpoint::Query => "query",
            Endpoint::Batch => "batch",
            Endpoint::Write => "write",
            Endpoint::Stats => "stats",
            Endpoint::Metrics => "metrics",
            Endpoint::Debug => "debug",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Series => 0,
            Endpoint::Query => 1,
            Endpoint::Batch => 2,
            Endpoint::Write => 3,
            Endpoint::Stats => 4,
            Endpoint::Metrics => 5,
            Endpoint::Debug => 6,
        }
    }
}

/// One endpoint's counters (shared handles — see the module docs).
pub struct EndpointStats {
    /// Requests routed to the endpoint (including those answered 4xx).
    pub requests: Arc<AtomicU64>,
    /// Requests answered with a 4xx/5xx status.
    pub errors: Arc<AtomicU64>,
    /// Wall-clock handling latency, nanoseconds (excludes socket I/O of the
    /// response write).
    pub latency_ns: Arc<AtomicHistogram>,
}

impl Default for EndpointStats {
    fn default() -> Self {
        Self::new()
    }
}

impl EndpointStats {
    fn new() -> Self {
        Self {
            requests: Arc::new(AtomicU64::new(0)),
            errors: Arc::new(AtomicU64::new(0)),
            latency_ns: Arc::new(AtomicHistogram::new()),
        }
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

/// All counters one server instance exposes on `/stats`.
pub struct ServerStats {
    started: Instant,
    /// Connections accepted since start.
    pub accepted: Arc<AtomicU64>,
    /// Connections currently being served.
    pub active: Arc<AtomicU64>,
    /// Requests that failed HTTP parsing before reaching any endpoint
    /// (malformed heads, limit violations, timeouts).
    pub protocol_errors: Arc<AtomicU64>,
    /// Requests for paths that route nowhere (404/405 before an endpoint).
    pub unrouted: Arc<AtomicU64>,
    /// Handler panics converted to 500s — the severest failure class must
    /// be visible on `/stats`, and a panicking handler never reaches the
    /// per-endpoint recording path.
    pub panics: Arc<AtomicU64>,
    /// Connections shed at accept time (connection cap or worker-queue
    /// watermark exceeded) with a canned `503 + Retry-After`.
    pub shed: Arc<AtomicU64>,
    /// Requests answered 408: header/body slow-drip or idle keep-alive
    /// deadlines (the slowloris defenses).
    pub timeouts: Arc<AtomicU64>,
    /// Requests answered 503 by a handler — the source was degraded
    /// (read-only ingest) or quarantined when the request arrived.
    pub degraded: Arc<AtomicU64>,
    /// Requests that crossed the slow-query threshold (see
    /// [`crate::ServeConfig::slow_query_us`]); 0 while the log is disabled.
    pub slow_queries: Arc<AtomicU64>,
    /// Request bytes received (head + body of parsed requests).
    pub bytes_in: Arc<AtomicU64>,
    /// Response bytes written to sockets.
    pub bytes_out: Arc<AtomicU64>,
    endpoints: [EndpointStats; 7],
}

impl ServerStats {
    /// Fresh counters; the uptime clock starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            accepted: Arc::new(AtomicU64::new(0)),
            active: Arc::new(AtomicU64::new(0)),
            protocol_errors: Arc::new(AtomicU64::new(0)),
            unrouted: Arc::new(AtomicU64::new(0)),
            panics: Arc::new(AtomicU64::new(0)),
            shed: Arc::new(AtomicU64::new(0)),
            timeouts: Arc::new(AtomicU64::new(0)),
            degraded: Arc::new(AtomicU64::new(0)),
            slow_queries: Arc::new(AtomicU64::new(0)),
            bytes_in: Arc::new(AtomicU64::new(0)),
            bytes_out: Arc::new(AtomicU64::new(0)),
            endpoints: std::array::from_fn(|_| EndpointStats::new()),
        }
    }

    /// The counters of `e`.
    pub fn endpoint(&self, e: Endpoint) -> &EndpointStats {
        &self.endpoints[e.index()]
    }

    /// Records one handled request on `e`.
    pub fn record(&self, e: Endpoint, status: u16, elapsed_ns: u64) {
        let s = self.endpoint(e);
        s.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            s.errors.fetch_add(1, Ordering::Relaxed);
        }
        s.latency_ns.record(elapsed_ns);
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Registers every counter into `reg` as shared samples — the atomics
    /// behind `/metrics` are the ones [`Self::record`] and the serving
    /// loops bump, so the two exposition surfaces can never disagree.
    pub fn register(&self, reg: &Registry) {
        let t0 = self.started;
        reg.gauge_fn(
            "neats_serve_uptime_seconds",
            "Seconds since the server started.",
            &[],
            move || t0.elapsed().as_secs_f64(),
        );
        reg.counter_shared(
            "neats_serve_connections_accepted_total",
            "Connections accepted since start.",
            &[],
            Arc::clone(&self.accepted),
        );
        reg.gauge_shared(
            "neats_serve_connections_active",
            "Connections currently being served.",
            &[],
            Arc::clone(&self.active),
        );
        reg.counter_shared(
            "neats_serve_protocol_errors_total",
            "Requests that failed HTTP parsing before reaching any endpoint.",
            &[],
            Arc::clone(&self.protocol_errors),
        );
        reg.counter_shared(
            "neats_serve_unrouted_total",
            "Requests for paths that route nowhere (404/405).",
            &[],
            Arc::clone(&self.unrouted),
        );
        reg.counter_shared(
            "neats_serve_panics_total",
            "Handler panics converted to 500 responses.",
            &[],
            Arc::clone(&self.panics),
        );
        reg.counter_shared(
            "neats_serve_shed_total",
            "Connections shed at accept time with a canned 503.",
            &[],
            Arc::clone(&self.shed),
        );
        reg.counter_shared(
            "neats_serve_timeouts_total",
            "Requests answered 408 (slow-drip or idle deadlines).",
            &[],
            Arc::clone(&self.timeouts),
        );
        reg.counter_shared(
            "neats_serve_degraded_responses_total",
            "Requests answered 503 by a handler (degraded or quarantined source).",
            &[],
            Arc::clone(&self.degraded),
        );
        reg.counter_shared(
            "neats_serve_slow_queries_total",
            "Requests that crossed the slow-query threshold.",
            &[],
            Arc::clone(&self.slow_queries),
        );
        reg.counter_shared(
            "neats_serve_bytes_in_total",
            "Request bytes received (head + body of parsed requests).",
            &[],
            Arc::clone(&self.bytes_in),
        );
        reg.counter_shared(
            "neats_serve_bytes_out_total",
            "Response bytes written to sockets.",
            &[],
            Arc::clone(&self.bytes_out),
        );
        for e in Endpoint::ALL {
            let s = self.endpoint(e);
            let labels = [("endpoint", e.key())];
            reg.counter_shared(
                "neats_serve_requests_total",
                "Requests routed per endpoint (including those answered 4xx).",
                &labels,
                Arc::clone(&s.requests),
            );
            reg.counter_shared(
                "neats_serve_errors_total",
                "Requests answered 4xx/5xx per endpoint.",
                &labels,
                Arc::clone(&s.errors),
            );
            reg.histogram_shared(
                "neats_serve_request_ns",
                "Request handling latency per endpoint, nanoseconds.",
                &labels,
                Arc::clone(&s.latency_ns),
            );
        }
    }
}

/// The serve-layer observability bundle, created at [`crate::Server::bind`]
/// and threaded to the handler through the shared server state: the metric
/// registry `/metrics` renders, the recent-request trace ring behind
/// `/debug/requests`, the slow-query threshold, and the serving metadata
/// `/stats` reports (source label, observed driver).
pub(crate) struct Obs {
    pub(crate) registry: Arc<Registry>,
    pub(crate) ring: TraceRing,
    /// Slow-query threshold in microseconds; `0` disables the log.
    pub(crate) slow_query_us: u64,
    /// Per-shard registered-connection gauges (readiness driver; empty
    /// under the blocking one).
    pub(crate) shard_depths: Vec<Arc<AtomicU64>>,
    /// What the server is serving (pack path or ingest directory).
    pub(crate) source_label: String,
    /// The driver observed at bind (`"reactor"` / `"threaded"`).
    pub(crate) mode: &'static str,
}

impl Obs {
    /// An inert bundle for direct `handler::handle` calls in tests: empty
    /// registry, disabled ring, slow-query log off.
    #[cfg(test)]
    pub(crate) fn disabled() -> Self {
        Self {
            registry: Arc::new(Registry::new()),
            ring: TraceRing::new(0),
            slow_query_us: 0,
            shard_depths: Vec::new(),
            source_label: String::new(),
            mode: "threaded",
        }
    }
}
