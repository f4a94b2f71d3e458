//! Observability over the wire: `GET /metrics` exposition diffed against
//! known traffic, `GET /debug/requests` stage breakdowns, and the
//! slow-query threshold — all through real loopback sockets.

mod common;

use common::{demo_store, Client};
use neats_ingest::{IngestConfig, Ingestor};
use neats_serve::{ServeConfig, Server, ServerHandle};
use neats_store::{Store, StoreOptions};
use std::sync::Arc;
use std::thread::JoinHandle;

fn start_with(cfg: ServeConfig) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
    start_on(demo_store(), cfg)
}

fn start_on(
    store: Arc<Store>,
    cfg: ServeConfig,
) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(store, "127.0.0.1:0", cfg).expect("bind");
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    (handle, running)
}

fn stop(handle: ServerHandle, running: JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    running.join().expect("server thread").expect("server run");
}

/// Every line of a 0.0.4 exposition is a comment or a `name{labels} value`
/// sample whose value parses as a float; every family announces `# HELP`
/// and `# TYPE` before its first sample. Returns the sample lines.
fn check_prometheus_text(text: &str) -> Vec<(String, f64)> {
    let mut announced = std::collections::HashSet::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition:\n{text}");
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.split(' ');
            let kw = words.next().unwrap();
            assert!(kw == "HELP" || kw == "TYPE", "bad comment {line:?}");
            let name = words.next().expect("family name").to_string();
            if kw == "TYPE" {
                let t = words.next().expect("type");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&t),
                    "bad type in {line:?}"
                );
                announced.insert(name);
            }
            continue;
        }
        let (name_labels, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        let name = name_labels.split('{').next().unwrap().to_string();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        // A histogram's _bucket/_sum/_count samples hang off the announced
        // family name.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| announced.contains(*f))
            .unwrap_or(&name);
        assert!(
            announced.contains(family),
            "sample {line:?} before its # TYPE announcement"
        );
        samples.push((name_labels.to_string(), value));
    }
    samples
}

/// The value of an exact `name{labels}` sample.
fn sample(samples: &[(String, f64)], key: &str) -> f64 {
    samples
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no sample {key} in {samples:?}"))
        .1
}

/// Drives known traffic at the server and diffs `/metrics` against it:
/// the exposition must be valid Prometheus text whose counters equal the
/// requests actually made, reading the same atomics as `/stats`.
#[test]
fn metrics_match_known_traffic_reactor() {
    let (handle, running) = start_with(ServeConfig {
        threads: 2,
        source_label: "demo.pack".into(),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr());

    // Known traffic: 3 good point queries, 1 unknown series (404),
    // 1 catalog fetch, 1 stats fetch.
    for k in [1, 2, 3] {
        assert_eq!(client.get(&format!("/q/cpu?idx={k}")).status, 200);
    }
    assert_eq!(client.get("/q/ghost?idx=0").status, 404);
    assert_eq!(client.get("/series").status, 200);
    assert_eq!(client.get("/stats").status, 200);

    let r = client.get("/metrics");
    assert_eq!(r.status, 200);
    assert_eq!(
        r.content_type.as_deref(),
        Some("text/plain; version=0.0.4"),
        "exposition content type"
    );
    let samples = check_prometheus_text(&r.body);

    // Counters match the traffic above exactly.
    assert_eq!(sample(&samples, "neats_serve_requests_total{endpoint=\"query\"}"), 4.0);
    assert_eq!(sample(&samples, "neats_serve_errors_total{endpoint=\"query\"}"), 1.0);
    assert_eq!(sample(&samples, "neats_serve_requests_total{endpoint=\"series\"}"), 1.0);
    assert_eq!(sample(&samples, "neats_serve_requests_total{endpoint=\"stats\"}"), 1.0);
    // The /metrics render happens inside its own request, before that
    // request is recorded — the first scrape reports zero of itself.
    assert_eq!(sample(&samples, "neats_serve_requests_total{endpoint=\"metrics\"}"), 0.0);
    assert_eq!(sample(&samples, "neats_serve_slow_queries_total"), 0.0);
    assert!(sample(&samples, "neats_serve_connections_accepted_total") >= 1.0);
    assert!(sample(&samples, "neats_serve_bytes_in_total") > 0.0);
    assert!(sample(&samples, "neats_serve_bytes_out_total") > 0.0);
    assert!(sample(&samples, "neats_serve_uptime_seconds") >= 0.0);
    assert_eq!(sample(&samples, "neats_store_series"), 3.0);

    // The build-info gauge carries the source label and resolved mode.
    let info = samples
        .iter()
        .find(|(k, _)| k.starts_with("neats_build_info{"))
        .expect("neats_build_info");
    assert!(info.0.contains("source=\"demo.pack\""), "{}", info.0);
    assert!(
        info.0.contains("mode=\"reactor\"") || info.0.contains("mode=\"threaded\""),
        "{}",
        info.0
    );
    assert_eq!(info.1, 1.0);

    // Latency histograms count the same requests.
    assert_eq!(sample(&samples, "neats_serve_request_ns_count{endpoint=\"query\"}"), 4.0);

    // Store/cache families are exported from the same store the queries hit.
    for family in [
        "neats_store_cache_hits_total",
        "neats_store_cache_misses_total",
        "neats_store_cache_evictions_total",
        "neats_store_segment_verifications_total",
        "neats_store_points",
    ] {
        assert!(r.body.contains(&format!("# TYPE {family} ")), "missing {family}");
    }
    // The three point queries all fell into segment 0 of `cpu`: one miss
    // (which verified the segment) and two hits.
    assert_eq!(sample(&samples, "neats_store_cache_misses_total"), 1.0);
    assert_eq!(sample(&samples, "neats_store_cache_hits_total"), 2.0);
    assert_eq!(sample(&samples, "neats_store_segment_verifications_total"), 1.0);

    // A second scrape sees the first one — same atomics, no snapshotting.
    let r2 = client.get("/metrics");
    let samples2 = check_prometheus_text(&r2.body);
    assert_eq!(sample(&samples2, "neats_serve_requests_total{endpoint=\"metrics\"}"), 1.0);

    // /stats reads the very same counters.
    let stats = client.get("/stats").body;
    assert!(stats.contains("\"requests\": 4"), "{stats}");

    stop(handle, running);
}

/// Cache misses and segment verifications are different things: with the
/// cache off every query misses, but a segment is verified (CRCs,
/// directories, geometry) only on its first touch — the later misses re-parse
/// its headers. An operator needs both counters to tell "the cache is too
/// small" from "the pack is being validated".
#[test]
fn verifications_count_segments_touched_not_cache_misses() {
    let store = Store::open_with(
        demo_store().as_bytes().to_vec(),
        StoreOptions { cache_capacity: 0, ..Default::default() },
    )
    .unwrap();
    let (handle, running) =
        start_on(Arc::new(store), ServeConfig { threads: 1, ..ServeConfig::default() });
    let mut client = Client::connect(handle.addr());

    // Six queries into segment 0 of `cpu`, two into segment 1 (128-point
    // segments), one range across segments 2 and 3 of `mem`.
    for k in [0, 1, 2, 3, 4, 5, 130, 131] {
        assert_eq!(client.get(&format!("/q/cpu?idx={k}")).status, 200);
    }
    assert_eq!(client.get("/q/mem?idx=300..400").status, 200);

    let samples = check_prometheus_text(&client.get("/metrics").body);
    assert_eq!(sample(&samples, "neats_store_cache_hits_total"), 0.0);
    assert_eq!(sample(&samples, "neats_store_cache_misses_total"), 10.0);
    assert_eq!(sample(&samples, "neats_store_segment_verifications_total"), 4.0);
    assert_eq!(sample(&samples, "neats_store_quarantine_events_total"), 0.0);

    stop(handle, running);
}

/// A live source additionally exports the ingest write-path families, and
/// `POST /write` traffic moves them.
#[test]
fn live_source_exports_ingest_families() {
    let dir = std::env::temp_dir().join("neats_serve_obs_live");
    let _ = std::fs::remove_dir_all(&dir);
    let ing = Arc::new(Ingestor::open(&dir, IngestConfig::default()).unwrap());
    let server = Server::bind(
        Arc::clone(&ing),
        "127.0.0.1:0",
        ServeConfig { threads: 2, source_label: dir.display().to_string(), ..Default::default() },
    )
    .unwrap();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    let mut client = Client::connect(handle.addr());

    let body = "cpu 1000 5\ncpu 1010 6\ncpu 1020 4\n";
    let r = client.raw_request(
        format!(
            "POST /write HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    );
    assert_eq!(r.status, 200, "{}", r.body);

    let r = client.get("/metrics");
    assert_eq!(r.status, 200);
    let samples = check_prometheus_text(&r.body);
    assert!(sample(&samples, "neats_ingest_wal_append_ns_count") >= 1.0);
    assert_eq!(sample(&samples, "neats_ingest_head_points"), 3.0);
    assert_eq!(sample(&samples, "neats_serve_requests_total{endpoint=\"write\"}"), 1.0);
    for family in ["neats_ingest_wal_sync_ns", "neats_ingest_seals_total", "neats_ingest_degraded"]
    {
        assert!(r.body.contains(&format!("# TYPE {family} ")), "missing {family}");
    }

    stop(handle, running);
    drop(ing);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /debug/requests` reports a stage breakdown per request, newest
/// first, bounded by the configured ring capacity.
#[test]
fn debug_requests_stage_breakdown() {
    let (handle, running) = start_with(ServeConfig {
        threads: 1,
        trace_ring: 4,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr());

    // More requests than the ring holds.
    for k in 0..10 {
        assert_eq!(client.get(&format!("/q/cpu?idx={}..{}", k, k + 50)).status, 200);
    }
    let r = client.get("/debug/requests");
    assert_eq!(r.status, 200);
    assert_eq!(r.content_type.as_deref(), Some("application/json"));
    let entries = r.body.matches("\"seq\":").count();
    assert!(entries <= 4, "ring of 4 reported {entries} entries: {}", r.body);
    assert!(entries >= 1, "{}", r.body);
    // Newest first: the first entry is the most recent query.
    let first = r.body.split('}').next().unwrap();
    assert!(first.contains("\"path\": \"/q/cpu\""), "{first}");
    // Every stage of the pipeline is reported by name.
    for stage in ["parse_us", "route_us", "cache_us", "decode_us", "render_us", "write_us"] {
        assert!(r.body.contains(stage), "missing {stage} in {}", r.body);
    }
    assert!(r.body.contains("\"slow\": false"), "{}", r.body);

    stop(handle, running);
}

/// A range's value decode and timestamp scan are traced under `decode` and
/// its text rendering under `render` — with every segment already cached,
/// so the `decode` time seen is the range's own, not a segment open.
#[test]
fn range_stages_are_traced_reactor() {
    let (handle, running) = start_with(ServeConfig {
        threads: 1,
        trace_ring: 8,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr());
    for target in ["/q/cpu?idx=0..700", "/q/cpu?t=0..99999"] {
        // The first pass opens (and caches) the segments.
        assert_eq!(client.get(target).status, 200);
        assert_eq!(client.get(target).status, 200);
        let r = client.get("/debug/requests");
        // Newest first: the first entry is the second pass.
        let newest = r.body.split('}').next().unwrap();
        assert!(newest.contains("\"path\": \"/q/cpu\""), "{newest}");
        let stage_us = |name: &str| -> f64 {
            let field = format!("\"{name}_us\": ");
            let rest = newest
                .split(&field)
                .nth(1)
                .unwrap_or_else(|| panic!("{name} in {newest}"));
            rest.split(',').next().unwrap().trim().parse().unwrap()
        };
        assert!(
            stage_us("decode") > 0.0,
            "{target}: decode not traced: {newest}"
        );
        assert!(
            stage_us("render") > 0.0,
            "{target}: render not traced: {newest}"
        );
    }
    stop(handle, running);
}

/// With the threshold at 1µs every request is slow: the counter moves, the
/// ring flags it, and `/stats` agrees — exercised over a real socket.
#[test]
fn slow_query_threshold_over_socket() {
    let (handle, running) = start_with(ServeConfig {
        threads: 1,
        slow_query_us: 1,
        trace_ring: 8,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr());

    assert_eq!(client.get("/q/cpu?idx=0..300").status, 200);

    let r = client.get("/metrics");
    let samples = check_prometheus_text(&r.body);
    assert!(sample(&samples, "neats_serve_slow_queries_total") >= 1.0);

    let r = client.get("/debug/requests");
    assert!(r.body.contains("\"slow\": true"), "{}", r.body);

    let stats = client.get("/stats").body;
    let slow: u64 = stats
        .split("\"slow_queries\": ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .expect("slow_queries in /stats");
    assert!(slow >= 1, "{stats}");

    stop(handle, running);
}

/// `trace_ring: 0` disables tracing entirely: `/debug/requests`
/// serves an empty array and nothing is recorded.
#[test]
fn trace_ring_zero_disables_tracing() {
    let (handle, running) =
        start_with(ServeConfig { threads: 1, trace_ring: 0, ..ServeConfig::default() });
    let mut client = Client::connect(handle.addr());
    assert_eq!(client.get("/q/cpu?idx=5").status, 200);
    let r = client.get("/debug/requests");
    assert_eq!(r.status, 200);
    assert_eq!(r.body.trim(), "[]", "{}", r.body);
    stop(handle, running);
}
