//! Serving-layer baseline harness: request throughput and latency of the
//! `neats-serve` HTTP frontend under concurrent in-process clients, written
//! machine-readable to `BENCH_serve.json` (sibling of the other `BENCH_*`
//! artifacts).
//!
//! The sweep is worker-thread count × batch size: every cell starts a fresh
//! server on an ephemeral loopback port, hammers it with
//! `NEATS_BENCH_CLIENTS` keep-alive client threads issuing batched
//! `POST /q` point queries, and reports requests/s, queries/s, and
//! client-observed p50/p99/max latency. Every response is parsed and
//! checked against the direct `Store` oracle before any number is
//! reported, so the throughput figures can never describe a server that
//! answers wrongly.
//!
//! An instrumentation sweep re-runs the threads=1 × batch=1 point-query
//! cell at three tracing levels (trace ring off / on / on with the
//! slow-query check armed) to price the observability hot path; the
//! metrics registry itself is always on.
//!
//! A second sweep measures overload behaviour: connection-per-request
//! clients at 1× and 4× the worker count, with admission control (the
//! worker-queue shed watermark) on and off. It asserts the robustness
//! contract — under 4× saturation with shedding on, requests are shed with
//! 503s while the p99 of *admitted* requests stays within
//! `NEATS_BENCH_OVERLOAD_FACTOR` (default 50) of the unsaturated p99.
//!
//! A third sweep (Linux only — it drives the epoll reactor) is the C10K
//! measurement the reactor exists for: `NEATS_BENCH_IDLE_CONNS` (default
//! up to 10 000, clamped to the process fd limit) mostly-idle keep-alive
//! connections are parked on the server while a handful of active clients
//! issue timed point queries, across the `NEATS_BENCH_SERVE_THREADS` shard
//! counts. The gate: the active clients' p99 at the largest connection
//! count stays within `NEATS_BENCH_IDLE_FACTOR` (default 25) of the
//! smallest — idle connections must cost a slab entry, not latency.
//!
//! Run with `cargo run --release -p bench --bin serve_baseline`; scale with
//! `NEATS_BENCH_N` (points per series) / `NEATS_BENCH_SERIES` /
//! `NEATS_BENCH_QUERIES` (queries per cell) / `NEATS_BENCH_CLIENTS`, sweep
//! with `NEATS_BENCH_SERVE_THREADS` / `NEATS_BENCH_BATCH` /
//! `NEATS_BENCH_IDLE_CONNS` (comma-separated), size the overload window
//! with `NEATS_BENCH_OVERLOAD_MS`, and redirect with `NEATS_BENCH_OUT`.
//! The 10 000-connection default needs ~20 000 fds in this one process —
//! run under `ulimit -n 65536` (or let the clamp shrink the sweep).

use bench::json::Json;
use bench::{env_usize, env_usize_list, query_indices};
use neats_core::AtomicHistogram;
use neats_serve::{ServeConfig, Server};
use neats_store::{Store, StoreConfig, StoreWriter};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use timeseries::Dataset;

fn main() {
    let n = env_usize("NEATS_BENCH_N", 1 << 14);
    let series_count = env_usize("NEATS_BENCH_SERIES", 4);
    let queries = env_usize("NEATS_BENCH_QUERIES", 20_000);
    let clients = env_usize("NEATS_BENCH_CLIENTS", 4);
    let thread_sweep = env_usize_list("NEATS_BENCH_SERVE_THREADS", &[1, 2]);
    let batch_sweep = env_usize_list("NEATS_BENCH_BATCH", &[1, 16]);
    let out_path = std::env::var("NEATS_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "serve_baseline — {series_count} series × {n} points, {queries} queries/cell, \
         {clients} client(s), threads {thread_sweep:?} × batch {batch_sweep:?}, {cores} core(s)"
    );

    // --- One pack, reused by every cell.
    let names: Vec<String> = (0..series_count).map(|i| format!("s{i:02}")).collect();
    let mut data = Vec::new();
    for i in 0..series_count {
        let ds = Dataset::ALL[i % Dataset::ALL.len()];
        let ts = ds.generate(n);
        let stamps: Vec<u64> = (0..n as u64).map(|k| 1_700_000_000 + k * 30).collect();
        data.push((stamps, ts.values().to_vec()));
    }
    let mut w = StoreWriter::new(StoreConfig::default());
    for (name, (stamps, values)) in names.iter().zip(&data) {
        w.ingest(name, stamps, values).expect("ingest");
    }
    let pack = w.finish().expect("finish pack");
    println!("pack: {} bytes", pack.len());

    // The oracle store answers directly; the server gets its own copy of
    // the bytes (same `Arc` sharing as production).
    let oracle = Store::open(pack.clone()).expect("open oracle");

    // Deterministic query plan shared by every cell.
    let sidx = query_indices(series_count, queries);
    let pidx = query_indices(n, queries);

    let mut cells = Vec::new();
    for &threads in &thread_sweep {
        for &batch in &batch_sweep {
            let store = Arc::new(Store::open(pack.clone()).expect("open server store"));
            let cfg = ServeConfig {
                threads,
                ..ServeConfig::default()
            };
            let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", cfg).expect("bind");
            let addr = server.local_addr();
            let handle = server.handle();
            let running = std::thread::spawn(move || server.run());

            let requests_total = (queries / batch).max(1);
            let per_client = requests_total.div_ceil(clients);
            let latency = AtomicHistogram::new();
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for c in 0..clients {
                    let latency = &latency;
                    let names = &names;
                    let oracle = &oracle;
                    let sidx = &sidx;
                    let pidx = &pidx;
                    s.spawn(move || {
                        let first = c * per_client;
                        let last = (first + per_client).min(requests_total);
                        client_loop(addr, names, oracle, sidx, pidx, batch, first, last, latency);
                    });
                }
            });
            let wall = t0.elapsed().as_secs_f64();
            handle.shutdown();
            running.join().expect("server thread").expect("server run");

            let snap = latency.snapshot();
            let reqs = snap.count();
            let reqs_per_s = reqs as f64 / wall;
            let queries_per_s = (reqs as usize * batch) as f64 / wall;
            let (p50, p99, max) = (
                snap.quantile(0.5) as f64 / 1e3,
                snap.quantile(0.99) as f64 / 1e3,
                snap.max() as f64 / 1e3,
            );
            println!(
                "threads {threads} × batch {batch:>3}: {reqs_per_s:>8.0} req/s \
                 ({queries_per_s:>9.0} q/s), p50 {p50:>7.1} µs, p99 {p99:>8.1} µs"
            );
            cells.push(Json::obj(vec![
                ("threads", Json::Int(threads as i64)),
                ("batch", Json::Int(batch as i64)),
                ("clients", Json::Int(clients as i64)),
                ("requests", Json::Int(reqs as i64)),
                ("reqs_per_s", Json::Num(reqs_per_s)),
                ("queries_per_s", Json::Num(queries_per_s)),
                ("p50_us", Json::Num(p50)),
                ("p99_us", Json::Num(p99)),
                ("max_us", Json::Num(max)),
            ]));
        }
    }

    // --- Instrumentation-overhead sweep: the same threads=1 × batch=1
    // point-query cell, with the request-trace machinery at three levels —
    // ring disabled, the default ring, and ring + slow-query threshold
    // armed (set just out of reach, so the check runs but nothing logs).
    // The metrics registry itself is always on (it *is* the stats path);
    // this isolates the marginal cost of tracing on the hot path.
    let mut instr_cells = Vec::new();
    let mut instr_p50: Vec<(&str, f64)> = Vec::new();
    for (label, trace_ring, slow_query_us) in [
        ("off", Some(0usize), Some(0u64)),
        ("ring", Some(256), Some(0)),
        ("ring+slowlog", Some(256), Some(u64::MAX / 2_000)),
    ] {
        let store = Arc::new(Store::open(pack.clone()).expect("open server store"));
        let cfg = ServeConfig {
            threads: 1,
            trace_ring,
            slow_query_us,
            ..ServeConfig::default()
        };
        let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", cfg).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let running = std::thread::spawn(move || server.run());

        let requests_total = queries.max(1);
        let per_client = requests_total.div_ceil(clients);
        let latency = AtomicHistogram::new();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let (latency, names, oracle, sidx, pidx) = (&latency, &names, &oracle, &sidx, &pidx);
                s.spawn(move || {
                    let first = c * per_client;
                    let last = (first + per_client).min(requests_total);
                    client_loop(addr, names, oracle, sidx, pidx, 1, first, last, latency);
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        handle.shutdown();
        running.join().expect("server thread").expect("server run");

        let snap = latency.snapshot();
        let reqs_per_s = snap.count() as f64 / wall;
        let (p50, p99) = (
            snap.quantile(0.5) as f64 / 1e3,
            snap.quantile(0.99) as f64 / 1e3,
        );
        println!(
            "instrumentation {label:>12}: {reqs_per_s:>8.0} req/s, \
             p50 {p50:>7.1} µs, p99 {p99:>8.1} µs"
        );
        instr_p50.push((label, p50));
        instr_cells.push(Json::obj(vec![
            ("level", Json::Str(label.into())),
            ("trace_ring", Json::Int(trace_ring.unwrap_or(0) as i64)),
            ("slow_query_armed", Json::Bool(slow_query_us.unwrap_or(0) > 0)),
            ("reqs_per_s", Json::Num(reqs_per_s)),
            ("p50_us", Json::Num(p50)),
            ("p99_us", Json::Num(p99)),
        ]));
    }
    let instr_json = Json::obj(vec![("cells", Json::Arr(instr_cells))]);

    // --- Overload sweep: offered load × shedding on/off.
    //
    // Connection-per-request clients (a keep-alive client would be owned by
    // one worker forever and never experience admission) hammer the server
    // for a fixed wall-clock window at 1× and 4× the worker count. With
    // shedding ON the worker queue is capped at a small watermark, so
    // admitted requests never sit behind a deep backlog; with shedding OFF
    // the caps are effectively infinite and saturation shows up as queueing
    // delay in the admitted tail. Shed responses (503 or a reset under
    // pressure) are counted, not timed.
    let overload_ms = env_usize("NEATS_BENCH_OVERLOAD_MS", 1000);
    let overload_factor = env_usize("NEATS_BENCH_OVERLOAD_FACTOR", 50);
    let ov_threads = thread_sweep.last().copied().unwrap_or(2).max(1);
    struct OverloadCell {
        load_x: usize,
        shedding: bool,
        ok: u64,
        shed: u64,
        errors: u64,
        p50_us: f64,
        p99_us: f64,
    }
    let mut ov_cells: Vec<OverloadCell> = Vec::new();
    for &load_x in &[1usize, 4] {
        for &shedding in &[true, false] {
            let store = Arc::new(Store::open(pack.clone()).expect("open server store"));
            let cfg = ServeConfig {
                threads: ov_threads,
                queue_watermark: if shedding { 2 } else { 1 << 20 },
                max_connections: if shedding { 0 } else { 1 << 20 },
                ..ServeConfig::default()
            };
            let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", cfg).expect("bind");
            let addr = server.local_addr();
            let handle = server.handle();
            let running = std::thread::spawn(move || server.run());

            let latency = AtomicHistogram::new();
            let ok = std::sync::atomic::AtomicU64::new(0);
            let shed = std::sync::atomic::AtomicU64::new(0);
            let errors = std::sync::atomic::AtomicU64::new(0);
            let deadline = Instant::now() + std::time::Duration::from_millis(overload_ms as u64);
            std::thread::scope(|s| {
                for c in 0..ov_threads * load_x {
                    let (latency, ok, shed, errors) = (&latency, &ok, &shed, &errors);
                    let (names, pidx) = (&names, &pidx);
                    s.spawn(move || {
                        let mut q = c;
                        while Instant::now() < deadline {
                            let k = pidx[q % pidx.len()];
                            let target = format!("/q/{}?idx={k}", names[q % names.len()]);
                            q = q.wrapping_add(1);
                            let t0 = Instant::now();
                            match oneshot_get(addr, &target) {
                                Some(200) => {
                                    latency.record(t0.elapsed().as_nanos() as u64);
                                    ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                Some(503) => {
                                    shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                _ => {
                                    errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
            });
            handle.shutdown();
            running.join().expect("server thread").expect("server run");

            let snap = latency.snapshot();
            let cell = OverloadCell {
                load_x,
                shedding,
                ok: ok.into_inner(),
                shed: shed.into_inner(),
                errors: errors.into_inner(),
                p50_us: snap.quantile(0.5) as f64 / 1e3,
                p99_us: snap.quantile(0.99) as f64 / 1e3,
            };
            println!(
                "overload {}× load, shedding {:>3}: {:>7} ok, {:>6} shed, {:>4} errors, \
                 admitted p50 {:>7.1} µs, p99 {:>8.1} µs",
                cell.load_x,
                if shedding { "on" } else { "off" },
                cell.ok,
                cell.shed,
                cell.errors,
                cell.p50_us,
                cell.p99_us,
            );
            ov_cells.push(cell);
        }
    }

    // The robustness acceptance gate: under 4× saturation with shedding on,
    // the p99 of *admitted* requests must stay within a (generous, CI-noise
    // tolerant) factor of the unsaturated p99 — overload is absorbed by
    // shedding, not by the latency of the requests the server accepted. A
    // 500 µs floor keeps the ratio meaningful when the baseline is microseconds.
    let p99_base = ov_cells
        .iter()
        .find(|c| c.load_x == 1 && c.shedding)
        .map(|c| c.p99_us)
        .unwrap_or(0.0);
    let hot = ov_cells
        .iter()
        .find(|c| c.load_x == 4 && c.shedding)
        .expect("4x cell");
    assert!(
        hot.shed > 0,
        "4× saturation with shedding on must shed ({} ok)",
        hot.ok
    );
    assert!(hot.ok > 0, "shedding must not starve admission entirely");
    let bound = overload_factor as f64 * p99_base.max(500.0);
    assert!(
        hot.p99_us <= bound,
        "admitted p99 under 4× saturation regressed: {:.1} µs > {bound:.1} µs \
         (baseline {p99_base:.1} µs × factor {overload_factor})",
        hot.p99_us,
    );

    let overload_json = Json::obj(vec![
        ("threads", Json::Int(ov_threads as i64)),
        ("duration_ms", Json::Int(overload_ms as i64)),
        (
            "cells",
            Json::Arr(
                ov_cells
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("load_x", Json::Int(c.load_x as i64)),
                            ("shedding", Json::Bool(c.shedding)),
                            ("ok", Json::Int(c.ok as i64)),
                            ("shed", Json::Int(c.shed as i64)),
                            ("errors", Json::Int(c.errors as i64)),
                            ("p50_us", Json::Num(c.p50_us)),
                            ("p99_us", Json::Num(c.p99_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    // --- Idle keep-alive sweep (the C10K cell): park `conns` keep-alive
    // connections, then measure active-client latency through the crowd.
    let idle_sweep_req = env_usize_list("NEATS_BENCH_IDLE_CONNS", &[100, 1_000, 10_000]);
    let idle_factor = env_usize("NEATS_BENCH_IDLE_FACTOR", 25);
    // Every parked connection costs two fds in this process (client + server
    // end); clamp the sweep so the harness degrades instead of dying with
    // EMFILE on small limits (CI runners default to 1024).
    let fd_budget = fd_soft_limit().saturating_sub(128) / 2;
    let mut idle_sweep: Vec<usize> = idle_sweep_req
        .iter()
        .map(|&c| c.min(fd_budget).max(1))
        .collect();
    idle_sweep.dedup();
    if idle_sweep != idle_sweep_req {
        println!(
            "idle sweep clamped to {idle_sweep:?} (fd budget {fd_budget}); \
             raise `ulimit -n` for the full {idle_sweep_req:?}"
        );
    }
    let mut idle_cells = Vec::new();
    let mut idle_p99: Vec<(usize, f64)> = Vec::new();
    if cfg!(target_os = "linux") {
        for &threads in &thread_sweep {
            for &conns in &idle_sweep {
                let store = Arc::new(Store::open(pack.clone()).expect("open server store"));
                let cfg = ServeConfig {
                    threads,
                    // This sweep measures multiplexing, not admission
                    // control: every parked connection must be admitted.
                    max_connections: conns + clients + 64,
                    queue_watermark: 1 << 20,
                    ..ServeConfig::default()
                };
                let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", cfg).expect("bind");
                let addr = server.local_addr();
                let shards = server.threads();
                let handle = server.handle();
                let running = std::thread::spawn(move || server.run());

                // Park the idle crowd: each connection completes one priming
                // request (so the server has committed to keep-alive) and
                // then goes silent, holding its slab entry.
                let connectors = 16usize.min(conns.max(1));
                let per_connector = conns.div_ceil(connectors);
                let parked: Vec<TcpStream> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..connectors)
                        .map(|c| {
                            let names = &names;
                            s.spawn(move || {
                                let mine =
                                    per_connector.min(conns - (c * per_connector).min(conns));
                                (0..mine)
                                    .map(|_| park_one(addr, &names[0]))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("connector"))
                        .collect()
                });
                assert_eq!(
                    parked.len(),
                    conns,
                    "every idle connection must be admitted"
                );

                // Timed phase: a handful of active keep-alive clients issue
                // point queries through the parked crowd.
                let reqs_total = queries.max(1);
                let per_client = reqs_total.div_ceil(clients.max(1));
                let latency = AtomicHistogram::new();
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for c in 0..clients.max(1) {
                        let (latency, names, oracle, sidx, pidx) =
                            (&latency, &names, &oracle, &sidx, &pidx);
                        s.spawn(move || {
                            let first = c * per_client;
                            let last = (first + per_client).min(reqs_total);
                            client_loop(addr, names, oracle, sidx, pidx, 1, first, last, latency);
                        });
                    }
                });
                let wall = t0.elapsed().as_secs_f64();
                drop(parked);
                handle.shutdown();
                running.join().expect("server thread").expect("server run");

                let snap = latency.snapshot();
                let (p50, p99, max) = (
                    snap.quantile(0.5) as f64 / 1e3,
                    snap.quantile(0.99) as f64 / 1e3,
                    snap.max() as f64 / 1e3,
                );
                let reqs_per_s = snap.count() as f64 / wall;
                println!(
                    "idle {conns:>6} conns × {shards} shard(s): {reqs_per_s:>8.0} req/s \
                     through the crowd, p50 {p50:>7.1} µs, p99 {p99:>8.1} µs"
                );
                idle_p99.push((conns, p99));
                idle_cells.push(Json::obj(vec![
                    ("conns", Json::Int(conns as i64)),
                    ("shards", Json::Int(shards as i64)),
                    ("active_clients", Json::Int(clients as i64)),
                    ("reqs_per_s", Json::Num(reqs_per_s)),
                    ("p50_us", Json::Num(p50)),
                    ("p99_us", Json::Num(p99)),
                    ("max_us", Json::Num(max)),
                ]));
            }
        }

        // The C10K acceptance gate: p99 through the largest parked crowd
        // stays within a (CI-noise tolerant) factor of the smallest — a
        // 500 µs floor keeps the ratio meaningful at microsecond baselines.
        let min_conns = idle_sweep.iter().copied().min().unwrap_or(0);
        let max_conns = idle_sweep.iter().copied().max().unwrap_or(0);
        if min_conns < max_conns {
            let base = idle_p99
                .iter()
                .filter(|(c, _)| *c == min_conns)
                .map(|(_, p)| *p)
                .fold(f64::INFINITY, f64::min);
            let worst = idle_p99
                .iter()
                .filter(|(c, _)| *c == max_conns)
                .map(|(_, p)| *p)
                .fold(0.0, f64::max);
            let bound = idle_factor as f64 * base.max(500.0);
            assert!(
                worst <= bound,
                "p99 through {max_conns} idle conns regressed: {worst:.1} µs > {bound:.1} µs \
                 (baseline {base:.1} µs at {min_conns} conns × factor {idle_factor})"
            );
        }
    } else {
        println!("idle keep-alive sweep skipped: the reactor needs epoll (Linux)");
    }
    let idle_json = Json::obj(vec![
        (
            "conns_sweep",
            Json::Arr(idle_sweep.iter().map(|&c| Json::Int(c as i64)).collect()),
        ),
        ("factor_bound", Json::Int(idle_factor as i64)),
        ("cells", Json::Arr(idle_cells)),
    ]);

    let artifact = Json::obj(vec![
        ("bench", Json::Str("serve".into())),
        ("schema", Json::Int(4)),
        ("n_per_series", Json::Int(n as i64)),
        ("series", Json::Int(series_count as i64)),
        ("queries_per_cell", Json::Int(queries as i64)),
        ("clients", Json::Int(clients as i64)),
        ("host_cores", Json::Int(cores as i64)),
        ("pack_bytes", Json::Int(pack.len() as i64)),
        ("cells", Json::Arr(cells)),
        ("instrumentation", instr_json),
        ("overload", overload_json),
        ("idle", idle_json),
    ]);
    std::fs::write(&out_path, artifact.render()).expect("write serve artifact");
    println!("\nwrote {out_path}");
}

/// One client thread: a single keep-alive connection issuing batched point
/// queries `first..last` of the shared plan, verifying every response
/// against the oracle and recording request latencies.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: SocketAddr,
    names: &[String],
    oracle: &Store,
    sidx: &[usize],
    pidx: &[usize],
    batch: usize,
    first: usize,
    last: usize,
    latency: &AtomicHistogram,
) {
    if first >= last {
        return;
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    let mut leftover: Vec<u8> = Vec::new();
    for r in first..last {
        // Build the batch body and the expected answers.
        let mut body = String::new();
        let mut expect = String::new();
        for b in 0..batch {
            let q = (r * batch + b) % sidx.len();
            let (s, k) = (sidx[q], pidx[q]);
            body.push_str(&format!("{} idx={}\n", names[s], k));
            expect.push_str(&format!(
                "#{b} ok 1\n{}\n",
                oracle.get(&names[s], k).expect("oracle")
            ));
        }
        expect.push_str(&format!("#done {batch}\n"));
        let request = format!(
            "POST /q HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let t0 = Instant::now();
        stream.write_all(request.as_bytes()).expect("send");
        let got = read_response(&mut stream, &mut leftover);
        latency.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(got, expect, "server answer diverged from the store oracle");
    }
}

/// The process soft fd limit from `/proc/self/limits` (a large stand-in
/// for `unlimited`; a conservative 1024 when unreadable, e.g. non-Linux).
fn fd_soft_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("Max open files"))?;
            let soft = line.split_whitespace().nth(3)?;
            if soft == "unlimited" {
                Some(usize::MAX / 4)
            } else {
                soft.parse().ok()
            }
        })
        .unwrap_or(1024)
}

/// Opens one keep-alive connection for the idle sweep, completes a priming
/// request (the server commits to keep-alive), and returns the socket to
/// be parked.
fn park_one(addr: SocketAddr, series: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect idle");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(format!("GET /q/{series}?idx=0 HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())
        .expect("prime idle");
    let mut leftover = Vec::new();
    let _ = read_response(&mut stream, &mut leftover);
    assert!(leftover.is_empty(), "priming response had trailing bytes");
    stream
}

/// One connection-per-request `GET` for the overload sweep: returns the
/// status code, or `None` when the connection failed or was reset (an
/// acceptable outcome under deliberate overload — it is counted, not timed).
fn oneshot_get(addr: SocketAddr, target: &str) -> Option<u16> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .ok()?;
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .ok()?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).ok()?;
    let text = String::from_utf8_lossy(&buf);
    text.split(' ').nth(1)?.parse().ok()
}

/// Reads one HTTP response (status must be 200) and returns its body.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> String {
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "unexpected status: {head}"
    );
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("Content-Length");
    buf.drain(..head_end);
    while buf.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "server closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[..content_length].to_vec()).expect("utf8 body");
    buf.drain(..content_length);
    body
}
