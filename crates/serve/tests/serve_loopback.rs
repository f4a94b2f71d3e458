//! Loopback integration tests: concurrent clients racing real HTTP
//! queries against the direct `Store` oracle, the protocol examples from
//! `docs/PROTOCOL.md`, keep-alive, and graceful shutdown.

mod common;

use common::{demo_data, demo_store, Client};
use neats_serve::{ServeConfig, Server, ServerHandle};
use neats_store::Store;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Starts a server over `store` with `threads` workers; returns the handle
/// and the join handle of the serving thread.
fn start(store: Arc<Store>, threads: usize) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
    let cfg = ServeConfig { threads, ..ServeConfig::default() };
    let server = Server::bind(store, "127.0.0.1:0", cfg).expect("bind");
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    (handle, running)
}

fn stop(handle: ServerHandle, running: JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    running.join().expect("server thread").expect("server run");
}

/// A deterministic per-thread pseudo-random stream (splitmix-style).
fn mix(mut x: u64) -> impl FnMut(u64) -> u64 {
    move |bound| {
        x = x.wrapping_mul(0xD129_0247_3F89_4E1D).wrapping_add(0x9E37_79B9);
        (x >> 17) % bound.max(1)
    }
}

/// The acceptance-criterion test: ≥4 client threads race point / range /
/// time / batch queries over the wire and every answer must be
/// bit-identical to the direct `Store` call.
#[test]
fn concurrent_clients_match_store_oracle() {
    let store = demo_store();
    let data = demo_data();
    let (handle, running) = start(Arc::clone(&store), 4);
    let addr = handle.addr();

    std::thread::scope(|s| {
        for tid in 0..6u64 {
            let store = &store;
            let data = &data;
            s.spawn(move || {
                let mut rng = mix(0xfeed_f00d ^ (tid + 1));
                let mut client = Client::connect(addr);
                for round in 0..60 {
                    let (name, stamps, values) = &data[rng(data.len() as u64) as usize];
                    let url_name = name.replace(' ', "%20");
                    let n = values.len() as u64;
                    match (round + tid) % 4 {
                        // Point query by index.
                        0 => {
                            let k = rng(n) as usize;
                            let r = client.get(&format!("/q/{url_name}?idx={k}"));
                            assert_eq!(r.status, 200, "{}", r.body);
                            assert_eq!(
                                r.body.trim().parse::<i64>().unwrap(),
                                store.get(name, k).unwrap(),
                                "[{tid}] {name}[{k}]"
                            );
                        }
                        // Range query stitched across segments.
                        1 => {
                            let a = rng(n - 1) as usize;
                            let b = a + 1 + rng((n as usize - a - 1).max(1) as u64) as usize;
                            let r = client.get(&format!("/q/{url_name}?idx={a}..{b}"));
                            assert_eq!(r.status, 200, "{}", r.body);
                            let got: Vec<i64> =
                                r.body.lines().map(|l| l.parse().unwrap()).collect();
                            let mut want = Vec::new();
                            store.range(name, a..b, &mut want).unwrap();
                            assert_eq!(got, want, "[{tid}] {name}[{a}..{b}]");
                        }
                        // Time queries: exact-at-time point and time range.
                        2 => {
                            let k = rng(n) as usize;
                            let t = stamps[k];
                            let r = client.get(&format!("/q/{url_name}?t={t}"));
                            assert_eq!(r.status, 200, "{}", r.body);
                            assert_eq!(
                                r.body.trim().parse::<i64>().unwrap(),
                                store.at_time(name, t).unwrap().unwrap()
                            );
                            let lo = stamps[rng(n / 2) as usize];
                            let hi = lo + rng(2_000) + 1;
                            let r = client.get(&format!("/q/{url_name}?t={lo}..{hi}"));
                            assert_eq!(r.status, 200, "{}", r.body);
                            let got: Vec<(u64, i64)> = r
                                .body
                                .lines()
                                .map(|l| {
                                    let (t, v) = l.split_once(',').unwrap();
                                    (t.parse().unwrap(), v.parse().unwrap())
                                })
                                .collect();
                            let mut want = Vec::new();
                            store
                                .range_by_time_chunks(name, lo, hi, |c| want.extend_from_slice(c))
                                .unwrap();
                            assert_eq!(got, want, "[{tid}] {name} t={lo}..{hi}");
                        }
                        // Batched POST: several queries in one frame.
                        _ => {
                            let k1 = rng(n) as usize;
                            let k2 = rng(n) as usize;
                            let a = rng(n / 2) as usize;
                            let body = format!(
                                "{name} idx={k1}\nmissing idx=0\n{name} idx={a}..{}\n{name} idx={k2}\n",
                                a + 5
                            );
                            let r = client.post_batch(&body);
                            assert_eq!(r.status, 200, "{}", r.body);
                            let text = &r.body;
                            assert!(
                                text.starts_with(&format!(
                                    "#0 ok 1\n{}\n",
                                    store.get(name, k1).unwrap()
                                )),
                                "[{tid}] {text}"
                            );
                            assert!(text.contains("#1 err 404"), "[{tid}] {text}");
                            let mut want = Vec::new();
                            store.range(name, a..a + 5, &mut want).unwrap();
                            let want_lines: String =
                                want.iter().map(|v| format!("{v}\n")).collect();
                            assert!(
                                text.contains(&format!("#2 ok 5\n{want_lines}")),
                                "[{tid}] {text}"
                            );
                            assert!(text.ends_with("#done 4\n"), "[{tid}] {text}");
                        }
                    }
                }
            });
        }
    });

    stop(handle, running);
}

/// The exact examples documented in `docs/PROTOCOL.md` (keep both in sync).
#[test]
fn protocol_examples() {
    let store = demo_store();
    let (handle, running) = start(Arc::clone(&store), 2);
    let mut client = Client::connect(handle.addr());

    // curl http://$ADDR/series
    let r = client.get("/series");
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"name\": \"cpu\""), "{}", r.body);
    assert!(r.body.contains("\"name\": \"disk io\""), "{}", r.body);
    assert!(r.body.contains("\"mode\": \"lossless\""), "{}", r.body);

    // curl "http://$ADDR/q/cpu?idx=120..124"
    let r = client.get("/q/cpu?idx=120..124");
    assert_eq!(r.status, 200);
    let mut want = Vec::new();
    store.range("cpu", 120..124, &mut want).unwrap();
    assert_eq!(
        r.body.lines().map(|l| l.parse::<i64>().unwrap()).collect::<Vec<_>>(),
        want
    );

    // curl "http://$ADDR/q/cpu?t=1010"
    let r = client.get("/q/cpu?t=1010");
    assert_eq!(r.status, 200);
    assert_eq!(r.body.trim().parse::<i64>().unwrap(), store.at_time("cpu", 1010).unwrap().unwrap());

    // curl --data-binary $'cpu idx=3\ncpu t=1000..1100' http://$ADDR/q
    let r = client.post_batch("cpu idx=3\ncpu t=1000..1100");
    assert_eq!(r.status, 200);
    assert!(r.body.starts_with("#0 ok 1\n"), "{}", r.body);
    assert!(r.body.contains("#1 ok "), "{}", r.body);
    assert!(r.body.ends_with("#done 2\n"), "{}", r.body);

    // curl http://$ADDR/stats
    let r = client.get("/stats");
    assert_eq!(r.status, 200);
    for key in [
        "\"uptime_s\"",
        "\"cache\"",
        "\"hit_rate\"",
        "\"evictions\"",
        "\"endpoints\"",
        "\"p99_us\"",
        "\"p999_us\"",
        "\"mode\"",
        "\"slow_queries\"",
    ] {
        assert!(r.body.contains(key), "missing {key} in {}", r.body);
    }

    // Error statuses documented in the protocol.
    assert_eq!(client.get("/q/ghost?idx=0").status, 404);
    assert_eq!(client.get("/q/cpu?idx=banana").status, 400);
    assert_eq!(client.get("/q/cpu?idx=999999").status, 400);
    assert_eq!(client.get("/q/cpu?t=2").status, 404);
    assert_eq!(client.get("/nope").status, 404);

    stop(handle, running);
}

/// One connection serves many requests (keep-alive), and explicit
/// `Connection: close` is honoured.
#[test]
fn keep_alive_and_close() {
    let store = demo_store();
    let (handle, running) = start(store, 2);
    let mut client = Client::connect(handle.addr());
    for k in 0..20 {
        let r = client.get(&format!("/q/cpu?idx={k}"));
        assert_eq!(r.status, 200);
        assert!(r.keep_alive, "server must keep the connection alive");
    }
    let r = client.raw_request(b"GET /series HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert_eq!(r.status, 200);
    assert!(!r.keep_alive, "server must confirm the close");
    stop(handle, running);
}

/// Pipelined requests (two heads in one write) are answered in order.
#[test]
fn pipelined_requests_answered_in_order() {
    let store = demo_store();
    let (handle, running) = start(Arc::clone(&store), 2);
    let mut client = Client::connect(handle.addr());
    client
        .raw_request(
            b"GET /q/cpu?idx=1 HTTP/1.1\r\nHost: t\r\n\r\nGET /q/cpu?idx=2 HTTP/1.1\r\nHost: t\r\n\r\n",
        );
    // raw_request read the first response; the second is already buffered.
    let r2 = client.read_response();
    assert_eq!(r2.status, 200);
    assert_eq!(r2.body.trim().parse::<i64>().unwrap(), store.get("cpu", 2).unwrap());
    stop(handle, running);
}

/// Graceful shutdown: in-flight requests finish, run() returns promptly,
/// new connections are refused-ish (accept loop stopped).
#[test]
fn graceful_shutdown_drains() {
    let store = demo_store();
    let (handle, running) = start(store, 3);
    let addr = handle.addr();

    // A few busy clients in flight while shutdown lands.
    let workers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut ok = 0usize;
                for k in 0..50 {
                    let raw = format!("GET /q/mem?idx={k} HTTP/1.1\r\nHost: t\r\n\r\n");
                    match client.try_raw_request(raw.as_bytes()) {
                        // Every answered request must be a full, correct
                        // response…
                        Some(r) => {
                            assert_eq!(r.status, 200);
                            ok += 1;
                            if !r.keep_alive {
                                break; // server is draining us out
                            }
                        }
                        // …but a request racing the drain may meet a
                        // cleanly closed connection instead of an answer.
                        None => break,
                    }
                }
                ok
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let t0 = std::time::Instant::now();
    handle.shutdown();
    running.join().expect("server thread").expect("run");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "shutdown took {:?}",
        t0.elapsed()
    );
    for w in workers {
        assert!(w.join().expect("client") >= 1, "every client got at least one answer");
    }
}

/// An explicit thread count is the serving-thread count, whatever the
/// environment holds.
#[test]
fn threads_env_resolution() {
    let store = demo_store();
    // Explicit count wins regardless of environment.
    let server =
        Server::bind(Arc::clone(&store), "127.0.0.1:0", ServeConfig { threads: 3, ..Default::default() })
            .unwrap();
    assert_eq!(server.threads(), 3);
}
