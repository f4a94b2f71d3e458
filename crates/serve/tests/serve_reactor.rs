//! Readiness-driver integration tests: the C10K regression it exists for
//! (idle keep-alive connections must not starve new clients, nor slow the
//! active ones), the write-side slowloris defense (a stalled reader is
//! disconnected), and graceful-drain connection accounting. The blocking
//! driver's versions of the last two are in-crate (`server/tests.rs`).

#![cfg(target_os = "linux")] // every test here drives the epoll reactor

mod common;

use common::{demo_store, p99, Client};
use neats_serve::{ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start(cfg: ServeConfig) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(demo_store(), "127.0.0.1:0", cfg).expect("bind");
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    (handle, running)
}

/// Extracts an integer counter from the /stats JSON by key.
fn stat(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// The regression that motivated the reactor: with a worker pool of W
/// threads, W idle keep-alive connections used to pin every worker, and a
/// fresh client would hang until one of them hit the idle deadline (up to
/// 60 s). Under the reactor an idle connection costs a slab entry, never a
/// thread — many more than W idle clients must leave service untouched.
#[test]
fn idle_keep_alive_connections_do_not_starve_new_clients() {
    let threads = 2;
    let cfg = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let request_timeout = cfg.request_timeout;
    let (handle, running) = start(cfg);
    let addr = handle.addr();

    // Far more idle keep-alive connections than serving threads, each
    // having completed a request so the server committed to keep-alive.
    let mut idle = Vec::new();
    for _ in 0..(4 * threads + 1) {
        let mut c = Client::connect(addr);
        assert_eq!(c.get("/q/cpu?idx=3").status, 200);
        idle.push(c);
    }

    // A fresh client must be answered promptly — well within one request
    // timeout, not after some idle connection's 60 s deadline frees a slot.
    let t0 = Instant::now();
    let mut fresh = Client::connect(addr);
    let resp = fresh.get("/q/cpu?idx=7");
    assert_eq!(resp.status, 200);
    assert!(
        t0.elapsed() < request_timeout,
        "fresh client waited {:?} behind idle keep-alive connections",
        t0.elapsed()
    );

    // The idle connections are still alive and serviceable afterwards.
    for c in idle.iter_mut() {
        assert_eq!(c.get("/series").status, 200);
    }

    drop((fresh, idle));
    handle.shutdown();
    running.join().expect("server thread").expect("run");
    assert_eq!(
        handle.open_connections(),
        0,
        "drain must release every connection"
    );
}

/// The C10K property itself: an idle keep-alive connection costs a slab
/// entry, not latency. Two active keep-alive clients run the same timed
/// point queries through a parked crowd of 16 and then of 256 primed
/// connections (~550 fds in this process, under the default 1024 soft
/// limit); the p99 they observe must not grow with the crowd.
#[test]
fn active_latency_is_flat_in_idle_connection_count() {
    // The gate the retired serve bench harness carried, as constants:
    // p99 through the large crowd within 25× of the small crowd's, the
    // baseline floored at 500 µs so the ratio means something when it is
    // microseconds. Generous on purpose — a thread-per-connection server
    // misses it by orders of magnitude (requests wait out an idle
    // deadline), scheduler noise on a shared runner does not.
    const FACTOR: u32 = 25;
    const FLOOR: Duration = Duration::from_micros(500);
    const CROWDS: [usize; 2] = [16, 256];
    const CLIENTS: usize = 2;
    const REQUESTS: usize = 1000; // per active client

    let oracle = demo_store(); // same bytes as the served store
    let active_p99 = |addr| {
        let mut latencies: Vec<Duration> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let oracle = &oracle;
                    s.spawn(move || {
                        let mut client = Client::connect(addr);
                        let mut took = Vec::with_capacity(REQUESTS);
                        for r in 0..REQUESTS {
                            let k = (c * REQUESTS + r) * 7 % 700;
                            let t0 = Instant::now();
                            let resp = client.get(&format!("/q/cpu?idx={k}"));
                            took.push(t0.elapsed());
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            assert_eq!(
                                resp.body.trim().parse::<i64>().unwrap(),
                                oracle.get("cpu", k).unwrap(),
                                "cpu[{k}]"
                            );
                        }
                        took
                    })
                })
                .collect();
            clients.into_iter().flat_map(|h| h.join().expect("active client")).collect()
        });
        p99(&mut latencies)
    };

    // Best of 3 rounds per crowd size: one descheduled client thread must
    // not decide a latency property.
    let mut best = [Duration::MAX; 2];
    for _round in 0..3 {
        let (handle, running) = start(ServeConfig {
            threads: 2,
            // Multiplexing is measured, not admission: every parked
            // connection must be admitted whatever the environment says.
            max_connections: 512,
            ..ServeConfig::default()
        });
        let addr = handle.addr();
        let mut parked = Vec::new();
        for (side, crowd) in CROWDS.into_iter().enumerate() {
            // Each parked connection completes one request first, so the
            // server has committed to keep-alive, then goes silent.
            while parked.len() < crowd {
                let mut c = Client::connect(addr);
                assert_eq!(c.get("/q/cpu?idx=0").status, 200);
                parked.push(c);
            }
            best[side] = best[side].min(active_p99(addr));
        }
        drop(parked);
        handle.shutdown();
        running.join().expect("server thread").expect("run");
        assert_eq!(handle.open_connections(), 0, "drain must release every connection");
    }
    let bound = FACTOR * best[0].max(FLOOR);
    assert!(
        best[1] <= bound,
        "active p99 through {} idle connections is {:?}, over {bound:?} ({FACTOR} × max({:?} \
         through {}, {FLOOR:?}))",
        CROWDS[1],
        best[1],
        best[0],
        CROWDS[0],
    );
}

/// Write-side slowloris: a client that requests a response far larger than
/// the socket buffers and then never reads must be disconnected once the
/// write deadline expires — not hold its server resources until the
/// response drains at the attacker's chosen (zero) pace.
#[test]
fn stalled_reader_is_disconnected() {
    let cfg = ServeConfig {
        threads: 2,
        request_timeout: Duration::from_millis(500),
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let (handle, running) = start(cfg);
    let addr = handle.addr();

    // A batch whose response (~several million rendered values) exceeds any
    // plausible kernel send+receive buffering, so the server's writes must
    // stall on the non-reading client.
    let body = "cpu idx=0..700\n".repeat(4000);
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .write_all(
            format!(
                "POST /q HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send batch");
    // Never read. The server must give up on us within the write deadline
    // (plus rendering time); detect the close by polling tiny writes until
    // the kernel reports the reset.
    let t0 = Instant::now();
    let disconnected = loop {
        std::thread::sleep(Duration::from_millis(50));
        // A write after the server's close eventually surfaces EPIPE /
        // ECONNRESET once the RST lands.
        if stalled.write_all(b"\r\n").is_err() {
            break true;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            break false;
        }
    };
    assert!(
        disconnected,
        "stalled reader still connected after {:?}",
        t0.elapsed()
    );

    // The defense is observable and the server is unharmed.
    let mut c = Client::connect(addr);
    let resp = c.get("/stats");
    assert_eq!(resp.status, 200);
    assert!(stat(&resp.body, "timeouts") >= 1, "{}", resp.body);
    assert_eq!(c.get("/q/cpu?idx=1").status, 200);
    drop(c);

    handle.shutdown();
    running.join().expect("server thread").expect("run");
    assert_eq!(
        handle.open_connections(),
        0,
        "drain must release every connection"
    );
}

/// Graceful drain accounting: idle keep-alive connections are
/// closed, a half-sent request is answered `408 server shutting down`, and
/// — the counter-leak regression — `open_connections` returns to exactly
/// zero once `run` returns.
#[test]
fn graceful_drain_accounts_for_every_connection() {
    let cfg = ServeConfig {
        threads: 4,
        poll_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let (handle, running) = start(cfg);
    let addr = handle.addr();

    // Three idle keep-alive connections…
    let idle: Vec<Client> = (0..3)
        .map(|_| {
            let mut c = Client::connect(addr);
            assert_eq!(c.get("/series").status, 200);
            c
        })
        .collect();
    // …and one connection with a half-sent request in flight.
    let mut half_sent = TcpStream::connect(addr).expect("connect");
    half_sent
        .write_all(b"GET /q/cpu?idx=1 HTT")
        .expect("send partial head");
    half_sent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the server own them all

    handle.shutdown();
    running.join().expect("server thread").expect("run");

    // The half-sent request was answered with a 408, not silently dropped.
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    while let Ok(n) = half_sent.read(&mut chunk) {
        if n == 0 {
            break;
        }
        reply.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8_lossy(&reply);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "half-sent request got {text:?}"
    );
    assert!(text.contains("shutting down"), "{text:?}");

    // Every accepted connection was released by the drain: the counter the
    // accept path increments optimistically must be back to exactly zero.
    assert_eq!(handle.open_connections(), 0, "connection accounting leaked");
    drop(idle);
}
