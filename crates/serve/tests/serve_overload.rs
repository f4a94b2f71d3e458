//! Overload-protection integration tests: accept-time shedding at the
//! connection cap, recovery once load drops, the idle keep-alive deadline,
//! and shedding under saturation with the admitted tail held flat — all
//! over real sockets. (The watermark's exact trip point needs a connection
//! that pins a worker, which only the blocking driver has; it is tested
//! in-crate, `server/tests.rs`.)

mod common;

use common::{demo_store, p99, Client};
use neats_serve::{ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start(cfg: ServeConfig) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(demo_store(), "127.0.0.1:0", cfg).expect("bind");
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    (handle, running)
}

fn stop(handle: ServerHandle, running: JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    running.join().expect("server thread").expect("server run");
}

/// Connects and reads one response without sending a request — a shed
/// connection is answered straight from the accept loop.
fn read_shed_response(addr: SocketAddr) -> common::HttpResponse {
    let mut c = Client::connect(addr);
    c.read_response()
}

/// One connection-per-request GET that tolerates shed/reset connections;
/// `None` when no clean 200 came back.
fn try_simple_get(addr: SocketAddr, target: &str) -> Option<u16> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    s.write_all(format!("GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").as_bytes())
        .ok()?;
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    let head = String::from_utf8_lossy(&buf);
    head.split(' ').nth(1).and_then(|st| st.parse().ok())
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

#[test]
fn connection_cap_sheds_with_503_then_recovers() {
    let cfg = ServeConfig {
        threads: 2,
        max_connections: 1,
        queue_watermark: 1000,
        poll_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let (handle, running) = start(cfg);
    let addr = handle.addr();

    // Occupy the single admitted slot with a keep-alive connection.
    let mut held = Client::connect(addr);
    assert_eq!(held.get("/series").status, 200);

    // Every further connection is shed at accept with a canned 503 that
    // tells the client when to come back.
    for _ in 0..3 {
        let resp = read_shed_response(addr);
        assert_eq!(resp.status, 503, "{resp:?}");
        assert_eq!(resp.retry_after, Some(1), "503 must carry Retry-After");
        assert!(!resp.keep_alive, "shed connections must close");
    }

    // Releasing the held connection restores service (the worker notices
    // the close within a poll tick; retry until it does).
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    let recovered = loop {
        if try_simple_get(addr, "/series") == Some(200) {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        recovered,
        "server must admit connections again after load drops"
    );

    // The shed connections are visible on /stats.
    let mut c = Client::connect(addr);
    let resp = c.get("/stats");
    assert_eq!(resp.status, 200);
    assert!(stat(&resp.body, "shed") >= 3, "{}", resp.body);
    drop(c);
    stop(handle, running);
}

#[test]
fn idle_keep_alive_connection_times_out_with_408() {
    let cfg = ServeConfig {
        threads: 2,
        idle_timeout: Duration::from_millis(200),
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let (handle, running) = start(cfg);
    let addr = handle.addr();

    let mut c = Client::connect(addr);
    assert_eq!(c.get("/series").status, 200);
    // Sit idle past the deadline: the server answers 408 and closes, so a
    // dead client can't pin a worker forever.
    let resp = c.read_response();
    assert_eq!(resp.status, 408, "{resp:?}");
    assert!(!resp.keep_alive);

    let mut c2 = Client::connect(addr);
    let resp = c2.get("/stats");
    assert!(stat(&resp.body, "timeouts") >= 1, "{}", resp.body);
    drop(c2);
    stop(handle, running);
}

/// Overload is absorbed by shedding, not by the latency of the requests
/// the server accepted: connection-per-request clients (a keep-alive client
/// never meets admission again) at 1× and 4× the serving-thread count, a
/// fixed window each. At 4× some are shed with `503 + Retry-After`, nothing
/// fails any other way, every admitted answer is right, and the admitted
/// p99 stays within a factor of the unsaturated one.
#[test]
fn saturation_sheds_and_admitted_p99_stays_bounded() {
    // The gate the retired serve bench harness carried, as constants:
    // admitted p99 under 4× load within 50× of the 1× p99, the baseline
    // floored at 500 µs so the ratio means something when it is
    // microseconds. Generous on purpose — without shedding the tail grows
    // with the backlog, scheduler noise on a shared runner does not reach
    // 50×. The watermark is the harness's too: with a client count equal
    // to the automatic `4 × threads` the backlog can never reach it.
    const FACTOR: u32 = 50;
    const FLOOR: Duration = Duration::from_micros(500);
    const THREADS: usize = 2;
    const WATERMARK: usize = 2;
    const WINDOW: Duration = Duration::from_millis(300);

    let oracle = demo_store(); // same bytes as the served store
    // One window at `load` × THREADS clients: admitted latencies, shed count.
    let window = |load: usize| {
        let (handle, running) = start(ServeConfig {
            threads: THREADS,
            queue_watermark: WATERMARK,
            ..ServeConfig::default()
        });
        let addr = handle.addr();
        let deadline = Instant::now() + WINDOW;
        let per_client: Vec<(Vec<Duration>, usize)> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..THREADS * load)
                .map(|c| {
                    let oracle = &oracle;
                    s.spawn(move || {
                        let (mut admitted, mut shed) = (Vec::new(), 0usize);
                        let mut k = c * 97;
                        while Instant::now() < deadline {
                            k = (k + 7) % 700;
                            let t0 = Instant::now();
                            let resp = Client::connect(addr)
                                .try_raw_request(
                                    format!(
                                        "GET /q/cpu?idx={k} HTTP/1.1\r\nHost: t\r\n\
                                         Connection: close\r\n\r\n"
                                    )
                                    .as_bytes(),
                                )
                                .expect("a connection is answered, admitted or shed");
                            match resp.status {
                                200 => {
                                    admitted.push(t0.elapsed());
                                    assert_eq!(
                                        resp.body.trim().parse::<i64>().unwrap(),
                                        oracle.get("cpu", k).unwrap(),
                                        "cpu[{k}]"
                                    );
                                }
                                503 => {
                                    assert_eq!(resp.retry_after, Some(1), "{resp:?}");
                                    shed += 1;
                                }
                                _ => panic!("neither admitted nor shed: {resp:?}"),
                            }
                        }
                        (admitted, shed)
                    })
                })
                .collect();
            clients.into_iter().map(|h| h.join().expect("client")).collect()
        });
        stop(handle, running);
        let shed: usize = per_client.iter().map(|(_, shed)| shed).sum();
        let admitted: Vec<Duration> = per_client.into_iter().flat_map(|(a, _)| a).collect();
        (admitted, shed)
    };

    // Best of 3 rounds per load: one descheduled client thread must not
    // decide a latency property.
    let (mut base, mut hot) = (Duration::MAX, Duration::MAX);
    for _round in 0..3 {
        let (mut admitted, _) = window(1);
        base = base.min(p99(&mut admitted));
        let (mut admitted, shed) = window(4);
        assert!(shed > 0, "4× saturation must shed ({} admitted)", admitted.len());
        assert!(!admitted.is_empty(), "shedding must not starve admission entirely");
        hot = hot.min(p99(&mut admitted));
    }
    let bound = FACTOR * base.max(FLOOR);
    assert!(
        hot <= bound,
        "admitted p99 under 4× saturation is {hot:?}, over {bound:?} \
         ({FACTOR} × max(unsaturated {base:?}, {FLOOR:?}))"
    );
}
