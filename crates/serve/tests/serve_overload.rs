//! Overload-protection integration tests: accept-time shedding at the
//! connection cap, recovery once load drops, and the idle keep-alive
//! deadline — all over real sockets. (Shedding at the worker-queue
//! watermark needs a connection that pins a worker, which only the
//! blocking driver has; it is tested in-crate, `server/tests.rs`.)

mod common;

use common::{demo_store, Client};
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
