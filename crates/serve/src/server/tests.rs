//! The drivers, over loopback: whatever a driver can get wrong on its own —
//! waking for deadlines, noticing shutdown, releasing connections, feeding
//! the accept loop's admission control — and the differential that both
//! put the same bytes on the wire. The blocking driver is reached through
//! [`Server::bind_on`]; on a platform without a poller both sides of the
//! differential are the blocking driver and it passes trivially.

use super::*;
use neats_store::{Store, StoreConfig, StoreWriter};
use std::net::Shutdown;
use std::thread::JoinHandle;

fn demo_store() -> Arc<Store> {
    let mut w = StoreWriter::new(StoreConfig {
        segment_points: 128,
        ..Default::default()
    });
    let stamps: Vec<u64> = (0..700u64).map(|i| 1_000 + i * 9 + i % 5).collect();
    let values: Vec<i64> = (0..700).map(|k: i64| k * k / 31 - 2 * k).collect();
    w.ingest("cpu", &stamps, &values).unwrap();
    Arc::new(Store::open(w.finish().unwrap()).unwrap())
}

type Running = JoinHandle<std::io::Result<()>>;

fn start(cfg: ServeConfig, try_readiness: bool) -> (ServerHandle, Running) {
    let server = Server::bind_on(demo_store(), "127.0.0.1:0", cfg, try_readiness).expect("bind");
    if !try_readiness {
        assert_eq!(server.mode(), "threaded");
    }
    let handle = server.handle();
    (handle, std::thread::spawn(move || server.run()))
}

fn start_blocking(cfg: ServeConfig) -> (ServerHandle, Running) {
    start(cfg, false)
}

fn stop(handle: &ServerHandle, running: Running) {
    handle.shutdown();
    running.join().expect("server thread").expect("run");
    assert_eq!(
        handle.open_connections(),
        0,
        "drain must release every connection"
    );
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads exactly `n` responses (heads with `Content-Length`, bodies) off
/// `stream`, returning their bytes; panics if the server closes first.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut got = Vec::new();
    let (mut done, mut at) = (0, 0);
    let mut chunk = [0u8; 4096];
    while done < n {
        let head_end = got[at..].windows(4).position(|w| w == b"\r\n\r\n");
        if let Some(end) = head_end.map(|p| at + p + 4) {
            let head = std::str::from_utf8(&got[at..end]).unwrap();
            let len: usize = head
                .split("Content-Length: ")
                .nth(1)
                .and_then(|rest| rest.split("\r\n").next())
                .and_then(|v| v.parse().ok())
                .expect("Content-Length");
            if got.len() >= end + len {
                (done, at) = (done + 1, end + len);
                continue;
            }
        }
        match stream.read(&mut chunk).expect("read response") {
            0 => panic!(
                "closed after {done} of {n} responses: {:?}",
                String::from_utf8_lossy(&got)
            ),
            k => got.extend_from_slice(&chunk[..k]),
        }
    }
    assert_eq!(at, got.len(), "bytes past the {n} expected responses");
    got
}

/// Everything the server still sends until it closes the connection.
fn read_to_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut got = Vec::new();
    let _ = stream.read_to_end(&mut got);
    got
}

fn get(stream: &mut TcpStream, target: &str) -> String {
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send");
    String::from_utf8(read_responses(stream, 1)).unwrap()
}

fn timeouts(handle: &ServerHandle) -> u64 {
    handle.shared.stats.timeouts.load(Ordering::Relaxed)
}

/// One scripted session — keep-alive, pipelining, a batch, a 404, a parse
/// error, shutdown with one connection idle and one half-sent — returning
/// every byte the server sent, per connection.
fn session(try_readiness: bool) -> Vec<Vec<u8>> {
    let cfg = ServeConfig {
        threads: 3,
        poll_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let (handle, running) = start(cfg, try_readiness);

    let mut a = connect(&handle);
    let mut heard_a = get(&mut a, "/q/cpu?idx=5").into_bytes();
    a.write_all(
        b"GET /q/cpu?idx=0..300 HTTP/1.1\r\n\r\nGET /series HTTP/1.1\r\n\r\n\
          GET /q/cpu?t=1000..2000 HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    heard_a.extend(read_responses(&mut a, 3));
    let batch = "cpu idx=7\ncpu t=1500..1600\nghost idx=0\ncpu idx=9999\n";
    a.write_all(
        format!(
            "POST /q HTTP/1.1\r\nContent-Length: {}\r\n\r\n{batch}",
            batch.len()
        )
        .as_bytes(),
    )
    .unwrap();
    heard_a.extend(read_responses(&mut a, 1));
    heard_a.extend(get(&mut a, "/q/ghost?idx=1").into_bytes());

    let mut b = connect(&handle);
    b.write_all(
        b"GET /q/cpu?idx=1 HTTP/1.1\r\n\r\nFROB / HTTP/1.1\r\n\r\nGET /series HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    let heard_b = read_to_close(&mut b);

    let mut c = connect(&handle);
    c.write_all(b"GET /q/cpu?idx=1 HTT").unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the server own all three
    stop(&handle, running);
    heard_a.extend(read_to_close(&mut a));
    vec![heard_a, heard_b, read_to_close(&mut c)]
}

#[test]
fn both_drivers_put_the_same_bytes_on_the_wire() {
    let blocking = session(false);
    let observed = session(true);
    for (i, (b, o)) in blocking.iter().zip(&observed).enumerate() {
        assert_eq!(
            String::from_utf8_lossy(b),
            String::from_utf8_lossy(o),
            "connection {i}: blocking (left) vs observed driver (right)"
        );
    }
    let text = String::from_utf8_lossy(&blocking[0]);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 5, "{text}");
    assert!(text.contains("HTTP/1.1 404 "), "{text}");
    let text = String::from_utf8_lossy(&blocking[1]);
    assert!(
        text.contains("HTTP/1.1 400 ") && !text.contains("\"series\""),
        "{text}"
    );
    assert!(blocking[2].ends_with(b"server shutting down\n"));
}

#[test]
fn blocking_idle_connection_is_answered_408() {
    let (handle, running) = start_blocking(ServeConfig {
        threads: 2,
        idle_timeout: Duration::from_millis(200),
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    });
    let mut c = connect(&handle);
    assert!(get(&mut c, "/series").starts_with("HTTP/1.1 200 OK"));
    let t0 = Instant::now();
    let text = String::from_utf8(read_to_close(&mut c)).unwrap();
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
    assert!(text.ends_with("idle connection timed out\n"), "{text}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "408 after {:?}",
        t0.elapsed()
    );
    assert_eq!(timeouts(&handle), 1);
    stop(&handle, running);
}

/// A client that asks for far more than the socket buffers hold and never
/// reads is cut at the wall-clock write deadline and counted — the worker
/// is free again.
#[test]
fn blocking_stalled_reader_is_disconnected_and_counted() {
    let (handle, running) = start_blocking(ServeConfig {
        threads: 1,
        request_timeout: Duration::from_millis(500),
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    });
    let body = "cpu idx=0..700\n".repeat(4000);
    let mut stalled = connect(&handle);
    stalled
        .write_all(
            format!(
                "POST /q HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send batch");
    // Never read; a write after the server's close surfaces the reset.
    let t0 = Instant::now();
    while stalled.write_all(b"\r\n").is_ok() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "stalled reader still connected"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(timeouts(&handle), 1);
    // The pool's only worker serves the next client.
    assert!(get(&mut connect(&handle), "/q/cpu?idx=1").starts_with("HTTP/1.1 200 OK"));
    stop(&handle, running);
}

#[test]
fn blocking_graceful_drain_releases_every_connection() {
    let (handle, running) = start_blocking(ServeConfig {
        // Each connection pins a worker for its keep-alive lifetime.
        threads: 4,
        poll_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    });
    let mut idle: Vec<TcpStream> = (0..3).map(|_| connect(&handle)).collect();
    for c in &mut idle {
        assert!(get(c, "/series").starts_with("HTTP/1.1 200 OK"));
    }
    let mut half_sent = connect(&handle);
    half_sent.write_all(b"GET /q/cpu?idx=1 HTT").unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the workers own them all
    assert_eq!(handle.open_connections(), 4);
    stop(&handle, running);
    let text = String::from_utf8(read_to_close(&mut half_sent)).unwrap();
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "half-sent request got {text:?}"
    );
    assert!(text.contains("shutting down"), "{text:?}");
    for c in &mut idle {
        assert!(read_to_close(c).is_empty(), "idle connections just close");
    }
}

/// One worker held by a keep-alive connection, the next connection queued
/// behind it: with the queue at the watermark, further arrivals are shed.
#[test]
fn blocking_queue_watermark_sheds_when_workers_saturated() {
    let (handle, running) = start_blocking(ServeConfig {
        threads: 1,
        queue_watermark: 1,
        poll_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    });
    let mut busy = connect(&handle);
    assert!(get(&mut busy, "/series").starts_with("HTTP/1.1 200 OK"));
    let mut queued = connect(&handle);
    std::thread::sleep(Duration::from_millis(100)); // let the accept loop queue it

    let shed = String::from_utf8(read_to_close(&mut connect(&handle))).unwrap();
    assert!(shed.starts_with("HTTP/1.1 503 "), "{shed}");
    assert!(shed.contains("Retry-After: 1\r\n"), "{shed}");
    assert_eq!(handle.shared.stats.shed.load(Ordering::Relaxed), 1);

    // Freeing the worker drains the queue: the queued connection is served.
    busy.shutdown(Shutdown::Both).unwrap();
    assert!(get(&mut queued, "/q/cpu?idx=0").starts_with("HTTP/1.1 200 OK"));
    drop(queued);
    stop(&handle, running);
}
