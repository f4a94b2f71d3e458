//! Loopback fuzz of the HTTP parser: malformed request lines, oversized
//! heads, truncated bodies, pipelined junk, and random bytes. The contract
//! under test: the server never panics, always answers 4xx/5xx or closes
//! cleanly, and stays fully serviceable afterwards.
//!
//! Worker panics cannot hide: a panicked scoped worker would propagate at
//! `Server::run`'s join, so the final `running.join().unwrap().unwrap()`
//! fails the test if any fuzz case killed a worker.

mod common;

use common::{demo_store, Client};
use neats_serve::{ServeConfig, Server};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Reads whatever the server sends until it closes, with a client-side
/// timeout; returns the (possibly empty) bytes. A hang fails the test.
fn drain(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                panic!("server neither answered nor closed within 5s (got {out:?})")
            }
            Err(_) => return out,
        }
    }
}

/// Asserts the server's reaction to one blob of client bytes is acceptable:
/// either a clean close (empty), or one-or-more well-formed HTTP responses
/// whose final status (the one that closed the connection) is 4xx/5xx —
/// earlier pipelined requests may legitimately have been 200s.
fn assert_clean_rejection(reply: &[u8], input: &[u8]) {
    if reply.is_empty() {
        return; // clean close without a response — acceptable
    }
    let text = String::from_utf8_lossy(reply);
    assert!(
        text.starts_with("HTTP/1.1 "),
        "non-HTTP reply to {input:?}: {text:?}"
    );
    // The last status line in the reply decides how the connection ended.
    let last_status = text
        .match_indices("HTTP/1.1 ")
        .map(|(i, _)| text[i + 9..i + 12].parse::<u16>().unwrap_or(0))
        .last()
        .unwrap();
    assert!(
        (400..=599).contains(&last_status),
        "junk input {input:?} ended with status {last_status}: {text:?}"
    );
}

#[test]
fn malformed_inputs_never_panic_the_server() {
    let store = demo_store();
    // Small limits and a short request timeout keep the truncation cases fast.
    let cfg = ServeConfig {
        threads: 2,
        max_header_bytes: 2048,
        max_body_bytes: 4096,
        request_timeout: Duration::from_millis(300),
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    let huge_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(4000));
    let cases: Vec<Vec<u8>> = vec![
        // Raw garbage, binary and text, with and without a head terminator.
        b"\x00\x01\x02\xff\xfe\xfd".to_vec(),
        b"garbage without any structure\r\n\r\n".to_vec(),
        b"\xff\xff\xff\xff\r\n\r\n".to_vec(),
        // Malformed request lines.
        b"GET\r\n\r\n".to_vec(),
        b"GET /\r\n\r\n".to_vec(),
        b"GET / HTTP/2.0\r\n\r\n".to_vec(),
        b"G E T / HTTP/1.1\r\n\r\n".to_vec(),
        b"FROBNICATE /series HTTP/1.1\r\n\r\n".to_vec(),
        b"HEAD /series HTTP/1.1\r\n\r\n".to_vec(),
        b"GET http://absolute.example/ HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /%zz HTTP/1.1\r\n\r\n".to_vec(),
        // Malformed headers.
        b"GET /series HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
        b"POST /q HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
        b"POST /q HTTP/1.1\r\nContent-Length: -1\r\n\r\n".to_vec(),
        b"POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1\r\nExpect: 202-whatever\r\n\r\n".to_vec(),
        // Oversized head (beyond max_header_bytes).
        huge_header.into_bytes(),
        // Oversized declared body (beyond max_body_bytes).
        b"POST /q HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec(),
        // Pipelined junk behind a valid request.
        b"GET /series HTTP/1.1\r\n\r\n\x00\x00JUNK\r\n\r\n".to_vec(),
        b"GET /q/cpu?idx=1 HTTP/1.1\r\n\r\nNOT A REQUEST LINE\r\n\r\n".to_vec(),
        // A batch body that is not UTF-8 (valid HTTP, rejected by routing —
        // the 400 here is an endpoint answer, not a parse failure).
        b"POST /q HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc".to_vec(),
    ];
    for case in &cases {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(case).unwrap();
        // Half-close so a case that parses as valid HTTP (and therefore
        // legitimately keeps the connection alive) still ends in a clean
        // server-side close instead of an idle wait.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reply = drain(&mut stream);
        assert_clean_rejection(&reply, case);
    }

    // Truncated head: bytes arrive, then the client goes silent — the
    // server must time out with a 408 rather than hold the slot forever.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /series HTT").unwrap();
    let reply = drain(&mut stream);
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 408"),
        "stalled head should 408, got {:?}",
        String::from_utf8_lossy(&reply)
    );

    // Truncated body, silent client: same contract.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /q HTTP/1.1\r\nContent-Length: 50\r\n\r\ncpu idx=1")
        .unwrap();
    let reply = drain(&mut stream);
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 408"),
        "stalled body should 408, got {:?}",
        String::from_utf8_lossy(&reply)
    );

    // Slow drip: a client that keeps landing one byte inside every poll
    // tick must still be cut off by the request timeout — progress does
    // not extend the deadline (a worker-pinning DoS otherwise).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(30)))
        .unwrap();
    let t0 = std::time::Instant::now();
    let mut reply = Vec::new();
    loop {
        if stream.write_all(b"G").is_err() {
            break; // server already closed on us
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                reply.extend_from_slice(&chunk[..n]);
                break;
            }
            Err(_) => {} // timeout tick: keep dripping
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "slow-drip client was never cut off"
        );
    }
    let reply = [reply, drain(&mut stream)].concat();
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 408"),
        "slow drip should 408, got {:?}",
        String::from_utf8_lossy(&reply)
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "408 came only after {:?}, not near the 300ms request timeout",
        t0.elapsed()
    );

    // Truncated body, closing client: the 400 may or may not still be
    // deliverable; the requirement is no panic and no hang.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /q HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let reply = drain(&mut stream);
    assert_clean_rejection(&reply, b"<truncated-then-closed body>");

    // Random fuzz: structured-ish prefixes + random tails, random binary.
    let mut rng = StdRng::seed_from_u64(0x5eed_f022);
    for round in 0..150 {
        let mut blob: Vec<u8> = Vec::new();
        match round % 3 {
            0 => {
                // Pure random bytes.
                let len = rng.random_range(1..400usize);
                blob.extend((0..len).map(|_| rng.random_range(0..=255u8)));
                // Guarantee a head terminator half the time so the parser
                // path (not just the timeout path) gets exercised.
                if rng.random_range(0..2) == 0 {
                    blob.extend_from_slice(b"\r\n\r\n");
                }
            }
            1 => {
                // A mangled request line.
                let methods = ["GET", "POST", "get", "PoSt", "XYZZY", ""];
                let targets = [
                    "/q/cpu?idx=1",
                    "/series",
                    "nope",
                    "/%4",
                    "/\u{7f}",
                    "?",
                    "/q/",
                ];
                let versions = ["HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "FTP/1.1", ""];
                let line = format!(
                    "{} {} {}\r\n\r\n",
                    methods[rng.random_range(0..methods.len())],
                    targets[rng.random_range(0..targets.len())],
                    versions[rng.random_range(0..versions.len())],
                );
                blob.extend_from_slice(line.as_bytes());
            }
            _ => {
                // A valid-ish head with randomly corrupted header bytes.
                let mut head =
                    b"POST /q HTTP/1.1\r\nContent-Length: 8\r\nHost: x\r\n\r\nabcdefgh".to_vec();
                for _ in 0..rng.random_range(1..6usize) {
                    let pos = rng.random_range(0..head.len());
                    head[pos] = rng.random_range(0..=255u8);
                }
                blob = head;
            }
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(&blob);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let reply = drain(&mut stream);
        // Whatever happened, it must be HTTP-shaped or a clean close…
        if !reply.is_empty() {
            assert!(
                String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 "),
                "round {round}: non-HTTP reply to {blob:?}"
            );
        }
    }

    // …and after all of it the server still answers real queries.
    let mut client = Client::connect(addr);
    let r = client.get("/q/cpu?idx=7");
    assert_eq!(r.status, 200);
    assert_eq!(
        r.body.trim().parse::<i64>().unwrap(),
        store.get("cpu", 7).unwrap()
    );
    let r = client.get("/stats");
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"protocol_errors\""), "{}", r.body);

    handle.shutdown();
    running.join().expect("no worker panicked").expect("run");
}
