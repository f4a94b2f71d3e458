//! Generator validity: against a stub server that stalls once, the open
//! loop must charge the stall to every request that was *due* during it
//! (no coordinated omission), report it as lateness, and never hold more
//! than two connections.

use neats_benchmark::http::Conn;
use neats_benchmark::loadgen::{self, quantile, Lane, Pace};
use neats_benchmark::traffic::{Op, Traffic};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_millis(50);
/// The stub stalls before answering this request.
const STALL_AT: usize = 300;
const RATE: f64 = 1000.0;

/// What the stub saw: connections accepted and when it stalled.
struct Seen {
    accepted: usize,
    stall: (Instant, Instant),
}

/// A one-thread HTTP stub: answers every `\r\n\r\n`-terminated request with
/// `1\n`, sleeps [`STALL`] once, stops when every client has hung up.
fn stub(listener: TcpListener, report: mpsc::Sender<Seen>) {
    listener.set_nonblocking(true).unwrap();
    let mut conns: Vec<(std::net::TcpStream, Vec<u8>)> = Vec::new();
    let (mut accepted, mut served) = (0usize, 0usize);
    let mut stall = None;
    loop {
        if let Ok((stream, _)) = listener.accept() {
            stream.set_nonblocking(true).unwrap();
            stream.set_nodelay(true).unwrap();
            conns.push((stream, Vec::new()));
            accepted += 1;
        }
        let mut closed = Vec::new();
        for (i, (stream, buf)) in conns.iter_mut().enumerate() {
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => closed.push(i),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => closed.push(i),
            }
            while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                buf.drain(..end + 4);
                if served == STALL_AT {
                    let t0 = Instant::now();
                    std::thread::sleep(STALL);
                    stall = Some((t0, Instant::now()));
                }
                served += 1;
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n1\n")
                    .unwrap();
            }
        }
        for i in closed.into_iter().rev() {
            conns.remove(i);
        }
        if accepted > 0 && conns.is_empty() {
            break;
        }
    }
    report
        .send(Seen {
            accepted,
            stall: stall.expect("the run outlasts the stall point"),
        })
        .unwrap();
}

struct Ones;

impl Traffic for Ones {
    fn next(&mut self, _lane: usize, out: &mut Vec<u8>) -> Option<Op> {
        out.extend_from_slice(b"GET /q/s00?idx=0 HTTP/1.1\r\nHost: b\r\n\r\n");
        Some(Op::Point { s: 0, k: 0 })
    }

    fn check(&mut self, _op: Op, status: u16, body: &[u8]) -> bool {
        status == 200 && body == b"1\n"
    }
}

#[test]
fn a_stall_is_charged_to_every_request_due_during_it() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || stub(listener, tx));

    let mut conns = vec![Conn::connect(addr).unwrap(), Conn::connect(addr).unwrap()];
    let lanes = [Lane {
        pace: Pace::Open(RATE),
        conns: vec![0, 1],
    }];
    let started = Instant::now();
    let stats = loadgen::run(&mut conns, &lanes, &mut Ones, Duration::from_secs(1));
    drop(conns);
    let seen = rx.recv().unwrap();
    server.join().unwrap();

    let lane = &stats.lanes[0];
    assert_eq!(stats.failed(), 0);
    assert_eq!(lane.unsent, 0, "the backlog drained before the phase ended");
    assert_eq!(
        seen.accepted, 2,
        "the generator holds two connections, never more"
    );

    // Every request due while the stub slept waited at least until it woke:
    // its latency, counted from the due time, covers the rest of the stall.
    let stall_from = seen.stall.0.duration_since(started).as_nanos() as u64;
    let stall_to = seen.stall.1.duration_since(started).as_nanos() as u64;
    let slack = 2_000_000; // `started` is read a moment before the phase clock starts
    let during: Vec<_> = lane
        .samples
        .iter()
        .filter(|s| s.at_ns > stall_from + slack && s.at_ns < stall_to - slack)
        .collect();
    let due_during = (STALL.as_secs_f64() * RATE) as usize;
    assert!(
        during.len() >= due_during - 8,
        "{} requests were due during the stall, {} found",
        due_during,
        during.len()
    );
    for s in &during {
        assert!(
            s.at_ns + s.latency_ns + slack >= stall_to,
            "request due at {} ns answered after {} ns, before the stall ended at {} ns",
            s.at_ns,
            s.latency_ns,
            stall_to
        );
    }
    // A generator that only timed from the moment it sent would have seen
    // two slow requests; this one sees all of them.
    let slow = lane
        .samples
        .iter()
        .filter(|s| s.latency_ns >= 10_000_000)
        .count();
    assert!(slow >= 30, "only {slow} requests were charged ≥ 10 ms");

    // And the generator says how late it ran: 5 % of the second's requests
    // were due during the stall, so the 99th percentile of lateness is
    // tens of milliseconds.
    let mut late = lane.late_ns.clone();
    late.sort_unstable();
    assert!(
        quantile(&late, 0.99) >= 20_000_000,
        "late p99 {} ns does not show the stall",
        quantile(&late, 0.99)
    );
    assert!(
        quantile(&late, 0.5) < 1_000_000,
        "outside the stall the schedule was kept"
    );
}
