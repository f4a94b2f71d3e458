//! The state machine on its own: no sockets, a sink for a peer, and a clock
//! that is just `t0 + whatever the case says`.

use super::*;
use crate::stats::Obs;
use neats_store::{Store, StoreConfig, StoreWriter};
use proptest::prelude::*;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// What an [`Env`] borrows: a one-series store (`cpu`, `points` values,
/// value at `k` is [`value`]), fresh counters, and small limits.
struct Rig {
    source: Source,
    shared: Shared,
    limits: Limits,
}

fn value(k: usize) -> i64 {
    (k * k % 211) as i64 - 17
}

impl Rig {
    fn new(points: usize) -> Self {
        let mut w = StoreWriter::new(StoreConfig::default());
        let stamps: Vec<u64> = (0..points as u64).map(|i| 1_000 + i * 3).collect();
        let values: Vec<i64> = (0..points).map(value).collect();
        w.ingest("cpu", &stamps, &values).unwrap();
        Self {
            source: Source::from(Arc::new(Store::open(w.finish().unwrap()).unwrap())),
            shared: Shared::new(ServerStats::new(), Obs::disabled()),
            limits: Limits {
                max_header_bytes: 512,
                max_body_bytes: 4096,
                request_timeout: Duration::from_secs(5),
                idle_timeout: Duration::from_secs(60),
            },
        }
    }

    fn env(&self) -> Env<'_> {
        Env {
            source: &self.source,
            shared: &self.shared,
            limits: &self.limits,
            threads: 1,
            scratch: Scratch::new(),
        }
    }

    fn timeouts(&self) -> u64 {
        self.shared.stats.timeouts.load(Ordering::Relaxed)
    }
}

/// A peer that takes `room` more bytes and then stops reading.
#[derive(Default)]
struct Peer {
    got: Vec<u8>,
    room: usize,
}

impl Write for Peer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.room);
        if n == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        self.got.extend_from_slice(&buf[..n]);
        self.room -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Feeds `stream` cut into `chunks`-sized pieces (cycled) to a fresh
/// connection whose peer reads everything, as a driver would: one
/// `received` + `service` + `settle` per piece, stopping at `Close`.
fn transcript(rig: &Rig, stream: &[u8], chunks: &[usize]) -> Vec<u8> {
    let t0 = Instant::now();
    let mut env = rig.env();
    let mut conn = Connection::new(t0, &rig.limits);
    let mut out = Vec::new();
    let (mut at, mut i) = (0, 0);
    while at < stream.len() {
        let n = chunks[i % chunks.len()].min(stream.len() - at);
        conn.received(&stream[at..at + n]);
        conn.service(&mut env, &mut out);
        if conn.settle(t0, &rig.limits) == Next::Close {
            break;
        }
        (at, i) = (at + n, i + 1);
    }
    out
}

/// One valid request of flavour `kind`, made distinct by `k`.
fn request(kind: u8, k: usize) -> String {
    let batch = format!(
        "cpu idx={k}\ncpu t={}..{}\nghost idx=0\n",
        1_000 + k,
        1_200 + k
    );
    match kind % 6 {
        0 => format!("GET /q/cpu?idx={k} HTTP/1.1\r\nHost: t\r\n\r\n"),
        1 => format!("GET /q/cpu?idx={k}..{} HTTP/1.1\r\n\r\n", k + 40),
        2 => format!(
            "POST /q HTTP/1.1\r\nContent-Length: {}\r\n\r\n{batch}",
            batch.len()
        ),
        3 => format!(
            "POST /q HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n{batch}",
            batch.len()
        ),
        4 => "GET /series HTTP/1.1\n\n".to_string(), // the lenient bare-LF head
        _ => format!("GET /q/ghost?idx={k} HTTP/1.1\r\n\r\n"), // a 404 keeps the connection
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the bytes of a valid pipelined session are cut up on
    /// arrival — down to one at a time — the bytes answered are the same.
    #[test]
    fn any_chunking_answers_the_same_bytes(
        kinds in prop::collection::vec(0u8..6, 1..8),
        chunks in prop::collection::vec(1usize..90, 1..6),
        close in prop::bool::weighted(0.5),
    ) {
        let rig = Rig::new(400);
        let mut stream: String =
            kinds.iter().enumerate().map(|(i, &kind)| request(kind, 7 * i + 1)).collect();
        if close {
            stream.push_str("GET /q/cpu?idx=3 HTTP/1.1\r\nConnection: close\r\n\r\n");
            stream.push_str("GET /q/cpu?idx=4 HTTP/1.1\r\n\r\n"); // never answered
        }
        let whole = transcript(&rig, stream.as_bytes(), &[stream.len()]);
        let answers = whole.windows(9).filter(|w| w == b"HTTP/1.1 ").count();
        let interim = kinds.iter().filter(|&&kind| kind % 6 == 3).count();
        prop_assert_eq!(answers, kinds.len() + interim + usize::from(close));
        prop_assert_eq!(&transcript(&rig, stream.as_bytes(), &chunks), &whole);
        prop_assert_eq!(&transcript(&rig, stream.as_bytes(), &[1]), &whole);
    }
}

/// Feeds `input` (then a half-close if `eof`) and returns what was answered
/// and whether the connection is done.
fn answer_to(rig: &Rig, input: &[u8], eof: bool) -> (String, bool) {
    let t0 = Instant::now();
    let mut conn = Connection::new(t0, &rig.limits);
    let mut out = Vec::new();
    conn.received(input);
    if eof {
        conn.peer_closed();
    }
    conn.service(&mut rig.env(), &mut out);
    let done = conn.settle(t0, &rig.limits) == Next::Close;
    (String::from_utf8(out).unwrap(), done)
}

#[test]
fn limits_answer_and_close() {
    let rig = Rig::new(50);
    let cases: [(Vec<u8>, bool, &str); 5] = [
        // No terminator yet, already past the head limit.
        (vec![b'a'; 600], false, "HTTP/1.1 431 "),
        // Terminator and all in one read, still past it.
        (
            format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(600)).into_bytes(),
            false,
            "HTTP/1.1 431 ",
        ),
        (
            b"POST /q HTTP/1.1\r\nContent-Length: 4097\r\n\r\n".to_vec(),
            false,
            "HTTP/1.1 413 ",
        ),
        (
            b"GET /series HTT".to_vec(),
            true,
            "truncated request head\n",
        ),
        (
            b"POST /q HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort".to_vec(),
            true,
            "truncated request body\n",
        ),
    ];
    for (input, eof, want) in cases {
        let (text, done) = answer_to(&rig, &input, eof);
        assert!(text.contains(want), "{want:?} not in {text:?}");
        assert!(text.contains("Connection: close\r\n"), "{text:?}");
        assert!(done, "connection must close after {want:?}");
    }
    // A clean half-close between requests is just a close.
    assert_eq!(answer_to(&rig, b"", true), (String::new(), true));
    assert_eq!(rig.timeouts(), 0);
}

#[test]
fn deadlines_fire_by_the_drivers_clock() {
    let rig = Rig::new(50);
    let stats = &rig.shared.stats;
    let t0 = Instant::now();
    let (idle, request) = (rig.limits.idle_timeout, rig.limits.request_timeout);
    let ms = Duration::from_millis;

    // Idle: nothing arrives for the idle timeout.
    let mut conn = Connection::new(t0, &rig.limits);
    let mut out = Vec::new();
    let wait = Next::Wait {
        read: true,
        write: false,
        deadline: t0 + idle,
    };
    assert_eq!(conn.settle(t0, &rig.limits), wait);
    assert!(!conn.expire(t0 + idle - ms(1), stats));
    assert!(conn.expire(t0 + idle, stats));
    assert!(
        !conn.expire(t0 + idle + ms(20), stats),
        "one 408, not one per wake"
    );
    conn.flush(&mut out, stats);
    assert_eq!(conn.settle(t0 + idle, &rig.limits), Next::Close);
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
    assert!(text.ends_with("idle connection timed out\n"), "{text}");
    assert_eq!(rig.timeouts(), 1);

    // Request: the deadline starts with the first byte; progress does not
    // extend it.
    let mut conn = Connection::new(t0, &rig.limits);
    let mut out = Vec::new();
    conn.received(b"GET /series");
    conn.service(&mut rig.env(), &mut out);
    let wait = Next::Wait {
        read: true,
        write: false,
        deadline: t0 + ms(10) + request,
    };
    assert_eq!(conn.settle(t0 + ms(10), &rig.limits), wait);
    conn.received(b" HTTP/1.1\r\n");
    conn.service(&mut rig.env(), &mut out);
    assert_eq!(conn.settle(t0 + ms(900), &rig.limits), wait);
    assert!(!conn.expire(t0 + request, stats));
    assert!(conn.expire(t0 + ms(10) + request, stats));
    conn.flush(&mut out, stats);
    assert_eq!(conn.settle(t0 + ms(10) + request, &rig.limits), Next::Close);
    let text = String::from_utf8(out).unwrap();
    assert!(
        text.starts_with("HTTP/1.1 408 ") && text.ends_with("request timed out\n"),
        "{text}"
    );
    assert_eq!(rig.timeouts(), 2);

    // Write: a peer that stops reading is cut, counted, and not written to.
    let mut conn = Connection::new(t0, &rig.limits);
    let mut peer = Peer {
        room: 10,
        ..Peer::default()
    };
    conn.received(b"GET /q/cpu?idx=0..40 HTTP/1.1\r\n\r\n");
    conn.service(&mut rig.env(), &mut peer);
    let stuck = conn.unflushed();
    assert!(stuck > 0);
    let wait = Next::Wait {
        read: true,
        write: true,
        deadline: t0 + request,
    };
    assert_eq!(conn.settle(t0, &rig.limits), wait);
    // Later wakes that make no progress do not push the cutoff out.
    conn.service(&mut rig.env(), &mut peer);
    assert_eq!(conn.settle(t0 + ms(700), &rig.limits), wait);
    assert!(conn.expire(t0 + request, stats));
    conn.flush(&mut peer, stats);
    assert_eq!(conn.settle(t0 + request, &rig.limits), Next::Close);
    assert_eq!((conn.unflushed(), peer.got.len()), (stuck, 10));
    assert_eq!(rig.timeouts(), 3);
}

#[test]
fn drain_closes_idle_and_answers_half_sent() {
    let rig = Rig::new(50);
    let stats = &rig.shared.stats;
    let t0 = Instant::now();

    let mut idle = Connection::new(t0, &rig.limits);
    assert!(idle.drain(stats));
    assert_eq!(idle.settle(t0, &rig.limits), Next::Close);

    let mut half = Connection::new(t0, &rig.limits);
    let mut out = Vec::new();
    half.received(b"GET /q/cpu?idx=1 HTT");
    half.service(&mut rig.env(), &mut out);
    assert!(half.drain(stats));
    half.flush(&mut out, stats);
    assert_eq!(half.settle(t0, &rig.limits), Next::Close);
    let text = String::from_utf8(out).unwrap();
    assert!(
        text.starts_with("HTTP/1.1 408 ") && text.ends_with("server shutting down\n"),
        "{text}"
    );

    // Still flushing an answer: left to finish (or to its write deadline).
    let mut busy = Connection::new(t0, &rig.limits);
    let mut peer = Peer::default();
    busy.received(b"GET /q/cpu?idx=1 HTTP/1.1\r\n\r\n");
    busy.service(&mut rig.env(), &mut peer);
    assert!(!busy.drain(stats));
    assert!(matches!(
        busy.settle(t0, &rig.limits),
        Next::Wait { write: true, .. }
    ));

    // With the flag up, a pipelined successor already buffered in full is
    // still answered; the last answer says close.
    rig.shared.shutdown.store(true, Ordering::SeqCst);
    let mut pipelined = Connection::new(t0, &rig.limits);
    let mut out = Vec::new();
    pipelined.received(b"GET /q/cpu?idx=1 HTTP/1.1\r\n\r\nGET /q/cpu?idx=2 HTTP/1.1\r\n\r\n");
    pipelined.service(&mut rig.env(), &mut out);
    assert_eq!(pipelined.settle(t0, &rig.limits), Next::Close);
    let text = String::from_utf8(out).unwrap();
    let connection: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("Connection: "))
        .collect();
    assert_eq!(connection, ["keep-alive", "close"], "{text}");
}

/// Splits a transcript of `200 OK` responses into their bodies.
fn bodies(mut wire: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    while !wire.is_empty() {
        let head_end = wire
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head")
            + 4;
        let head = std::str::from_utf8(&wire[..head_end]).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        let len: usize = head
            .split("Content-Length: ")
            .nth(1)
            .and_then(|rest| rest.split("\r\n").next())
            .and_then(|n| n.parse().ok())
            .expect("Content-Length");
        out.push(&wire[head_end..head_end + len]);
        wire = &wire[head_end + len..];
    }
    out
}

/// A peer that pipelines range requests and never reads meets backpressure:
/// the write buffer stops at the high-water mark plus one response, the
/// unanswered requests stay unparsed, and reading is switched off — then,
/// as the peer drains, every answer arrives, in order.
#[test]
fn write_buffer_is_bounded_by_backpressure() {
    const REQUESTS: usize = 2_000;
    const SPAN: usize = 8_192;
    let rig = Rig::new(REQUESTS + SPAN);
    let t0 = Instant::now();
    let mut env = rig.env();
    let mut conn = Connection::new(t0, &rig.limits);
    let mut peer = Peer::default();

    let one_response = {
        let mut probe = Vec::new();
        conn.received(format!("GET /q/cpu?idx=0..{SPAN} HTTP/1.1\r\n\r\n").as_bytes());
        conn.service(&mut env, &mut probe);
        probe.len()
    };
    let bound = WRITE_HIGH_WATER + one_response;

    let pipelined: String = (0..REQUESTS)
        .map(|k| format!("GET /q/cpu?idx={k}..{} HTTP/1.1\r\n\r\n", k + SPAN))
        .collect();
    conn.received(pipelined.as_bytes());
    conn.service(&mut env, &mut peer);
    assert!(conn.unflushed() > WRITE_HIGH_WATER && conn.unflushed() <= bound);
    let answered = conn.unflushed() / one_response;
    assert!(
        conn.rbuf.len() > pipelined.len() - (answered + 2) * 42,
        "{} of {} request bytes left after ~{answered} answers",
        conn.rbuf.len(),
        pipelined.len()
    );
    assert!(matches!(
        conn.settle(t0, &rig.limits),
        Next::Wait {
            read: false,
            write: true,
            ..
        }
    ));

    // The peer starts reading, a third of a megabyte per wake.
    let mut wakes = 0;
    while conn.unflushed() > 0 || !conn.rbuf.is_empty() {
        peer.room = 333_333;
        conn.service(&mut env, &mut peer);
        assert!(conn.unflushed() <= bound, "{} unflushed", conn.unflushed());
        wakes += 1;
        assert!(wakes < 10_000, "no progress");
    }
    assert!(matches!(
        conn.settle(t0, &rig.limits),
        Next::Wait {
            read: true,
            write: false,
            ..
        }
    ));
    let bodies = bodies(&peer.got);
    assert_eq!(bodies.len(), REQUESTS);
    for (k, body) in bodies.iter().enumerate() {
        let first = format!("{}\n", value(k));
        assert!(
            body.starts_with(first.as_bytes()),
            "answer {k} out of order"
        );
        assert_eq!(body.iter().filter(|&&b| b == b'\n').count(), SPAN);
    }
}
