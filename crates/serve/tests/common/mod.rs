//! Shared helpers for the serve integration tests: a demo pack builder and
//! a minimal blocking HTTP client.
//!
//! Compiled once per test target, and each target uses a different subset
//! of the helpers — silence per-target dead-code noise.
#![allow(dead_code)]

use neats_store::{Store, StoreConfig, StoreMode, StoreWriter};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The demo corpus: `(name, timestamps, values)` for three series with
/// deliberately irregular stamps and several segments each.
pub fn demo_data() -> Vec<(String, Vec<u64>, Vec<i64>)> {
    let mut out = Vec::new();
    for (i, name) in ["cpu", "mem", "disk io"].iter().enumerate() {
        let n = 700 + i * 130;
        // Strictly increasing but irregular: the step is 9, the jitter < 9.
        let stamps: Vec<u64> =
            (0..n as u64).map(|k| 1_000 + k * 9 + (k % 5) + i as u64).collect();
        let values: Vec<i64> = (0..n as i64)
            .map(|k| (k * k) / 31 - k * (i as i64 + 2) + (k % 13) * 5)
            .collect();
        out.push((name.to_string(), stamps, values));
    }
    out
}

/// Builds the demo pack (segment size 128, so every series stitches across
/// several segments) and opens it as a `Store`.
pub fn demo_store() -> Arc<Store> {
    let mut w = StoreWriter::new(StoreConfig {
        segment_points: 128,
        mode: StoreMode::Lossless,
        ..StoreConfig::default()
    });
    for (name, stamps, values) in demo_data() {
        w.ingest(&name, &stamps, &values).unwrap();
    }
    Arc::new(Store::open(w.finish().unwrap()).unwrap())
}

/// The 99th-percentile of client-observed latencies (sorts in place).
pub fn p99(latencies: &mut [Duration]) -> Duration {
    latencies.sort_unstable();
    latencies[(latencies.len() - 1) * 99 / 100]
}

/// One parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
    pub keep_alive: bool,
    pub retry_after: Option<u32>,
    pub content_type: Option<String>,
}

/// A minimal blocking HTTP/1.1 client over one connection (keep-alive:
/// issue any number of requests before dropping).
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_nodelay(true).unwrap();
        Self { stream, buf: Vec::new() }
    }

    /// Sends `raw` verbatim and reads one full response.
    pub fn raw_request(&mut self, raw: &[u8]) -> HttpResponse {
        self.stream.write_all(raw).expect("write request");
        self.read_response()
    }

    /// Issues `GET <target>` with keep-alive and reads the response.
    pub fn get(&mut self, target: &str) -> HttpResponse {
        self.raw_request(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
    }

    /// Issues `POST /q` with `body` and reads the response.
    pub fn post_batch(&mut self, body: &str) -> HttpResponse {
        self.raw_request(
            format!(
                "POST /q HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .as_bytes(),
        )
    }

    /// Like [`Self::raw_request`], but returns `None` when the server
    /// closed the connection before sending any response bytes — the
    /// legitimate race when a request lands just as a draining server
    /// closes an idle keep-alive connection. A close *mid*-response still
    /// panics.
    pub fn try_raw_request(&mut self, raw: &[u8]) -> Option<HttpResponse> {
        if self.stream.write_all(raw).is_err() {
            return None;
        }
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return None,
                Ok(0) => panic!("connection closed mid-response (head so far: {:?})", self.buf),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if self.buf.is_empty() => {
                    // Connection reset between requests counts as a close.
                    let _ = e;
                    return None;
                }
                Err(e) => panic!("read error mid-response: {e}"),
            }
        };
        Some(self.finish_response(head_end))
    }

    /// Reads one response already in flight (for pipelining tests).
    pub fn read_response(&mut self) -> HttpResponse {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "connection closed mid-response (head so far: {:?})", self.buf);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        self.finish_response(head_end)
    }

    /// Parses the head ending at `head_end` and reads the body.
    fn finish_response(&mut self, head_end: usize) -> HttpResponse {
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("head utf8");
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        let mut keep_alive = true;
        let mut retry_after = None;
        let mut content_type = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.trim().parse().expect("content length"),
                "connection" => keep_alive = value.trim().eq_ignore_ascii_case("keep-alive"),
                "retry-after" => retry_after = value.trim().parse().ok(),
                "content-type" => content_type = Some(value.trim().to_string()),
                _ => {}
            }
        }
        self.buf.drain(..head_end);
        while self.buf.len() < content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "connection closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[..content_length].to_vec()).expect("body utf8");
        self.buf.drain(..content_length);
        HttpResponse { status, body, keep_alive, retry_after, content_type }
    }
}
