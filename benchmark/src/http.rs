//! The client side of the wire: one keep-alive connection, non-blocking so
//! that a single thread can multiplex two of them, pipelining depth 1.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long any single answer may take before it counts as a timeout.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Where `read` lands before the bytes that arrived join `buf`.
    scratch: Box<[u8]>,
    /// Parsed head of the response being received: (status, head length,
    /// body length).
    head: Option<(u16, usize, usize)>,
    pub bytes_in: u64,
}

#[derive(Debug)]
pub enum HttpError {
    Io(std::io::Error),
    /// The peer closed the connection before a full response arrived.
    Closed,
    Malformed(&'static str),
    Timeout,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Closed => write!(f, "connection closed mid-response"),
            HttpError::Malformed(what) => write!(f, "malformed response: {what}"),
            HttpError::Timeout => write!(f, "no response within {RESPONSE_TIMEOUT:?}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            scratch: vec![0u8; 1 << 16].into_boxed_slice(),
            head: None,
            bytes_in: 0,
        })
    }

    /// Writes one whole request, spinning through short writes.
    pub fn send(&mut self, mut req: &[u8]) -> Result<(), HttpError> {
        let t0 = Instant::now();
        while !req.is_empty() {
            match self.stream.write(req) {
                Ok(0) => return Err(HttpError::Closed),
                Ok(n) => req = &req[n..],
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    if t0.elapsed() > RESPONSE_TIMEOUT {
                        return Err(HttpError::Timeout);
                    }
                    std::hint::spin_loop();
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Reads whatever has arrived; `Some((status, body))` once a whole
    /// response is buffered. Call [`Self::consume`] before the next request.
    pub fn poll(&mut self) -> Result<Option<(u16, &[u8])>, HttpError> {
        loop {
            if let Some((status, head_len, body_len)) = self.head {
                if self.buf.len() >= head_len + body_len {
                    return Ok(Some((status, &self.buf[head_len..head_len + body_len])));
                }
            } else if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                self.head = Some(parse_head(&self.buf[..end + 4])?);
                continue;
            }
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(HttpError::Closed),
                Ok(n) => {
                    self.buf.extend_from_slice(&self.scratch[..n]);
                    self.bytes_in += n as u64;
                }
                Err(e) => {
                    return match e.kind() {
                        ErrorKind::WouldBlock | ErrorKind::Interrupted => Ok(None),
                        _ => Err(e.into()),
                    }
                }
            }
        }
    }

    /// Drops the response [`Self::poll`] returned.
    pub fn consume(&mut self) {
        if let Some((_, head_len, body_len)) = self.head.take() {
            self.buf.drain(..head_len + body_len);
        }
    }

    /// One blocking round trip (set-up, scrapes, verification).
    pub fn request(&mut self, req: &[u8]) -> Result<(u16, Vec<u8>), HttpError> {
        self.send(req)?;
        let t0 = Instant::now();
        loop {
            if let Some((status, body)) = self.poll()? {
                let out = (status, body.to_vec());
                self.consume();
                return Ok(out);
            }
            if t0.elapsed() > RESPONSE_TIMEOUT {
                return Err(HttpError::Timeout);
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    pub fn get(&mut self, target: &str) -> Result<(u16, Vec<u8>), HttpError> {
        self.request(format!("GET {target} HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// `HTTP/1.1 200 OK\r\n…Content-Length: N\r\n…\r\n\r\n` → (status, head
/// length, N).
fn parse_head(head: &[u8]) -> Result<(u16, usize, usize), HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("status line"))?;
    let body_len = lines
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or(HttpError::Malformed("no Content-Length"))?;
    Ok((status, head.len(), body_len))
}
