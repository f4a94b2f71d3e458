//! A minimal, defensive HTTP/1.1 subset: request-head parsing and response
//! serialization over byte slices.
//!
//! This is not a general HTTP implementation — it parses exactly what
//! `docs/PROTOCOL.md` (at the repository root) promises: request line,
//! headers, optional `Content-Length` body, keep-alive and pipelining — and
//! rejects everything else with a 4xx/501 instead of guessing. Nothing here
//! touches a socket: `crate::conn` accumulates bytes, applies the explicit
//! [`Limits`] and calls in once a head is complete. Malformed input can
//! never panic the worker: the fuzz suite (`tests/serve_fuzz.rs`) feeds
//! this parser garbage, oversized heads, truncated bodies and pipelined
//! junk and asserts the connection always ends in a clean error response or
//! close.

use crate::render::push_u64;

/// Hard bounds on what a single request may occupy.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers (431 beyond).
    pub max_header_bytes: usize,
    /// Maximum `Content-Length` (413 beyond).
    pub max_body_bytes: usize,
    /// Maximum time from a request's first byte to its last; a request that
    /// stalls longer (e.g. a truncated body) is answered 408 and the
    /// connection closed.
    pub request_timeout: std::time::Duration,
    /// Maximum time a keep-alive connection may sit idle *between*
    /// requests before it is answered 408 and closed — without this, a
    /// slowloris-style client could pin a worker forever by simply never
    /// sending its next request.
    pub idle_timeout: std::time::Duration,
}

/// The request methods the server routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// An HTTP GET.
    Get,
    /// An HTTP POST.
    Post,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method (only GET/POST reach routing; others 405 at parse time).
    pub method: Method,
    /// The percent-decoded path (always starts with `/`).
    pub path: String,
    /// The raw query string (bytes after `?`, empty when absent).
    pub query: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Bytes this request occupied on the wire (head + body) — feeds the
    /// `bytes_in` counter on `/stats` and `/metrics`.
    pub wire_bytes: usize,
}

/// A parse-level failure, carrying the status the connection is closed with.
#[derive(Debug)]
pub struct HttpError {
    /// The 4xx/5xx status to answer before closing.
    pub status: u16,
    /// A short human-readable reason (becomes the response body).
    pub reason: String,
}

impl HttpError {
    fn new(status: u16, reason: impl Into<String>) -> Self {
        Self {
            status,
            reason: reason.into(),
        }
    }
}

/// Index one past the head terminator (`\r\n\r\n`, or the lenient bare
/// `\n\n`), if the buffer holds a complete head.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

pub(crate) type ParsedHead = (Method, String, String, bool, usize, bool);

/// Parses request line + headers. Returns
/// `(method, decoded path, raw query, keep_alive, content_length,
/// expects_continue)`. Deliberately incremental-friendly: it takes a
/// complete head slice (found by [`find_head_end`]) and nothing else, so
/// the connection state machine can call it whenever one has accumulated.
pub(crate) fn parse_head(head: &[u8]) -> Result<ParsedHead, HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (method_s, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::new(400, "malformed request line")),
    };
    let method = match method_s {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "HEAD" | "PUT" | "DELETE" | "OPTIONS" | "PATCH" | "TRACE" | "CONNECT" => {
            return Err(HttpError::new(
                405,
                format!("method {method_s} not allowed"),
            ));
        }
        _ => return Err(HttpError::new(400, "unrecognised method")),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::new(400, "unsupported HTTP version")),
    };
    if !target.starts_with('/') {
        return Err(HttpError::new(400, "request target must be origin-form"));
    }
    let (raw_path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q.to_string()),
        None => (target, String::new()),
    };
    let path = percent_decode(raw_path)?;

    let mut keep_alive = http11;
    let mut content_length: Option<usize> = None;
    let mut expects_continue = false;
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        header_count += 1;
        if header_count > 64 {
            return Err(HttpError::new(431, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, "malformed header line"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "content-length" => {
                // RFC 7230: 1*DIGIT. Rust's usize parsing would also take a
                // leading '+', which a stricter front proxy may reject or
                // reinterpret — the parser-disagreement smuggling setup.
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::new(400, "unparseable Content-Length"));
                }
                let parsed: usize = value
                    .parse()
                    .map_err(|_| HttpError::new(400, "unparseable Content-Length"))?;
                // Conflicting duplicates are the request-smuggling classic
                // (RFC 7230 §3.3.2): reject instead of guessing. Identical
                // repeats are tolerated, as the RFC permits collapsing.
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(HttpError::new(400, "conflicting Content-Length headers"));
                }
                content_length = Some(parsed);
            }
            "transfer-encoding" => {
                return Err(HttpError::new(501, "transfer-encoding not supported"));
            }
            "expect" => {
                if value.eq_ignore_ascii_case("100-continue") {
                    expects_continue = true;
                } else {
                    return Err(HttpError::new(400, "unsupported Expect"));
                }
            }
            _ => {}
        }
    }
    Ok((
        method,
        path,
        query,
        keep_alive,
        content_length.unwrap_or(0),
        expects_continue,
    ))
}

/// Decodes `%XX` escapes; the result must be valid UTF-8.
fn percent_decode(s: &str) -> Result<String, HttpError> {
    if !s.contains('%') {
        return Ok(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                // Exactly two hex digits; from_str_radix alone would also
                // accept a leading '+'.
                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| HttpError::new(400, "bad percent escape"))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::new(400, "percent escape is not UTF-8"))
}

/// A response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of `body`.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Seconds for a `Retry-After` header (emitted when `Some`); set on
    /// every 503 so shed/degraded clients know to back off briefly.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A 200 with a plain-text body.
    pub fn text(body: Vec<u8>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// A 200 with a JSON body.
    pub fn json(body: String) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// An error response with a one-line plain-text body. A 503 (the
    /// overload/degraded status) always carries `Retry-After: 1` — every
    /// path that sheds or rejects tells the client when to come back.
    pub fn error(status: u16, reason: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{reason}\n").into_bytes(),
            retry_after: (status == 503).then_some(1),
        }
    }

    /// Overrides the `Retry-After` seconds.
    pub fn with_retry_after(mut self, secs: u32) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

/// The reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Appends the serialized response head to `out`. `keep_alive` controls
/// the `Connection` header; the caller decides whether to actually close.
fn write_head(out: &mut Vec<u8>, resp: &Response, keep_alive: bool) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_u64(out, u64::from(resp.status));
    out.push(b' ');
    out.extend_from_slice(reason_phrase(resp.status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(resp.content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_u64(out, resp.body.len() as u64);
    out.extend_from_slice(b"\r\n");
    if let Some(secs) = resp.retry_after {
        out.extend_from_slice(b"Retry-After: ");
        push_u64(out, u64::from(secs));
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n".as_slice()
    } else {
        b"Connection: close\r\n\r\n".as_slice()
    });
}

/// Appends the serialized `resp` to `out` — a connection's write buffer,
/// flushed as the socket takes it.
pub(crate) fn append_response(out: &mut Vec<u8>, resp: &Response, keep_alive: bool) {
    write_head(out, resp, keep_alive);
    out.extend_from_slice(&resp.body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_of(s: &str) -> Result<ParsedHead, HttpError> {
        parse_head(s.as_bytes())
    }

    #[test]
    fn parses_a_plain_get() {
        let (m, path, query, ka, len, cont) =
            head_of("GET /q/cpu?idx=5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(m, Method::Get);
        assert_eq!(path, "/q/cpu");
        assert_eq!(query, "idx=5");
        assert!(ka);
        assert_eq!(len, 0);
        assert!(!cont);
    }

    #[test]
    fn connection_and_version_defaults() {
        let (.., ka, _, _) = head_of("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!ka, "HTTP/1.0 defaults to close");
        let (.., ka, _, _) = head_of("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(ka);
        let (.., ka, _, _) = head_of("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!ka);
    }

    #[test]
    fn rejects_malformed_heads() {
        for (input, want) in [
            ("FROB / HTTP/1.1\r\n\r\n", 400),
            ("HEAD / HTTP/1.1\r\n\r\n", 405),
            ("GET / HTTP/9.9\r\n\r\n", 400),
            ("GET no-slash HTTP/1.1\r\n\r\n", 400),
            ("GET / HTTP/1.1 extra\r\n\r\n", 400),
            ("GET /\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nBad-header-no-colon\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nContent-Length: +17\r\n\r\n", 400),
            (
                "POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 29\r\n\r\n",
                400,
            ),
            ("GET /%+5 HTTP/1.1\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            ("GET /%zz HTTP/1.1\r\n\r\n", 400),
            ("GET /%ff HTTP/1.1\r\n\r\n", 400), // lone 0xff is not UTF-8
        ] {
            let err = head_of(input).unwrap_err();
            assert_eq!(err.status, want, "{input:?} → {}", err.reason);
        }
    }

    #[test]
    fn identical_duplicate_content_length_is_tolerated() {
        let (.., len, _) =
            head_of("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n").unwrap();
        assert_eq!(len, 5);
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("/q/cpu%201").unwrap(), "/q/cpu 1");
        assert_eq!(percent_decode("/plain").unwrap(), "/plain");
        assert!(percent_decode("/%4").is_err());
    }

    #[test]
    fn response_head_bytes() {
        let mut out = b"earlier ".to_vec();
        append_response(&mut out, &Response::text(b"12\n".to_vec()), true);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "earlier HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 3\r\nConnection: keep-alive\r\n\r\n12\n"
        );
        let mut out = Vec::new();
        append_response(
            &mut out,
            &Response::error(503, "busy").with_retry_after(30),
            false,
        );
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 5\r\nRetry-After: 30\r\nConnection: close\r\n\r\nbusy\n"
        );
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nrest"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
