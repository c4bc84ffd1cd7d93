//! A hand-rolled HTTP/1.1 subset: request reading over any
//! [`Read`] source and response writing over any [`Write`] sink.
//!
//! No async runtime exists in the offline vendor set, so the server is
//! plain blocking I/O: one connection per thread, `Connection: close`
//! semantics (each connection carries exactly one request/response
//! exchange). The parser is incremental — it consumes the stream in
//! chunks and never assumes a full request arrives in one read, which
//! is what the property tests exercise with adversarial byte splits.
//!
//! Malformed traffic is an error *value*, never a panic: every parse
//! failure maps to a 4xx/5xx [`HttpError`] the server renders as a JSON
//! error body.

use std::io::{Read, Write};

/// Parser limits; both are generous for the job API but small enough
/// that a hostile peer cannot balloon memory.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers (431 beyond this).
    pub max_head_bytes: usize,
    /// Maximum request body bytes (413 beyond this).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_head_bytes: 16 * 1024, max_body_bytes: 1024 * 1024 }
    }
}

/// A parsed request: method, target, lower-cased headers in order, and
/// the raw body.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request target as sent (path plus optional query).
    pub target: String,
    /// Headers in order; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The target without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// A request-level failure, carrying the HTTP status to answer with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// Response status (always 4xx or 5xx).
    pub status: u16,
    /// Human-readable cause, sent in the JSON error body.
    pub message: String,
}

impl HttpError {
    /// A new error.
    pub fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError { status, message: message.into() }
    }
}

/// Reads one request from `src`. Returns `Ok(None)` when the peer
/// closed the connection before sending anything (a clean no-request
/// close, not an error).
///
/// # Errors
///
/// Every malformed, oversized, or truncated request maps to an
/// [`HttpError`] with a 4xx/5xx status — never a panic:
///
/// - 400 — malformed request line/headers, truncated stream, bad
///   `Content-Length`
/// - 405-compatible method charset violations also yield 400
/// - 408 — the source's read timeout expired mid-request (a slowloris
///   peer dribbling bytes slower than the socket timeout)
/// - 413 — declared body larger than [`Limits::max_body_bytes`]
/// - 431 — head larger than [`Limits::max_head_bytes`]
/// - 501 — `Transfer-Encoding` (chunked bodies are not supported)
/// - 505 — HTTP version other than 1.x
pub fn read_request(src: &mut impl Read, limits: &Limits) -> Result<Option<Request>, HttpError> {
    // --- accumulate the head (request line + headers) ---
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    // Terminator search resumes where the last scan left off (backed up
    // far enough to catch a terminator spanning the chunk boundary) —
    // a byte-dribbling client must cost linear, not quadratic, work.
    let mut search_from = 0usize;
    let head_end = loop {
        if let Some(i) = find_head_end(&buf, search_from) {
            break i;
        }
        search_from = buf.len().saturating_sub(3);
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::new(431, "request head too large"));
        }
        let mut chunk = [0u8; 1024];
        let n = src.read(&mut chunk).map_err(read_error)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::new(400, "truncated request head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end > limits.max_head_bytes {
        return Err(HttpError::new(431, "request head too large"));
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    // --- request line ---
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::new(400, "malformed request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::new(400, "malformed method"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(505, "unsupported HTTP version"));
    }

    // --- headers ---
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, "malformed header line"));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::new(400, "malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = |body| Request {
        method: method.to_string(),
        target: target.to_string(),
        headers: headers.clone(),
        body,
    };

    // --- body ---
    let probe = request(Vec::new());
    if probe.header("transfer-encoding").is_some() {
        return Err(HttpError::new(501, "transfer-encoding is not supported"));
    }
    let Some(cl) = probe.header("content-length") else {
        return Ok(Some(probe));
    };
    let content_length: usize =
        cl.parse().map_err(|_| HttpError::new(400, "bad content-length"))?;
    if content_length > limits.max_body_bytes {
        return Err(HttpError::new(413, "request body too large"));
    }
    // Bytes already buffered past the head belong to the body.
    let mut body: Vec<u8> = buf[head_end + head_terminator_len(&buf, head_end)..].to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        let n = src.read(&mut chunk[..want]).map_err(read_error)?;
        if n == 0 {
            return Err(HttpError::new(400, "truncated request body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(Some(request(body)))
}

/// Maps a source read failure to its HTTP status: socket timeouts
/// (`TimedOut` on Unix, `WouldBlock` from `set_read_timeout` on some
/// platforms) are the peer's fault and answer 408; anything else is a
/// generic 400.
fn read_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            HttpError::new(408, "timed out reading the request")
        }
        _ => HttpError::new(400, format!("read: {e}")),
    }
}

/// Byte offset of the end of the head (exclusive of the blank line), or
/// `None` if the head terminator has not arrived yet. Accepts both
/// `\r\n\r\n` and bare `\n\n`. Scanning starts at `from` (callers pass
/// the resume point; results are absolute offsets).
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let window = buf.get(from..)?;
    let crlf = window.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + from);
    let lf = window.windows(2).position(|w| w == b"\n\n").map(|p| p + from);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b + 1)), // earliest terminator wins
        (Some(a), None) => Some(a),
        // `\n\n` at position b: head ends after the first `\n`.
        (None, Some(b)) => Some(b + 1),
        (None, None) => None,
    }
}

/// Length of the terminator that ended the head at `head_end`.
fn head_terminator_len(buf: &[u8], head_end: usize) -> usize {
    if buf[head_end..].starts_with(b"\r\n\r\n") {
        4
    } else {
        1 // the closing `\n` of a bare `\n\n`
    }
}

/// A response: status, extra headers, and body. `Content-Length`,
/// `Content-Type`, and `Connection: close` are emitted automatically.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Additional headers (name, value) beyond the automatic ones.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
    /// `Content-Type` emitted with the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with the given body.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (Prometheus exposition format 0.0.4 — the
    /// `/metrics` endpoint's content type).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// A JSON error body `{"error": message}` for a status.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!(r#"{{"error":{}}}"#, gcln_engine::events::json_string(message)),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes the response to a sink.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn write_to(&self, sink: &mut impl Write) -> std::io::Result<()> {
        write!(sink, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        write!(sink, "content-type: {}\r\n", self.content_type)?;
        write!(sink, "content-length: {}\r\n", self.body.len())?;
        write!(sink, "connection: close\r\n")?;
        for (name, value) in &self.headers {
            write!(sink, "{name}: {value}\r\n")?;
        }
        sink.write_all(b"\r\n")?;
        sink.write_all(&self.body)?;
        sink.flush()
    }
}

impl From<HttpError> for Response {
    fn from(e: HttpError) -> Response {
        Response::error(e.status, &e.message)
    }
}

/// Canonical reason phrases for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut std::io::Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/jobs?x=1");
        assert_eq!(req.path(), "/jobs");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET /healthz HTTP/1.1\nhost: h\n\n").unwrap().unwrap();
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.header("host"), Some("h"));
    }

    #[test]
    fn empty_connection_is_a_clean_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_map_to_4xx() {
        for (bytes, status) in [
            (&b"GARBAGE\r\n\r\n"[..], 400),
            (b"get /x HTTP/1.1\r\n\r\n", 400),
            (b"GET /x HTTP/2\r\n\r\n", 505),
            (b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nname space: v\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort", 400),
            (b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 501),
            (b"GET /x", 400), // truncated head
        ] {
            let err = parse(bytes).unwrap_err();
            assert_eq!(err.status, status, "{:?} -> {err:?}", String::from_utf8_lossy(bytes));
        }
    }

    #[test]
    fn a_read_timeout_mid_request_maps_to_408() {
        // A slowloris peer: a few bytes arrive, then the socket's read
        // timeout fires (surfaced by the OS as TimedOut/WouldBlock).
        struct Slowloris {
            sent: bool,
        }
        impl Read for Slowloris {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.sent {
                    return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                }
                self.sent = true;
                let bytes = b"POST /jobs HT";
                buf[..bytes.len()].copy_from_slice(bytes);
                Ok(bytes.len())
            }
        }
        let err = read_request(&mut Slowloris { sent: false }, &Limits::default()).unwrap_err();
        assert_eq!(err.status, 408);
        assert_eq!(reason(408), "Request Timeout");
        // Same mapping when the timeout hits mid-body.
        struct BodyStall {
            fed: bool,
        }
        impl Read for BodyStall {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.fed {
                    return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
                }
                self.fed = true;
                let bytes = b"POST /jobs HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
                buf[..bytes.len()].copy_from_slice(bytes);
                Ok(bytes.len())
            }
        }
        let err = read_request(&mut BodyStall { fed: false }, &Limits::default()).unwrap_err();
        assert_eq!(err.status, 408);
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let limits = Limits { max_head_bytes: 64, max_body_bytes: 8 };
        let mut big_head = b"GET /x HTTP/1.1\r\n".to_vec();
        big_head.extend_from_slice(format!("a: {}\r\n\r\n", "x".repeat(200)).as_bytes());
        let err = read_request(&mut std::io::Cursor::new(big_head), &limits).unwrap_err();
        assert_eq!(err.status, 431);
        let err = read_request(
            &mut std::io::Cursor::new(b"POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\n".to_vec()),
            &limits,
        )
        .unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn response_serializes_with_framing() {
        let mut out = Vec::new();
        Response::json(503, r#"{"error":"full"}"#)
            .with_header("retry-after", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("content-length: 16\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"full\"}"));
    }
}
