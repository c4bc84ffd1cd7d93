//! A minimal blocking HTTP client for the `gcln-serve` API — enough
//! for the test suite, smoke scripts, and driving suites through the
//! HTTP front end from Rust (see EXPERIMENTS.md).
//!
//! One request per connection (the server speaks `Connection: close`),
//! so a "client" is just a function.

use crate::json::{Json, JsonError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status, lower-cased headers, body text.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers in order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body as text.
    pub body: String,
}

impl ClientResponse {
    /// First header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the body is not well-formed JSON.
    pub fn json(&self) -> Result<Json, JsonError> {
        Json::parse(&self.body)
    }
}

/// Performs one request against a server. `body`, when present, is sent
/// with a `Content-Length` (the API takes JSON bodies only).
///
/// # Errors
///
/// Returns an I/O error on connection failure, timeout (30 s), or a
/// malformed response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    request_with_headers(addr, method, path, &[], body)
}

/// [`request`] with extra request headers (e.g. `x-client-id` for the
/// per-client rate limiter).
///
/// # Errors
///
/// Same as [`request`].
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    use std::io::{Error, ErrorKind};
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let body_bytes = body.unwrap_or("").as_bytes();
    let extra: String = headers.iter().map(|(k, v)| format!("{k}: {v}\r\n")).collect();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\n{extra}content-length: {}\r\n\r\n",
        body_bytes.len()
    )?;
    stream.write_all(body_bytes)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| Error::new(ErrorKind::InvalidData, "response is not UTF-8"))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "response has no head/body split"))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(ClientResponse { status, headers, body: payload.to_string() })
}
