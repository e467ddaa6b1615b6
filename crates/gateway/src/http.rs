//! Hand-rolled HTTP/1.1 framing.
//!
//! The build environment has no crates.io access, so the gateway parses
//! requests and frames responses itself: request-line + headers +
//! `Content-Length` bodies on the way in, fixed-length or `chunked`
//! transfer-encoding on the way out, and an incremental *response* parser
//! ([`ResponseParser`]) for the load generator's non-blocking client
//! sweep. The surface is deliberately the subset the gateway needs — no
//! trailers, no multipart, no `100-continue`.

use std::io::BufRead;

/// Hard cap on the request head (request line + headers) in bytes.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body in bytes.
pub(crate) const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parse/framing failure, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError(pub String);

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http: {}", self.0)
    }
}

impl std::error::Error for HttpError {}

fn err<T>(reason: impl Into<String>) -> Result<T, HttpError> {
    Err(HttpError(reason.into()))
}

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request target exactly as received (path plus optional query).
    pub target: String,
    /// Header name/value pairs in arrival order, names as received.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A minimal request with no headers beyond what framing requires.
    pub fn new(method: &str, target: &str, body: Vec<u8>) -> Self {
        HttpRequest {
            method: method.to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body,
        }
    }

    /// The target's path component (the part before any `?`).
    pub(crate) fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Case-insensitive header lookup (first match wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the request as HTTP/1.1 wire bytes, appending a
    /// `Content-Length` header (always, so the round trip through
    /// [`read_request`] is exact).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(self.method.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.target.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        for (k, v) in &self.headers {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Reads one line terminated by `\n`, stripping the `\r\n`/`\n` ending.
/// Returns `None` on clean EOF before any byte of the line.
fn read_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return err("connection closed mid-line");
            }
            Ok(_) => {
                if *budget == 0 {
                    return err(format!("request head exceeds {MAX_HEAD_BYTES} bytes"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return match String::from_utf8(line) {
                        Ok(s) => Ok(Some(s)),
                        Err(_) => err("non-UTF-8 bytes in request head"),
                    };
                }
                line.push(byte[0]);
            }
            Err(e) => return err(format!("read: {e}")),
        }
    }
}

/// Reads and parses one request from a blocking reader.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly before
/// sending anything (the idle keep-alive case).
///
/// # Errors
///
/// Malformed request lines/headers, oversized heads or bodies, and
/// transport failures all surface as [`HttpError`].
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<HttpRequest>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = match read_line(reader, &mut budget)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return err(format!("malformed request line {request_line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return err(format!("unsupported protocol {version:?}"));
    }
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget)? {
            Some(line) => line,
            None => return err("connection closed inside headers"),
        };
        if line.is_empty() {
            break;
        }
        match line.split_once(':') {
            Some((name, value)) if !name.trim().is_empty() => {
                headers.push((name.trim().to_string(), value.trim().to_string()));
            }
            _ => return err(format!("malformed header line {line:?}")),
        }
    }
    let mut request = HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    };
    if let Some(len) = request.header("content-length") {
        let len: usize = match len.parse() {
            Ok(n) => n,
            Err(_) => return err(format!("bad Content-Length {len:?}")),
        };
        if len > MAX_BODY_BYTES {
            return err(format!("body of {len} bytes exceeds {MAX_BODY_BYTES}"));
        }
        let mut body = vec![0u8; len];
        if let Err(e) = reader.read_exact(&mut body) {
            return err(format!("short body: {e}"));
        }
        request.body = body;
    }
    Ok(Some(request))
}

/// The standard reason phrase for the status codes the gateway emits.
fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Frames a complete fixed-length response (`Connection: close`).
pub(crate) fn simple_response(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    response_with_headers(status, content_type, &[], body)
}

/// Frames a complete fixed-length response with extra headers (for
/// `Retry-After` on shed/drain responses). Always `Connection: close`.
pub(crate) fn response_with_headers(
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_reason(status),
        body.len(),
    )
    .into_bytes();
    for (name, value) in extra {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"Connection: close\r\n\r\n");
    out.extend_from_slice(body);
    out
}

/// The response head that opens a chunked SSE stream.
pub fn sse_response_head() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
      Cache-Control: no-store\r\nTransfer-Encoding: chunked\r\n\
      Connection: close\r\n\r\n"
        .to_vec()
}

/// Frames `data` as one HTTP/1.1 chunk (hex length, CRLF, data, CRLF).
/// Empty input returns no bytes: a zero-length chunk would terminate the
/// stream ([`LAST_CHUNK`] does that explicitly).
pub fn encode_chunk(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating zero-length chunk of a chunked response.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Body framing of a response being parsed incrementally.
#[derive(Debug)]
enum BodyFraming {
    /// `Content-Length`: this many bytes remain.
    Length(usize),
    /// `Transfer-Encoding: chunked`, between chunks (parsing a size line).
    ChunkSize(String),
    /// Inside a chunk: this many data bytes remain, then a CRLF.
    ChunkData(usize),
    /// After the final chunk (trailing CRLF may still arrive; ignored).
    Done,
}

/// Incremental HTTP/1.1 *response* parser for non-blocking clients: feed
/// bytes as they arrive; the head (status + headers) and decoded body
/// bytes become available as they complete. Supports `Content-Length`
/// and `Transfer-Encoding: chunked` bodies.
#[derive(Debug)]
pub struct ResponseParser {
    head: Vec<u8>,
    status: Option<u16>,
    headers: Vec<(String, String)>,
    framing: Option<BodyFraming>,
    /// Decoded body bytes not yet taken by the caller.
    body: Vec<u8>,
    done: bool,
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseParser {
    /// A parser expecting the status line.
    pub fn new() -> Self {
        ResponseParser {
            head: Vec::new(),
            status: None,
            headers: Vec::new(),
            framing: None,
            body: Vec::new(),
            done: false,
        }
    }

    /// The parsed status code, once the status line is complete.
    pub fn status(&self) -> Option<u16> {
        self.status
    }

    /// Case-insensitive response-header lookup (available once the head
    /// is complete).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True once the full body has been decoded.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Takes the decoded body bytes accumulated so far.
    pub fn take_body(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.body)
    }

    /// Feeds freshly received bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] for malformed status lines, headers, or
    /// chunk framing.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), HttpError> {
        if self.framing.is_none() {
            // Accumulate the head until the blank line.
            self.head.extend_from_slice(bytes);
            let boundary = self.head.windows(4).position(|w| w == b"\r\n\r\n");
            let Some(pos) = boundary else {
                if self.head.len() > MAX_HEAD_BYTES {
                    return err("response head too large");
                }
                return Ok(());
            };
            let head = std::mem::take(&mut self.head);
            let (head_bytes, rest) = head.split_at(pos + 4);
            self.parse_head(head_bytes)?;
            let rest = rest.to_vec();
            return self.feed_body(&rest);
        }
        // Head already parsed: everything is body.
        self.feed_body(bytes)
    }

    fn parse_head(&mut self, head: &[u8]) -> Result<(), HttpError> {
        let text = match std::str::from_utf8(head) {
            Ok(t) => t,
            Err(_) => return err("non-UTF-8 response head"),
        };
        let mut lines = text.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let code = status_line
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse::<u16>().ok());
        let Some(code) = code else {
            return err(format!("malformed status line {status_line:?}"));
        };
        self.status = Some(code);
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some((name, value)) = line.split_once(':') {
                self.headers
                    .push((name.trim().to_string(), value.trim().to_string()));
            }
        }
        let chunked = self
            .header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        self.framing = Some(if chunked {
            BodyFraming::ChunkSize(String::new())
        } else {
            let len = self
                .header("content-length")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(0);
            if len == 0 {
                self.done = true;
                BodyFraming::Done
            } else {
                BodyFraming::Length(len)
            }
        });
        Ok(())
    }

    fn feed_body(&mut self, mut bytes: &[u8]) -> Result<(), HttpError> {
        while !bytes.is_empty() {
            // `feed` only routes here once the head is parsed; a peer
            // that somehow lands body bytes earlier gets a parse error,
            // not a panic in the connection handler.
            let Some(framing) = self.framing.as_mut() else {
                return err("body bytes before response head");
            };
            match framing {
                BodyFraming::Length(remaining) => {
                    let take = bytes.len().min(*remaining);
                    self.body.extend_from_slice(&bytes[..take]);
                    *remaining -= take;
                    bytes = &bytes[take..];
                    if *remaining == 0 {
                        self.done = true;
                        self.framing = Some(BodyFraming::Done);
                    }
                }
                BodyFraming::ChunkSize(line) => {
                    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
                        line.push_str(&String::from_utf8_lossy(bytes));
                        return Ok(());
                    };
                    line.push_str(&String::from_utf8_lossy(&bytes[..nl]));
                    bytes = &bytes[nl + 1..];
                    let size_text = line.trim().trim_end_matches('\r').to_string();
                    if size_text.is_empty() {
                        // The CRLF that closed the previous chunk's data.
                        line.clear();
                        continue;
                    }
                    let size = match usize::from_str_radix(&size_text, 16) {
                        Ok(n) => n,
                        Err(_) => return err(format!("bad chunk size {size_text:?}")),
                    };
                    self.framing = Some(if size == 0 {
                        self.done = true;
                        BodyFraming::Done
                    } else {
                        BodyFraming::ChunkData(size)
                    });
                }
                BodyFraming::ChunkData(remaining) => {
                    let take = bytes.len().min(*remaining);
                    self.body.extend_from_slice(&bytes[..take]);
                    *remaining -= take;
                    bytes = &bytes[take..];
                    if *remaining == 0 {
                        self.framing = Some(BodyFraming::ChunkSize(String::new()));
                    }
                }
                BodyFraming::Done => return Ok(()),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> HttpRequest {
        read_request(&mut BufReader::new(bytes)).unwrap().unwrap()
    }

    #[test]
    fn request_round_trips_through_wire_bytes() {
        let mut req = HttpRequest::new("POST", "/v1/completions?x=1", b"{\"a\":1}".to_vec());
        req.headers
            .push(("Accept".into(), "text/event-stream".into()));
        let parsed = parse(&req.encode());
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path(), "/v1/completions");
        assert_eq!(parsed.header("accept"), Some("text/event-stream"));
        assert_eq!(parsed.body, b"{\"a\":1}");
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_an_error() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
        assert!(read_request(&mut BufReader::new(&b"not http\r\n\r\n"[..])).is_err());
        assert!(read_request(&mut BufReader::new(&b"GET /x SPDY/3\r\n\r\n"[..])).is_err());
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let wire = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(read_request(&mut BufReader::new(wire.as_bytes())).is_err());
    }

    #[test]
    fn chunked_response_decodes_across_arbitrary_splits() {
        let mut wire = sse_response_head();
        wire.extend_from_slice(&encode_chunk(b"hello "));
        wire.extend_from_slice(&encode_chunk(b"world"));
        wire.extend_from_slice(LAST_CHUNK);
        // Feed one byte at a time: the parser must not care about framing
        // landing on buffer boundaries.
        let mut p = ResponseParser::new();
        for b in &wire {
            p.feed(std::slice::from_ref(b)).unwrap();
        }
        assert_eq!(p.status(), Some(200));
        assert!(p.is_done());
        assert_eq!(p.take_body(), b"hello world");
    }

    #[test]
    fn extra_headers_land_before_the_blank_line() {
        let wire = response_with_headers(503, "application/json", &[("Retry-After", "2")], b"{}");
        let mut p = ResponseParser::new();
        p.feed(&wire).unwrap();
        assert_eq!(p.status(), Some(503));
        assert_eq!(p.header("retry-after"), Some("2"));
        assert!(p.is_done());
        assert_eq!(p.take_body(), b"{}");
    }

    #[test]
    fn content_length_response_decodes() {
        let wire = simple_response(429, "application/json", b"{\"error\":1}");
        let mut p = ResponseParser::new();
        p.feed(&wire).unwrap();
        assert_eq!(p.status(), Some(429));
        assert!(p.is_done());
        assert_eq!(p.take_body(), b"{\"error\":1}");
    }
}
