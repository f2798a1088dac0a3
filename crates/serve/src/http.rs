//! A minimal, defensive HTTP/1.1 layer over `std::io` streams.
//!
//! Only what the estimation server needs: request parsing with hard size
//! limits (request line, header block, header count, body), both
//! `Content-Length` and `chunked` request bodies, and response writers
//! for fixed and chunked payloads. Every limit violation and every
//! malformed byte is a typed [`HttpError`] — the connection handler maps
//! them to structured 4xx responses; nothing in this module panics on
//! wire input (the seeded corruption battery in `tests/http_fuzz.rs`
//! checks both).

use std::io::{self, BufRead, Read, Write};

/// Hard limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes in the request line (`GET /path HTTP/1.1`).
    pub request_line: usize,
    /// Maximum bytes across all header lines.
    pub header_bytes: usize,
    /// Maximum number of headers.
    pub header_count: usize,
    /// Maximum body bytes (after de-chunking).
    pub body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            request_line: 8 * 1024,
            header_bytes: 32 * 1024,
            header_count: 64,
            body_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A failure while reading or parsing a request.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a full request arrived
    /// (an empty read on a fresh connection is a clean close, not an
    /// error worth answering).
    Closed,
    /// A read timed out or failed at the socket level.
    Io(io::Error),
    /// A size limit was exceeded. `what` names the limit.
    TooLarge {
        /// Which limit (e.g. `"request line"`, `"body"`).
        what: &'static str,
        /// The configured maximum, in bytes or entries.
        limit: usize,
    },
    /// The bytes did not parse as HTTP. `what` says what was expected.
    Malformed {
        /// What was being parsed when it failed.
        what: String,
    },
    /// Syntactically valid HTTP the server does not speak (e.g. an
    /// unknown `Transfer-Encoding`).
    Unsupported {
        /// The unsupported construct.
        what: String,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed before a full request"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::TooLarge { what, limit } => write!(f, "{what} exceeds limit of {limit}"),
            HttpError::Malformed { what } => write!(f, "malformed request: {what}"),
            HttpError::Unsupported { what } => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The HTTP status this error should be answered with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed | HttpError::Io(_) => 400,
            HttpError::TooLarge { .. } => 413,
            HttpError::Malformed { .. } => 400,
            HttpError::Unsupported { .. } => 501,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...), as received.
    pub method: String,
    /// The request target (path plus optional query), as received.
    pub target: String,
    /// Protocol version as received (`HTTP/1.1` or `HTTP/1.0`).
    pub version: String,
    /// Header `(name, value)` pairs in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (de-chunked when the request was chunked).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (ASCII case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the connection may serve another request after this one,
    /// per HTTP/1.x semantics: HTTP/1.1 defaults to keep-alive unless
    /// the client sent `Connection: close`; HTTP/1.0 defaults to close
    /// unless the client asked for `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Reads one line terminated by `\n`, rejecting lines longer than `max`.
/// The returned line has `\r\n` / `\n` stripped.
fn read_line<R: BufRead>(r: &mut R, max: usize, what: &'static str) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    // Cap the read at max + 1 so an oversized line is detected without
    // buffering an attacker-controlled amount of memory.
    let mut limited = r.take((max + 1) as u64);
    limited.read_until(b'\n', &mut buf).map_err(HttpError::Io)?;
    if buf.is_empty() {
        return Err(HttpError::Closed);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() > max {
            HttpError::TooLarge { what, limit: max }
        } else {
            HttpError::Closed
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HttpError::Malformed { what: format!("{what}: not UTF-8") })
}

/// Reads and parses one request from `r`, enforcing `limits`.
///
/// # Errors
///
/// [`HttpError::Closed`] when the peer hangs up before any byte,
/// otherwise the specific limit/parse failure.
pub fn read_request<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Request, HttpError> {
    let line = read_line(r, limits.request_line, "request line")?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed {
                what: format!("request line `{}`", truncate(&line, 120)),
            })
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Unsupported { what: format!("protocol version `{version}`") });
    }
    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = read_line(r, limits.header_bytes, "header line")?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > limits.header_bytes {
            return Err(HttpError::TooLarge { what: "header block", limit: limits.header_bytes });
        }
        if headers.len() >= limits.header_count {
            return Err(HttpError::TooLarge { what: "header count", limit: limits.header_count });
        }
        let (name, value) = line.split_once(':').ok_or_else(|| HttpError::Malformed {
            what: format!("header line `{}`", truncate(&line, 120)),
        })?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let req = Request {
        method: method.to_string(),
        target: target.to_string(),
        version: version.to_string(),
        headers,
        body: Vec::new(),
    };
    let body = read_body(r, &req, limits)?;
    Ok(Request { body, ..req })
}

fn read_body<R: BufRead>(r: &mut R, req: &Request, limits: &Limits) -> Result<Vec<u8>, HttpError> {
    if let Some(te) = req.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("chunked") {
            return Err(HttpError::Unsupported { what: format!("transfer-encoding `{te}`") });
        }
        return read_chunked(r, limits);
    }
    let len = match req.header("content-length") {
        None => return Ok(Vec::new()),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed { what: format!("content-length `{v}`") })?,
    };
    if len > limits.body_bytes {
        return Err(HttpError::TooLarge { what: "body", limit: limits.body_bytes });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::Malformed { what: format!("body shorter than content-length {len}") }
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok(body)
}

/// Decodes a `chunked` body: hex-size lines, data, terminating `0` chunk,
/// then (ignored) trailers up to the final blank line.
fn read_chunked<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let line = read_line(r, 1024, "chunk size")?;
        // Chunk extensions (`;ext=val`) are allowed and ignored.
        let size_hex = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16).map_err(|_| HttpError::Malformed {
            what: format!("chunk size `{}`", truncate(&line, 40)),
        })?;
        if size == 0 {
            // Trailers until the blank line.
            loop {
                if read_line(r, limits.header_bytes, "trailer")?.is_empty() {
                    break;
                }
            }
            return Ok(body);
        }
        // `size` is peer-controlled (up to `usize::MAX`): saturate.
        if body.len().saturating_add(size) > limits.body_bytes {
            return Err(HttpError::TooLarge { what: "body", limit: limits.body_bytes });
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..]).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::Malformed { what: "chunk shorter than its size".into() }
            } else {
                HttpError::Io(e)
            }
        })?;
        let crlf = read_line(r, 8, "chunk terminator")?;
        if !crlf.is_empty() {
            return Err(HttpError::Malformed { what: "missing CRLF after chunk".into() });
        }
    }
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "Unknown",
    }
}

/// A response's status line and headers, through the blank line, as one
/// buffer: `framing` is its `content-length` or `transfer-encoding`
/// header, and `extra_headers` follow the standard ones.
fn response_head(
    status: u16,
    content_type: &str,
    framing: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n{framing}\r\nconnection: {connection}\r\n",
        reason(status),
    );
    for (name, value) in extra_headers {
        // Strip CR/LF so a hostile echoed value (e.g. X-Request-Id)
        // cannot split the response into injected headers.
        let clean: String = value.chars().filter(|c| *c != '\r' && *c != '\n').collect();
        head.push_str(&format!("{name}: {clean}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Writes a complete fixed-length response in one write and flushes it.
///
/// `keep_alive` selects the `connection:` header; `extra_headers` are
/// emitted verbatim after the standard ones (values are sanitized of
/// CR/LF).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let framing = format!("content-length: {}", body.len());
    let mut out = response_head(status, content_type, &framing, keep_alive, extra_headers);
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// A `Transfer-Encoding: chunked` response in progress; used for streamed
/// confidence-interval updates. Call [`ChunkedWriter::chunk`] per payload
/// and [`ChunkedWriter::finish`] to terminate the stream.
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the status line and headers in one write and enters chunked
    /// mode. `keep_alive` and `extra_headers` behave as in
    /// [`write_response`].
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn begin(
        mut w: W,
        status: u16,
        content_type: &str,
        keep_alive: bool,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<Self> {
        let framing = "transfer-encoding: chunked";
        w.write_all(&response_head(status, content_type, framing, keep_alive, extra_headers))?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Writes one non-empty chunk in one write and flushes (each update
    /// must reach the client promptly, not sit in a buffer until the run
    /// ends).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut out = format!("{:x}\r\n", data.len()).into_bytes();
        out.extend_from_slice(data);
        out.extend_from_slice(b"\r\n");
        self.w.write_all(&out)?;
        self.w.flush()
    }

    /// Writes the terminating zero chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes), &Limits::default())
    }

    #[test]
    fn parses_a_simple_post() {
        let req =
            parse(b"POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/estimate");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn keep_alive_follows_http1x_defaults() {
        let k = |bytes: &[u8]| parse(bytes).unwrap().keep_alive();
        assert!(k(b"GET / HTTP/1.1\r\n\r\n"), "1.1 defaults to keep-alive");
        assert!(!k(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!k(b"GET / HTTP/1.0\r\n\r\n"), "1.0 defaults to close");
        assert!(k(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
    }

    #[test]
    fn parses_a_chunked_body() {
        let req = parse(
            b"POST /e HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nhell\r\n1;ext=1\r\no\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn missing_body_is_empty() {
        let req = parse(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
        assert_eq!(req.method, "GET");
    }

    #[test]
    fn limits_are_enforced() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10 * 1024));
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(HttpError::TooLarge { what: "request line", .. })
        ));
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..100).map(|i| format!("h{i}: v\r\n")).collect::<String>()
        );
        assert!(matches!(
            parse(many_headers.as_bytes()),
            Err(HttpError::TooLarge { what: "header count", .. })
        ));
        let big_body = b"POST / HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n";
        assert!(matches!(parse(big_body), Err(HttpError::TooLarge { what: "body", .. })));
        let huge_chunk =
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n1\r\na\r\nffffffffffffffff\r\n";
        assert!(matches!(parse(huge_chunk), Err(HttpError::TooLarge { what: "body", .. })));
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(HttpError::Malformed { .. })));
        assert!(matches!(parse(b"GET / HTTP/2.0\r\n\r\n"), Err(HttpError::Unsupported { .. })));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(HttpError::Malformed { .. })
        ));
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn responses_round_trip() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", false, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        let mut cw = ChunkedWriter::begin(&mut out, 200, "application/json", false, &[]).unwrap();
        cw.chunk(b"{\"a\":1}\n").unwrap();
        cw.chunk(b"{\"b\":2}\n").unwrap();
        cw.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    #[test]
    fn responses_carry_keep_alive_and_sanitized_extra_headers() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "application/json",
            b"{}",
            true,
            &[("x-request-id", "abc\r\nevil: 1")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("x-request-id: abcevil: 1\r\n"), "CR/LF stripped: {text}");
        assert!(!text.contains("\r\nevil:"), "no header injection: {text}");

        let mut out = Vec::new();
        ChunkedWriter::begin(&mut out, 200, "application/json", true, &[("x-request-id", "7")])
            .unwrap()
            .finish()
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("x-request-id: 7\r\n"));
    }

    /// A `Write` that records every `write` call it gets.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_and_chunk_is_one_write() {
        let mut w = Writes::default();
        write_response(&mut w, 200, "application/json", b"{}", true, &[("x-request-id", "7")])
            .unwrap();
        let fixed = "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\
                     connection: keep-alive\r\nx-request-id: 7\r\n\r\n{}";
        assert_eq!(w.0, [fixed.as_bytes()]);

        let mut w = Writes::default();
        let mut cw = ChunkedWriter::begin(&mut w, 404, "text/plain", false, &[]).unwrap();
        cw.chunk(b"{\"a\":1}\n").unwrap();
        cw.chunk(b"").unwrap();
        cw.chunk(b"0123456789abcdef").unwrap();
        cw.finish().unwrap();
        let head = "HTTP/1.1 404 Not Found\r\ncontent-type: text/plain\r\n\
                    transfer-encoding: chunked\r\nconnection: close\r\n\r\n";
        let expected: [&[u8]; 4] =
            [head.as_bytes(), b"8\r\n{\"a\":1}\n\r\n", b"10\r\n0123456789abcdef\r\n", b"0\r\n\r\n"];
        assert_eq!(w.0, expected);
    }
}
