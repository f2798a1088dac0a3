//! A minimal blocking HTTP client for the server's own CLI and tests.
//!
//! The CI smoke drives the server entirely in-tree with this client
//! (`hlpower-serve post/metrics/top/stop`), so no external `curl` is
//! needed. Responses are read to completion: fixed `content-length`
//! bodies are taken exactly, `chunked` bodies are de-chunked (streamed
//! interim lines simply accumulate into the returned body). Response
//! headers are kept (lowercased) so callers can read the server's
//! `x-request-id` echo.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response: status code, headers, and the (de-chunked) body text.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body (UTF-8; lossy for any invalid bytes).
    pub body: String,
}

impl Response {
    /// First value of header `name` (ASCII case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// Connection, write, or malformed-response failures.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
    request_with(addr, method, path, body, &[])
}

/// [`request`] with extra request headers (e.g. `X-Request-Id`,
/// `Accept`).
///
/// # Errors
///
/// Connection, write, or malformed-response failures.
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_nodelay(true)?;
    let body_bytes = body.unwrap_or("").as_bytes();
    // The whole request goes out in one write (the socket has Nagle off,
    // so every write would be its own segment).
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        body_bytes.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body_bytes);
    stream.write_all(&out)?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream))
}

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn read_line<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Parses a status line + headers + body from `r`.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on malformed responses.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let status_line = read_line(r)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        if name == "content-length" {
            content_length = value.parse().ok();
        } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
        headers.push((name, value.to_string()));
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(r)?;
            let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| bad(format!("bad chunk size `{size_line}`")))?;
            if size == 0 {
                // Trailers until the blank line (or EOF).
                while !read_line(r)?.is_empty() {}
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            r.read_exact(&mut body[start..])?;
            read_line(r)?;
        }
    } else if let Some(len) = content_length {
        body.resize(len, 0);
        r.read_exact(&mut body)?;
    } else {
        r.read_to_end(&mut body)?;
    }
    Ok(Response { status, headers, body: String::from_utf8_lossy(&body).into_owned() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fixed_and_chunked_responses() {
        let fixed = b"HTTP/1.1 200 OK\r\ncontent-length: 4\r\nx-request-id: 9\r\n\r\nbody";
        let resp = read_response(&mut BufReader::new(&fixed[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "body");
        assert_eq!(resp.header("X-Request-Id"), Some("9"));

        let chunked =
            b"HTTP/1.1 404 Not Found\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let resp = read_response(&mut BufReader::new(&chunked[..])).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body, "abcde");
    }
}
