//! Seeded mutation fuzzing of the HTTP/1.1 request reader: random byte-
//! and token-level corruptions of valid `Content-Length` and `chunked`
//! requests, read under default and deliberately tight [`Limits`], must
//! never panic [`http::read_request`] — every outcome is either a parsed
//! request within the limits or an [`HttpError`] whose
//! [`HttpError::status`] is 400, 413 or 501.
//!
//! The corruption schedule is driven by the in-tree [`Check`] harness, so
//! `--features proptest` multiplies the case count 16x.

use std::io::BufReader;

use hlpower_rng::check::Check;
use hlpower_rng::Rng;
use hlpower_serve::http::{self, HttpError, Limits, Request};

/// Valid requests covering both body framings, keep-alive headers,
/// chunk extensions and trailers, and two requests pipelined on one
/// connection.
const CORPUS: &[&[u8]] = &[
    b"POST /estimate HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
      Content-Length: 34\r\n\r\n{\"netlist\": \"INPUT a\\nOUTPUT a\\n\"}",
    b"POST /estimate HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked\r\n\r\n\
      b\r\n{\"seed\": 7,\r\n6;ext=1\r\n \"x\":1\r\n1\r\n}\r\n0\r\nTrailer: t\r\n\r\n",
    b"GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\nAccept: text/plain\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX-Request-Id: abc\r\n\r\n\
      POST /shutdown HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
];

/// Replacement tokens biased toward the grammar's own delimiters, header
/// names, and numbers that stress size arithmetic.
const TOKENS: &[&str] = &[
    "\r\n",
    "\n",
    "\r",
    " ",
    ":",
    ";",
    "",
    "GET",
    "POST",
    "HTTP/1.1",
    "HTTP/1.0",
    "HTTP/2.0",
    "Content-Length:",
    "content-length: 5",
    "Content-Length: -1",
    "Content-Length: 99999999999999999999",
    "Transfer-Encoding: chunked",
    "Transfer-Encoding: gzip",
    "Connection: close",
    "0",
    "0\r\n\r\n",
    "7fffffffffffffff\r\n",
    "ffffffffffffffff\r\n",
    "ffffffffffffffff;",
    "10000000000000000\r\n",
    "zz",
    "\u{fffd}",
    "\u{0}",
];

/// Applies one random byte-level corruption.
fn corrupt_bytes(rng: &mut Rng, src: &[u8]) -> Vec<u8> {
    let mut out = src.to_vec();
    // A mix of arbitrary bytes and the framing bytes the parser keys on.
    let byte = |rng: &mut Rng| match rng.gen_range(0u32..3) {
        0 => rng.gen_range(0u32..256) as u8,
        1 => b"\r\n:; 0f"[rng.gen_range(0..7usize)],
        _ => rng.gen_range(u32::from(b' ')..=u32::from(b'~')) as u8,
    };
    // An earlier stacked corruption may have emptied the input; then
    // only an insert applies.
    let edit = if out.is_empty() { 1 } else { rng.gen_range(0u32..5) };
    match edit {
        // Replace one byte.
        0 => {
            let i = rng.gen_range(0..out.len());
            out[i] = byte(rng);
        }
        // Insert one byte.
        1 => {
            let i = rng.gen_range(0..=out.len());
            out.insert(i, byte(rng));
        }
        // Delete a short range.
        2 => {
            let i = rng.gen_range(0..out.len());
            let n = rng.gen_range(1..=16usize.min(out.len() - i));
            out.drain(i..i + n);
        }
        // Duplicate a short range in place.
        3 => {
            let i = rng.gen_range(0..out.len());
            let n = rng.gen_range(1..=16usize.min(out.len() - i));
            let dup = out[i..i + n].to_vec();
            out.splice(i..i, dup);
        }
        // Truncate (the peer hangs up mid-request).
        _ => {
            let i = rng.gen_range(0..out.len());
            out.truncate(i);
        }
    }
    out
}

/// Applies one random token-level corruption: the request is split after
/// every space, colon, semicolon and line feed, and a token is replaced,
/// deleted, inserted, or swapped with another.
fn corrupt_tokens(rng: &mut Rng, src: &[u8]) -> Vec<u8> {
    let mut toks: Vec<&[u8]> =
        src.split_inclusive(|b| matches!(b, b' ' | b':' | b';' | b'\n')).collect();
    let token = |rng: &mut Rng| TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
    if toks.is_empty() {
        return token(rng).to_vec();
    }
    match rng.gen_range(0u32..4) {
        0 => {
            let i = rng.gen_range(0..toks.len());
            toks[i] = token(rng);
        }
        1 => {
            let i = rng.gen_range(0..toks.len());
            toks.remove(i);
        }
        2 => {
            let i = rng.gen_range(0..=toks.len());
            toks.insert(i, token(rng));
        }
        _ => {
            let i = rng.gen_range(0..toks.len());
            let j = rng.gen_range(0..toks.len());
            toks.swap(i, j);
        }
    }
    toks.concat()
}

/// Default limits half the time, otherwise limits small enough that the
/// corpus trips each of them.
fn limits(rng: &mut Rng) -> Limits {
    if rng.gen_range(0u32..2) == 0 {
        return Limits::default();
    }
    Limits {
        request_line: rng.gen_range(1..=48usize),
        header_bytes: rng.gen_range(1..=96usize),
        header_count: rng.gen_range(0..=4usize),
        body_bytes: rng.gen_range(0..=48usize),
    }
}

/// Reads requests from `bytes` the way a keep-alive connection does, until
/// the first error; a panic anywhere fails the whole test.
fn read_all(bytes: &[u8], limits: &Limits) {
    let mut reader = BufReader::new(bytes);
    for _ in 0..8 {
        match http::read_request(&mut reader, limits) {
            Ok(req) => assert_within(&req, limits, bytes),
            Err(e) => {
                assert_answerable(&e, bytes);
                return;
            }
        }
    }
}

fn assert_within(req: &Request, limits: &Limits, bytes: &[u8]) {
    let input = String::from_utf8_lossy(bytes);
    assert!(req.body.len() <= limits.body_bytes, "body over its limit: {input:?}");
    assert!(req.headers.len() <= limits.header_count, "too many headers: {input:?}");
    assert!(req.target.len() < limits.request_line, "request line over its limit: {input:?}");
}

fn assert_answerable(e: &HttpError, bytes: &[u8]) {
    assert!(
        matches!(e.status(), 400 | 413 | 501),
        "status {} for `{e}` on {:?}",
        e.status(),
        String::from_utf8_lossy(bytes)
    );
}

#[test]
fn byte_corruptions_never_panic_and_errors_stay_4xx_or_501() {
    Check::new("http_byte_corruptions").cases(256).run(|rng| {
        for src in CORPUS {
            let mut bytes = src.to_vec();
            // Stack up to three corruptions so errors surface in states a
            // single edit cannot reach.
            for _ in 0..rng.gen_range(1u32..=3) {
                bytes = corrupt_bytes(rng, &bytes);
            }
            let limits = limits(rng);
            read_all(&bytes, &limits);
        }
    });
}

#[test]
fn token_corruptions_never_panic_and_errors_stay_4xx_or_501() {
    Check::new("http_token_corruptions").cases(256).run(|rng| {
        for src in CORPUS {
            let mut bytes = src.to_vec();
            for _ in 0..rng.gen_range(1u32..=2) {
                bytes = corrupt_tokens(rng, &bytes);
            }
            let limits = limits(rng);
            read_all(&bytes, &limits);
        }
    });
}

/// The uncorrupted corpus still parses — guards against the fuzz fixture
/// set silently rotting.
#[test]
fn pristine_corpus_parses() {
    let requests: Vec<usize> = CORPUS
        .iter()
        .map(|src| {
            let mut reader = BufReader::new(*src);
            let mut n = 0;
            loop {
                match http::read_request(&mut reader, &Limits::default()) {
                    Ok(_) => n += 1,
                    Err(HttpError::Closed) => return n,
                    Err(e) => panic!("{:?} no longer parses: {e}", String::from_utf8_lossy(src)),
                }
            }
        })
        .collect();
    assert_eq!(requests, [1, 1, 1, 2]);
}
