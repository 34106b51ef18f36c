//! A deliberately small HTTP/1.1 implementation for the serving daemon.
//!
//! The workspace vendors no HTTP stack, and the daemon's needs are narrow:
//! parse a request line + headers + `Content-Length` body from a
//! `TcpStream`, and write a response with a JSON payload. This module
//! implements exactly that — persistent connections (HTTP/1.1 keep-alive
//! semantics, honoring `Connection: close`), bounded header and body sizes
//! so a hostile peer cannot balloon a worker's memory, and nothing else
//! (no chunked encoding, no TLS, no compression; the daemon rejects
//! requests that need them).

use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Maximum accepted size of the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted `Content-Length`.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target with any `?query` suffix stripped.
    pub path: String,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when the peer asked for the connection to close after this
    /// exchange (`Connection: close` or an HTTP/1.0 request).
    pub wants_close: bool,
    /// Raw `Accept` header value, if the peer sent one. Routing uses it
    /// to pick between the JSON and Prometheus shapes of `/metrics`.
    pub accept: Option<String>,
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// Socket-level failure.
    Io(io::Error),
    /// The bytes were not parseable HTTP; the enclosed message is safe to
    /// send back in a 400 response.
    Malformed(&'static str),
    /// The request exceeded [`MAX_HEAD_BYTES`] or [`MAX_BODY_BYTES`].
    TooLarge(&'static str),
    /// The request did not arrive in full before its wall-clock deadline —
    /// size limits bound a worker's *memory*, this bounds its *time*: a
    /// peer dripping one byte per socket-timeout tick would otherwise pin
    /// a fixed-pool worker for hours without ever tripping a limit.
    DeadlineExceeded,
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read one request from a buffered stream, giving up at `deadline`.
///
/// The underlying socket is expected to carry a short read timeout; each
/// timed-out read re-checks the deadline, so the total time a worker can
/// spend receiving one request is bounded by `deadline` regardless of how
/// slowly the peer drips bytes.
///
/// # Errors
/// [`ReadError::Closed`] on clean EOF before any request byte; the other
/// variants as described on [`ReadError`].
pub fn read_request<R: BufRead>(reader: &mut R, deadline: Instant) -> Result<Request, ReadError> {
    let mut head = Vec::new();
    // Request line, tolerating a few leading empty lines (RFC 7230 §3.5:
    // clients may send a stray CRLF after a body; servers should skip it
    // rather than drop the keep-alive session). Bounded so a pure-CRLF
    // stream cannot loop forever inside one "request".
    let mut skipped_blanks = 0usize;
    let request_line = loop {
        match read_line(reader, &mut head, deadline)? {
            None => return Err(ReadError::Closed),
            Some(line) if line.is_empty() => {
                skipped_blanks += 1;
                if skipped_blanks > 4 {
                    return Err(ReadError::Malformed("too many blank lines before request"));
                }
            }
            Some(line) => break line,
        }
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ReadError::Malformed("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(ReadError::Malformed("request line has no target"))?;
    let version = parts
        .next()
        .ok_or(ReadError::Malformed("request line has no version"))?;
    if parts.next().is_some() {
        return Err(ReadError::Malformed("request line has trailing tokens"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed("unsupported HTTP version"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut wants_close = version == "HTTP/1.0";
    let mut accept = None;
    loop {
        let Some(line) = read_line(reader, &mut head, deadline)? else {
            return Err(ReadError::Malformed(
                "connection closed before headers ended",
            ));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed("header line has no colon"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| ReadError::Malformed("unparseable content-length"))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(ReadError::TooLarge("body exceeds the size limit"));
                }
            }
            "transfer-encoding" => {
                return Err(ReadError::Malformed(
                    "transfer-encoding is not supported; send content-length",
                ));
            }
            "connection" => {
                // Token list; any mention of close wins, HTTP/1.0
                // keep-alive is honored.
                let lower = value.to_ascii_lowercase();
                if lower.split(',').any(|t| t.trim() == "close") {
                    wants_close = true;
                } else if lower.split(',').any(|t| t.trim() == "keep-alive") {
                    wants_close = false;
                }
            }
            "accept" => {
                accept = Some(value.to_string());
            }
            _ => {}
        }
    }

    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < body.len() {
        let unfilled = body.get_mut(filled..).unwrap_or_default();
        match read_with_deadline(reader, unfilled, deadline)? {
            0 => return Err(ReadError::Malformed("connection closed mid-body")),
            n => filled += n,
        }
    }
    Ok(Request {
        method,
        path,
        body,
        wants_close,
        accept,
    })
}

/// One `read` that retries socket-timeout errors until `deadline` — the
/// primitive that turns the socket's short poll timeout into a total
/// per-request time budget. Returns the byte count (0 = EOF).
fn read_with_deadline<R: BufRead>(
    reader: &mut R,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<usize, ReadError> {
    loop {
        match io::Read::read(reader, buf) {
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err(ReadError::DeadlineExceeded);
                }
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

/// Read one CRLF- (or bare-LF-) terminated line, enforcing the cumulative
/// head budget via `consumed`. `Ok(None)` is a clean EOF at a line
/// boundary — distinct from an empty line, so callers can tell a closed
/// connection from a stray CRLF.
fn read_line<R: BufRead>(
    reader: &mut R,
    consumed: &mut Vec<u8>,
    deadline: Instant,
) -> Result<Option<String>, ReadError> {
    let start = consumed.len();
    loop {
        let mut byte = [0u8; 1];
        match read_with_deadline(reader, &mut byte, deadline)? {
            0 => {
                if consumed.len() == start {
                    return Ok(None); // clean EOF at a line boundary
                }
                return Err(ReadError::Malformed("connection closed mid-line"));
            }
            _ => {
                let [b] = byte;
                if b == b'\n' {
                    break;
                }
                consumed.push(b);
                if consumed.len() > MAX_HEAD_BYTES {
                    return Err(ReadError::TooLarge("request head exceeds the size limit"));
                }
            }
        }
    }
    let mut line = consumed.get(start..).unwrap_or(&[]);
    if let Some(stripped) = line.strip_suffix(b"\r") {
        line = stripped;
    }
    std::str::from_utf8(line)
        .map(|l| Some(l.to_string()))
        .map_err(|_| ReadError::Malformed("header bytes are not utf-8"))
}

/// The reason phrase for the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a JSON response.
///
/// # Errors
/// Propagates socket write failures.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    close: bool,
) -> io::Result<()> {
    write_response_typed(writer, status, "application/json", body, close)
}

/// Write a response with an explicit `Content-Type` — the general form
/// behind [`write_response`], used by `/metrics` to serve Prometheus
/// text exposition next to the default JSON shape.
///
/// # Errors
/// Propagates socket write failures.
pub fn write_response_typed<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> io::Result<()> {
    write_response_with(writer, status, content_type, body, close, &[])
}

/// The fully general response writer: [`write_response_typed`] plus
/// caller-supplied extra headers (`(name, value)` pairs emitted verbatim
/// after the fixed ones). The load-shedding path uses it to attach
/// `Retry-After` to a 503 so well-behaved clients back off instead of
/// hammering an overloaded daemon.
///
/// # Errors
/// Propagates socket write failures.
pub fn write_response_with<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        connection,
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "\r\n{body}")?;
    writer.flush()
}

/// Parse one HTTP response — `(status, body)` — from a buffered stream:
/// the client-side complement of [`write_response`], walking the status
/// line, a `Content-Length` header, and the body. Shared by the loopback
/// tests and the CLI lifecycle test so the response walk lives in exactly
/// one place.
///
/// # Errors
/// `InvalidData` on an unparseable status line or length; socket errors
/// otherwise.
pub fn read_simple_response<R: BufRead>(reader: &mut R) -> io::Result<(u16, String)> {
    read_response_with_headers(reader).map(|(status, _, body)| (status, body))
}

/// A fully parsed response: status code, lowercase-name `(name, value)`
/// header pairs, and body.
pub type ParsedResponse = (u16, Vec<(String, String)>, String);

/// [`read_simple_response`] that also returns the response headers as
/// lowercase-name `(name, value)` pairs, so callers (the retry client,
/// the overload tests) can inspect `Retry-After` and friends.
///
/// # Errors
/// `InvalidData` on an unparseable status line or length; socket errors
/// otherwise.
pub fn read_response_with_headers<R: BufRead>(reader: &mut R) -> io::Result<ParsedResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed before response headers ended"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| bad("unparseable length"))?;
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    io::Read::read_exact(reader, &mut body)?;
    String::from_utf8(body)
        .map(|body| (status, headers, body))
        .map_err(|_| bad("response body is not utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::time::Duration;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut Cursor::new(raw.as_bytes()), far_deadline())
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
        assert!(!r.wants_close);
    }

    #[test]
    fn parses_post_with_body_and_query_stripping() {
        let r = parse("POST /infer?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/infer");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let r = parse("GET / HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(r.path, "/");
    }

    #[test]
    fn connection_close_and_http10_are_detected() {
        assert!(
            parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .wants_close
        );
        assert!(parse("GET / HTTP/1.0\r\n\r\n").unwrap().wants_close);
        assert!(
            !parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .wants_close
        );
    }

    #[test]
    fn accept_header_is_captured_verbatim() {
        let r =
            parse("GET /metrics HTTP/1.1\r\nAccept: text/plain; version=0.0.4\r\n\r\n").unwrap();
        assert_eq!(r.accept.as_deref(), Some("text/plain; version=0.0.4"));
        assert_eq!(parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap().accept, None);
    }

    #[test]
    fn typed_response_carries_its_content_type() {
        let mut out = Vec::new();
        write_response_typed(
            &mut out,
            200,
            "text/plain; version=0.0.4",
            "x_total 1\n",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.ends_with("\r\n\r\nx_total 1\n"));
    }

    #[test]
    fn clean_eof_reports_closed() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
    }

    #[test]
    fn leading_crlf_before_the_request_line_is_skipped() {
        // RFC 7230 §3.5: a stray CRLF after a previous body must not be
        // parsed as the next request line (and must not drop the session).
        for raw in [
            "\r\nGET /a HTTP/1.1\r\n\r\n",
            "\r\n\r\nGET /a HTTP/1.1\r\n\r\n",
            "\nGET /a HTTP/1.1\r\n\r\n",
        ] {
            let r = parse(raw).unwrap();
            assert_eq!(r.path, "/a", "failed on {raw:?}");
        }
        // EOF after only blank lines is still a clean close, and a
        // pure-CRLF stream is bounded, not looped on.
        assert!(matches!(parse("\r\n\r\n"), Err(ReadError::Closed)));
        assert!(matches!(
            parse(&"\r\n".repeat(10)),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn simple_response_round_trips_write_response() {
        let mut wire = Vec::new();
        write_response(&mut wire, 404, "{\"error\":\"x\"}", true).unwrap();
        let (status, body) = read_simple_response(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, "{\"error\":\"x\"}");
        assert!(read_simple_response(&mut Cursor::new(b"garbage\r\n\r\n")).is_err());
    }

    #[test]
    fn extra_headers_round_trip_through_the_header_reader() {
        let mut wire = Vec::new();
        write_response_with(
            &mut wire,
            503,
            "application/json",
            "{\"error\":\"overloaded\"}",
            false,
            &[("Retry-After", "2")],
        )
        .unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        let (status, headers, body) = read_response_with_headers(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(status, 503);
        assert_eq!(body, "{\"error\":\"overloaded\"}");
        let retry_after = headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .map(|(_, value)| value.as_str());
        assert_eq!(retry_after, Some("2"));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "GET / HTTP/1.1\r\nHost: x", // closed mid-head
        ] {
            assert!(
                matches!(parse(raw), Err(ReadError::Malformed(_))),
                "accepted {raw:?}"
            );
        }
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let huge_header = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge_header), Err(ReadError::TooLarge(_))));
        let huge_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&huge_body), Err(ReadError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_malformed() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn response_has_length_and_connection_headers() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        write_response(&mut out, 404, "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn keep_alive_stream_yields_successive_requests() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut cursor = Cursor::new(raw.as_bytes());
        let a = read_request(&mut cursor, far_deadline()).unwrap();
        let b = read_request(&mut cursor, far_deadline()).unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert_eq!(b.body, b"hi");
        assert!(matches!(
            read_request(&mut cursor, far_deadline()),
            Err(ReadError::Closed)
        ));
    }

    /// A peer that delivers a prefix of a request and then stalls forever
    /// (every further read times out, as a short socket timeout would).
    struct DrippingPeer {
        data: Vec<u8>,
        pos: usize,
    }

    impl io::Read for DrippingPeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.data.len() {
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            } else {
                Err(io::Error::from(io::ErrorKind::WouldBlock))
            }
        }
    }

    #[test]
    fn stalled_peer_hits_the_deadline_instead_of_pinning_the_worker() {
        // Mid-head stall and mid-body stall both abort once the deadline
        // passes, no matter how many reads already succeeded.
        for prefix in [
            "POST /infer HTTP/1.1\r\nContent-Le",
            "POST /infer HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        ] {
            let mut reader = std::io::BufReader::new(DrippingPeer {
                data: prefix.as_bytes().to_vec(),
                pos: 0,
            });
            let deadline = Instant::now(); // already expired
            assert!(
                matches!(
                    read_request(&mut reader, deadline),
                    Err(ReadError::DeadlineExceeded)
                ),
                "prefix {prefix:?} should abort on deadline"
            );
        }
    }
}
