//! Minimal HTTP/1.1 adapter: `GET /metrics` and `GET /healthz`.
//!
//! This is deliberately a sliver of HTTP — enough for a Prometheus
//! scraper and a liveness probe, nothing more. One thread per
//! connection, keep-alive honoured, request lines and headers capped
//! at 8 KiB, bodies capped at [`MAX_FRAME`] and discarded. It routes
//! nothing: route, reroute and reload requests travel only over the
//! framed socket ([`crate::wire`]). Any other `GET` path answers 404,
//! and any other method 405.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use crate::server::{self, Shared};
use crate::wire::MAX_FRAME;

/// Longest accepted request line or header line, bytes.
const MAX_LINE: u64 = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;

struct Request {
    method: String,
    path: String,
    keep_alive: bool,
}

/// The HTTP acceptor body, spawned by [`crate::server::serve`].
pub(crate) fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if server::is_draining(shared) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Same socket options as the socket protocol. For HTTP the
        // read deadline doubles as a keep-alive idle cap: a connection
        // that sends nothing for a full stall budget is closed (HTTP
        // clients reconnect; framed-protocol clients are the ones with
        // legitimate long-lived idle connections).
        let conn_id = server::register_conn(shared, &stream);
        let worker = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("patlabor-http-{conn_id}"))
                .spawn(move || handle_conn(&shared, conn_id, stream))
        };
        if let Ok(handle) = worker {
            server::register_threads(shared, [handle]);
        }
    }
}

fn handle_conn(shared: &Shared, conn_id: u64, stream: TcpStream) {
    if let Ok(read_half) = stream.try_clone() {
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        while let Ok(Some(request)) = read_request(&mut reader) {
            let (status, body) = dispatch(shared, &request);
            if write_response(&mut writer, status, &body, request.keep_alive).is_err()
                || !request.keep_alive
            {
                break;
            }
        }
        // Close before deregistering so the peer's EOF is immediate
        // (the registry clone would otherwise hold the socket open).
        let _ = writer.flush();
        let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
    }
    server::deregister_conn(shared, conn_id);
}

/// The status and plain-text body answering one request.
fn dispatch(shared: &Shared, request: &Request) -> (&'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => ("200 OK", server::render_metrics(shared)),
        ("GET", "/healthz") => ("200 OK", "ok\n".to_string()),
        ("GET", _) => ("404 Not Found", "not found\n".to_string()),
        _ => ("405 Method Not Allowed", "method not allowed\n".to_string()),
    }
}

/// Reads one request, discarding its body. `Ok(None)` on clean EOF
/// before a request line.
fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed request line"));
    };
    let method = method.to_string();
    let path = path.to_string();
    let mut content_length = 0u64;
    let mut keep_alive = true;
    for _ in 0..MAX_HEADERS {
        let Some(header) = read_line(reader)? else {
            return Err(bad("eof in headers"));
        };
        if header.is_empty() {
            // Read past the body so a keep-alive connection stays in
            // step with the next request line.
            let skipped = io::copy(&mut reader.by_ref().take(content_length), &mut io::sink())?;
            if skipped < content_length {
                return Err(bad("eof in body"));
            }
            return Ok(Some(Request {
                method,
                path,
                keep_alive,
            }));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            let n: u64 = value.parse().map_err(|_| bad("bad content-length"))?;
            if n > MAX_FRAME as u64 {
                return Err(bad("body too large"));
            }
            content_length = n;
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    Err(bad("too many headers"))
}

/// One CRLF-terminated line, trimmed, capped at [`MAX_LINE`].
/// `Ok(None)` on EOF with nothing read.
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader.by_ref().take(MAX_LINE).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(bad("line too long or torn"));
    }
    Ok(Some(line.trim_end_matches(['\r', '\n']).to_string()))
}

fn write_response(
    writer: &mut BufWriter<TcpStream>,
    status: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n\
         Connection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    writer.flush()
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every outcome the parser may give hostile bytes: `Ok(None)` only
    /// for empty input, a request whose method and path are single
    /// non-empty tokens, or an error. A panic fails the test.
    fn assert_structured(bytes: &[u8]) {
        match read_request(&mut &bytes[..]) {
            Ok(None) => assert!(bytes.is_empty(), "{bytes:?}"),
            Ok(Some(request)) => {
                for token in [&request.method, &request.path] {
                    assert!(!token.is_empty(), "{bytes:?}");
                    assert!(!token.contains(char::is_whitespace), "{bytes:?}");
                }
            }
            Err(e) => assert!(!e.to_string().is_empty(), "{bytes:?}"),
        }
    }

    /// Seeded hostile corpus for `read_request`: every truncation of a
    /// few valid request heads (with and without a body), single- and
    /// multi-byte flips of them, and random byte strings, some drawn
    /// from HTTP's own alphabet so the damage reaches past the request
    /// line.
    #[test]
    fn hostile_request_heads_get_structured_answers() {
        let heads: [&[u8]; 3] = [
            b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\nAccept: */*\r\n\r\n",
            b"POST /route HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"id\": 1}\r\n",
        ];
        let mut state = 0x4e77_11e5_u64;
        let mut next = || {
            state = patlabor::resilience::splitmix64(state);
            state
        };
        for head in heads {
            assert!(matches!(read_request(&mut &head[..]), Ok(Some(_))));
            for len in 0..head.len() {
                assert_structured(&head[..len]);
            }
            for flips in [1, 1, 1, 2, 3, 5, 8] {
                for _ in 0..64 {
                    let mut damaged = head.to_vec();
                    for _ in 0..flips {
                        let h = next();
                        let at = (h % damaged.len() as u64) as usize;
                        damaged[at] ^= ((h >> 32) as u8).max(1);
                    }
                    assert_structured(&damaged);
                }
            }
        }
        const HTTPISH: &[u8] = b"GETPOS /:-\r\n 0123456789HTcontelgh";
        for round in 0..2_000 {
            let len = (next() % 96) as usize;
            let random: Vec<u8> = (0..len)
                .map(|_| {
                    let h = next();
                    if round % 2 == 0 {
                        h as u8
                    } else {
                        HTTPISH[(h % HTTPISH.len() as u64) as usize]
                    }
                })
                .collect();
            assert_structured(&random);
        }
    }

    /// An endless stream of one byte, counting what the parser reads.
    struct Endless {
        byte: u8,
        read: u64,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            buf.fill(self.byte);
            self.read += buf.len() as u64;
            Ok(buf.len())
        }
    }

    /// A line that never ends, as the request line or as a header, is
    /// refused once `MAX_LINE` bytes have been read.
    #[test]
    fn endless_lines_are_refused_at_the_cap() {
        const BUFFER: usize = 64;
        for prefix in [&b""[..], b"GET /metrics HTTP/1.1\r\n"] {
            let endless = Endless {
                byte: b'a',
                read: 0,
            };
            let mut reader = BufReader::with_capacity(BUFFER, prefix.chain(endless));
            assert!(read_request(&mut reader).is_err());
            let read = reader.get_ref().get_ref().1.read;
            assert!(read <= MAX_LINE + BUFFER as u64, "read {read} bytes");
        }
    }
}
