//! Minimal HTTP/1.1 adapter: `GET /metrics`, `GET /healthz`,
//! `POST /route`, and `POST /reroute`.
//!
//! This is deliberately a sliver of HTTP — enough for a Prometheus
//! scraper and a curl-driven smoke test, nothing more. One thread per
//! connection, keep-alive honoured, request lines and headers capped
//! at 8 KiB, bodies capped at [`MAX_FRAME`]. The route path shares the
//! socket protocol's request/response JSON verbatim ([`parse_request`]
//! on the body, the same reply object in the response), so a request
//! that works over the framed socket works over `curl -d` unchanged —
//! the adapter adds transport, never semantics.
//!
//! [`parse_request`]: crate::wire::parse_request

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use crate::chaos::TransportFaultKind;
use crate::metrics::Metrics;
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
    body: Vec<u8>,
}

struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn text(status: u16, reason: &'static str, body: &str) -> Self {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
        }
    }
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
            server::register_thread(shared, handle);
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, conn_id: u64, stream: TcpStream) {
    let chaos = &shared.config.chaos;
    if let Ok(read_half) = stream.try_clone() {
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        let mut seq = 0u64;
        while let Ok(Some(request)) = read_request(&mut reader) {
            if !chaos.is_empty() && chaos.fires(TransportFaultKind::DelayRead, conn_id, seq)
            {
                Metrics::add(
                    &shared.metrics.chaos_injected[TransportFaultKind::DelayRead.index()],
                    1,
                );
                std::thread::sleep(chaos.delay());
            }
            let keep_alive = request.keep_alive;
            let response = dispatch(shared, conn_id, &request);
            if let Some(kind) = chaos.write_fault(conn_id, seq) {
                Metrics::add(&shared.metrics.chaos_injected[kind.index()], 1);
                inject_response_fault(kind, &mut writer, &response, chaos.delay());
                // Crash-only: a damaged response is only ever seen on a
                // connection that closes right after.
                break;
            }
            seq += 1;
            if write_response(&mut writer, &response, keep_alive).is_err() {
                break;
            }
            if !keep_alive {
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

/// The HTTP mirror of the framed writer's fault injection: the torn
/// and stalled variants advertise the full `Content-Length` but send
/// half the body, so the client's framing layer (not just its parser)
/// must notice the damage.
fn inject_response_fault(
    kind: TransportFaultKind,
    writer: &mut BufWriter<TcpStream>,
    response: &Response,
    delay: std::time::Duration,
) {
    let torn = |writer: &mut BufWriter<TcpStream>| {
        let _ = write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            response.status,
            response.reason,
            response.content_type,
            response.body.len(),
        );
        let _ = writer.write_all(&response.body[..response.body.len() / 2]);
        let _ = writer.flush();
    };
    match kind {
        TransportFaultKind::Disconnect => {}
        TransportFaultKind::TornWrite => torn(writer),
        TransportFaultKind::StallWrite => {
            torn(writer);
            std::thread::sleep(delay);
        }
        TransportFaultKind::CorruptWrite => {
            let mut corrupted = response.body.clone();
            for byte in corrupted.iter_mut().take(8) {
                *byte ^= 0xA5;
            }
            let damaged = Response {
                status: response.status,
                reason: response.reason,
                content_type: response.content_type,
                body: corrupted,
            };
            let _ = write_response(writer, &damaged, false);
        }
        TransportFaultKind::DelayRead => {}
    }
}

fn dispatch(shared: &Arc<Shared>, conn_id: u64, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => Response::text(200, "OK", &server::render_metrics(shared)),
        ("GET", "/healthz") => Response::text(200, "OK", "ok\n"),
        ("POST", "/route") => Response {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            body: server::http_route(shared, conn_id, &request.body),
        },
        ("POST", "/reroute") => Response {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            body: server::http_reroute(shared, conn_id, &request.body),
        },
        ("GET" | "POST", _) => Response::text(404, "Not Found", "not found\n"),
        _ => Response::text(405, "Method Not Allowed", "method not allowed\n"),
    }
}

/// Reads one request. `Ok(None)` on clean EOF before a request line.
fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Request>> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed request line"));
    };
    let method = method.to_string();
    let path = path.to_string();
    let mut content_length = 0usize;
    let mut keep_alive = true;
    for _ in 0..MAX_HEADERS {
        let Some(header) = read_line(reader)? else {
            return Err(bad("eof in headers"));
        };
        if header.is_empty() {
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            return Ok(Some(Request {
                method,
                path,
                keep_alive,
                body,
            }));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            let n: usize = value.parse().map_err(|_| bad("bad content-length"))?;
            if n > MAX_FRAME {
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
fn read_line(reader: &mut BufReader<TcpStream>) -> io::Result<Option<String>> {
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
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    writer.write_all(&response.body)?;
    writer.flush()
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}
