//! A minimal client for the serve protocol — used by the loadgen
//! bench, the differential verifier, and the integration tests.
//!
//! [`RouteClient`] speaks the framed socket protocol and supports
//! pipelining: `send` any number of requests, then `recv` the replies
//! and correlate by `id` (the server replies to *accepted* requests in
//! per-connection arrival order, but immediate rejections — overload,
//! drain, malformed — jump the queue, so id correlation is the only
//! contract). [`scrape_metrics`] and [`http_request`] cover the HTTP
//! adapter with the same no-dependency discipline.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use patlabor::resilience::splitmix64;

use crate::json::{parse, Json};
use crate::wire::{read_frame, write_frame, RerouteRequest, RouteRequest};

/// One framed-protocol connection.
#[derive(Debug)]
pub struct RouteClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RouteClient {
    /// Connects to a serve daemon's socket address. Nagle's algorithm
    /// is off: every send flushes one whole frame, and with Nagle on a
    /// pipelined frame would wait for the daemon's ACK of the last one.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(RouteClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Sets the read timeout (None blocks forever, the default).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request frame (pipelinable: does not wait for the
    /// reply).
    pub fn send(&mut self, request: &RouteRequest) -> io::Result<()> {
        self.send_raw(request.to_json().render().as_bytes())
    }

    /// Sends an arbitrary payload as one frame — the loadgen's
    /// malformed-request path.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload)?;
        self.writer.flush()
    }

    /// Receives one reply frame, parsed. `Ok(None)` when the server
    /// closed the connection cleanly.
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        let Some(payload) = read_frame(&mut self.reader)? else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 reply"))?;
        parse(text)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Round-trips one request (send + recv). Errors if the server
    /// hung up instead of replying.
    pub fn route(&mut self, request: &RouteRequest) -> io::Result<Json> {
        self.send(request)?;
        self.recv()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Sends one ECO reroute frame (pipelinable).
    pub fn send_reroute(&mut self, request: &RerouteRequest) -> io::Result<()> {
        self.send_raw(request.to_json().render().as_bytes())
    }

    /// Round-trips one ECO reroute (send + recv).
    pub fn reroute(&mut self, request: &RerouteRequest) -> io::Result<Json> {
        self.send_reroute(request)?;
        self.recv()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Half-closes the write side: the server sees EOF, finishes any
    /// queued replies for this connection, then hangs up.
    pub fn finish_writes(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().shutdown(std::net::Shutdown::Write)
    }

    /// Round-trips one request under `policy`: `overloaded` rejections
    /// are retried (sleeping out the backoff) until the budget runs
    /// out. Returns the final reply plus how many retries were spent —
    /// the loadgen records that per request so BENCH rows show retry
    /// pressure, not just terminal failures.
    pub fn route_with_retry(
        &mut self,
        request: &RouteRequest,
        policy: &RetryPolicy,
    ) -> io::Result<(Json, u32)> {
        let mut retries = 0;
        loop {
            let reply = self.route(request)?;
            let overloaded = reply.get("error").and_then(Json::as_str) == Some("overloaded");
            if !overloaded || retries >= policy.budget {
                return Ok((reply, retries));
            }
            let hint = reply
                .get("retry_after_ms")
                .and_then(Json::as_i64)
                .map(|ms| ms.max(0) as u64);
            std::thread::sleep(Duration::from_millis(policy.backoff_ms(
                request.id,
                retries,
                hint,
            )));
            retries += 1;
        }
    }
}

/// A deterministic retry budget for `overloaded` rejections: capped
/// exponential backoff with seeded jitter, floored at the server's
/// `retry_after_ms` hint. Deterministic so bench reruns with the same
/// seed replay the same retry schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Most retries spent per request before the rejection is final.
    pub budget: u32,
    /// First-attempt backoff, milliseconds.
    pub base_ms: u64,
    /// Ceiling on any single backoff, milliseconds.
    pub cap_ms: u64,
    /// Jitter seed; same seed → same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { budget: 3, base_ms: 2, cap_ms: 250, seed: 0 }
    }
}

impl RetryPolicy {
    /// A policy with everything default but the seed.
    pub fn seeded(seed: u64) -> Self {
        RetryPolicy { seed, ..Self::default() }
    }

    /// The backoff before retry number `attempt` (0-based) of request
    /// `id`, honouring the server's `retry_after_ms` hint as a floor.
    /// Pure: the schedule is a function of (seed, id, attempt, hint).
    pub fn backoff_ms(&self, id: u64, attempt: u32, retry_after_ms: Option<u64>) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_ms);
        // Full jitter over the exponential window, never below half of
        // it (so backoff still backs off).
        let h = splitmix64(self.seed ^ id.rotate_left(32) ^ u64::from(attempt));
        let jittered = exp / 2 + h % (exp / 2 + 1);
        jittered.max(retry_after_ms.unwrap_or(0)).min(
            self.cap_ms.max(retry_after_ms.unwrap_or(0)),
        )
    }
}

/// One HTTP/1.1 request against the adapter; returns (status, body).
/// The request line, headers and body go out in one write on a socket
/// with Nagle off, so no part of the request waits on the ACK of an
/// earlier part.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: patlabor\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let response_body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, response_body))
}

/// Fetches `/metrics` from the HTTP adapter as exposition text.
pub fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let (status, body) = http_request(addr, "GET", "/metrics", &[])?;
    if status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("/metrics returned {status}"),
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_seed_sensitive() {
        let a = RetryPolicy::seeded(7);
        let b = RetryPolicy::seeded(7);
        let c = RetryPolicy::seeded(8);
        let schedule =
            |p: &RetryPolicy| (0..4).map(|i| p.backoff_ms(42, i, None)).collect::<Vec<_>>();
        assert_eq!(schedule(&a), schedule(&b));
        assert_ne!(schedule(&a), schedule(&c));
    }

    #[test]
    fn backoff_grows_and_respects_cap_and_hint() {
        let p = RetryPolicy { budget: 8, base_ms: 2, cap_ms: 100, seed: 3 };
        for attempt in 0..10 {
            let exp = p.base_ms.saturating_mul(1 << attempt.min(16)).min(p.cap_ms);
            let ms = p.backoff_ms(1, attempt, None);
            // Jitter stays inside [exp/2, exp] and never exceeds cap.
            assert!(ms >= exp / 2 && ms <= exp, "attempt {attempt}: {ms} vs exp {exp}");
            assert!(ms <= p.cap_ms);
        }
        // The server's hint is a floor even when it exceeds the cap.
        assert!(p.backoff_ms(1, 0, Some(500)) >= 500);
        assert!(p.backoff_ms(1, 0, Some(1)) >= 1);
    }
}
