//! `patlabor-serve` — routing as a long-lived service.
//!
//! The per-call entry points in `patlabor` rebuild nothing, but a
//! process that answers many requests still wants one [`Engine`]
//! (mmap'd table, policy, fault plane) shared across all of them.
//! This crate is that process: a daemon that owns an `Engine` and
//! serves route requests over a hand-rolled, std-only wire protocol.
//! The framed socket is the only transport for route, reroute and
//! reload requests; an optional HTTP adapter serves `GET /metrics` and
//! `GET /healthz` and routes nothing.
//!
//! Layers, bottom up:
//!
//! - [`json`] — a dependency-free JSON value, parser, and renderer.
//!   The same module serializes wire replies and the CLI's
//!   `route --json` output, so the two can never drift.
//! - [`wire`] — u32-length-prefixed frames carrying request/response
//!   JSON, plus the error vocabulary (`overloaded`, `shutting-down`,
//!   `malformed`, `route`).
//! - [`metrics`] — lock-free counters and log₂ latency and queue-wait
//!   histograms, rendered as Prometheus text for `/metrics`.
//! - [`chaos`] — the seed-deterministic transport fault plane: torn
//!   and corrupted frames, stalled writes, delayed reads, mid-reply
//!   disconnects, injected into the framed socket for soak testing.
//! - [`server`] — the daemon: per-connection reader/writer threads
//!   with read/write watchdog deadlines and bounded reply buffers,
//!   bounded admission queue, a batcher that routes whatever is queued
//!   with one [`Engine::route_batch_by`] call, epoch-guarded hot table
//!   reload, and drain-then-exit shutdown.
//! - [`client`] — a pipelining client for benches, tests, and the
//!   differential verifier, with a seeded retry budget for
//!   `overloaded` rejections.
//!
//! Everything here is std-only by design: no async runtime, no serde,
//! no HTTP framework. A routing request is microseconds of work — the
//! server is a thread-per-connection front over the core batch driver.
//! At that scale the transport decides the round trip: with Nagle's
//! algorithm on the reply sockets, transport was about 80% of a
//! request's median latency under open-loop load, and routing about
//! 4 µs of it. So every accepted socket runs with `TCP_NODELAY`, each
//! connection's writer flushes once per burst of waiting replies, and
//! the batcher routes whatever is queued as soon as it is free: it
//! never waits for a batch to fill.
//!
//! [`Engine`]: patlabor::Engine
//! [`Engine::route_batch_by`]: patlabor::Engine::route_batch_by

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unsafe_code)]

pub mod chaos;
pub mod client;
mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod wire;

pub use chaos::{TransportFault, TransportFaultKind, TransportPlane};
pub use client::{http_request, scrape_metrics, RetryPolicy, RouteClient};
pub use json::{parse, Json, ParseError};
pub use metrics::{LatencyHistogram, Metrics};
pub use server::{serve, ServeConfig, ServeSummary, Server, RETRY_AFTER_CAP_MS};
pub use wire::{
    parse_any_request, read_frame, result_to_json, write_frame, ReloadRequest, RerouteRequest,
    Request, RouteRequest, MAX_FRAME,
};
