//! The socket wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a `u32` little-endian byte length followed by that many
//! bytes of UTF-8 JSON. The prefix is capped at [`MAX_FRAME`] so a
//! hostile or corrupt length can never allocate unboundedly. One
//! request frame yields exactly one response frame, correlated by the
//! caller-chosen `id` (responses to pipelined requests stay in arrival
//! order per connection, but the id is what clients should key on).
//!
//! Request: `{"id": 7, "net": [[0,0],[5,9],[9,4]], "deadline_ms": 10}`
//! — `net` is the pin list (source first), `deadline_ms` optionally
//! overrides the engine's per-net deadline for this request.
//!
//! Reroute request (ECO): `{"id": 7, "base": [[0,0],[5,9],[9,4]],
//! "edit": {"kind": "translate", "dx": 3, "dy": -1}, "staleness": 2}`
//! — `base` is the previously-routed pin list, `edit` one of the
//! [`DeltaKind`] grammar objects (`move-pin`, `add-sink`,
//! `remove-sink`, `translate`, `blockage-mask`), and optional
//! `staleness` the number of edits already applied since the last full
//! route (defaults to 0). The presence of `"edit"` is what routes a
//! frame down the reroute path; responses share the route response
//! shape, with `"source": "reused"` marking a replay (only a daemon
//! whose engine opted into the frontier cache replays).
//!
//! Response (success):
//! `{"id":7,"ok":true,"degree":3,"source":"exact-lut","rung":"lut",
//!   "degraded":false,"trace":["lut:served"],
//!   "frontier":[{"w":19,"d":14},...]}`
//!
//! Admin verb (hot reload): `{"id": 7, "reload": "/path/to.plut"}` —
//! validates the file off the hot path and atomically swaps the
//! serving table (DESIGN.md §17). Success responds
//! `{"id":7,"ok":true,"reloaded":true,"epoch":N}`; a rejected
//! candidate leaves the old table serving and responds with the
//! `"reload-failed"` error below.
//!
//! Response (failure): `{"id":7,"ok":false,"error":E,...}` where `E` is
//! one of the documented vocabulary:
//! * `"overloaded"` — admission control rejected the request; carries
//!   `retry_after_ms`. The request was **not** routed.
//! * `"shutting-down"` — the server is draining; reconnect elsewhere.
//! * `"malformed"` — unparseable frame; carries `detail`. The `id`
//!   echoes the request's when one could be recovered, else 0.
//! * `"route"` — the engine's structured [`RouteError`]; carries
//!   `detail`.
//! * `"evicted"` — the server is closing this connection (mid-frame
//!   read stall past the watchdog budget, or the bounded reply buffer
//!   filled); carries `detail`. Sent best-effort before the close —
//!   a hard-stalled peer may see only the close.
//! * `"reloading"` — a hot table reload is already in flight; retry
//!   the reload verb after it settles.
//! * `"reload-failed"` — the reload candidate was rejected (failed
//!   validation or λ mismatch); carries `detail`. The previous table
//!   is still serving.
//!
//! The same serialization (`outcome_to_json`/`result_to_json`) backs
//! `route --json` in the CLI, so scripted consumers see one format
//! whether they read a socket or a pipe.

use std::io::{self, Read, Write};

use patlabor::{DeltaKind, Net, NetDelta, Point, RouteError, RouteOutcome, RouteResult};

use crate::json::{parse, Json};

/// Hard cap on a frame's payload length (1 MiB). The largest legitimate
/// frame — a λ = 9 frontier with full trace — is under 64 KiB; anything
/// bigger is a corrupt prefix or an attack, and is rejected before any
/// allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed after a complete exchange);
/// EOF mid-frame and oversized prefixes are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame prefix of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A parsed route request.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The net to route (source pin first).
    pub net: Net,
    /// Optional per-request deadline override, in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl RouteRequest {
    /// Encodes the request as its wire JSON.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("id".to_string(), Json::Int(self.id as i64)),
            ("net".to_string(), pins_json(&self.net)),
        ];
        if let Some(ms) = self.deadline_ms {
            obj.push(("deadline_ms".to_string(), Json::Int(ms as i64)));
        }
        Json::Obj(obj)
    }
}

/// A parsed ECO reroute request.
#[derive(Debug, Clone, PartialEq)]
pub struct RerouteRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The edit: base net plus the delta to apply.
    pub delta: NetDelta,
    /// Edits already applied since the last full route (feeds the
    /// staleness counter; 0 when the base was routed from scratch).
    pub prior_edits: u32,
    /// Optional per-request deadline override, in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl RerouteRequest {
    /// Encodes the request as its wire JSON.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("id".to_string(), Json::Int(self.id as i64)),
            ("base".to_string(), pins_json(&self.delta.base)),
            ("edit".to_string(), delta_kind_to_json(&self.delta.kind)),
        ];
        if self.prior_edits != 0 {
            obj.push(("staleness".to_string(), Json::Int(self.prior_edits as i64)));
        }
        if let Some(ms) = self.deadline_ms {
            obj.push(("deadline_ms".to_string(), Json::Int(ms as i64)));
        }
        Json::Obj(obj)
    }
}

/// A parsed hot-reload admin request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Path of the v4 table file to validate and swap in.
    pub path: String,
}

impl ReloadRequest {
    /// Encodes the request as its wire JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_string(), Json::Int(self.id as i64)),
            ("reload".to_string(), Json::Str(self.path.clone())),
        ])
    }
}

/// Any verb the socket protocol accepts: the presence of an `"edit"`
/// key selects the reroute path, a `"reload"` key the admin path, and
/// anything else is a plain route.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Route(RouteRequest),
    Reroute(RerouteRequest),
    Reload(ReloadRequest),
}

fn point_json(p: Point) -> Json {
    Json::Arr(vec![int(p.x), int(p.y)])
}

fn pins_json(net: &Net) -> Json {
    Json::Arr(net.pins().iter().copied().map(point_json).collect())
}

/// Serializes a [`DeltaKind`] into the wire edit grammar.
pub fn delta_kind_to_json(kind: &DeltaKind) -> Json {
    let tag = ("kind".to_string(), Json::Str(kind.label().to_string()));
    match *kind {
        DeltaKind::MovePin { index, to } => Json::Obj(vec![
            tag,
            ("index".to_string(), Json::Int(index as i64)),
            ("to".to_string(), point_json(to)),
        ]),
        DeltaKind::AddSink { at } => Json::Obj(vec![tag, ("at".to_string(), point_json(at))]),
        DeltaKind::RemoveSink { index } => Json::Obj(vec![
            tag,
            ("index".to_string(), Json::Int(index as i64)),
        ]),
        DeltaKind::Translate { dx, dy } => Json::Obj(vec![
            tag,
            ("dx".to_string(), Json::Int(dx)),
            ("dy".to_string(), Json::Int(dy)),
        ]),
        DeltaKind::BlockageMask { min, max } => Json::Obj(vec![
            tag,
            ("min".to_string(), point_json(min)),
            ("max".to_string(), point_json(max)),
        ]),
    }
}

fn parse_point_pair(value: &Json) -> Option<Point> {
    let pair = value.as_array().filter(|p| p.len() == 2)?;
    Some(Point::new(pair[0].as_i64()?, pair[1].as_i64()?))
}

/// Parses an `"edit"` object into a [`DeltaKind`], or a human-readable
/// reason it could not be.
fn parse_delta_kind(value: &Json) -> Result<DeltaKind, String> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "edit must carry a \"kind\" string".to_string())?;
    let index = || {
        value
            .get("index")
            .and_then(Json::as_u64)
            .map(|i| i as usize)
            .ok_or_else(|| format!("{kind} edit needs an \"index\" integer"))
    };
    let point = |field: &str| {
        value
            .get(field)
            .and_then(parse_point_pair)
            .ok_or_else(|| format!("{kind} edit needs a \"{field}\" [x, y] pair"))
    };
    let offset = |field: &str| {
        value
            .get(field)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("{kind} edit needs a \"{field}\" integer"))
    };
    match kind {
        "move-pin" => Ok(DeltaKind::MovePin { index: index()?, to: point("to")? }),
        "add-sink" => Ok(DeltaKind::AddSink { at: point("at")? }),
        "remove-sink" => Ok(DeltaKind::RemoveSink { index: index()? }),
        "translate" => Ok(DeltaKind::Translate { dx: offset("dx")?, dy: offset("dy")? }),
        "blockage-mask" => Ok(DeltaKind::BlockageMask {
            min: point("min")?,
            max: point("max")?,
        }),
        other => Err(format!("unknown edit kind {other:?}")),
    }
}

/// A request frame that could not be turned into a [`Request`].
/// `id` is recovered from the payload when possible so the rejection
/// can still be correlated.
#[derive(Debug, Clone, PartialEq)]
pub struct MalformedRequest {
    pub id: u64,
    pub detail: String,
}

/// Parses a request frame's payload. UTF-8 and JSON are decoded once
/// and `id` is recovered once; then a frame carrying `"edit"` is a
/// reroute, one carrying `"reload"` is the admin path, and anything
/// else is a route.
pub fn parse_any_request(payload: &[u8]) -> Result<Request, MalformedRequest> {
    let text = std::str::from_utf8(payload).map_err(|e| MalformedRequest {
        id: 0,
        detail: format!("frame is not UTF-8: {e}"),
    })?;
    let value = parse(text).map_err(|e| MalformedRequest {
        id: 0,
        detail: e.to_string(),
    })?;
    let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
    let request = if let Some(edit) = value.get("edit") {
        parse_reroute(&value, edit, id).map(Request::Reroute)
    } else if let Some(path) = value.get("reload") {
        match path.as_str() {
            Some(path) => Ok(Request::Reload(ReloadRequest { id, path: path.to_string() })),
            None => Err("\"reload\" must be a path string".to_string()),
        }
    } else {
        parse_route(&value, id).map(Request::Route)
    };
    request.map_err(|detail| MalformedRequest { id, detail })
}

/// A route frame's fields: the `net` pin list and an optional deadline.
fn parse_route(value: &Json, id: u64) -> Result<RouteRequest, String> {
    Ok(RouteRequest {
        id,
        net: parse_pins(value, "net")?,
        deadline_ms: parse_deadline(value)?,
    })
}

/// A reroute frame's fields: the `base` pin list, the `edit`, an
/// optional `staleness` and an optional deadline.
fn parse_reroute(value: &Json, edit: &Json, id: u64) -> Result<RerouteRequest, String> {
    let base = parse_pins(value, "base")?;
    let kind = parse_delta_kind(edit)?;
    let prior_edits = match value.get("staleness") {
        None | Some(Json::Null) => 0,
        Some(v) => {
            let edits = v
                .as_u64()
                .ok_or_else(|| "staleness must be a non-negative integer".to_string())?;
            u32::try_from(edits).map_err(|_| "staleness exceeds u32".to_string())?
        }
    };
    Ok(RerouteRequest {
        id,
        delta: NetDelta::new(base, kind),
        prior_edits,
        deadline_ms: parse_deadline(value)?,
    })
}

/// Parses a pin-list field into a net.
fn parse_pins(value: &Json, field: &str) -> Result<Net, String> {
    let pins = value
        .get(field)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing \"{field}\" array"))?;
    let mut points = Vec::with_capacity(pins.len());
    for pin in pins {
        points.push(
            parse_point_pair(pin)
                .ok_or_else(|| "each pin must be an integer [x, y] pair".to_string())?,
        );
    }
    Net::new(points).map_err(|e| format!("invalid net: {e}"))
}

/// Parses the optional `deadline_ms` field.
fn parse_deadline(value: &Json) -> Result<Option<u64>, String> {
    match value.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| "deadline_ms must be a non-negative integer".to_string()),
    }
}

fn int(n: i64) -> Json {
    Json::Int(n)
}

/// Serializes a successful route outcome — the shared shape behind both
/// wire responses and `route --json` lines.
pub fn outcome_to_json(id: u64, outcome: &RouteOutcome) -> Json {
    let frontier = outcome
        .frontier
        .iter()
        .map(|(c, _)| {
            Json::Obj(vec![
                ("w".to_string(), int(c.wirelength)),
                ("d".to_string(), int(c.delay)),
            ])
        })
        .collect();
    let p = &outcome.provenance;
    let trace = p
        .trace
        .attempts()
        .iter()
        .map(|a| Json::Str(format!("{}:{}", a.rung.label(), a.outcome.label())))
        .collect();
    Json::Obj(vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        ("degree".to_string(), int(p.degree as i64)),
        ("source".to_string(), Json::Str(p.source.label().to_string())),
        (
            "rung".to_string(),
            match p.trace.served_by() {
                Some(rung) => Json::Str(rung.label().to_string()),
                None => Json::Null,
            },
        ),
        ("degraded".to_string(), Json::Bool(p.trace.degraded())),
        ("trace".to_string(), Json::Arr(trace)),
        ("frontier".to_string(), Json::Arr(frontier)),
    ])
}

/// A failure reply: `{"id", "ok": false, "error"}` plus at most one
/// field that explains it.
fn error_json(id: u64, error: &str, extra: Option<(&str, Json)>) -> Json {
    let mut obj = vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(error.to_string())),
    ];
    obj.extend(extra.map(|(key, value)| (key.to_string(), value)));
    Json::Obj(obj)
}

/// The `detail` field that explains a failure in words.
fn detail(text: &str) -> Option<(&'static str, Json)> {
    Some(("detail", Json::Str(text.to_string())))
}

/// Serializes a routing failure (`"error": "route"`).
pub fn route_error_to_json(id: u64, error: &RouteError) -> Json {
    error_json(id, "route", detail(&error.to_string()))
}

/// Serializes a per-net [`RouteResult`] — success or routing failure.
pub fn result_to_json(id: u64, result: &RouteResult) -> Json {
    match result {
        Ok(outcome) => outcome_to_json(id, outcome),
        Err(e) => route_error_to_json(id, e),
    }
}

/// The admission-control rejection (`"error": "overloaded"`): the queue
/// was full, the request was not routed, retry after the given delay.
pub fn overloaded_json(id: u64, retry_after_ms: u64) -> Json {
    error_json(id, "overloaded", Some(("retry_after_ms", int(retry_after_ms as i64))))
}

/// The drain-mode rejection (`"error": "shutting-down"`).
pub fn shutting_down_json(id: u64) -> Json {
    error_json(id, "shutting-down", None)
}

/// The slow-client eviction notice (`"error": "evicted"`): the server
/// is closing this connection. Sent best-effort before the close.
pub fn evicted_json(id: u64, why: &str) -> Json {
    error_json(id, "evicted", detail(why))
}

/// The concurrent-reload rejection (`"error": "reloading"`): an admin
/// reload is already in flight.
pub fn reloading_json(id: u64) -> Json {
    error_json(id, "reloading", None)
}

/// The rejected-candidate reload response (`"error": "reload-failed"`):
/// the old table is still serving.
pub fn reload_failed_json(id: u64, why: &str) -> Json {
    error_json(id, "reload-failed", detail(why))
}

/// The successful hot-reload response.
pub fn reload_ok_json(id: u64, epoch: u64) -> Json {
    Json::Obj(vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        ("reloaded".to_string(), Json::Bool(true)),
        ("epoch".to_string(), Json::Int(epoch as i64)),
    ])
}

/// The unparseable-frame rejection (`"error": "malformed"`).
pub fn malformed_json(m: &MalformedRequest) -> Json {
    error_json(m.id, "malformed", detail(&m.detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net3() -> Net {
        Net::new(vec![Point::new(0, 0), Point::new(5, 9), Point::new(9, 4)]).unwrap()
    }

    /// One reroute request per edit kind.
    fn reroutes() -> Vec<RerouteRequest> {
        let kinds = [
            DeltaKind::MovePin { index: 1, to: Point::new(6, 8) },
            DeltaKind::AddSink { at: Point::new(2, 2) },
            DeltaKind::RemoveSink { index: 0 },
            DeltaKind::Translate { dx: -3, dy: 7 },
            DeltaKind::BlockageMask { min: Point::new(1, 1), max: Point::new(7, 7) },
        ];
        (0..)
            .zip(kinds)
            .map(|(i, kind)| RerouteRequest {
                id: 10 + i,
                delta: NetDelta::new(net3(), kind),
                prior_edits: i as u32,
                deadline_ms: if i % 2 == 0 { Some(8) } else { None },
            })
            .collect()
    }

    /// [`parse_any_request`], required to take the route path.
    fn parse_route_frame(payload: &[u8]) -> Result<RouteRequest, MalformedRequest> {
        match parse_any_request(payload)? {
            Request::Route(r) => Ok(r),
            other => panic!("route frame took the wrong path: {other:?}"),
        }
    }

    /// [`parse_any_request`], required to take the reroute path.
    fn parse_reroute_frame(payload: &[u8]) -> Result<RerouteRequest, MalformedRequest> {
        match parse_any_request(payload)? {
            Request::Reroute(r) => Ok(r),
            other => panic!("edit frame took the wrong path: {other:?}"),
        }
    }

    /// The three request frames README.md documents, as it prints them:
    /// each must appear there verbatim and parse to its request, so the
    /// README cannot drift from the parser.
    #[test]
    fn readme_request_frames_parse_to_their_requests() {
        let readme = include_str!("../../../README.md");
        let frames = [
            (
                r#"{"id": 1, "net": [[0,0],[5,9],[9,4]], "deadline_ms": 10}"#,
                Request::Route(RouteRequest {
                    id: 1,
                    net: net3(),
                    deadline_ms: Some(10),
                }),
            ),
            (
                r#"{"id":7,"base":[[0,0],[5,9],[9,4]],"edit":{"kind":"translate","dx":3,"dy":-1},"staleness":2}"#,
                Request::Reroute(RerouteRequest {
                    id: 7,
                    delta: NetDelta::new(net3(), DeltaKind::Translate { dx: 3, dy: -1 }),
                    prior_edits: 2,
                    deadline_ms: None,
                }),
            ),
            (
                r#"{"id": 99, "reload": "tables.plut"}"#,
                Request::Reload(ReloadRequest {
                    id: 99,
                    path: "tables.plut".to_string(),
                }),
            ),
        ];
        for (frame, request) in frames {
            assert!(readme.contains(frame), "README.md does not show {frame}");
            assert_eq!(parse_any_request(frame.as_bytes()), Ok(request), "{frame}");
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        // Clean EOF at the boundary is None, not an error.
        assert!(read_frame(&mut r).unwrap().is_none());
        // An oversized prefix is rejected before allocating.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
        // EOF mid-frame is an error, not a silent truncation.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"hello").unwrap();
        torn.truncate(6);
        let mut r = torn.as_slice();
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let req = RouteRequest {
            id: 42,
            net: net3(),
            deadline_ms: Some(10),
        };
        let parsed = parse_route_frame(req.to_json().render().as_bytes()).unwrap();
        assert_eq!(parsed, req);
        let bare = RouteRequest {
            id: 7,
            net: net3(),
            deadline_ms: None,
        };
        let parsed = parse_route_frame(bare.to_json().render().as_bytes()).unwrap();
        assert_eq!(parsed, bare);
    }

    #[test]
    fn reroute_requests_round_trip_for_every_edit_kind() {
        for req in reroutes() {
            let payload = req.to_json().render();
            let parsed = parse_reroute_frame(payload.as_bytes()).unwrap();
            assert_eq!(parsed, req, "kind {}", req.delta.kind.label());
        }
        // A plain route frame still takes the route path.
        let plain = RouteRequest { id: 1, net: net3(), deadline_ms: None };
        assert_eq!(parse_route_frame(plain.to_json().render().as_bytes()).unwrap(), plain);
    }

    #[test]
    fn malformed_reroutes_name_the_missing_piece() {
        // `"edit"` is what makes a frame a reroute, so the edit can be
        // empty but not absent.
        let m = parse_reroute_frame(br#"{"id": 4, "base": [[0,0],[1,1]], "edit": null}"#)
            .unwrap_err();
        assert_eq!(m.id, 4);
        assert!(m.detail.contains("edit"), "{}", m.detail);
        let m = parse_reroute_frame(
            br#"{"id": 5, "base": [[0,0],[1,1]], "edit": {"kind": "teleport"}}"#,
        )
        .unwrap_err();
        assert!(m.detail.contains("teleport"), "{}", m.detail);
        let m = parse_reroute_frame(
            br#"{"id": 6, "base": [[0,0],[1,1]], "edit": {"kind": "move-pin", "index": 0}}"#,
        )
        .unwrap_err();
        assert!(m.detail.contains("\"to\""), "{}", m.detail);
        let m = parse_reroute_frame(
            br#"{"id": 7, "base": [[0,0]], "edit": {"kind": "translate", "dx": 1, "dy": 1}}"#,
        )
        .unwrap_err();
        assert!(m.detail.contains("invalid net"), "{}", m.detail);
    }

    #[test]
    fn malformed_requests_recover_the_id_when_possible() {
        let m = parse_route_frame(br#"{"id": 9, "net": "nope"}"#).unwrap_err();
        assert_eq!(m.id, 9);
        assert!(m.detail.contains("net"));
        let m = parse_route_frame(b"not json").unwrap_err();
        assert_eq!(m.id, 0);
        // A degenerate net (degree < 2) is malformed at the wire layer.
        let m = parse_route_frame(br#"{"id": 3, "net": [[0,0]]}"#).unwrap_err();
        assert_eq!(m.id, 3);
        assert!(m.detail.contains("invalid net"));
    }

    #[test]
    fn outcome_json_carries_frontier_provenance_and_trace() {
        let engine = patlabor::Engine::with_table(
            patlabor::LutBuilder::new(4).threads(2).build(),
        );
        let outcome = engine.route(&net3()).unwrap();
        let json = outcome_to_json(5, &outcome);
        assert_eq!(json.get("id").unwrap().as_u64(), Some(5));
        assert_eq!(json.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("degree").unwrap().as_i64(), Some(3));
        assert_eq!(json.get("source").unwrap().as_str(), Some("exact-lut"));
        assert_eq!(json.get("rung").unwrap().as_str(), Some("lut"));
        assert_eq!(json.get("degraded").unwrap().as_bool(), Some(false));
        let frontier = json.get("frontier").unwrap().as_array().unwrap();
        assert_eq!(frontier.len(), outcome.frontier.len());
        for ((cost, _), point) in outcome.frontier.iter().zip(frontier) {
            assert_eq!(point.get("w").unwrap().as_i64(), Some(cost.wirelength));
            assert_eq!(point.get("d").unwrap().as_i64(), Some(cost.delay));
        }
        let trace = json.get("trace").unwrap().as_array().unwrap();
        assert_eq!(trace.last().unwrap().as_str(), Some("lut:served"));
        // The rendered form is valid JSON.
        assert!(crate::json::parse(&json.render()).is_ok());
    }

    #[test]
    fn error_vocabulary_is_the_documented_one() {
        assert_eq!(
            overloaded_json(1, 5).get("error").unwrap().as_str(),
            Some("overloaded")
        );
        assert_eq!(
            overloaded_json(1, 5).get("retry_after_ms").unwrap().as_i64(),
            Some(5)
        );
        assert_eq!(
            shutting_down_json(2).get("error").unwrap().as_str(),
            Some("shutting-down")
        );
        let m = MalformedRequest { id: 3, detail: "x".to_string() };
        assert_eq!(malformed_json(&m).get("error").unwrap().as_str(), Some("malformed"));
        assert_eq!(
            evicted_json(4, "read stall").get("error").unwrap().as_str(),
            Some("evicted")
        );
        assert_eq!(
            evicted_json(4, "read stall").get("detail").unwrap().as_str(),
            Some("read stall")
        );
        assert_eq!(
            reloading_json(5).get("error").unwrap().as_str(),
            Some("reloading")
        );
        assert_eq!(
            reload_failed_json(6, "bad checksum").get("error").unwrap().as_str(),
            Some("reload-failed")
        );
        let ok = reload_ok_json(7, 3);
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(ok.get("epoch").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn reload_requests_round_trip_and_dispatch() {
        let req = ReloadRequest {
            id: 11,
            path: "/tmp/next.plut".to_string(),
        };
        let payload = req.to_json().render();
        match parse_any_request(payload.as_bytes()).unwrap() {
            Request::Reload(r) => assert_eq!(r, req),
            other => panic!("reload frame took the wrong path: {other:?}"),
        }
        // A non-string reload value is malformed with the id recovered.
        let m = parse_any_request(br#"{"id": 12, "reload": 7}"#).unwrap_err();
        assert_eq!(m.id, 12);
        assert!(m.detail.contains("reload"), "{}", m.detail);
    }

    /// Every outcome the single parser may give a hostile payload: a
    /// request that re-encodes to itself, or a `MalformedRequest` that
    /// echoes the payload's id whenever the damage left the JSON and an
    /// integer `id` intact. A panic fails the test.
    fn assert_structured(payload: &[u8]) {
        let recoverable_id = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| parse(text).ok())
            .and_then(|value| value.get("id").and_then(Json::as_u64))
            .unwrap_or(0);
        match parse_any_request(payload) {
            Ok(request) => {
                let (id, encoded) = match &request {
                    Request::Route(r) => (r.id, r.to_json()),
                    Request::Reroute(r) => (r.id, r.to_json()),
                    Request::Reload(r) => (r.id, r.to_json()),
                };
                assert_eq!(id, recoverable_id, "{payload:?}");
                let again = parse_any_request(encoded.render().as_bytes());
                assert_eq!(again.as_ref(), Ok(&request), "{payload:?}");
            }
            Err(m) => {
                assert_eq!(m.id, recoverable_id, "{payload:?}: {}", m.detail);
                assert!(!m.detail.is_empty(), "{payload:?}");
            }
        }
    }

    /// Seeded hostile corpus for `parse_any_request`: every truncation
    /// of a valid route, reroute (all five edit kinds) and reload frame,
    /// single- and multi-byte flips of them, and random byte strings,
    /// some drawn from JSON's own alphabet so the damage reaches past
    /// the tokenizer.
    #[test]
    fn hostile_frames_get_structured_answers() {
        let mut frames: Vec<String> = reroutes().iter().map(|r| r.to_json().render()).collect();
        frames.push(RouteRequest { id: 41, net: net3(), deadline_ms: Some(10) }.to_json().render());
        frames.push(ReloadRequest { id: 43, path: "/tmp/next.plut".to_string() }.to_json().render());

        let mut state = 0x0057_11e5_u64;
        let mut next = || {
            state = patlabor::resilience::splitmix64(state);
            state
        };
        for frame in &frames {
            let bytes = frame.as_bytes();
            assert!(parse_any_request(bytes).is_ok(), "{frame}");
            for len in 0..bytes.len() {
                assert_structured(&bytes[..len]);
            }
            for flips in [1, 1, 1, 2, 3, 5, 8] {
                for _ in 0..64 {
                    let mut damaged = bytes.to_vec();
                    for _ in 0..flips {
                        let h = next();
                        let at = (h % damaged.len() as u64) as usize;
                        damaged[at] ^= ((h >> 32) as u8).max(1);
                    }
                    assert_structured(&damaged);
                }
            }
        }
        const JSONISH: &[u8] = b"{}[]\":,-0123456789 idnetbasrloum";
        for round in 0..2_000 {
            let len = (next() % 96) as usize;
            let random: Vec<u8> = (0..len)
                .map(|_| {
                    let h = next();
                    if round % 2 == 0 {
                        h as u8
                    } else {
                        JSONISH[(h % JSONISH.len() as u64) as usize]
                    }
                })
                .collect();
            assert_structured(&random);
        }
    }
}
