//! End-to-end tests for the serve daemon: batching determinism,
//! admission-control backpressure, drain semantics, and the HTTP
//! adapter. A test that needs requests to wait in the queue parks the
//! batcher on a [`GateClock`] and stages the queue behind it — exact
//! interleavings with zero sleeps and zero race-prone timing.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use patlabor::resilience::splitmix64;
use patlabor::{
    CacheConfig, Clock, DeltaKind, Engine, LutBuilder, Net, NetDelta, Point, ResilienceConfig,
    VirtualClock,
};
use patlabor_serve::{
    http_request, scrape_metrics, serve, Json, RerouteRequest, RouteClient, RouteRequest,
    ServeConfig, Server,
};

fn test_engine() -> Engine {
    Engine::with_table(LutBuilder::new(4).threads(2).build())
}

fn suite(seed: u64, count: usize) -> Vec<Net> {
    patlabor_netgen::iccad_like_suite(seed, count, 4)
}

/// The reference answer: what an in-process `route` serializes for
/// this net. The wire reply must match this bit for bit on the fields
/// that describe the routing answer (frontier, degree, ok).
fn direct_frontier(engine: &Engine, id: u64, net: &Net) -> String {
    let result = engine.route(net);
    let json = patlabor_serve::result_to_json(id, &result);
    frontier_fields(&json)
}

fn frontier_fields(json: &Json) -> String {
    format!(
        "ok={} degree={} frontier={}",
        json.get("ok").map_or("-".into(), Json::render),
        json.get("degree").map_or("-".into(), Json::render),
        json.get("frontier").map_or("-".into(), Json::render),
    )
}

fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// A clock whose `now()` counts its calls and blocks every caller until
/// the test opens it; time never passes. On the serving path the engine
/// clock is read only when a request with a deadline starts its budget,
/// so one such request parks the batcher inside its route, and requests
/// without a deadline never block.
#[derive(Debug, Default)]
struct GateClock {
    /// `(reads, open)`.
    state: Mutex<(u64, bool)>,
    opened: Condvar,
}

impl GateClock {
    fn reads(&self) -> u64 {
        self.state.lock().unwrap().0
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.opened.notify_all();
    }
}

impl Clock for GateClock {
    fn now(&self) -> Duration {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        while !state.1 {
            state = self.opened.wait(state).unwrap();
        }
        Duration::ZERO
    }
}

/// Opens the gate when dropped, so a failing assertion unwinds into a
/// server that can still drain instead of hanging on a parked batcher.
/// Declare it after the server: locals drop in reverse order.
struct OpenOnDrop(Arc<GateClock>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Sends the plug, a tabulated-degree request with an hour-long
/// deadline, and waits until the batcher is parked inside its route on
/// the gate. Requests sent after this queue behind it.
fn send_plug(client: &mut RouteClient, gate: &GateClock, id: u64) {
    let net = suite(0x9106, 16)
        .into_iter()
        .find(|n| n.degree() >= 3)
        .expect("degree-3 net");
    client
        .send(&RouteRequest {
            id,
            net,
            deadline_ms: Some(3_600_000),
        })
        .expect("send plug");
    assert!(
        wait_for(Duration::from_secs(10), || gate.reads() >= 1),
        "the plug never reached the engine clock"
    );
}

/// A server over `test_engine()` on a fresh gate clock.
fn gated_server(config: ServeConfig) -> (Engine, Arc<GateClock>, Server) {
    gated_server_over(test_engine(), config)
}

/// A server over `engine` on a fresh gate clock.
fn gated_server_over(engine: Engine, config: ServeConfig) -> (Engine, Arc<GateClock>, Server) {
    let gate = Arc::new(GateClock::default());
    let engine = engine.with_clock(Arc::clone(&gate) as Arc<dyn Clock>);
    let server = serve(engine.clone(), config).expect("bind");
    (engine, gate, server)
}

/// Any interleaving of concurrent clients through the batcher must
/// produce exactly the frontiers the in-process router produces.
#[test]
fn coalesced_replies_match_direct_route_under_concurrency() {
    let engine = test_engine();
    let server = serve(
        engine.clone(),
        ServeConfig {
            // Batches form from whatever several threads have queued.
            max_batch: 8,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    const THREADS: u64 = 4;
    const PER_THREAD: usize = 25;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = RouteClient::connect(addr).expect("connect");
                let nets = suite(0xC0A1 + t, PER_THREAD);
                // Pipeline everything, then collect.
                for (i, net) in nets.iter().enumerate() {
                    let request = RouteRequest {
                        id: t * 1_000 + i as u64,
                        net: net.clone(),
                        deadline_ms: None,
                    };
                    client.send(&request).expect("send");
                }
                let mut replies = Vec::new();
                for _ in 0..nets.len() {
                    let reply = client.recv().expect("recv").expect("reply");
                    replies.push(reply);
                }
                (t, nets, replies)
            })
        })
        .collect();

    for handle in handles {
        let (t, nets, replies) = handle.join().expect("client thread");
        assert_eq!(replies.len(), nets.len());
        for (i, reply) in replies.iter().enumerate() {
            // Accepted requests answer in per-connection arrival order.
            let id = t * 1_000 + i as u64;
            assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id));
            assert_eq!(
                frontier_fields(reply),
                direct_frontier(&engine, id, &nets[i]),
                "thread {t} net {i} diverged from direct route"
            );
        }
    }

    let summary = server.shutdown();
    assert_eq!(summary.report.nets, THREADS * PER_THREAD as u64);
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.report.errors, 0);
}

/// A saturated queue rejects with the documented `"overloaded"` error
/// and `retry_after_ms`; what was admitted still completes at drain.
#[test]
fn backpressure_rejects_beyond_queue_depth() {
    const PLUG: u64 = 10;
    let (_engine, gate, server) = gated_server(ServeConfig {
        max_batch: 64,
        queue_depth: 2,
        ..ServeConfig::default()
    });
    let _open_on_exit = OpenOnDrop(Arc::clone(&gate));

    // With the batcher parked on the plug, the queue must absorb or
    // reject every request we pipeline.
    let mut client = RouteClient::connect(server.addr()).expect("connect");
    send_plug(&mut client, &gate, PLUG);
    let nets = suite(0xBAC4, 10);
    for (i, net) in nets.iter().enumerate() {
        client
            .send(&RouteRequest {
                id: i as u64,
                net: net.clone(),
                deadline_ms: None,
            })
            .expect("send");
    }
    // 2 admitted, 8 rejected — confirmed via metrics before draining.
    let metrics = server.metrics();
    assert!(
        wait_for(Duration::from_secs(10), || {
            patlabor_serve::Metrics::get(&metrics.rejected) == 8
        }),
        "expected 8 overload rejections, saw {}",
        patlabor_serve::Metrics::get(&metrics.rejected)
    );
    assert_eq!(patlabor_serve::Metrics::get(&metrics.requests), 3);

    // Rejections arrive immediately; the admitted replies only arrive
    // once the plug's route is released.
    server.begin_shutdown();
    gate.open();
    let mut ok = Vec::new();
    let mut overloaded = Vec::new();
    for _ in 0..=nets.len() {
        let reply = client.recv().expect("recv").expect("reply");
        let id = reply.get("id").and_then(Json::as_u64).expect("id");
        match reply.get("error").and_then(Json::as_str) {
            None => ok.push(id),
            Some("overloaded") => {
                // No batch had been routed yet: the cold-start hint.
                assert_eq!(
                    reply.get("retry_after_ms").and_then(Json::as_u64),
                    Some(5),
                    "overload rejections must carry the retry hint"
                );
                overloaded.push(id);
            }
            Some(other) => panic!("unexpected error {other}"),
        }
    }
    ok.sort_unstable();
    overloaded.sort_unstable();
    assert_eq!(
        ok,
        vec![0, 1, PLUG],
        "the first two requests fill the queue"
    );
    assert_eq!(overloaded, (2..10).collect::<Vec<u64>>());

    let summary = server.shutdown();
    assert_eq!(summary.report.nets, 3);
    assert_eq!(summary.rejected, 8);
}

/// Graceful shutdown drains the queue: requests parked behind a
/// batcher that cannot finish its batch are still answered,
/// bit-identical to direct routing, before the server exits.
#[test]
fn shutdown_drains_queued_requests_on_a_gated_clock() {
    const PLUG: u64 = 1_000;
    let (engine, gate, server) = gated_server(ServeConfig {
        max_batch: 64,
        ..ServeConfig::default()
    });
    let _open_on_exit = OpenOnDrop(Arc::clone(&gate));

    let mut client = RouteClient::connect(server.addr()).expect("connect");
    send_plug(&mut client, &gate, PLUG);
    let nets = suite(0xD4A1, 12);
    for (i, net) in nets.iter().enumerate() {
        client
            .send(&RouteRequest {
                id: i as u64,
                net: net.clone(),
                deadline_ms: None,
            })
            .expect("send");
    }
    let metrics = server.metrics();
    assert!(
        wait_for(Duration::from_secs(10), || {
            patlabor_serve::Metrics::get(&metrics.requests) == 13
        }),
        "requests never reached the queue"
    );
    // Nothing can have been answered: the plug's batch cannot finish.
    assert_eq!(patlabor_serve::Metrics::get(&metrics.batches), 0);

    server.begin_shutdown();
    gate.open();
    let plug = client.recv().expect("recv").expect("plug reply");
    assert_eq!(plug.get("id").and_then(Json::as_u64), Some(PLUG));
    assert_eq!(plug.get("ok").and_then(Json::as_bool), Some(true));
    for (i, net) in nets.iter().enumerate() {
        let reply = client.recv().expect("recv").expect("reply");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(
            frontier_fields(&reply),
            direct_frontier(&engine, i as u64, net),
            "drained reply {i} diverged from direct route"
        );
    }
    // After the drain the server hangs up cleanly.
    assert!(client.recv().expect("recv after drain").is_none());

    // The plug's batch, then one batch carrying everything queued.
    assert_eq!(patlabor_serve::Metrics::get(&metrics.batches), 2);
    let summary = server.shutdown();
    assert_eq!(summary.report.nets, 13);
    assert_eq!(summary.report.errors, 0);
    assert_eq!(summary.rejected, 0);
}

/// Malformed frames answer `"malformed"` without poisoning the
/// connection: the next valid request on the same socket still routes.
#[test]
fn malformed_frames_do_not_poison_the_connection() {
    let server = serve(test_engine(), ServeConfig::default()).expect("bind");

    let mut client = RouteClient::connect(server.addr()).expect("connect");
    client.send_raw(b"this is not json").expect("send raw");
    let reply = client.recv().expect("recv").expect("reply");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("malformed"));
    assert!(reply.get("detail").is_some());

    // A reroute frame with an unknown edit kind is malformed too, and
    // the rejection echoes its id and names the kind.
    client
        .send_raw(br#"{"id": 5, "base": [[0,0],[1,1]], "edit": {"kind": "teleport"}}"#)
        .expect("send raw reroute");
    let reply = client.recv().expect("recv").expect("reply");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("malformed"));
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(5));
    let detail = reply.get("detail").and_then(Json::as_str).unwrap_or_default();
    assert!(detail.contains("teleport"), "{}", reply.render());

    // The connection survives: a valid request still routes.
    let net = suite(0x11, 1).remove(0);
    let reply = client
        .route(&RouteRequest {
            id: 99,
            net,
            deadline_ms: None,
        })
        .expect("route after malformed");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    let summary = server.shutdown();
    assert_eq!(summary.malformed, 2);
    assert_eq!(summary.report.nets, 1);
}

/// A route frame whose pins lie outside the coordinate bound (lengths
/// that overflow `i64`) gets the structured `"error": "route"` reply
/// instead of a wrapped frontier, and the connection keeps serving.
#[test]
fn out_of_range_coordinates_get_a_route_error_and_the_connection_survives() {
    let server = serve(test_engine(), ServeConfig::default()).expect("bind");
    let mut client = RouteClient::connect(server.addr()).expect("connect");
    let far = Net::new(vec![Point::new(i64::MAX, 0), Point::new(i64::MIN, 0)]).expect("net");
    let reply = client
        .route(&RouteRequest {
            id: 7,
            net: far,
            deadline_ms: None,
        })
        .expect("out-of-range route");
    let rendered = reply.render();
    let error = reply.get("error").and_then(Json::as_str);
    assert_eq!(error, Some("route"), "{rendered}");
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(7));
    let detail = reply.get("detail").and_then(Json::as_str);
    let names_the_bound = detail.is_some_and(|d| d.contains("coordinate bound"));
    assert!(names_the_bound, "{rendered}");

    let net = suite(0x12, 1).remove(0);
    let reply = client
        .route(&RouteRequest {
            id: 8,
            net,
            deadline_ms: None,
        })
        .expect("route after the rejection");
    let rendered = reply.render();
    let ok = reply.get("ok").and_then(Json::as_bool);
    assert_eq!(ok, Some(true), "{rendered}");
    server.shutdown();
}

/// A daemon configured with `max_batch: 0` still answers: the batcher
/// takes at least one queued request per batch. The read timeout and
/// the bounded wait on `shutdown` (run on its own thread, which owns
/// the server) make the test fail instead of hanging if it does not.
#[test]
fn zero_max_batch_still_answers_and_shuts_down() {
    let config = ServeConfig {
        max_batch: 0,
        ..ServeConfig::default()
    };
    let server = serve(test_engine(), config).expect("bind");
    let mut client = RouteClient::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let net = suite(0x0b47, 1).remove(0);
    let reply = client.route(&RouteRequest {
        id: 3,
        net,
        deadline_ms: None,
    });
    drop(client);
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let reply = reply.expect("no reply within the read timeout");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.render()
    );
    let summary = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown did not return");
    assert_eq!(summary.report.nets, 1);
}

/// Per-request deadlines ride the degradation ladder: an impossible
/// deadline is still answered (degraded), never errored.
#[test]
fn impossible_deadline_degrades_but_answers() {
    // A zero deadline is exceeded the moment the budget is minted, on
    // any clock; the virtual clock just keeps the rest of the ladder's
    // timing out of the picture.
    let clock = Arc::new(VirtualClock::new());
    let engine = test_engine().with_clock(clock);
    let server = serve(
        engine,
        ServeConfig {
            max_batch: 1, // one request per batch
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    let mut client = RouteClient::connect(server.addr()).expect("connect");
    // Degree ≥ 3 so the degree-2 closed form (never deadline-gated)
    // cannot answer.
    let net = suite(0x22, 16)
        .into_iter()
        .find(|n| n.degree() >= 3)
        .expect("degree-3 net");
    let reply = client
        .route(&RouteRequest {
            id: 1,
            net,
            deadline_ms: Some(0),
        })
        .expect("route");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        reply.get("degraded").and_then(Json::as_bool),
        Some(true),
        "a zero deadline must degrade: {}",
        reply.render()
    );
    assert_eq!(reply.get("rung").and_then(Json::as_str), Some("baseline"));

    let summary = server.shutdown();
    assert_eq!(summary.report.deadline_hits, 1);
}

/// ECO reroute frames share batches with fresh routes: a mixed batch
/// answers both, and on an engine with the opt-in frontier cache a
/// class-preserving edit whose base was routed earlier in the same batch
/// replays (`"source": "reused"`). One worker routes the batch in
/// arrival order, so the base's winners are resident when the reroute
/// runs; with more workers that would depend on timing (the frontier
/// would not).
#[test]
fn reroute_frames_replay_in_mixed_batches() {
    const PLUG: u64 = 100;
    let (engine, gate, server) = gated_server_over(
        test_engine().with_cache(CacheConfig::default()),
        ServeConfig {
            // All four staged requests fit one batch, and one worker
            // routes its slots in arrival order, making the mixed batch
            // deterministic.
            max_batch: 4,
            threads: 1,
            ..ServeConfig::default()
        },
    );
    let _open_on_exit = OpenOnDrop(Arc::clone(&gate));

    let mut client = RouteClient::connect(server.addr()).expect("connect");
    send_plug(&mut client, &gate, PLUG);
    let nets: Vec<Net> = suite(0x44, 24)
        .into_iter()
        .filter(|n| (3..=4).contains(&n.degree()))
        .take(3)
        .collect();
    for (i, net) in nets.iter().enumerate() {
        client
            .send(&RouteRequest { id: i as u64, net: net.clone(), deadline_ms: None })
            .expect("send route");
    }
    let delta = NetDelta::new(nets[0].clone(), DeltaKind::Translate { dx: 5, dy: -2 });
    client
        .send_reroute(&RerouteRequest {
            id: 3,
            delta: delta.clone(),
            prior_edits: 0,
            deadline_ms: None,
        })
        .expect("send reroute");
    let metrics = server.metrics();
    assert!(
        wait_for(Duration::from_secs(10), || {
            patlabor_serve::Metrics::get(&metrics.requests) == 5
        }),
        "requests never reached the queue"
    );
    gate.open();

    let plug = client.recv().expect("recv").expect("plug reply");
    assert_eq!(plug.get("id").and_then(Json::as_u64), Some(PLUG));
    let mut replies = Vec::new();
    for _ in 0..4 {
        replies.push(client.recv().expect("recv").expect("reply"));
    }
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    }
    let eco = &replies[3];
    assert_eq!(
        eco.get("source").and_then(Json::as_str),
        Some("reused"),
        "a translate edit preserves the class and must replay: {}",
        eco.render()
    );
    // The replayed frontier is the one a fresh route of the mutated
    // net produces.
    assert_eq!(
        frontier_fields(eco),
        direct_frontier(&engine, 3, &delta.apply()),
        "replay diverged from routing the mutated net"
    );

    assert_eq!(
        (
            patlabor_serve::Metrics::get(&metrics.batches),
            patlabor_serve::Metrics::get(&metrics.batched_nets),
        ),
        (2, 5),
        "the plug's batch, then one mixed batch carrying all four requests"
    );
    let summary = server.shutdown();
    assert_eq!(summary.report.nets, 5);
    assert_eq!(summary.report.errors, 0);
}

/// The HTTP adapter serves /healthz and the /metrics exposition of
/// requests routed over the framed socket, and routes nothing itself:
/// the old route verbs answer 405. A default engine has no frontier
/// cache, so the exposition has no cache families.
#[test]
fn http_adapter_serves_metrics_and_routes() {
    let engine = test_engine();
    let server = serve(
        engine.clone(),
        ServeConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let http = server.http_addr().expect("http enabled");

    let (status, body) = http_request(http, "GET", "/healthz", &[]).expect("GET");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Route a couple of nets over the socket; replies match direct
    // routing.
    let mut client = RouteClient::connect(server.addr()).expect("connect");
    for (i, net) in suite(0x33, 3).iter().enumerate() {
        let request = RouteRequest {
            id: i as u64,
            net: net.clone(),
            deadline_ms: None,
        };
        let reply = client.route(&request).expect("route");
        assert_eq!(
            frontier_fields(&reply),
            direct_frontier(&engine, i as u64, net)
        );
    }

    let text = scrape_metrics(http).expect("scrape");
    for family in [
        "patlabor_requests_total 3",
        "patlabor_responses_total 3",
        "patlabor_served_by_rung_total{rung=\"lut\"}",
        "patlabor_latency_seconds{quantile=\"0.99\"}",
        "patlabor_latency_seconds_count 3",
        "patlabor_queue_depth 0",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    assert!(!text.contains("patlabor_cache_"), "{text}");

    // Unknown paths 404 without killing the listener.
    let (status, _) = http_request(http, "GET", "/nope", &[]).expect("GET");
    assert_eq!(status, 404);

    // Routes enter only through the framed socket: the old HTTP route
    // verbs are methods the adapter does not allow, body or not.
    let body = RouteRequest { id: 7, net: suite(0x34, 1).remove(0), deadline_ms: None }
        .to_json()
        .render();
    for path in ["/route", "/reroute"] {
        let (status, _) = http_request(http, "POST", path, body.as_bytes()).expect("POST");
        assert_eq!(status, 405, "POST {path}");
    }
    let (status, _) = http_request(http, "GET", "/healthz", &[]).expect("GET");
    assert_eq!(status, 200);

    let summary = server.shutdown();
    assert_eq!((summary.report.nets, summary.malformed), (3, 0));
}

/// A peer that stalls mid-frame past the watchdog budget is evicted —
/// with the documented `"evicted"` notice before the close — and never
/// blocks drain.
#[test]
fn mid_frame_stall_evicts_without_blocking_drain() {
    use std::io::Write as _;

    let server = serve(
        test_engine(),
        ServeConfig {
            read_stall: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let metrics = server.metrics();

    // A healthy client keeps routing while the stalled one is evicted.
    let mut healthy = RouteClient::connect(server.addr()).expect("connect healthy");
    let net = suite(0x66, 1).remove(0);
    let reply = healthy
        .route(&RouteRequest { id: 1, net: net.clone(), deadline_ms: None })
        .expect("healthy route");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    // The stalled peer: a 100-byte frame prefix, 10 bytes of payload,
    // then silence. Idle-at-boundary is legal forever; this is not.
    let mut stalled = std::net::TcpStream::connect(server.addr()).expect("connect stalled");
    stalled.write_all(&100u32.to_le_bytes()).expect("prefix");
    stalled.write_all(&[0u8; 10]).expect("partial payload");
    stalled.flush().expect("flush");
    assert!(
        wait_for(Duration::from_secs(10), || {
            patlabor_serve::Metrics::get(&metrics.read_timeouts) == 1
        }),
        "the read watchdog never fired"
    );

    // The eviction notice arrives as a well-formed frame, then EOF.
    let mut reader = std::io::BufReader::new(stalled);
    let payload = patlabor_serve::read_frame(&mut reader)
        .expect("read eviction notice")
        .expect("notice frame before close");
    let notice = patlabor_serve::parse(std::str::from_utf8(&payload).expect("utf8"))
        .expect("notice json");
    assert_eq!(notice.get("error").and_then(Json::as_str), Some("evicted"));
    assert!(patlabor_serve::read_frame(&mut reader).expect("eof").is_none());

    // Drain is not held hostage by the evicted connection.
    let started = Instant::now();
    let summary = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain blocked on an evicted connection"
    );
    assert_eq!(summary.read_timeouts, 1);
    assert_eq!(summary.report.nets, 1);
}

/// Seeded torn/truncated-frame corpus against both transports: random
/// garbage, oversized prefixes, and frames cut mid-payload must never
/// wedge the server — a fresh client always routes afterwards.
#[test]
fn torn_frame_corpus_never_wedges_either_transport() {
    use std::io::Write as _;

    let server = serve(
        test_engine(),
        ServeConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            read_stall: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let http = server.http_addr().expect("http enabled");

    for seed in 0..8u64 {
        // Socket protocol: garbage bytes, length-prefix lies, torn tails.
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        let len = (splitmix64(seed) % 64 + 1) as usize;
        let bytes: Vec<u8> = (0..len).map(|i| (splitmix64(seed ^ i as u64) & 0xFF) as u8).collect();
        match seed % 3 {
            // Raw garbage (whatever prefix it implies).
            0 => stream.write_all(&bytes).expect("garbage"),
            // An honest prefix for a frame that never finishes.
            1 => {
                stream.write_all(&(bytes.len() as u32 + 7).to_le_bytes()).expect("prefix");
                stream.write_all(&bytes).expect("torn payload");
            }
            // A prefix larger than MAX_FRAME.
            _ => stream
                .write_all(&(patlabor_serve::MAX_FRAME as u32 + 1).to_le_bytes())
                .expect("oversized prefix"),
        }
        stream.flush().expect("flush");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        // Drain whatever the server says until it hangs up; it must
        // hang up rather than hang.
        let mut reader = std::io::BufReader::new(stream);
        while let Ok(Some(_)) = patlabor_serve::read_frame(&mut reader) {}

        // HTTP adapter: the same garbage as a raw request stream.
        let mut stream = std::net::TcpStream::connect(http).expect("connect http");
        stream.write_all(&bytes).expect("http garbage");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut sink = String::new();
        use std::io::Read as _;
        let _ = stream.read_to_string(&mut sink);
    }

    // The server survived the corpus: both transports still answer.
    let net = suite(0x77, 1).remove(0);
    let mut client = RouteClient::connect(server.addr()).expect("connect after corpus");
    let reply = client
        .route(&RouteRequest { id: 9, net: net.clone(), deadline_ms: None })
        .expect("route after corpus");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let (status, body) = http_request(http, "GET", "/healthz", &[]).expect("GET");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    server.shutdown();
}

/// The wire `reload` verb hot-swaps the table under an epoch: answers
/// are identical across the swap, a corrupt candidate is rejected with
/// `"reload-failed"` while the old table keeps serving, and the engine's
/// epoch tracks installs.
#[test]
fn hot_reload_over_the_wire_swaps_and_rejects() {
    use std::io::Write as _;

    let dir = std::env::temp_dir().join("patlabor_serve_reload_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("hot.lut");

    let engine = test_engine();
    engine.table().save(&path).expect("save table");
    let server = serve(
        engine.clone(),
        ServeConfig::default(),
    )
    .expect("bind");

    let mut client = RouteClient::connect(server.addr()).expect("connect");
    let net = suite(0x88, 24)
        .into_iter()
        .find(|n| (3..=4).contains(&n.degree()))
        .expect("tabulated net");
    let before = client
        .route(&RouteRequest { id: 1, net: net.clone(), deadline_ms: None })
        .expect("route before reload");

    // Reload from the freshly saved file: epoch 0 → 1.
    let reload = patlabor_serve::ReloadRequest { id: 2, path: path.display().to_string() };
    client.send_raw(reload.to_json().render().as_bytes()).expect("send reload");
    let reply = client.recv().expect("recv").expect("reload reply");
    assert_eq!(reply.get("reloaded").and_then(Json::as_bool), Some(true), "{}", reply.render());
    assert_eq!(reply.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(
        server.engine().table_epoch(),
        1,
        "the reload must install a new epoch"
    );

    // Same question, same answer, new table generation.
    let after = client
        .route(&RouteRequest { id: 3, net: net.clone(), deadline_ms: None })
        .expect("route after reload");
    assert_eq!(frontier_fields(&after), frontier_fields(&before));

    // A corrupt candidate is rejected; the old table keeps serving.
    let corrupt = dir.join("corrupt.lut");
    std::fs::File::create(&corrupt)
        .and_then(|mut f| f.write_all(b"not a lookup table"))
        .expect("write corrupt file");
    let reload = patlabor_serve::ReloadRequest { id: 4, path: corrupt.display().to_string() };
    client.send_raw(reload.to_json().render().as_bytes()).expect("send corrupt reload");
    let reply = client.recv().expect("recv").expect("reload reply");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("reload-failed"));
    let still = client
        .route(&RouteRequest { id: 5, net: net.clone(), deadline_ms: None })
        .expect("route after failed reload");
    assert_eq!(frontier_fields(&still), frontier_fields(&before));
    assert_eq!(
        patlabor_serve::Metrics::get(&server.metrics().reload_failed),
        1
    );
    assert_eq!(server.engine().table_epoch(), 1);

    server.shutdown();
}

/// `/metrics` reads the table epoch from the engine, so a reload the
/// server did not perform itself — here through `Server::engine` — shows
/// on the next scrape.
#[test]
fn table_epoch_gauge_follows_the_engine() {
    let dir = std::env::temp_dir().join("patlabor_serve_reload_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("epoch.lut");
    let engine = test_engine();
    engine.table().save(&path).expect("save table");
    let server = serve(
        engine,
        ServeConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let http = server.http_addr().expect("http enabled");

    assert_eq!(server.engine().reload_table(&path).expect("reload"), 1);
    let text = scrape_metrics(http).expect("scrape");
    assert!(text.contains("patlabor_table_epoch 1"), "{text}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A client that stops draining its replies hits the bounded reply
/// buffer (1,024 frames) and is evicted — the batcher never blocks on
/// it. A stalled write (chaos `stall-write` at probability 1) parks the
/// writer so the buffer actually fills.
#[test]
fn full_reply_buffer_evicts_instead_of_blocking() {
    let chaos = patlabor_serve::TransportPlane::seeded(0x51)
        .with_spec("stall-write:1.0")
        .expect("spec")
        .with_delay(Duration::from_millis(500));
    let server = serve(
        test_engine(),
        ServeConfig {
            chaos,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let metrics = server.metrics();

    let mut client = RouteClient::connect(server.addr()).expect("connect");
    for (i, net) in suite(0x99, 1_200).iter().enumerate() {
        // The eviction closes the socket, and it can land before the
        // last frames are sent; a failed send is that close.
        let request = RouteRequest { id: i as u64, net: net.clone(), deadline_ms: None };
        if client.send(&request).is_err() {
            break;
        }
    }
    // Reply 1 parks the writer in the injected stall, the next 1,024
    // fill the buffer, and some later reply must find it full and
    // evict before the stall ends.
    assert!(
        wait_for(Duration::from_secs(10), || {
            patlabor_serve::Metrics::get(&metrics.evicted) >= 1
        }),
        "a full reply buffer never evicted the connection"
    );
    let summary = server.shutdown();
    assert!(summary.evicted >= 1);
    assert!(summary.chaos_injected >= 1);
}

/// Drain under an active fault schedule: SIGINT-style `begin_shutdown`
/// while faults fire, and the crash-only ledger must still balance —
/// every response the server counts sits in exactly one ladder rung,
/// and drain completes within a bound.
#[test]
fn drain_under_chaos_keeps_the_ledger_balanced() {
    let chaos = patlabor_serve::TransportPlane::seeded(0xC4A05)
        .with_spec("torn-write:0.08")
        .and_then(|p| p.with_spec("corrupt-write:0.08"))
        .and_then(|p| p.with_spec("disconnect:0.05"))
        .and_then(|p| p.with_spec("delay-read:0.10"))
        .expect("specs")
        .with_delay(Duration::from_millis(5));
    let server = serve(
        test_engine(),
        ServeConfig {
            read_stall: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            chaos,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    const CLIENTS: u64 = 4;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut answered = 0u64;
                let nets = suite(0xAB + t, 40);
                // Reconnect whenever chaos kills the connection; every
                // request is answered or its connection observably dies.
                let mut it = nets.iter().enumerate();
                let mut current = it.next();
                'outer: while current.is_some() {
                    let Ok(mut client) = RouteClient::connect(addr) else {
                        break;
                    };
                    while let Some((i, net)) = current {
                        let request = RouteRequest {
                            id: t * 1_000 + i as u64,
                            net: net.clone(),
                            deadline_ms: None,
                        };
                        match client.route(&request) {
                            Ok(reply) => {
                                if reply.get("error").is_none() {
                                    answered += 1;
                                }
                                current = it.next();
                            }
                            // Torn, corrupt, or closed — the connection
                            // is dead either way; move on with a fresh
                            // one and retry this net once.
                            Err(_) => continue 'outer,
                        }
                    }
                }
                answered
            })
        })
        .collect();

    // SIGINT mid-chaos: drain starts while clients and faults are
    // still active. Undelivered clients see `shutting-down` or a
    // closed connection, never a hang.
    std::thread::sleep(Duration::from_millis(100));
    server.begin_shutdown();
    let answered: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();
    assert!(answered > 0, "chaos at these rates must let most requests through");

    let started = Instant::now();
    let summary = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain under chaos exceeded its bound"
    );
    assert!(summary.chaos_injected > 0, "the schedule never fired");
    // The crash-only ledger: every counted response sits in exactly
    // one rung, and clients never saw more answers than were sent.
    let report = summary.report;
    assert_eq!(report.served_by.iter().sum::<u64>(), report.served);
    assert!(answered <= report.served);
}

/// The sum of every sample of one `/metrics` family (all label sets).
fn metric_sum(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            let name = name.split('{').next()?;
            (name == family).then(|| value.parse::<u64>().ok()).flatten()
        })
        .sum()
}

/// `/metrics` and the shutdown summary are one tally: the routing
/// families render from the server's `ResilienceReport`, so they agree
/// even on a request that exhausts the ladder on its deadline (a
/// deadline hit on an error, not on a served reply).
#[test]
fn metrics_and_shutdown_report_are_one_tally() {
    let engine = test_engine().with_resilience(ResilienceConfig {
        fallbacks: false,
        ..ResilienceConfig::default()
    });
    let server = serve(
        engine,
        ServeConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let http = server.http_addr().expect("http enabled");
    let mut client = RouteClient::connect(server.addr()).expect("connect");

    // Sent first, so no cache entry can answer it: with no fallback
    // armed, a zero deadline on a tabulated degree ≥ 3 net exhausts
    // the ladder.
    let doomed = suite(0x7A11, 16)
        .into_iter()
        .find(|n| n.degree() >= 3)
        .expect("degree-3 net");
    let reply = client
        .route(&RouteRequest { id: 0, net: doomed, deadline_ms: Some(0) })
        .expect("route");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("route"), "{}", reply.render());
    for (i, net) in suite(0x7A12, 8).into_iter().enumerate() {
        let reply = client
            .route(&RouteRequest { id: 1 + i as u64, net, deadline_ms: None })
            .expect("route");
        assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.render()
    );
    }

    let text = scrape_metrics(http).expect("scrape");
    let report = server.shutdown().report;
    assert_eq!((report.nets, report.errors, report.deadline_hits), (9, 1, 1));
    assert_eq!(metric_sum(&text, "patlabor_responses_total"), report.served);
    assert_eq!(metric_sum(&text, "patlabor_route_errors_total"), report.errors);
    assert_eq!(metric_sum(&text, "patlabor_deadline_hits_total"), report.deadline_hits);
    assert_eq!(
        metric_sum(&text, "patlabor_served_by_rung_total"),
        report.served_by.iter().sum::<u64>()
    );
}
