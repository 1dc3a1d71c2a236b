//! The serving-path checker: drives an already-running `patlabor serve`
//! daemon with a fixed-seed workload and asserts what it answers. It is
//! the CI serve and chaos jobs' client and measures nothing; measure
//! serving with `benchmark --workload serve_openloop`.
//!
//! Set `PATLABOR_SERVE_ADDR` to the daemon's socket address, optionally
//! `PATLABOR_SERVE_HTTP` to its HTTP adapter and `PATLABOR_SERVE_LAMBDA`
//! to the λ of the table it serves. Without `PATLABOR_SERVE_ADDR` it
//! prints one usage line and exits 2.
//!
//! It fires the fixed-seed workload over 4 closed-loop connections —
//! plus deadline-exceeded (`deadline_ms: 0`) and malformed-frame
//! cases — asserts the documented reply vocabulary, then scrapes
//! `/metrics` and asserts the counters are present and mutually
//! consistent (Σ served-by-rung == responses, latency count ==
//! responses, queue-wait count == batched nets, malformed rejections
//! counted). When `PATLABOR_SERVE_LAMBDA` is set, replies are
//! additionally checked bit-identical against a local engine at that λ
//! (the CI daemon serves a λ = 4 fixture). Exits 1 on any violation.

use std::net::SocketAddr;
use std::process::exit;

use patlabor::{Engine, Net};
use patlabor_serve::{scrape_metrics, RetryPolicy, RouteClient, RouteRequest};

const SEED: u64 = 0x10ad_6e4e;
/// Valid route requests per run (the "~500 requests" of the CI job).
const REQUESTS: usize = 500;
/// Closed-loop connections driving the daemon concurrently.
const CONNECTIONS: usize = 4;
/// Deadline-exceeded probes (`deadline_ms: 0`).
const DEADLINE_PROBES: usize = 25;
/// Malformed frames.
const MALFORMED_PROBES: usize = 10;
/// λ of the local engine when `PATLABOR_SERVE_LAMBDA` is not set.
const LAMBDA: u8 = 4;

fn fail(message: &str) -> ! {
    eprintln!("loadgen: FAIL: {message}");
    exit(1);
}

fn check(condition: bool, message: &str) {
    if !condition {
        fail(message);
    }
}

/// The canonical frontier rendering used for bit-identity checks:
/// every `(w, d)` point in frontier order.
fn frontier_key(json: &patlabor_serve::Json) -> String {
    let Some(points) = json.get("frontier").and_then(|f| f.as_array()) else {
        return "<no frontier>".to_string();
    };
    points
        .iter()
        .map(|p| {
            format!(
                "{}:{}",
                p.get("w").and_then(|v| v.as_i64()).unwrap_or(i64::MIN),
                p.get("d").and_then(|v| v.as_i64()).unwrap_or(i64::MIN),
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Routes every net in-process, one at a time, on a fresh λ engine:
/// the same rendering for the expected side of the comparison.
fn route_locally(lambda: u8, nets: &[Net]) -> Vec<String> {
    let engine = Engine::with_table(
        patlabor_lut::LutBuilder::new(lambda)
            .threads(hardware_threads())
            .build(),
    );
    nets.iter()
        .map(|net| {
            engine
                .route(net)
                .unwrap_or_else(|e| fail(&format!("in-process route failed: {e}")))
                .frontier
                .iter()
                .map(|(c, _)| format!("{}:{}", c.wirelength, c.delay))
                .collect::<Vec<_>>()
                .join(";")
        })
        .collect()
}

/// Closed-loop load: `CONNECTIONS` threads, each with its own
/// connection, each round-tripping its interleaved share of `nets` one
/// request at a time under a seeded retry budget (`overloaded` replies
/// are retried with deterministic jittered backoff). Replies are
/// asserted `ok` and (when `expected` is given) bit-identical to the
/// in-process frontier. Returns the number of `ok` replies.
fn drive(addr: SocketAddr, nets: &[Net], expected: Option<&[String]>) -> u64 {
    // A fresh connection's first round trip, before the load starts.
    let mut probe = RouteClient::connect(addr).unwrap_or_else(|e| {
        fail(&format!("connect to {addr} failed: {e}"));
    });
    let request = RouteRequest {
        id: 1 << 32,
        net: nets[0].clone(),
        deadline_ms: None,
    };
    let reply = probe
        .route(&request)
        .unwrap_or_else(|e| fail(&format!("first round trip failed: {e}")));
    check(
        reply.get("ok").and_then(|v| v.as_bool()) == Some(true),
        "first round trip not ok",
    );
    drop(probe);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = RouteClient::connect(addr)
                        .unwrap_or_else(|e| fail(&format!("connect failed: {e}")));
                    let policy = RetryPolicy::seeded(SEED ^ t as u64);
                    let mut ok = 0u64;
                    for i in (t..nets.len()).step_by(CONNECTIONS) {
                        let request = RouteRequest {
                            id: i as u64,
                            net: nets[i].clone(),
                            deadline_ms: None,
                        };
                        let (reply, _) = client
                            .route_with_retry(&request, &policy)
                            .unwrap_or_else(|e| fail(&format!("request {i} failed: {e}")));
                        check(
                            reply.get("id").and_then(|v| v.as_u64()) == Some(i as u64),
                            "reply id does not correlate",
                        );
                        check(
                            reply.get("ok").and_then(|v| v.as_bool()) == Some(true),
                            &format!("request {i} not ok: {}", reply.render()),
                        );
                        ok += 1;
                        if let Some(expected) = expected {
                            check(
                                frontier_key(&reply) == expected[i],
                                &format!("request {i}: served frontier differs from direct route"),
                            );
                        }
                    }
                    ok
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| fail("load worker panicked")))
            .sum()
    })
}

/// The value of an unlabeled metric family, e.g. `patlabor_queue_depth`.
fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(name)).then(|| parts.next())?
        })
        .and_then(|v| v.parse().ok())
}

/// The sum over every labeled sample of a family, e.g. all
/// `patlabor_served_by_rung_total{rung=...}` lines.
fn metric_sum(exposition: &str, family: &str) -> f64 {
    let prefix = format!("{family}{{");
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            parts.next().filter(|t| t.starts_with(&prefix))?;
            parts.next()?.parse::<f64>().ok()
        })
        .sum()
}

/// One labeled sample, e.g. `rejected_total{reason="malformed"}`.
fn metric_labeled(exposition: &str, sample: &str) -> Option<f64> {
    metric_value(exposition, sample)
}

fn workload() -> Vec<Net> {
    patlabor_netgen::iccad_like_suite(SEED, REQUESTS, 8)
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn external(addr: SocketAddr) {
    let http: Option<SocketAddr> = std::env::var("PATLABOR_SERVE_HTTP")
        .ok()
        .map(|s| s.parse().unwrap_or_else(|_| fail("bad PATLABOR_SERVE_HTTP")));
    let lambda: Option<u8> = std::env::var("PATLABOR_SERVE_LAMBDA")
        .ok()
        .map(|s| s.parse().unwrap_or_else(|_| fail("bad PATLABOR_SERVE_LAMBDA")));
    eprintln!(
        "external: daemon {addr}, http {http:?}, {REQUESTS} valid + \
         {DEADLINE_PROBES} deadline + {MALFORMED_PROBES} malformed requests"
    );
    let nets = workload();
    // The local engine runs at the daemon's λ when given (its answers
    // are then the expected ones), at λ = 4 otherwise.
    let keys = route_locally(lambda.unwrap_or(LAMBDA), &nets);
    let expected = lambda.is_some().then_some(keys);

    // The main closed-loop load.
    let ok = drive(addr, &nets, expected.as_deref());
    check(ok == REQUESTS as u64, "not every valid request was served");

    // Deadline-exceeded probes: an impossible budget must degrade, not
    // fail — `ok` with `degraded: true` and a deadline in the trace.
    // Degree-2 nets are excluded (their closed form beats any
    // deadline), and the nets come from a *different* seed than the
    // main load: on a daemon whose engine opted into the frontier
    // cache, a net already routed would be a cache hit, and a cache hit
    // legitimately serves full-fidelity with no budget.
    let mut probe = RouteClient::connect(addr)
        .unwrap_or_else(|e| fail(&format!("deadline probe connect failed: {e}")));
    let deadline_pool = patlabor_netgen::iccad_like_suite(SEED ^ 0xdead_beef, 4 * DEADLINE_PROBES, 8);
    let deadline_nets: Vec<&Net> = deadline_pool
        .iter()
        .filter(|n| n.degree() >= 3)
        .take(DEADLINE_PROBES)
        .collect();
    check(
        deadline_nets.len() == DEADLINE_PROBES,
        "probe pool has too few degree>=3 nets for the deadline probes",
    );
    for (i, net) in deadline_nets.iter().enumerate() {
        let request = RouteRequest {
            id: 10_000 + i as u64,
            net: (*net).clone(),
            deadline_ms: Some(0),
        };
        let reply = probe
            .route(&request)
            .unwrap_or_else(|e| fail(&format!("deadline probe {i} failed: {e}")));
        check(
            reply.get("ok").and_then(|v| v.as_bool()) == Some(true),
            "deadline probe was refused instead of degraded",
        );
        check(
            reply.get("degraded").and_then(|v| v.as_bool()) == Some(true),
            "deadline probe was not served degraded",
        );
    }

    // Malformed frames: each one answered with the documented error,
    // on the same connection, without poisoning it.
    let malformed: [&[u8]; 5] = [
        b"not json at all",
        br#"{"id": 1}"#,
        br#"{"id": 2, "net": "nope"}"#,
        br#"{"id": 3, "net": [[0,0]]}"#,
        br#"{"id": 4, "net": [[0,0],[1]]}"#,
    ];
    for i in 0..MALFORMED_PROBES {
        probe
            .send_raw(malformed[i % malformed.len()])
            .unwrap_or_else(|e| fail(&format!("malformed send failed: {e}")));
        let reply = probe
            .recv()
            .unwrap_or_else(|e| fail(&format!("malformed recv failed: {e}")))
            .unwrap_or_else(|| fail("server hung up on a malformed frame"));
        check(
            reply.get("error").and_then(|v| v.as_str()) == Some("malformed"),
            "malformed frame not rejected with error=malformed",
        );
    }
    // The connection still works after the malformed barrage.
    let request = RouteRequest {
        id: 20_000,
        net: nets[0].clone(),
        deadline_ms: None,
    };
    let reply = probe
        .route(&request)
        .unwrap_or_else(|e| fail(&format!("post-malformed request failed: {e}")));
    check(
        reply.get("ok").and_then(|v| v.as_bool()) == Some(true),
        "connection poisoned after malformed frames",
    );

    // The metrics plane: families present and mutually consistent.
    if let Some(http) = http {
        let exposition =
            scrape_metrics(http).unwrap_or_else(|e| fail(&format!("metrics scrape failed: {e}")));
        for family in [
            "patlabor_requests_total",
            "patlabor_responses_total",
            "patlabor_queue_depth",
            "patlabor_batches_total",
            "patlabor_batched_nets_total",
            "patlabor_deadline_hits_total",
            "patlabor_latency_seconds_count",
            "patlabor_queue_wait_seconds_count",
        ] {
            check(
                metric_value(&exposition, family).is_some(),
                &format!("metrics family missing: {family}"),
            );
        }
        let responses = metric_value(&exposition, "patlabor_responses_total").unwrap_or(0.0);
        let valid_sent = (REQUESTS + DEADLINE_PROBES + 2) as f64; // + probe + post-malformed
        check(responses >= valid_sent, "responses_total below what we sent");
        check(
            metric_value(&exposition, "patlabor_requests_total").unwrap_or(0.0) >= valid_sent,
            "requests_total below what we sent",
        );
        check(
            metric_labeled(&exposition, "patlabor_rejected_total{reason=\"malformed\"}")
                .unwrap_or(0.0)
                >= MALFORMED_PROBES as f64,
            "malformed rejections not counted",
        );
        check(
            metric_value(&exposition, "patlabor_deadline_hits_total").unwrap_or(0.0)
                >= DEADLINE_PROBES as f64,
            "deadline hits not counted",
        );
        // Internal consistency, independent of who else hit the daemon:
        // every response was served by exactly one rung and timed once.
        check(
            metric_sum(&exposition, "patlabor_served_by_rung_total") == responses,
            "served-by-rung histogram does not sum to responses_total",
        );
        check(
            metric_value(&exposition, "patlabor_latency_seconds_count") == Some(responses),
            "latency histogram count does not match responses_total",
        );
        // Every request routed in a batch waited in the queue
        // exactly once.
        check(
            metric_value(&exposition, "patlabor_queue_wait_seconds_count")
                == metric_value(&exposition, "patlabor_batched_nets_total"),
            "queue-wait histogram count does not match batched_nets_total",
        );
        for family in ["patlabor_latency_seconds", "patlabor_queue_wait_seconds"] {
            for quantile in ["0.5", "0.99", "0.999"] {
                check(
                    metric_labeled(&exposition, &format!("{family}{{quantile=\"{quantile}\"}}"))
                        .is_some(),
                    &format!("{family} quantile {quantile} missing from /metrics"),
                );
            }
        }
        eprintln!("metrics plane: all families present and consistent");
    }
    println!(
        "loadgen: {ok} requests ok{}, {DEADLINE_PROBES} deadline probes degraded, \
         {MALFORMED_PROBES} malformed frames rejected; all checks passed",
        if expected.is_some() { " and identical to the in-process route" } else { "" }
    );
}

fn main() {
    let Ok(addr) = std::env::var("PATLABOR_SERVE_ADDR") else {
        eprintln!(
            "usage: PATLABOR_SERVE_ADDR=HOST:PORT [PATLABOR_SERVE_HTTP=HOST:PORT] \
             [PATLABOR_SERVE_LAMBDA=L] loadgen  (checks a running `patlabor serve`; \
             to measure serving, run `benchmark --workload serve_openloop`)"
        );
        exit(2);
    };
    let addr = addr
        .parse()
        .unwrap_or_else(|_| fail("PATLABOR_SERVE_ADDR is not a socket address"));
    external(addr);
}
