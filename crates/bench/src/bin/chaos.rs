//! Chaos-plane overhead gate, printed to stdout.
//!
//! Two daemons over the same fixed-seed workload:
//!
//! 1. **Disarmed** — [`TransportPlane::default`], every hook
//!    short-circuits on `is_empty`. The clean-path baseline.
//! 2. **Armed-never-firing** — all five fault kinds registered at
//!    probability 0: the hooks hash and check on every frame but never
//!    inject. The gap to daemon 1 is the pure cost of carrying the chaos
//!    plane in production builds, and the acceptance bar holds it
//!    below 2%. Its rung ledger must balance (Σ served-by-rung ==
//!    responses).
//!
//! The daemons run side by side and every clean request goes to both,
//! so host noise lands on the two alike. A round trip is a few hundred
//! microseconds of thread hand-offs, and one daemon instance can settle
//! into a slower rhythm than another for its whole life, so each
//! repetition boots a fresh pair and the gate reads the median per-pair
//! overhead: one unlucky pair or scheduler hiccup cannot fake a
//! regression on a shared machine. The overhead gate only *fails* the
//! process when `PATLABOR_MAX_CHAOS_OVERHEAD` (a percentage) is set —
//! CI sets it; local runs just report. Faults that actually fire are
//! `patlabor verify --chaos-soak`'s subject.

use std::net::SocketAddr;
use std::process::exit;
use std::time::{Duration, Instant};

use patlabor::{Engine, Net};
use patlabor_serve::{serve, Json, RouteClient, RouteRequest, ServeConfig, TransportPlane};

const SEED: u64 = 0xC4A0_B347;
const CONNECTIONS: usize = 4;
const REPS: usize = 31;
const LAMBDA: u8 = 4;

fn fail(message: &str) -> ! {
    eprintln!("chaos bench: FAIL: {message}");
    exit(1);
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// All five kinds at probability 0: every hook armed, none ever fires.
fn armed_never_firing(seed: u64) -> TransportPlane {
    let mut plane = TransportPlane::seeded(seed).with_delay(Duration::from_millis(2));
    for kind in ["torn-write", "corrupt-write", "disconnect", "stall-write", "delay-read"] {
        plane = plane
            .with_spec(&format!("{kind}:0"))
            .unwrap_or_else(|e| fail(&format!("static spec rejected: {e}")));
    }
    plane
}

fn boot(engine: &Engine, chaos: TransportPlane) -> patlabor_serve::Server {
    serve(
        engine.clone(),
        ServeConfig {
            read_stall: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            chaos,
            ..ServeConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("serve failed to start: {e}")))
}

/// Clean closed-loop load against two daemons at once (no faults
/// expected): each connection thread sends every one of its nets to
/// both, in an order that alternates per net, and times each round trip.
/// Both daemons are thus measured under the same host conditions, down
/// to the request. Every request must be answered `ok` on the first
/// connection. Returns the summed round-trip time against each daemon.
fn drive_paired(addrs: [SocketAddr; 2], nets: &[Net]) -> [Duration; 2] {
    let shards: Vec<[Duration; 2]> = std::thread::scope(|scope| {
        (0..CONNECTIONS)
            .map(|t| {
                scope.spawn(move || {
                    let mut clients = addrs.map(|addr| {
                        RouteClient::connect(addr)
                            .unwrap_or_else(|e| fail(&format!("connect failed: {e}")))
                    });
                    let mut spent = [Duration::ZERO; 2];
                    for i in (t..nets.len()).step_by(CONNECTIONS) {
                        let request = RouteRequest {
                            id: i as u64,
                            net: nets[i].clone(),
                            deadline_ms: None,
                        };
                        for k in [i % 2, 1 - i % 2] {
                            let sent = Instant::now();
                            let reply = clients[k].route(&request).unwrap_or_else(|e| {
                                fail(&format!("clean request {i} failed: {e}"))
                            });
                            spent[k] += sent.elapsed();
                            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                                fail(&format!("clean request {i} not ok: {}", reply.render()));
                            }
                        }
                    }
                    spent
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| fail("clean worker panicked")))
            .collect()
    });
    shards
        .iter()
        .fold([Duration::ZERO; 2], |acc, s| [acc[0] + s[0], acc[1] + s[1]])
}

fn main() {
    let count = patlabor_bench::scaled(400, 120);
    let hardware = hardware_threads();
    eprintln!(
        "chaos bench: {count} nets (seed {SEED:#x}), λ = {LAMBDA}, \
         {CONNECTIONS} connections, {REPS} reps"
    );
    let engine =
        Engine::with_table(patlabor_lut::LutBuilder::new(LAMBDA).threads(hardware).build());
    let nets = patlabor_netgen::iccad_like_suite(SEED, count, LAMBDA as usize);

    // One clean pair: a fresh disarmed and armed-at-p=0 daemon driven
    // side by side; their summed round-trip times.
    let clean_pair = || {
        let disarmed = boot(&engine, TransportPlane::default());
        let armed = boot(&engine, armed_never_firing(SEED));
        let spent = drive_paired([disarmed.addr(), armed.addr()], &nets);
        if disarmed.shutdown().chaos_injected != 0 {
            fail("disarmed run injected a fault");
        }
        let summary = armed.shutdown();
        if summary.chaos_injected != 0 {
            fail("armed-at-p=0 run injected a fault");
        }
        if summary.report.served_by.iter().sum::<u64>() != summary.report.served {
            fail("rung ledger does not balance on the armed clean run");
        }
        spent
    };
    // Warmup once so the first measured pair is not paying thread
    // spawn / allocator cold costs.
    clean_pair();

    let mut disarmed = Duration::ZERO;
    let mut armed = Duration::ZERO;
    let mut overheads = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        eprintln!("rep {} / {REPS} ...", rep + 1);
        let [d, a] = clean_pair();
        disarmed += d;
        armed += a;
        overheads.push((a.as_secs_f64() / d.as_secs_f64().max(1e-9) - 1.0) * 100.0);
    }
    // Each connection is closed-loop, so requests over its summed
    // round-trip time is the rate that daemon sustained.
    let requests = (nets.len() * REPS) as f64;
    let connection_secs = |spent: Duration| spent.as_secs_f64().max(1e-9) / CONNECTIONS as f64;
    let disarmed_rps = requests / connection_secs(disarmed);
    let armed_rps = requests / connection_secs(armed);
    overheads.sort_by(f64::total_cmp);
    let overhead_pct = overheads[REPS / 2];
    println!(
        "clean path: disarmed {disarmed_rps:.0} req/s, armed-at-p=0 {armed_rps:.0} req/s, \
         median overhead {overhead_pct:+.2}% over {REPS} pairs"
    );

    // The gate: CI exports PATLABOR_MAX_CHAOS_OVERHEAD (a percentage
    // with scheduler slack); unset means report-only.
    if let Ok(limit) = std::env::var("PATLABOR_MAX_CHAOS_OVERHEAD") {
        let limit: f64 =
            limit.parse().unwrap_or_else(|_| fail("bad PATLABOR_MAX_CHAOS_OVERHEAD"));
        println!("chaos gate: {overhead_pct:+.2}% clean-path overhead (limit {limit}%)");
        if overhead_pct >= limit {
            fail(&format!("clean-path overhead {overhead_pct:+.2}% exceeds the {limit}% gate"));
        }
    }
}
