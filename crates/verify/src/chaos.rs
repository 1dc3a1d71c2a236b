//! Chaos soak: a real daemon under a seeded transport fault schedule.
//!
//! The differential matrix (lib.rs) asks "is every fast path
//! indistinguishable from its oracle?". This module asks the other
//! robustness question: when the *transport* misbehaves — torn reply
//! frames, corrupted bytes, mid-reply disconnects, stalled and delayed
//! I/O — does the daemon still keep its crash-only promises? The soak
//! boots an in-process [`Server`] with an armed
//! [`TransportPlane`], drives it with reconnecting, retrying clients,
//! starts a SIGINT-style drain while faults are still firing, and then
//! audits the ledger:
//!
//! 1. **Answered exactly once or closed** — within one connection a
//!    reply correlates to the one outstanding request; a damaged frame
//!    only ever appears on a connection that dies (clients observe it
//!    as an I/O error, never as a plausible wrong answer).
//! 2. **Drain under chaos is bounded** — shutdown completes within
//!    10 s even with faults firing mid-drain.
//! 3. **The rung ledger balances** — Σ served-by-rung equals the
//!    response counter exactly; chaos must not double-count or leak.
//! 4. **No torn frame is ever accepted** — a parsed reply carrying an
//!    id the client never sent indicts the framing layer.
//!
//! Everything is a pure function of the seed: the fault schedule, the
//! corpus, and the retry jitter all derive from it, so a CI failure
//! replays locally with `patlabor verify --chaos-soak --seed <seed>`.

use std::time::{Duration, Instant};

use patlabor::Engine;
use patlabor_lut::LutBuilder;
use patlabor_serve::{
    serve, Json, RetryPolicy, RouteClient, RouteRequest, ServeConfig, TransportPlane,
};

/// Concurrent client threads.
const CLIENTS: usize = 4;

/// Requests each client attempts to get answered.
const NETS_PER_CLIENT: usize = 48;

/// λ of the served table (4 builds in milliseconds).
const LAMBDA: u8 = 4;

/// How long clients run before the SIGINT-style drain begins.
const RUN_FOR: Duration = Duration::from_millis(250);

/// Invariant 2's bound: drain must complete within this.
const DRAIN_BOUND: Duration = Duration::from_secs(10);

/// What the soak observed, with every invariant breach spelled out in
/// `violations` — empty means the daemon kept its crash-only promises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSoakReport {
    /// The schedule/corpus/jitter seed (replay key).
    pub seed: u64,
    /// Well-formed, correctly-correlated answers clients received.
    pub answered: u64,
    /// Backoff retries clients spent on `overloaded` rejections.
    pub retries: u64,
    /// Connections clients lost to injected faults (and re-opened).
    pub reconnects: u64,
    /// Requests the server answered with a frontier (its report's
    /// `served`).
    pub responses: u64,
    /// Σ over the report's per-rung `served_by` counters.
    pub served_by_sum: u64,
    /// Admission-control rejections.
    pub rejected: u64,
    /// Slow-client / stalled-read evictions.
    pub evicted: u64,
    /// Transport faults the chaos plane injected.
    pub chaos_injected: u64,
    /// begin-drain → fully-joined wall time, milliseconds.
    pub drain_ms: u64,
    /// Every invariant breach, human-readable. Empty ⇔ pass.
    pub violations: Vec<String>,
}

impl ChaosSoakReport {
    /// Whether every crash-only invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line human summary (the CLI's output).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "chaos-soak: seed {:#x}\n  answered {} (retries {}, reconnects {})\n  \
             server: {} responses, {} by-rung, {} rejected, {} evicted, {} faults injected\n  \
             drain: {} ms\n",
            self.seed,
            self.answered,
            self.retries,
            self.reconnects,
            self.responses,
            self.served_by_sum,
            self.rejected,
            self.evicted,
            self.chaos_injected,
            self.drain_ms,
        );
        if self.violations.is_empty() {
            out.push_str("all crash-only invariants held\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// What one client thread brings home.
struct ClientTally {
    answered: u64,
    retries: u64,
    reconnects: u64,
    violations: Vec<String>,
}

/// Runs the soak. Boots the daemon with every fault kind armed at
/// moderate probability, shakes it with reconnecting clients, drains
/// mid-chaos, and audits the invariants. Pure function of `seed`, which
/// drives the fault schedule, the corpus and the retry jitter.
pub fn chaos_soak(seed: u64) -> ChaosSoakReport {
    let chaos = TransportPlane::seeded(seed)
        .with_spec("torn-write:0.06")
        .and_then(|p| p.with_spec("corrupt-write:0.06"))
        .and_then(|p| p.with_spec("disconnect:0.04"))
        .and_then(|p| p.with_spec("stall-write:0.02"))
        .and_then(|p| p.with_spec("delay-read:0.08"))
        .expect("static fault specs parse")
        .with_delay(Duration::from_millis(5));
    let engine = Engine::with_table(LutBuilder::new(LAMBDA).threads(2).build());
    let server = serve(
        engine,
        ServeConfig {
            read_stall: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            chaos,
            ..ServeConfig::default()
        },
    )
    .expect("soak daemon binds a free loopback port");
    let addr = server.addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let seed = seed ^ (t as u64);
            std::thread::spawn(move || run_client(addr, seed, t as u64))
        })
        .collect();

    std::thread::sleep(RUN_FOR);
    let drain_started = Instant::now();
    server.begin_shutdown();

    let mut answered = 0u64;
    let mut retries = 0u64;
    let mut reconnects = 0u64;
    let mut violations = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(tally) => {
                answered += tally.answered;
                retries += tally.retries;
                reconnects += tally.reconnects;
                violations.extend(tally.violations);
            }
            Err(_) => violations.push("a soak client thread panicked".to_string()),
        }
    }
    let summary = server.shutdown();
    let drain_ms = drain_started.elapsed().as_millis() as u64;

    let responses = summary.report.served;
    let served_by_sum: u64 = summary.report.served_by.iter().sum();
    if served_by_sum != responses {
        violations.push(format!(
            "rung ledger does not balance: Σ served-by-rung = {served_by_sum}, \
             responses = {responses}"
        ));
    }
    if answered > responses {
        violations.push(format!(
            "clients saw {answered} well-formed answers but the server only \
             counted {responses} responses"
        ));
    }
    if drain_ms > DRAIN_BOUND.as_millis() as u64 {
        violations.push(format!(
            "drain took {drain_ms} ms under chaos, bound is {} ms",
            DRAIN_BOUND.as_millis()
        ));
    }
    if summary.chaos_injected == 0 {
        violations.push("the fault schedule never fired — the soak tested nothing".to_string());
    }

    ChaosSoakReport {
        seed,
        answered,
        retries,
        reconnects,
        responses,
        served_by_sum,
        rejected: summary.rejected,
        evicted: summary.evicted,
        chaos_injected: summary.chaos_injected,
        drain_ms,
        violations,
    }
}

/// One reconnecting, retrying client. Every request either gets a
/// well-formed reply correlated by id, or its connection observably
/// dies and the request is retried on a fresh one. A parsed reply with
/// the wrong id is the one thing that must never happen.
fn run_client(addr: std::net::SocketAddr, seed: u64, client: u64) -> ClientTally {
    let nets = patlabor_netgen::iccad_like_suite(seed, NETS_PER_CLIENT, LAMBDA as usize);
    let policy = RetryPolicy::seeded(seed);
    let mut tally = ClientTally {
        answered: 0,
        retries: 0,
        reconnects: 0,
        violations: Vec::new(),
    };
    let mut it = nets.iter().enumerate();
    let mut current = it.next();
    'reconnect: while current.is_some() {
        let Ok(mut conn) = RouteClient::connect(addr) else {
            // Drain has begun and the listener is gone; every request
            // still outstanding was answered-by-closure.
            return tally;
        };
        while let Some((i, net)) = current {
            let request = RouteRequest {
                id: client * 1_000_000 + i as u64,
                net: net.clone(),
                deadline_ms: None,
            };
            match conn.route_with_retry(&request, &policy) {
                Ok((reply, spent)) => {
                    tally.retries += u64::from(spent);
                    match reply.get("error").and_then(Json::as_str) {
                        None => {
                            if reply.get("id").and_then(Json::as_u64) != Some(request.id) {
                                tally.violations.push(format!(
                                    "accepted a reply whose id does not match the one \
                                     outstanding request: {}",
                                    reply.render()
                                ));
                            } else {
                                tally.answered += 1;
                            }
                            current = it.next();
                        }
                        Some("shutting-down") => return tally,
                        // The server announced it is closing this
                        // connection; retry on a fresh one.
                        Some("evicted") => {
                            tally.reconnects += 1;
                            continue 'reconnect;
                        }
                        // Retry budget exhausted on overload: terminal
                        // for this request, not a violation.
                        Some("overloaded") => current = it.next(),
                        Some(other) => {
                            tally.violations.push(format!(
                                "unexpected error vocabulary `{other}`: {}",
                                reply.render()
                            ));
                            current = it.next();
                        }
                    }
                }
                // Torn frame, corrupted bytes, or a hard close — the
                // connection is observably dead, which is exactly the
                // "or its connection closed" arm of the contract.
                Err(_) => {
                    tally.reconnects += 1;
                    continue 'reconnect;
                }
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite drain-under-chaos test: a fixed-seed soak must
    /// pass every crash-only invariant, and must actually have injected
    /// faults while doing so.
    #[test]
    fn fixed_seed_soak_holds_every_invariant() {
        let report = chaos_soak(0xC4A0_55EE);
        assert!(
            report.is_clean(),
            "soak violations:\n{}",
            report.summary()
        );
        assert!(report.chaos_injected > 0);
        assert!(report.answered > 0, "{}", report.summary());
        let text = report.summary();
        assert!(text.contains("all crash-only invariants held"));
    }

    /// The report renders violations loudly.
    #[test]
    fn report_summary_surfaces_violations() {
        let report = ChaosSoakReport {
            seed: 1,
            answered: 0,
            retries: 0,
            reconnects: 0,
            responses: 2,
            served_by_sum: 1,
            rejected: 0,
            evicted: 0,
            chaos_injected: 0,
            drain_ms: 0,
            violations: vec!["rung ledger does not balance".to_string()],
        };
        assert!(!report.is_clean());
        assert!(report.summary().contains("VIOLATION: rung ledger"));
    }
}
