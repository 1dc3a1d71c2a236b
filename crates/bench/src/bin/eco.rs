//! The ECO rerouting gate: what does the delta API buy over routing an
//! edited design from scratch? Prints one table row per reuse level and
//! thread count.
//!
//! The regime under test is the one an engineering change order lives
//! in: a design of N routed nets, of which a small fraction moves. The
//! **reuse** level r ∈ {0.5, 0.9, 0.99} is the untouched fraction —
//! N·(1−r) nets receive one edit each (three quarters class-preserving
//! rigid translates, one quarter class-breaking far pin moves). Per
//! level and thread count:
//!
//! * **fresh** — route all N nets of the edited design on a cold
//!   engine (`route_batch`): a tool without a delta API cannot know
//!   which routes survived the edit, so it pays for the whole design;
//! * **delta** — reroute only the edited nets through
//!   [`Engine::route_batch_deltas`] on an engine that routed the base
//!   design; untouched nets keep their prior outcomes at zero cost, and
//!   each edited net is routed once.
//!
//! Both engines are default engines, which have no frontier cache, so
//! no edit is served from winner-id replay: the `replayed` column
//! (provenance `Reused` over the edited slots) reads 0, and the ratio
//! measures routing the edited slice of a design against routing all
//! of it.
//!
//! Throughput is **design nets per second** (N over elapsed) on both
//! sides, so the two numbers answer the same question: how fast is the
//! design's routing state valid again? Every delta frontier is checked
//! identical to its fresh counterpart before any number is reported.
//!
//! A divergence exits 1. CI gate: set `PATLABOR_MIN_ECO_SPEEDUP` (e.g.
//! `3.0`) to make the bench exit 1 when the serial delta-vs-fresh ratio
//! at reuse 0.99 falls below the floor.

use std::time::Instant;

use patlabor::pipeline::RouteSource;
use patlabor::{DeltaJob, DeltaKind, Engine, Net, NetDelta, Point, Session};

const SEED: u64 = 0xec0_ba5e;
const REUSE_LEVELS: [f64; 3] = [0.5, 0.9, 0.99];
const LAMBDA: u8 = 5;

struct EcoRow {
    reuse_target: f64,
    threads: usize,
    edits: usize,
    replayed: usize,
    fresh_nets_per_sec: f64,
    delta_nets_per_sec: f64,
    delta_vs_fresh: f64,
}

/// The edited slots at reuse level `reuse`, spread evenly over the
/// design: every edited net gets one edit — a class-preserving rigid
/// translate, except every fourth edit, which moves the last pin far
/// enough to break the congruence class (same degree, so the fresh
/// route stays table-backed).
fn edits_at(bases: &[Net], reuse: f64) -> Vec<(usize, DeltaJob)> {
    let count = bases.len();
    let edits = (((1.0 - reuse) * count as f64).round() as usize).max(1);
    let stride = count / edits;
    (0..edits)
        .map(|e| {
            let slot = e * stride;
            let net = &bases[slot];
            let kind = if e % 4 == 3 {
                let last = net.pins().len() - 1;
                let p = net.pins()[last];
                DeltaKind::MovePin {
                    index: last,
                    to: Point::new(p.x + 997, p.y + 1409),
                }
            } else {
                DeltaKind::Translate { dx: 7, dy: -3 }
            };
            (
                slot,
                DeltaJob {
                    delta: NetDelta::new(net.clone(), kind),
                    prior_edits: 0,
                    session: Session::default(),
                },
            )
        })
        .collect()
}

fn main() {
    let count = patlabor_bench::scaled(20_000, 500);
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("generating {count} base nets (seed {SEED:#x}), hardware threads = {hardware} ...");
    let table = patlabor_lut::LutBuilder::new(LAMBDA).build();
    // Replayable degrees only: ECO reuse is a statement about
    // table-backed congruence classes, so out-of-λ nets (local search)
    // would only dilute the measurement.
    let bases: Vec<Net> = patlabor_bench::mixed_workload(count * 3, SEED)
        .into_iter()
        .filter(|n| (3..=LAMBDA as usize).contains(&n.degree()))
        .take(count)
        .collect();
    let count = bases.len();

    let mut eco_rows: Vec<EcoRow> = Vec::new();
    let mut deterministic = true;
    for reuse in REUSE_LEVELS {
        let edits = edits_at(&bases, reuse);
        let mut mutated_design = bases.clone();
        for (slot, job) in &edits {
            mutated_design[*slot] = job.delta.apply();
        }
        let jobs: Vec<DeltaJob> = edits.iter().map(|(_, j)| j.clone()).collect();
        let thread_counts = if hardware > 1 { vec![1, hardware] } else { vec![1] };
        for threads in thread_counts {
            // Fresh side: a cold engine routing the whole edited design —
            // without a delta API there is no way to know which of the
            // N routes the edit invalidated.
            let fresh_engine = Engine::with_table(table.clone());
            let start = Instant::now();
            let fresh = fresh_engine.route_batch(&mutated_design, threads);
            let fresh_nps = count as f64 / start.elapsed().as_secs_f64();

            // Delta side: a fresh engine per run routes the base design
            // untimed, as the flow would have; only the edited nets are
            // retimed.
            let warm = Engine::with_table(table.clone());
            warm.route_batch(&bases, hardware);
            let start = Instant::now();
            let (delta, _) = warm.route_batch_deltas(&jobs, threads);
            let delta_nps = count as f64 / start.elapsed().as_secs_f64();

            let replayed = delta
                .iter()
                .filter(|r| {
                    matches!(
                        r.as_ref().map(|o| o.provenance.source),
                        Ok(RouteSource::Reused { .. })
                    )
                })
                .count();
            for ((slot, _), d) in edits.iter().zip(&delta) {
                let same = match (d, &fresh[*slot]) {
                    (Ok(d), Ok(f)) => d.frontier == f.frontier,
                    (Err(d), Err(f)) => d == f,
                    _ => false,
                };
                if !same {
                    deterministic = false;
                    eprintln!(
                        "ERROR: reuse {reuse}, threads {threads}: \
                         delta for design net {slot} diverged from the fresh route"
                    );
                }
            }
            eprintln!(
                "reuse {reuse:.2}, threads {threads}: {} edits, fresh {fresh_nps:.0} nets/s, \
                 delta {delta_nps:.0} nets/s ({:.1}x), {replayed} replayed",
                jobs.len(),
                delta_nps / fresh_nps,
            );
            eco_rows.push(EcoRow {
                reuse_target: reuse,
                threads,
                edits: jobs.len(),
                replayed,
                fresh_nets_per_sec: fresh_nps,
                delta_nets_per_sec: delta_nps,
                delta_vs_fresh: delta_nps / fresh_nps,
            });
        }
    }

    println!(
        "{}",
        patlabor_bench::render_table(
            &["reuse", "threads", "edits", "fresh nets/s", "delta nets/s", "delta/fresh", "replayed"],
            &eco_rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.2}", r.reuse_target),
                        r.threads.to_string(),
                        r.edits.to_string(),
                        format!("{:.0}", r.fresh_nets_per_sec),
                        format!("{:.0}", r.delta_nets_per_sec),
                        format!("{:.1}x", r.delta_vs_fresh),
                        r.replayed.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        )
    );
    println!("deterministic vs fresh: {deterministic}");

    if !deterministic {
        eprintln!("FAIL: delta rerouting diverged from the fresh routes");
        std::process::exit(1);
    }

    let headline_ratio = eco_rows
        .iter()
        .find(|r| (r.reuse_target - 0.99).abs() < f64::EPSILON && r.threads == 1)
        .expect("reuse 0.99 serial row is always measured")
        .delta_vs_fresh;

    if let Ok(floor) = std::env::var("PATLABOR_MIN_ECO_SPEEDUP") {
        let floor: f64 = floor.parse().expect("PATLABOR_MIN_ECO_SPEEDUP must be a float");
        println!(
            "eco gate: {headline_ratio:.2}x delta-vs-fresh at reuse 0.99 (floor {floor:.2}x)"
        );
        if headline_ratio < floor {
            eprintln!(
                "FAIL: delta-vs-fresh {headline_ratio:.2}x at reuse 0.99 is below \
                 the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
    }

    patlabor_bench::paper_note(
        "the paper routes each design once; this bench measures the incremental \
         regime an ECO flow lives in — most of the design is untouched, and the \
         delta API retimes only what moved",
    );
}
