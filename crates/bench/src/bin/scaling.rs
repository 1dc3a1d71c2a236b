//! The scaling-curve gate: does `route_batch` actually scale? Routes a
//! fixed-seed mixed workload with the frontier cache off at every thread
//! count 1→N (N = hardware threads) and prints, per count:
//! * throughput and speedup against the serial baseline;
//! * per-worker utilization (busy-ns / elapsed) and its minimum — the
//!   load-balance floor the shared chunk queue is supposed to hold up.
//!
//! Thread counts above the hardware count are measured only as
//! *oversubscription observations*: they are starred in the table and
//! are never part of the scaling curve (on a single-core container the
//! whole curve is one point — that is the honest answer).
//!
//! Every parallel run is checked bit-identical to the serial ordering;
//! a divergence exits 1. Determinism with the cache on is checked by
//! `patlabor verify --threads N` (the `batch-vs-serial` pair).
//!
//! CI gate: set `PATLABOR_MIN_SPEEDUP` (e.g. `3.0`) to make the bench
//! exit 1 when the speedup at [`GATE_THREADS`] falls below the floor.
//! The gate only arms when the machine has at least that many hardware
//! threads — a 1-core runner cannot measure scaling and must not
//! pretend to.

use std::time::Instant;

use patlabor::{Engine, LookupTable, Net, ParetoSet, RoutingTree};

const SEED: u64 = 0x5ca1_ab1e;
/// The thread count the speedup floor is read at.
const GATE_THREADS: usize = 4;

type Frontiers = Vec<Option<ParetoSet<RoutingTree>>>;

/// One timed run at a fixed thread count.
struct Run {
    threads: usize,
    nets_per_sec: f64,
    utilization: f64,
    min_worker_utilization: f64,
}

/// Routes `nets` on a fresh engine, which has no frontier cache;
/// returns the run's numbers and its frontiers in input order.
fn measure(table: &LookupTable, nets: &[Net], threads: usize) -> (Run, Frontiers) {
    let router = Engine::with_table(table.clone());
    let start = Instant::now();
    let (results, stats) = router.route_batch_with_stats(nets, threads);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(results.len(), nets.len());
    let run = Run {
        threads,
        nets_per_sec: nets.len() as f64 / secs,
        utilization: stats.utilization(),
        min_worker_utilization: stats.min_worker_utilization(),
    };
    let frontiers = results
        .into_iter()
        .map(|r| r.ok().map(|o| o.frontier))
        .collect();
    (run, frontiers)
}

fn main() {
    let count = patlabor_bench::scaled(20_000, 400);
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("generating {count} nets (seed {SEED:#x}), hardware threads = {hardware} ...");
    let nets = patlabor_bench::mixed_workload(count, SEED);
    let table = patlabor_lut::LutBuilder::new(5).build();

    // Two serial passes (the first doubles as warmup); the faster one is
    // the baseline every speedup is measured against. Their frontiers
    // are identical, so either serves as the reference.
    eprintln!("serial baseline ...");
    let (first, _) = measure(&table, &nets, 1);
    let (second, serial) = measure(&table, &nets, 1);
    let serial_nps = first.nets_per_sec.max(second.nets_per_sec);

    // The scaling sweep: every thread count the machine can genuinely
    // run in parallel, plus fixed oversubscription observations.
    let mut sweep: Vec<usize> = (1..=hardware).collect();
    for extra in [2, GATE_THREADS, 2 * hardware] {
        if extra > hardware && !sweep.contains(&extra) {
            sweep.push(extra);
        }
    }

    let mut runs: Vec<Run> = Vec::new();
    let mut deterministic = true;
    for &threads in &sweep {
        eprintln!("threads = {threads} ...");
        let (run, frontiers) = measure(&table, &nets, threads);
        if frontiers != serial {
            deterministic = false;
            eprintln!("ERROR: threads = {threads} diverged from serial");
        }
        runs.push(run);
    }
    let speedup = |r: &Run| r.nets_per_sec / serial_nps;

    println!("serial baseline: {serial_nps:.0} nets/s over {count} nets");
    println!(
        "{}",
        patlabor_bench::render_table(
            &["threads", "nets/s", "speedup", "util", "min util"],
            &runs
                .iter()
                .map(|r| {
                    vec![
                        format!(
                            "{}{}",
                            r.threads,
                            if r.threads > hardware { "*" } else { "" }
                        ),
                        format!("{:.0}", r.nets_per_sec),
                        format!("{:.2}x", speedup(r)),
                        format!("{:.2}", r.utilization),
                        format!("{:.2}", r.min_worker_utilization),
                    ]
                })
                .collect::<Vec<_>>(),
        )
    );
    if sweep.iter().any(|&t| t > hardware) {
        println!("* oversubscribed (threads > {hardware} hardware threads): not scaling data");
    }
    println!("deterministic vs serial: {deterministic}");

    if !deterministic {
        eprintln!("FAIL: parallel routing diverged from serial");
        std::process::exit(1);
    }

    // The CI speedup floor. Armed only when the floor is measurable:
    // a machine with fewer hardware threads than the gate's thread
    // count has no scaling curve to gate.
    if let Ok(floor) = std::env::var("PATLABOR_MIN_SPEEDUP") {
        let floor: f64 = floor.parse().expect("PATLABOR_MIN_SPEEDUP must be a float");
        if hardware >= GATE_THREADS {
            let measured = runs
                .iter()
                .find(|r| r.threads == GATE_THREADS)
                .map(speedup)
                .expect("gate thread count is inside the sweep");
            println!(
                "speedup gate: {measured:.2}x at {GATE_THREADS} threads (floor {floor:.2}x)"
            );
            if measured < floor {
                eprintln!(
                    "FAIL: speedup {measured:.2}x at {GATE_THREADS} threads \
                     is below the {floor:.2}x floor"
                );
                std::process::exit(1);
            }
        } else {
            println!(
                "speedup gate skipped: {hardware} hardware thread(s) < {GATE_THREADS} \
                 gate threads (cannot measure scaling here)"
            );
        }
    }

    patlabor_bench::paper_note(
        "the paper evaluates all methods multithreaded (footnote 4); this bench \
         measures whether the batch driver scales on the machine at hand",
    );
}
