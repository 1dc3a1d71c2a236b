//! The scaling-curve bench: does `route_batch` actually scale, and does
//! the frontier cache pay under real parallelism? Writes `BENCH_PR7.json`
//! at the repository root in the shared `scaling-v1` schema
//! ([`patlabor_bench::scaling`]).
//!
//! What it measures, per thread count 1→N (N = hardware threads), cache
//! on and off:
//! * throughput and speedup against the serial cache-off baseline;
//! * per-worker utilization (busy-ns / elapsed) and its minimum — the
//!   load-balance floor the work-stealing deques are supposed to hold up;
//! * steal counts and lost steal races;
//! * per-shard cache lock contention (failed try-locks).
//!
//! Thread counts above the hardware count are measured only as
//! *oversubscription observations*: they land in a structurally separate
//! JSON array and are never part of the scaling curve (on a single-core
//! container the whole curve is one point — that is the honest answer).
//!
//! Every parallel run is also checked bit-identical to the serial
//! ordering before its numbers are reported.
//!
//! CI gate: set `PATLABOR_MIN_SPEEDUP` (e.g. `3.0`) to make the bench
//! exit nonzero when the cache-off speedup at `PATLABOR_SPEEDUP_THREADS`
//! (default 4) falls below the floor. The gate only arms when the
//! machine has at least that many hardware threads — a 1-core runner
//! cannot measure scaling and must not pretend to.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use patlabor::{CacheConfig, Engine, Net, ParetoSet, RoutingTree};
use patlabor_bench::scaling::ScalingRun;

const SEED: u64 = 0x5ca1_ab1e;

struct Measured {
    run: ScalingRun,
    frontiers: Vec<Option<ParetoSet<RoutingTree>>>,
}

fn router_for(table: &patlabor::LookupTable, cache: bool) -> Engine {
    Engine::with_table(table.clone()).with_cache(if cache {
        CacheConfig::default()
    } else {
        CacheConfig::disabled()
    })
}

fn frontiers(results: Vec<patlabor::RouteResult>) -> Vec<Option<ParetoSet<RoutingTree>>> {
    results
        .into_iter()
        .map(|r| r.ok().map(|o| o.frontier))
        .collect()
}

/// One timed run: fresh router (cold cache), full telemetry.
fn measure(
    table: &patlabor::LookupTable,
    nets: &[Net],
    threads: usize,
    cache: bool,
    serial_nps: f64,
) -> Measured {
    let router = router_for(table, cache);
    let start = Instant::now();
    let (results, stats) = router.route_batch_with_stats(nets, threads);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(results.len(), nets.len());
    let nets_per_sec = nets.len() as f64 / secs;
    let (contended_reads, contended_writes) = router
        .cache_stats()
        .map_or((0, 0), |s| (s.contended_reads, s.contended_writes));
    Measured {
        run: ScalingRun {
            threads,
            cache,
            nets_per_sec,
            cache_hit_rate: router.cache_stats().map_or(0.0, |s| s.hit_rate()),
            speedup_vs_serial: if serial_nps > 0.0 { nets_per_sec / serial_nps } else { 0.0 },
            utilization: Some(stats.utilization()),
            min_worker_utilization: Some(stats.min_worker_utilization()),
            steals: Some(stats.total_steals()),
            failed_steals: Some(stats.total_failed_steals()),
            contended_reads: Some(contended_reads),
            contended_writes: Some(contended_writes),
        },
        frontiers: frontiers(results),
    }
}

fn main() {
    let count = patlabor_bench::scaled(20_000, 400);
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("generating {count} nets (seed {SEED:#x}), hardware threads = {hardware} ...");
    let nets = patlabor_bench::mixed_workload(count, SEED);
    let table = patlabor_lut::LutBuilder::new(5).build();

    // Untimed warmup, then the serial cache-off baseline every speedup
    // is measured against.
    eprintln!("warmup ...");
    let serial = measure(&table, &nets, 1, false, 0.0);
    eprintln!("serial baseline ...");
    let serial = {
        let m = measure(&table, &nets, 1, false, 0.0);
        // Keep the faster of the two serial passes as reference
        // frontiers are identical either way.
        Measured {
            run: ScalingRun {
                speedup_vs_serial: 1.0,
                ..if m.run.nets_per_sec > serial.run.nets_per_sec {
                    m.run.clone()
                } else {
                    serial.run.clone()
                }
            },
            frontiers: m.frontiers,
        }
    };
    let serial_nps = serial.run.nets_per_sec;

    // The scaling sweep: every thread count the machine can genuinely
    // run in parallel, plus fixed oversubscription observations.
    let mut sweep: Vec<usize> = (1..=hardware).collect();
    for extra in [2, 4, 2 * hardware] {
        if extra > hardware && !sweep.contains(&extra) {
            sweep.push(extra);
        }
    }

    let mut runs: Vec<ScalingRun> = Vec::new();
    let mut deterministic = true;
    for cache in [false, true] {
        for &threads in &sweep {
            eprintln!("threads = {threads}, cache = {cache} ...");
            let m = measure(&table, &nets, threads, cache, serial_nps);
            if m.frontiers != serial.frontiers {
                deterministic = false;
                eprintln!("ERROR: threads = {threads}, cache = {cache} diverged from serial");
            }
            runs.push(m.run);
        }
    }

    // The parallel cache verdict, judged at the widest honest thread
    // count: does routing with the cache beat routing without it?
    let widest = hardware;
    let at = |cache: bool| {
        runs.iter()
            .find(|r| r.threads == widest && r.cache == cache)
            .expect("swept")
    };
    let (off, on) = (at(false), at(true));
    let cache_ratio = on.nets_per_sec / off.nets_per_sec;
    let cache_pays = cache_ratio > 1.0;

    println!(
        "{}",
        patlabor_bench::render_table(
            &["threads", "cache", "nets/s", "speedup", "util", "min util", "steals", "contention"],
            &runs
                .iter()
                .map(|r| {
                    vec![
                        format!(
                            "{}{}",
                            r.threads,
                            if r.oversubscribed(hardware) { "*" } else { "" }
                        ),
                        if r.cache { "on" } else { "off" }.to_string(),
                        format!("{:.0}", r.nets_per_sec),
                        format!("{:.2}x", r.speedup_vs_serial),
                        format!("{:.2}", r.utilization.unwrap_or(0.0)),
                        format!("{:.2}", r.min_worker_utilization.unwrap_or(0.0)),
                        r.steals.unwrap_or(0).to_string(),
                        format!(
                            "{}r/{}w",
                            r.contended_reads.unwrap_or(0),
                            r.contended_writes.unwrap_or(0)
                        ),
                    ]
                })
                .collect::<Vec<_>>(),
        )
    );
    if sweep.iter().any(|&t| t > hardware) {
        println!("* oversubscribed (threads > {hardware} hardware threads): not scaling data");
    }
    println!(
        "cache verdict at {widest} thread(s): {} ({:.2}x vs cache-off, hit rate {:.3})",
        if cache_pays { "pays" } else { "costs" },
        cache_ratio,
        on.cache_hit_rate
    );
    println!("deterministic vs serial: {deterministic}");

    let mut extra = String::new();
    let _ = writeln!(
        extra,
        "  \"headline\": {{\"max_honest_threads\": {widest}, \
         \"speedup_cache_off\": {:.4}, \"cache_on_vs_off\": {:.4}, \
         \"cache_pays\": {cache_pays}, \"cache_hit_rate\": {:.4}}},",
        off.speedup_vs_serial, cache_ratio, on.cache_hit_rate
    );
    let _ = writeln!(extra, "  \"deterministic_vs_serial\": {deterministic},");

    let json = patlabor_bench::scaling::render_report(
        &patlabor_bench::scaling::ReportHeader {
            bench: "batch_scaling_curve",
            nets: count,
            seed: SEED,
            hardware_threads: hardware,
            serial_nets_per_sec: serial_nps,
        },
        &runs,
        &extra,
        "scaling_runs is the curve (threads <= hardware_threads); oversubscribed_runs \
         measure scheduler time-slicing and are never scaling data. The cache verdict \
         compares cache-on vs cache-off at the widest honest thread count on this \
         machine.",
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR7.json");
    std::fs::write(&path, &json).expect("write BENCH_PR7.json");
    eprintln!("wrote {}", path.display());

    if !deterministic {
        eprintln!("FAIL: parallel routing diverged from serial");
        std::process::exit(1);
    }

    // The CI speedup floor. Armed only when the floor is measurable:
    // a machine with fewer hardware threads than the gate's thread
    // count has no scaling curve to gate.
    if let Ok(floor) = std::env::var("PATLABOR_MIN_SPEEDUP") {
        let floor: f64 = floor.parse().expect("PATLABOR_MIN_SPEEDUP must be a float");
        let gate_threads: usize = std::env::var("PATLABOR_SPEEDUP_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4);
        if hardware >= gate_threads {
            let measured = runs
                .iter()
                .find(|r| r.threads == gate_threads && !r.cache)
                .map(|r| r.speedup_vs_serial)
                .expect("gate thread count is inside the sweep");
            println!(
                "speedup gate: {measured:.2}x at {gate_threads} threads (floor {floor:.2}x)"
            );
            if measured < floor {
                eprintln!(
                    "FAIL: speedup {measured:.2}x at {gate_threads} threads \
                     is below the {floor:.2}x floor"
                );
                std::process::exit(1);
            }
        } else {
            println!(
                "speedup gate skipped: {hardware} hardware thread(s) < {gate_threads} \
                 gate threads (cannot measure scaling here)"
            );
        }
    }

    patlabor_bench::paper_note(
        "the paper evaluates all methods multithreaded (footnote 4); this bench \
         measures whether the batch driver's work-stealing scales on the machine at hand",
    );
}
