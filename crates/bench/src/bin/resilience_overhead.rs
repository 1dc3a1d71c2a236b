//! Checkpoint-overhead guard: budgeted vs unbudgeted routing on the
//! BENCH_PR1 workload, written to `BENCH_PR5.json` at the repository
//! root.
//!
//! Arming a per-net deadline threads cooperative cancellation
//! checkpoints through the DW and local-search inner loops. The deadline
//! here is one hour — the checkpoints always run and never fire — so the
//! measured gap is pure checkpoint cost, which this guard holds below
//! 2%. Runs alternate between the two configurations and each takes the
//! minimum of several repetitions, so one scheduler hiccup cannot fake a
//! regression on a shared machine.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use patlabor::{Engine, Net, ResilienceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The BENCH_PR1 workload seed (that ledger's throughput bench is retired;
/// the workload lives on in `workload` below).
const SEED: u64 = 0x7412_0be7;
const REPS: usize = 5;
const OVERHEAD_LIMIT_PCT: f64 = 2.0;

fn workload(count: usize) -> Vec<Net> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let masters: Vec<Net> = (0..64)
        .map(|_| {
            let degree = rng.gen_range(3..=5usize);
            patlabor_netgen::uniform_net(&mut rng, degree, 64)
        })
        .collect();
    (0..count)
        .map(|i| {
            if i % 3 == 0 {
                let master = &masters[rng.gen_range(0..masters.len())];
                let dx = rng.gen_range(0..100_000i64);
                let dy = rng.gen_range(0..100_000i64);
                let swap = rng.gen_bool(0.5);
                let flip_x = rng.gen_bool(0.5);
                let flip_y = rng.gen_bool(0.5);
                master.map_points(|p| {
                    let (mut x, mut y) = (p.x, p.y);
                    if swap {
                        std::mem::swap(&mut x, &mut y);
                    }
                    if flip_x {
                        x = -x;
                    }
                    if flip_y {
                        y = -y;
                    }
                    patlabor::Point::new(x + dx, y + dy)
                })
            } else {
                let degree = rng.gen_range(3..=12);
                let span = if i % 3 == 1 { 24 } else { 10_000 };
                patlabor_netgen::uniform_net(&mut rng, degree, span)
            }
        })
        .collect()
}

fn router(table: &patlabor::LookupTable, budgeted: bool) -> Engine {
    Engine::with_table(table.clone()).with_resilience(ResilienceConfig {
        deadline: budgeted.then(|| Duration::from_secs(3600)),
        ..ResilienceConfig::default()
    })
}

fn measure(table: &patlabor::LookupTable, nets: &[Net], budgeted: bool) -> f64 {
    // A fresh router per run: cold cache, identical for both configs.
    let r = router(table, budgeted);
    let start = Instant::now();
    let results = r.route_batch(nets, 1);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(results.len(), nets.len());
    assert!(results.iter().all(|r| r.is_ok()), "a generous deadline never fails a net");
    std::hint::black_box(&results);
    secs
}

fn main() {
    let count = patlabor_bench::scaled(20_000, 2_000);
    eprintln!("generating {count} nets (BENCH_PR1 workload, seed {SEED:#x}) ...");
    let nets = workload(count);
    let table = patlabor_lut::LutBuilder::new(5).build();

    eprintln!("warmup ...");
    measure(&table, &nets, false);
    measure(&table, &nets, true);

    let mut unbudgeted = f64::INFINITY;
    let mut budgeted = f64::INFINITY;
    for rep in 0..REPS {
        eprintln!("rep {} / {REPS} ...", rep + 1);
        unbudgeted = unbudgeted.min(measure(&table, &nets, false));
        budgeted = budgeted.min(measure(&table, &nets, true));
    }

    let overhead_pct = (budgeted - unbudgeted) / unbudgeted * 100.0;
    let pass = overhead_pct < OVERHEAD_LIMIT_PCT;
    println!(
        "unbudgeted: {:.0} nets/s   budgeted (1h deadline): {:.0} nets/s",
        nets.len() as f64 / unbudgeted,
        nets.len() as f64 / budgeted
    );
    println!(
        "checkpoint overhead: {overhead_pct:+.2}% (limit {OVERHEAD_LIMIT_PCT}%) — {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"resilience_checkpoint_overhead\",");
    let _ = writeln!(json, "  \"workload\": \"BENCH_PR1 (batch_routing_throughput)\",");
    let _ = writeln!(json, "  \"nets\": {count},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"unbudgeted_secs\": {unbudgeted:.4},");
    let _ = writeln!(json, "  \"budgeted_secs\": {budgeted:.4},");
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(json, "  \"limit_pct\": {OVERHEAD_LIMIT_PCT},");
    let _ = writeln!(json, "  \"pass\": {pass},");
    let _ = writeln!(
        json,
        "  \"notes\": \"min-of-{REPS} alternating runs, serial driver, 1h deadline so \
         cancellation checkpoints run but never fire; the gap is pure checkpoint cost\""
    );
    let _ = writeln!(json, "}}");

    // crates/bench → repository root.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR5.json");
    std::fs::write(&path, &json).expect("write BENCH_PR5.json");
    eprintln!("wrote {}", path.display());
    if !pass {
        std::process::exit(1);
    }
}
