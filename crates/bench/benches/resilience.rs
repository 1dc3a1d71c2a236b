//! Criterion bench for the resilience layer: the cost of arming a
//! per-net deadline (cooperative cancellation checkpoints in the DW and
//! local-search inner loops) against the same routing with no budget.
//!
//! The deadline is generous — one hour — so the checkpoints always run
//! and never fire: the comparison isolates pure checkpoint overhead.
//! Compare the `budgeted` and `unbudgeted` rows of one run; the design
//! keeps the gap below 2% (DESIGN.md §12). Nothing gates it.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use patlabor::{Engine, Net, ResilienceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_nets(count: usize) -> Vec<Net> {
    let mut rng = StdRng::seed_from_u64(0xba7c4);
    (0..count)
        .map(|i| {
            let degree = rng.gen_range(3..=8);
            let span = [24, 60, 10_000][i % 3];
            patlabor_netgen::uniform_net(&mut rng, degree, span)
        })
        .collect()
}

fn bench_resilience(c: &mut Criterion) {
    let nets = sample_nets(300);
    let table = patlabor_lut::LutBuilder::new(5).build();
    let mut group = c.benchmark_group("resilience");
    group.sample_size(10);
    group.throughput(Throughput::Elements(nets.len() as u64));
    for budgeted in [false, true] {
        let router = Engine::with_table(table.clone()).with_resilience(ResilienceConfig {
            deadline: budgeted.then(|| Duration::from_secs(3600)),
            ..ResilienceConfig::default()
        });
        let label = if budgeted { "budgeted" } else { "unbudgeted" };
        group.bench_function(BenchmarkId::new("route_batch", label), |b| {
            b.iter(|| {
                let results = router.route_batch(&nets, 1);
                assert_eq!(results.len(), nets.len());
                std::hint::black_box(results)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_resilience);
criterion_main!(benches);
