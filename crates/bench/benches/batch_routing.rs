//! Criterion bench for the batch-routing driver: thread scaling and the
//! frontier cache on a fixed seeded mixed-degree workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use patlabor::{CacheConfig, Engine, Net, RouterConfig};
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

fn bench_batch_routing(c: &mut Criterion) {
    let nets = sample_nets(500);
    let mut group = c.benchmark_group("batch_routing");
    group.sample_size(10);
    group.throughput(Throughput::Elements(nets.len() as u64));
    for cache in [false, true] {
        let router = Engine::with_config(RouterConfig {
            lambda: 5,
            cache: if cache {
                CacheConfig::default()
            } else {
                CacheConfig::disabled()
            },
            ..RouterConfig::default()
        });
        for threads in [1usize, 2, 4, 8] {
            let label = format!("threads_{threads}_cache_{}", if cache { "on" } else { "off" });
            group.bench_with_input(BenchmarkId::from_parameter(label), &threads, |b, &t| {
                b.iter(|| std::hint::black_box(router.route_batch(&nets, t).len()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batch_routing);
criterion_main!(benches);
