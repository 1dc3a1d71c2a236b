//! Lookup-table generation and query throughput (Table II's time column
//! and the per-net speed advantage behind Fig. 7(a)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use patlabor_lut::LutBuilder;
use rand::SeedableRng;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("lut_generation");
    group.sample_size(10);
    for lambda in [3u8, 4, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(lambda), &lambda, |b, &l| {
            b.iter(|| std::hint::black_box(LutBuilder::new(l).threads(1).build()))
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let table = LutBuilder::new(5).build();
    let mut group = c.benchmark_group("lut_query");
    for degree in [3usize, 4, 5] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(degree as u64);
        let nets: Vec<_> = (0..200)
            .map(|_| patlabor_netgen::uniform_net(&mut rng, degree, 10_000))
            .collect();
        group.throughput(Throughput::Elements(nets.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(degree), &nets, |b, nets| {
            b.iter(|| {
                for net in nets {
                    std::hint::black_box(table.query(net).map(|f| f.len()));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation, bench_query);
criterion_main!(benches);
