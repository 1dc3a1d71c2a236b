//! End-to-end routing throughput of PatLabor vs SALT vs PD-II vs the
//! weighted-sum YSD substitute, small and large degrees (the runtime bars
//! of Fig. 7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use patlabor::{Engine, LutBuilder};
use patlabor_baselines::{pd, salt, weighted_sum};
use patlabor_geom::Net;
use rand::SeedableRng;

fn sample_nets(seed: u64, degree: usize, count: usize) -> Vec<Net> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| patlabor_netgen::clustered_net(&mut rng, degree, 10_000, 1 + degree / 12))
        .collect()
}

fn bench_degree(c: &mut Criterion, degree: usize, count: usize, sample_size: usize) {
    let router = Engine::with_table(LutBuilder::new(5).build());
    let nets = sample_nets(degree as u64, degree, count);
    let mut group = c.benchmark_group(format!("routing_degree_{degree}"));
    group.sample_size(sample_size);
    group.throughput(Throughput::Elements(nets.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("patlabor"), |b| {
        b.iter(|| {
            for net in &nets {
                std::hint::black_box(
                    router
                        .route(net)
                        .expect("every armed rung failed")
                        .frontier
                        .len(),
                );
            }
        })
    });
    group.bench_function(BenchmarkId::from_parameter("salt"), |b| {
        b.iter(|| {
            for net in &nets {
                std::hint::black_box(salt::salt_pareto(net, &salt::DEFAULT_EPSILONS).len());
            }
        })
    });
    group.bench_function(BenchmarkId::from_parameter("pd2"), |b| {
        b.iter(|| {
            for net in &nets {
                std::hint::black_box(pd::pd_pareto(net, &pd::DEFAULT_ALPHAS).len());
            }
        })
    });
    group.bench_function(BenchmarkId::from_parameter("weighted_sum"), |b| {
        b.iter(|| {
            for net in &nets {
                std::hint::black_box(
                    weighted_sum::weighted_sum_pareto(net, &weighted_sum::DEFAULT_BETAS).len(),
                );
            }
        })
    });
    group.finish();
}

fn bench_small_degree(c: &mut Criterion) {
    bench_degree(c, 5, 20, 10);
}

fn bench_large_degree(c: &mut Criterion) {
    bench_degree(c, 25, 4, 10);
}

criterion_group!(benches, bench_small_degree, bench_large_degree);
criterion_main!(benches);
