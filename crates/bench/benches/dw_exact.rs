//! Pareto-DW scaling: exact per-net frontier cost by degree, and the
//! effect of the pruning lemmas (the paper's §V-A acceleration claims).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use patlabor_dw::{numeric::pareto_frontier, DwConfig};
use patlabor_geom::Net;
use rand::SeedableRng;

fn nets(degree: usize, count: usize) -> Vec<Net> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(degree as u64);
    (0..count)
        .map(|_| patlabor_netgen::uniform_net(&mut rng, degree, 10_000))
        .collect()
}

fn bench_by_degree(c: &mut Criterion) {
    let mut group = c.benchmark_group("dw_exact_by_degree");
    group.sample_size(10);
    for degree in [4usize, 5, 6, 7, 8] {
        let sample = nets(degree, 5);
        group.bench_with_input(BenchmarkId::from_parameter(degree), &sample, |b, sample| {
            b.iter(|| {
                for net in sample {
                    std::hint::black_box(pareto_frontier(net, &DwConfig::default()).len());
                }
            })
        });
    }
    group.finish();
}

fn bench_pruning_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dw_pruning_ablation");
    group.sample_size(10);
    let sample = nets(7, 5);
    let configs = [
        ("all_lemmas", DwConfig::default()),
        ("no_pruning", DwConfig::unpruned()),
        (
            "corner_only",
            DwConfig {
                corner_pruning: true,
                bbox_shortcut: false,
                separator_split: false,
            },
        ),
        (
            "bbox_only",
            DwConfig {
                corner_pruning: false,
                bbox_shortcut: true,
                separator_split: false,
            },
        ),
    ];
    for (name, config) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| {
                for net in &sample {
                    std::hint::black_box(pareto_frontier(net, config).len());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_by_degree, bench_pruning_ablation);
criterion_main!(benches);
