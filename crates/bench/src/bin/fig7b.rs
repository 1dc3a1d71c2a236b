//! Figure 7(b): averaged Pareto curves and runtimes on large-degree nets
//! (ICCAD-like degrees 10–50).

use patlabor::{Engine, LutBuilder};
use patlabor_bench::{
    default_grid, normalizers, paper_note, print_fig7_tables, run_method, scaled, Method,
};

fn main() {
    let net_count = scaled(60, 10);
    println!("Fig 7(b) — averaged Pareto curves, large-degree nets ({net_count} nets)\n");

    let router = Engine::with_table(LutBuilder::new(5).build());

    // ICCAD-like large-degree sample: resample until the degree is > 9.
    let suite: Vec<_> = patlabor_netgen::iccad_like_suite(0xf17b, net_count * 12, 50)
        .into_iter()
        .filter(|n| n.degree() > 9)
        .take(net_count)
        .collect();
    println!(
        "degrees: min {}, max {}, count {}\n",
        suite.iter().map(|n| n.degree()).min().unwrap_or(0),
        suite.iter().map(|n| n.degree()).max().unwrap_or(0),
        suite.len()
    );

    let mut pooled: [Vec<_>; 4] = Default::default();
    let mut totals = [0.0f64; 4];
    for net in &suite {
        let norms = normalizers(net);
        for (mi, method) in Method::ALL.iter().enumerate() {
            let run = run_method(*method, net, &router);
            totals[mi] += run.elapsed.as_secs_f64();
            pooled[mi].push((run.set, norms));
        }
    }

    print_fig7_tables(&default_grid(), &pooled, &totals);
    println!(
        "PatLabor/SALT time ratio: {:.2}",
        totals[0] / totals[1].max(1e-9)
    );
    paper_note(
        "paper Fig 7(b) shows PatLabor again with the tightest curves on large-degree \
         nets but ~11.6% slower than SALT (Pareto-set combination overhead), while still \
         much faster than YSD. Expect PatLabor at or below the baselines across the \
         grid and a PatLabor/SALT time ratio around or above 1.",
    );
}
