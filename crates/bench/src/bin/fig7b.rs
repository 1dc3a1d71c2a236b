//! Figure 7(b): averaged Pareto curves and runtimes on large-degree nets
//! (ICCAD-like degrees 10–50).

use patlabor::{Engine, RouterConfig};
use patlabor_bench::{
    average_curve, default_grid, normalizers, paper_note, render_table, run_method, scaled,
    Method,
};

fn main() {
    let net_count = scaled(60, 10);
    println!("Fig 7(b) — averaged Pareto curves, large-degree nets ({net_count} nets)\n");

    let router = Engine::with_config(RouterConfig {
        lambda: 5,
        ..RouterConfig::default()
    });

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

    let grid = default_grid();
    let averaged: Vec<Vec<f64>> = pooled.iter().map(|p| average_curve(&grid, p)).collect();
    let mut rows = Vec::new();
    for (gi, g) in grid.iter().enumerate() {
        let mut row = vec![format!("{g:.2}")];
        for avg in &averaged {
            row.push(format!("{:.4}", avg[gi]));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = ["w/w(FLUTE)"]
        .into_iter()
        .chain(Method::ALL.iter().map(|m| m.name()))
        .collect();
    println!("{}", render_table(&headers, &rows));

    println!("\nclamp-free quality (avg approximation factor vs combined frontier; 1.0 = best):");
    let factors = patlabor_bench::approximation_summary(&pooled);
    let mut q_rows = Vec::new();
    for (mi, m) in Method::ALL.iter().enumerate() {
        q_rows.push(vec![m.name().to_string(), format!("{:.4}", factors[mi])]);
    }
    println!("{}", render_table(&["method", "avg factor"], &q_rows));

    println!("\ntotal runtimes:");
    let mut time_rows = Vec::new();
    for (mi, m) in Method::ALL.iter().enumerate() {
        time_rows.push(vec![m.name().to_string(), format!("{:.3}s", totals[mi])]);
    }
    println!("{}", render_table(&["method", "total time"], &time_rows));
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
