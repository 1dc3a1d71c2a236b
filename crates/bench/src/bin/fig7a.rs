//! Figure 7(a): averaged Pareto curves and runtimes on small-degree nets.
//!
//! Curves are normalized by `w(FLUTE)` and `d(CL)` and, following the
//! paper, averaged only over nets where SALT or YSD is non-optimal.

use patlabor::{Engine, LutBuilder};
use patlabor_bench::{
    average_curve, default_grid, paper_note, render_table, scaled, small_degree_comparison,
    Method,
};

fn main() {
    let nets_per_degree = scaled(120, 20);
    let lambda: u8 = std::env::var("PATLABOR_SMALL_LAMBDA")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|l| (4..=7).contains(l))
        .unwrap_or(6);
    println!(
        "Fig 7(a) — averaged Pareto curves, small degrees 4..={lambda} \
         ({nets_per_degree} nets/degree, non-optimal subset)\n"
    );

    let router = Engine::with_table(LutBuilder::new(lambda).build());
    let (stats, curves) =
        small_degree_comparison(&router, 4..=lambda as usize, nets_per_degree, 0xf17a);

    // Pool the non-optimal-net curves across degrees.
    let mut pooled: [Vec<_>; 4] = Default::default();
    for per_degree in curves {
        for (mi, v) in per_degree.into_iter().enumerate() {
            pooled[mi].extend(v);
        }
    }
    let sample_count = pooled[0].len();
    println!("nets in the averaged subset: {sample_count}\n");

    let grid = default_grid();
    let mut rows = Vec::new();
    let averaged: Vec<Vec<f64>> = pooled.iter().map(|p| average_curve(&grid, p)).collect();
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
    let mut totals = [0.0f64; 4];
    for (_, s) in &stats {
        for (mi, t) in s.time.iter().enumerate() {
            totals[mi] += t.as_secs_f64();
        }
    }
    for (mi, m) in Method::ALL.iter().enumerate() {
        time_rows.push(vec![m.name().to_string(), format!("{:.3}s", totals[mi])]);
    }
    println!("{}", render_table(&["method", "total time"], &time_rows));
    if totals[1] > 0.0 {
        println!("PatLabor vs SALT speed: {:.2}x", totals[1] / totals[0].max(1e-9));
    }
    paper_note(
        "paper Fig 7(a) shows PatLabor with the lowest (tightest) curve at every \
         wirelength budget and ~1.35x faster than SALT thanks to the lookup tables. Expect \
         PatLabor's column to lower-bound the others at every grid point.",
    );
}
