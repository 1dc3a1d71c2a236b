//! Figure 7(c): averaged Pareto curves on 100 random degree-100 nets.
//!
//! The paper's stress test beyond the benchmark's degree range. The
//! divide-and-conquer YSD substitute is expected to lose badly on
//! wirelength here — the weakness the paper calls out.

use patlabor::{Engine, LutBuilder};
use patlabor_bench::{
    average_curve, normalizers, paper_note, render_table, run_method, scaled, Method,
};
use rand::SeedableRng;

fn main() {
    let net_count = scaled(100, 8);
    let degree = 100usize;
    println!("Fig 7(c) — {net_count} random degree-{degree} nets\n");

    let router = Engine::with_table(LutBuilder::new(5).build());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xf17c);

    let mut pooled: [Vec<_>; 4] = Default::default();
    let mut totals = [0.0f64; 4];
    for _ in 0..net_count {
        let net = patlabor_netgen::uniform_net(&mut rng, degree, 100_000);
        let norms = normalizers(&net);
        for (mi, method) in Method::ALL.iter().enumerate() {
            let run = run_method(*method, &net, &router);
            totals[mi] += run.elapsed.as_secs_f64();
            pooled[mi].push((run.set, norms));
        }
    }

    // Wider grid: degree-100 RSMTs sit far from the delay optimum.
    let grid: Vec<f64> = (0..=12).map(|i| 1.0 + i as f64 * 0.1).collect();
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
    paper_note(
        "paper Fig 7(c): at low wirelength budgets PatLabor matches SALT; at high \
         budgets PatLabor is tighter; YSD's divide-and-conquer performs poorly on \
         wirelength (its curve starts far right / stays high). Expect the same \
         ordering: YSD* clearly worst at w-budgets near 1.0, PatLabor <= SALT at the \
         high-w end.",
    );
}
