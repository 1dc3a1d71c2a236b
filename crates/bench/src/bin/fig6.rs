//! Figure 6: maximum Pareto-frontier size per degree, with a linear fit.
//!
//! The paper measures, over the ICCAD-15 nets of each degree `n ≤ 9`, the
//! maximum frontier size, and fits `y = 2.85x − 10.9`. We regenerate the
//! statistic on the ICCAD-like synthetic suite (exact frontiers from the
//! Pareto-DW / lookup tables).

use patlabor::{Engine, RouterConfig};
use patlabor_bench::{exact_frontier, linear_fit, paper_note, render_table, scaled};

fn main() {
    let nets_per_degree = scaled(300, 30);
    let max_degree: usize = std::env::var("PATLABOR_FIG6_MAX_DEGREE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    println!("Fig 6 — max Pareto frontier size per degree ({nets_per_degree} nets/degree)\n");

    let router = Engine::with_config(RouterConfig {
        lambda: 6,
        ..RouterConfig::default()
    });

    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut rows = Vec::new();
    let mut seed = 0x0f16_6000u64;
    for degree in 4..=max_degree {
        let mut max_size = 0usize;
        let mut total = 0usize;
        for i in 0..nets_per_degree {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64 + 1);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let net =
                patlabor_netgen::clustered_net(&mut rng, degree, 10_000, 1 + degree / 12);
            let f = exact_frontier(&net, &router);
            max_size = max_size.max(f.len());
            total += f.len();
        }
        xs.push(degree as f64);
        ys.push(max_size as f64);
        rows.push(vec![
            degree.to_string(),
            max_size.to_string(),
            format!("{:.2}", total as f64 / nets_per_degree as f64),
        ]);
    }
    println!(
        "{}",
        render_table(&["degree", "max |F|", "avg |F|"], &rows)
    );
    let (a, b) = linear_fit(&xs, &ys);
    println!("linear fit: y = {a:.2}·x + {b:.2}");
    paper_note(
        "paper (ICCAD-15, n<=9): max |F| grows roughly linearly, fit y = 2.85x - 10.9, \
         max |F| = 16 at n = 9. Expect the same shape: linear growth, single-digit \
         slope, max far below the exponential worst case.",
    );
}
