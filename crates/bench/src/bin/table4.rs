//! Table IV: total number of Pareto-optimal solutions found per method.
//!
//! For every net the true frontier is computed exactly; a method scores a
//! point for every frontier solution whose `(w, d)` pair its output
//! contains. PatLabor recovers all of them by construction.

use patlabor::{Engine, RouterConfig};
use patlabor_bench::{paper_note, render_table, scaled, small_degree_comparison, Method};

fn main() {
    let nets_per_degree = scaled(150, 20);
    let lambda: u8 = std::env::var("PATLABOR_SMALL_LAMBDA")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|l| (4..=7).contains(l))
        .unwrap_or(6);
    println!(
        "Table IV — Pareto-optimal solutions found, degrees 4..={lambda} \
         ({nets_per_degree} nets/degree)\n"
    );

    let router = Engine::with_config(RouterConfig {
        lambda,
        ..RouterConfig::default()
    });
    let (stats, _) =
        small_degree_comparison(&router, 4..=lambda as usize, nets_per_degree, 0x7ab1e4);

    let mut rows = Vec::new();
    let mut frontier_total = 0usize;
    let mut found_total = [0usize; 4];
    for (degree, s) in &stats {
        frontier_total += s.frontier_total;
        let mut row = vec![degree.to_string(), s.frontier_total.to_string()];
        for (mi, _) in Method::ALL.iter().enumerate() {
            found_total[mi] += s.found[mi];
            row.push(s.found[mi].to_string());
        }
        rows.push(row);
    }
    let mut ratio_row = vec!["Total ratio".to_string(), "1.000".to_string()];
    for f in found_total {
        ratio_row.push(format!("{:.3}", f as f64 / frontier_total.max(1) as f64));
    }
    rows.push(ratio_row);

    let headers: Vec<&str> = ["n", "frontier"]
        .into_iter()
        .chain(Method::ALL.iter().map(|m| m.name()))
        .collect();
    println!("{}", render_table(&headers, &rows));
    paper_note(
        "paper Table IV (1,126,519 frontier solutions) has PatLabor find all (ratio 1.0), \
         YSD 0.898, SALT 0.893, with the gap widening with degree (at n = 9 YSD misses \
         60,382 of 132,487). Expect PatLabor ratio exactly 1.0 and the baselines \
         strictly below, decreasing with degree.",
    );
}
