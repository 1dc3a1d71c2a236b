//! Table III: ratio of non-optimal nets for small degrees.
//!
//! A method is *non-optimal* on a net when it finds no solution on the
//! true Pareto frontier. PatLabor is 0% by construction (lookup tables);
//! the parameterized baselines miss increasingly often as degree grows.

use patlabor::{Engine, LutBuilder};
use patlabor_bench::{paper_note, render_table, scaled, small_degree_comparison, Method};

fn main() {
    let nets_per_degree = scaled(150, 20);
    let lambda: u8 = std::env::var("PATLABOR_SMALL_LAMBDA")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|l| (4..=7).contains(l))
        .unwrap_or(6);
    println!(
        "Table III — ratio of non-optimal nets, degrees 4..={lambda} \
         ({nets_per_degree} nets/degree)\n"
    );

    let router = Engine::with_table(LutBuilder::new(lambda).build());
    let (stats, _) =
        small_degree_comparison(&router, 4..=lambda as usize, nets_per_degree, 0x7ab1e3);

    let mut rows = Vec::new();
    let mut totals = (0usize, [0usize; 4]);
    for (degree, s) in &stats {
        totals.0 += s.nets;
        let mut row = vec![degree.to_string(), s.nets.to_string()];
        for (mi, _) in Method::ALL.iter().enumerate() {
            totals.1[mi] += s.non_optimal[mi];
            row.push(format!(
                "{:.1}%",
                100.0 * s.non_optimal[mi] as f64 / s.nets as f64
            ));
        }
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_string(), totals.0.to_string()];
    for miss in totals.1 {
        total_row.push(format!("{:.1}%", 100.0 * miss as f64 / totals.0 as f64));
    }
    rows.push(total_row);

    let headers: Vec<&str> = ["n", "#Net"]
        .into_iter()
        .chain(Method::ALL.iter().map(|m| m.name()))
        .collect();
    println!("{}", render_table(&headers, &rows));
    paper_note(
        "paper Table III (904,915 ICCAD-15 nets) has PatLabor at 0.0% for every degree; \
         YSD 0.0/0.3/7.8/23.3/36.0/49.5% and SALT 0.0/0.9/11.9/24.3/34.7/45.4% for \
         degrees 4..9. Expect PatLabor exactly 0%, baselines increasing with degree, \
         degree 4 near 0%.",
    );
}
