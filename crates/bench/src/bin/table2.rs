//! Table II: lookup-table statistics per degree.
//!
//! `#Index` (stored canonical patterns), `#Topo` (average potentially
//! optimal topologies per pattern), serialized size, and the wall time
//! and throughput (topologies/second — the basis of the paper's "441×
//! faster than FLUTE" comparison) of generating a table. A row's table
//! covers degrees 3..=d, so its time and throughput are that build's and
//! count the topologies of every degree in it; `total:` reports the
//! λ build alone.
//!
//! Measured in release on a 2-core host, the default λ = 6 finishes in
//! about a second and `PATLABOR_TABLE2_LAMBDA=7` in about 32 s; λ = 8 is
//! an offline run.

use std::time::Instant;

use patlabor::LutBuilder;
use patlabor_bench::{paper_note, render_table};

fn main() {
    let lambda: u8 = std::env::var("PATLABOR_TABLE2_LAMBDA")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|l| patlabor_lut::LAMBDAS.contains(l))
        .unwrap_or(6);
    println!("Table II — lookup-table statistics (lambda = {lambda})\n");

    let mut rows = Vec::new();
    let mut total_topos = 0usize;
    let mut total_bytes = 0usize;
    let mut build_secs = 0.0f64;
    // The previous iteration's table is the sub-degree table of this one
    // (builds are deterministic), so its byte length is what this
    // degree's payload sits on top of.
    let mut prev_bytes = 0usize;
    for degree in 4..=lambda {
        let start = Instant::now();
        let table = LutBuilder::new(degree).build();
        build_secs = start.elapsed().as_secs_f64();
        let stats = table.stats();
        let built_topos: usize = stats.iter().map(|s| s.total_topologies).sum();
        let stats = stats
            .into_iter()
            .find(|s| s.degree == degree)
            .expect("degree was generated");
        let mut bytes = Vec::new();
        table.write_to(&mut bytes).expect("in-memory write");
        // Subtract the sub-degree payload so sizes are per degree.
        let degree_bytes = bytes.len().saturating_sub(prev_bytes);
        prev_bytes = bytes.len();
        total_topos += stats.total_topologies;
        total_bytes += degree_bytes;
        rows.push(vec![
            degree.to_string(),
            stats.num_patterns.to_string(),
            format!("{:.2}", stats.avg_topologies),
            format!("{:.1} KiB", degree_bytes as f64 / 1024.0),
            format!("{build_secs:.2}s"),
            format!("{:.0}/s", built_topos as f64 / build_secs.max(1e-9)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["degree", "#Index", "#Topo", "size", "build 3..=d", "throughput"],
            &rows
        )
    );
    println!(
        "total: {total_topos} topologies, {:.1} KiB, {build_secs:.2}s (the lambda = {lambda} build)",
        total_bytes as f64 / 1024.0
    );
    paper_note(
        "paper Table II (lambda = 9, 16 cores): #Index 24/220/1008/5824/46880/429516 for \
         degrees 4..9, avg #Topo 1.67..378, 246 MB total, 4.76 h parallel. Our #Index is \
         smaller (full-D4 orbit canonicalization: 16/89/579/4549 for 4..7) and #Topo \
         differs because we store deduplicated topology sets; the shape to check is \
         super-exponential growth of #Index and #Topo with degree, and throughput far \
         above FLUTE's ~2.1 topologies/s (450k topologies / 58.2 h).",
    );
}
