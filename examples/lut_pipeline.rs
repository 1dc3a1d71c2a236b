//! The lookup-table production pipeline: generate → save → open → query,
//! with Table II style statistics. Tables are built once offline, saved,
//! and opened zero-copy by every router and daemon that serves them.
//!
//! ```sh
//! cargo run --release --example lut_pipeline
//! ```

use std::time::Instant;

use patlabor::{Engine, LookupTable, LutBuilder, Net, Point};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lambda = 5u8;
    println!("generating lookup tables for degrees 2..={lambda} ...");
    let start = Instant::now();
    let table = LutBuilder::new(lambda).build();
    println!("generated in {:?}\n", start.elapsed());

    println!("degree  #Index  avg #Topo  total topologies  unique (clustered)");
    for stats in table.stats() {
        println!(
            "{:>6}  {:>6}  {:>9.2}  {:>16}  {:>18}",
            stats.degree, stats.num_patterns, stats.avg_topologies,
            stats.total_topologies, stats.unique_topologies
        );
    }

    // Save, then open the file the way `route` and `serve` do: mapped
    // read-only, validated once, arenas borrowed in place.
    let path = std::env::temp_dir().join("patlabor_quickstart.plut");
    table.save(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("\nserialized to {} ({bytes} bytes)", path.display());
    let start = Instant::now();
    let loaded = LookupTable::open_mmap(&path)?;
    println!(
        "opened in {:?} (identical: {})",
        start.elapsed(),
        loaded == table
    );

    // Query throughput: the whole point of the tables.
    let router = Engine::with_table(loaded);
    let net = Net::new(vec![
        Point::new(0, 0),
        Point::new(40, 15),
        Point::new(12, 33),
        Point::new(28, 5),
        Point::new(7, 21),
    ])?;
    let start = Instant::now();
    let mut points = 0usize;
    let rounds = 2_000;
    for _ in 0..rounds {
        points += router.route(&net).expect("every armed rung failed").frontier.len();
    }
    let per_net = start.elapsed() / rounds;
    println!(
        "\nexact frontier per degree-5 net: {per_net:?} ({} points)",
        points / rounds as usize
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
