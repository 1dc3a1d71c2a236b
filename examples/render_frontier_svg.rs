//! Renders every tree of a net's Pareto frontier into one SVG overlay —
//! the visualization behind the paper's Fig. 2 (three Pareto-optimal trees
//! of one net).
//!
//! ```sh
//! cargo run --release --example render_frontier_svg
//! # → writes target/patlabor_frontier.svg
//! ```

use patlabor::{Engine, Net, Point};
use patlabor_tree::{render_trees_svg, SvgOptions};

const PALETTE: [&str; 6] = [
    "#1e88e5", "#d81b60", "#43a047", "#fb8c00", "#8e24aa", "#00897b",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = Net::new(vec![
        Point::new(19, 2), // source
        Point::new(8, 4),
        Point::new(4, 3),
        Point::new(5, 4),
        Point::new(13, 12),
    ])?;
    let router = Engine::new();
    let frontier = router
        .route(&net)
        .expect("every armed rung failed")
        .frontier;

    let trees: Vec<_> = frontier
        .iter()
        .enumerate()
        .map(|(i, (_, t))| (t, PALETTE[i % PALETTE.len()]))
        .collect();
    let svg = render_trees_svg(&net, &trees, &SvgOptions::default());

    let path = std::path::Path::new("target").join("patlabor_frontier.svg");
    std::fs::create_dir_all("target")?;
    std::fs::write(&path, &svg)?;
    println!("frontier of {} trees:", frontier.len());
    for (i, (cost, _)) in frontier.iter().enumerate() {
        println!("  {} → {cost}", PALETTE[i % PALETTE.len()]);
    }
    println!("wrote {}", path.display());
    Ok(())
}
