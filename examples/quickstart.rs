//! Quickstart: route one net, inspect its Pareto frontier, and pick a
//! tree — the Fig. 1 / Fig. 2 workflow of the paper.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use patlabor::{Engine, Net, Point, RouteSource};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A degree-5 net with a genuine wirelength/delay tradeoff.
    let net = Net::new(vec![
        Point::new(19, 2), // source
        Point::new(8, 4),
        Point::new(4, 3),
        Point::new(5, 4),
        Point::new(13, 12),
    ])?;

    // Building the router generates lookup tables for degrees 2..=5;
    // do this once and route millions of nets.
    let router = Engine::new();
    let outcome = router.route(&net)?;
    assert_eq!(outcome.provenance.source, RouteSource::ExactLut);
    let frontier = outcome.frontier;

    println!(
        "net degree {}, answered via {}, Pareto frontier:",
        net.degree(),
        outcome.provenance.source,
    );
    for (i, (cost, tree)) in frontier.iter().enumerate() {
        println!(
            "  #{i}: wirelength {:>4}   delay {:>4}   ({} Steiner points)",
            cost.wirelength,
            cost.delay,
            tree.num_nodes() - net.degree(),
        );
    }

    // Downstream flows pick per net: e.g. the lightest tree meeting a
    // delay budget.
    let budget = net.delay_lower_bound() + 1;
    let pick = frontier
        .iter()
        .find(|(c, _)| c.delay <= budget)
        .map(|(c, _)| c)
        .unwrap_or_else(|| frontier.min_delay().expect("non-empty frontier").0);
    println!("\nlightest tree with delay <= {budget}: {pick}");

    // Every frontier point carries a witness tree; print one.
    let (_, tree) = frontier.min_wirelength().expect("non-empty frontier");
    println!("\nwirelength-optimal tree edges:");
    for (a, b) in tree.edge_points() {
        println!("  {a} -- {b}");
    }
    Ok(())
}
