//! Pareto candidates inside a global router — the application the paper's
//! introduction motivates ("selecting net topologies from a candidate
//! solution set may improve the performance of global routers", §I).
//!
//! Routes the same synthetic design three ways on a capacity-limited gcell
//! grid and compares overflow, wirelength and delay-budget violations:
//!
//! * always the RSMT (single-solution wirelength flow),
//! * always the shortest-path tree (single-solution timing flow),
//! * congestion-aware selection from each net's PatLabor Pareto set.
//!
//! ```sh
//! cargo run --release --example global_routing
//! ```

use patlabor::{Engine, RouterConfig};
use patlabor_groute::{GlobalRouter, GridConfig, RoutingGrid, SelectionStrategy};

fn main() {
    let nets: Vec<_> = patlabor_netgen::iccad_like_suite(77, 160, 16)
        .into_iter()
        .map(|n| n.dedup_pins())
        .collect();
    let router = Engine::with_config(RouterConfig {
        lambda: 5,
        ..RouterConfig::default()
    });

    println!(
        "{} nets on a 12x12 gcell grid (tight capacity), 20% delay slack\n",
        nets.len()
    );
    println!("strategy           overflow   wirelength   budget violations   max usage");
    println!("---------------------------------------------------------------------------");
    for (name, strategy) in [
        ("always RSMT     ", SelectionStrategy::MinWirelength),
        ("always SPT      ", SelectionStrategy::MinDelay),
        ("Pareto selection", SelectionStrategy::CongestionAware { slack: 1.2 }),
    ] {
        let mut grid = RoutingGrid::new(GridConfig::square(12, 10_000, 3));
        let report = GlobalRouter::new(&router, strategy).run(&mut grid, &nets);
        println!(
            "{name}   {:>8}   {:>10}   {:>17}   {:>9}",
            report.overflow, report.wirelength, report.budget_violations, report.max_usage
        );
    }
    println!(
        "\nThe candidate-set strategy meets every delay budget (unlike the RSMT \
         flow) at lower congestion and wirelength than the SPT flow — the \
         per-net flexibility a single-solution router cannot offer."
    );
}
