//! Sequential global routing with Pareto-candidate selection.

use patlabor::{Engine, Net, ParetoSet, RoutingTree};

use crate::embed::{embed_tree, EmbeddedNet};
use crate::grid::RoutingGrid;

/// How the router picks one tree from a net's Pareto set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionStrategy {
    /// Always the minimum-wirelength tree (what a FLUTE-only flow does).
    MinWirelength,
    /// Always the minimum-delay tree (shortest-path-tree flow).
    MinDelay,
    /// Congestion-aware: among trees meeting the per-net delay budget
    /// (`slack` × the net's delay lower bound), the one whose embedding is
    /// cheapest under current congestion; falls back to the fastest tree
    /// when nothing meets the budget.
    CongestionAware {
        /// Delay budget multiplier (≥ 1.0), e.g. `1.1` = 10% slack.
        slack: f64,
    },
}

/// Outcome of a [`GlobalRouter::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteReport {
    /// Total gcell-edge overflow after routing.
    pub overflow: u64,
    /// Total tree wirelength (plane units).
    pub wirelength: i64,
    /// Nets whose chosen tree exceeds the delay budget.
    pub budget_violations: usize,
    /// Maximum edge usage.
    pub max_usage: u32,
}

/// A sequential global router with one rip-up-and-reroute pass.
///
/// Per net, candidate trees come from the engine's Pareto set; the
/// [`SelectionStrategy`] decides which candidate is committed. The rip-up
/// pass revisits the nets in congestion order and lets them switch to a
/// different Pareto candidate (the DGR-style candidate-set advantage the
/// paper's introduction argues for).
#[derive(Debug)]
pub struct GlobalRouter<'a> {
    engine: &'a Engine,
    strategy: SelectionStrategy,
}

impl<'a> GlobalRouter<'a> {
    /// Creates a router over a shared routing engine.
    pub fn new(engine: &'a Engine, strategy: SelectionStrategy) -> Self {
        GlobalRouter { engine, strategy }
    }

    /// Routes every net, then runs one rip-up-and-reroute pass, and
    /// reports the final congestion/wirelength/timing metrics.
    pub fn run(&self, grid: &mut RoutingGrid, nets: &[Net]) -> RouteReport {
        let mut chosen: Vec<(RoutingTree, EmbeddedNet)> = Vec::with_capacity(nets.len());
        let frontiers: Vec<ParetoSet<RoutingTree>> = nets
            .iter()
            .map(|n| {
                self.engine
                    .route(n)
                    .expect("an engine with the baseline rung armed serves every net")
                    .frontier
            })
            .collect();

        // First pass: greedy sequential.
        for (net, frontier) in nets.iter().zip(&frontiers) {
            let tree = self.select(grid, net, frontier);
            let embedding = embed_tree(grid, &tree);
            embedding.commit(grid);
            chosen.push((tree, embedding));
        }

        // Rip-up & reroute: revisit nets whose embedding touches overflow.
        let mut order: Vec<usize> = (0..nets.len()).collect();
        order.sort_by_key(|&i| {
            std::cmp::Reverse(
                chosen[i]
                    .1
                    .edges
                    .iter()
                    .map(|&e| grid.overflow(e) as u64)
                    .sum::<u64>(),
            )
        });
        for i in order {
            let touches_overflow = chosen[i]
                .1
                .edges
                .iter()
                .any(|&e| grid.overflow(e) > 0);
            if !touches_overflow {
                continue;
            }
            chosen[i].1.rip_up(grid);
            let tree = self.select(grid, &nets[i], &frontiers[i]);
            let embedding = embed_tree(grid, &tree);
            embedding.commit(grid);
            chosen[i] = (tree, embedding);
        }

        // Report.
        let mut wirelength = 0;
        let mut violations = 0;
        for (net, (tree, _)) in nets.iter().zip(&chosen) {
            wirelength += tree.wirelength();
            if tree.delay() > self.budget(net) {
                violations += 1;
            }
        }
        RouteReport {
            overflow: grid.total_overflow(),
            wirelength,
            budget_violations: violations,
            max_usage: grid.max_usage(),
        }
    }

    fn budget(&self, net: &Net) -> i64 {
        // A single slack is used for both candidate selection and the
        // violation report, so strategies are judged against the same
        // timing constraint.
        let slack = match self.strategy {
            SelectionStrategy::CongestionAware { slack } => slack,
            _ => 1.2,
        };
        (net.delay_lower_bound() as f64 * slack).floor() as i64
    }

    fn select(
        &self,
        grid: &RoutingGrid,
        net: &Net,
        frontier: &ParetoSet<RoutingTree>,
    ) -> RoutingTree {
        match self.strategy {
            SelectionStrategy::MinWirelength => frontier
                .min_wirelength()
                .expect("frontier is never empty")
                .1
                .clone(),
            SelectionStrategy::MinDelay => frontier
                .min_delay()
                .expect("frontier is never empty")
                .1
                .clone(),
            SelectionStrategy::CongestionAware { .. } => {
                let budget = self.budget(net);
                let mut best: Option<(u64, i64, RoutingTree)> = None;
                for (cost, tree) in frontier.iter() {
                    if cost.delay > budget {
                        continue;
                    }
                    let embed_cost = embed_tree(grid, tree).cost(grid);
                    let better = match &best {
                        None => true,
                        Some((bc, bw, _)) => {
                            (embed_cost, cost.wirelength) < (*bc, *bw)
                        }
                    };
                    if better {
                        best = Some((embed_cost, cost.wirelength, tree.clone()));
                    }
                }
                best.map(|(_, _, t)| t).unwrap_or_else(|| {
                    frontier
                        .min_delay()
                        .expect("frontier is never empty")
                        .1
                        .clone()
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use patlabor::LutBuilder;

    fn router() -> Engine {
        Engine::with_table(LutBuilder::new(4).build())
    }

    fn design(seed: u64, count: usize) -> Vec<Net> {
        patlabor_netgen::iccad_like_suite(seed, count, 12)
            .into_iter()
            .map(|n| n.dedup_pins())
            .collect()
    }

    #[test]
    fn all_strategies_produce_reports() {
        let pl = router();
        let nets = design(7, 25);
        for strategy in [
            SelectionStrategy::MinWirelength,
            SelectionStrategy::MinDelay,
            SelectionStrategy::CongestionAware { slack: 1.1 },
        ] {
            let mut grid = RoutingGrid::new(GridConfig::square(10, 10_000, 6));
            let report = GlobalRouter::new(&pl, strategy).run(&mut grid, &nets);
            assert!(report.wirelength > 0);
            assert_eq!(grid.total_overflow(), report.overflow);
        }
    }

    #[test]
    fn min_delay_never_violates_its_own_budget() {
        let pl = router();
        let nets = design(9, 20);
        let mut grid = RoutingGrid::new(GridConfig::square(10, 10_000, 8));
        let report = GlobalRouter::new(&pl, SelectionStrategy::MinDelay).run(&mut grid, &nets);
        assert_eq!(report.budget_violations, 0);
    }

    #[test]
    fn congestion_aware_beats_min_wirelength_on_overflow() {
        let pl = router();
        let nets = design(11, 40);
        // Tight capacity forces congestion.
        let mut grid_w = RoutingGrid::new(GridConfig::square(8, 10_000, 2));
        let w = GlobalRouter::new(&pl, SelectionStrategy::MinWirelength)
            .run(&mut grid_w, &nets);
        let mut grid_c = RoutingGrid::new(GridConfig::square(8, 10_000, 2));
        let c = GlobalRouter::new(&pl, SelectionStrategy::CongestionAware { slack: 1.2 })
            .run(&mut grid_c, &nets);
        assert!(
            c.overflow <= w.overflow,
            "candidate selection should not increase overflow: {c:?} vs {w:?}"
        );
    }

    #[test]
    fn usage_accounting_survives_rip_up_cycles() {
        let pl = router();
        let nets = design(13, 15);
        let mut grid = RoutingGrid::new(GridConfig::square(6, 10_000, 1));
        let _ = GlobalRouter::new(&pl, SelectionStrategy::CongestionAware { slack: 1.3 })
            .run(&mut grid, &nets);
        // Re-running on a fresh grid gives identical results (deterministic).
        let mut grid2 = RoutingGrid::new(GridConfig::square(6, 10_000, 1));
        let a = GlobalRouter::new(&pl, SelectionStrategy::CongestionAware { slack: 1.3 })
            .run(&mut grid2, &nets);
        let mut grid3 = RoutingGrid::new(GridConfig::square(6, 10_000, 1));
        let b = GlobalRouter::new(&pl, SelectionStrategy::CongestionAware { slack: 1.3 })
            .run(&mut grid3, &nets);
        assert_eq!(a, b);
    }
}
