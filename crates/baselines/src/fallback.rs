//! The degradation ladder's last rung: a fast, always-available frontier.
//!
//! When every exact rung of the router's ladder fails (missing table
//! degree, corrupted rows, expired deadline, panicking stage — see
//! DESIGN.md §12), the net is served by this sweep: the wirelength end is
//! an RSMT, the delay end a shortest-path arborescence, and a few
//! Prim–Dijkstra blends fill the middle. Every constructor here is a
//! polynomial heuristic (the costliest, iterated 1-Steiner and
//! Prim–Dijkstra, are `O(n³)`), so the rung completes even for nets whose
//! exact enumeration would blow the budget — approximate by construction,
//! but every returned tree is a valid routing of the net with consistent
//! objectives.

use patlabor_geom::Net;
use patlabor_pareto::{Cost, ParetoSet};
use patlabor_tree::RoutingTree;

use crate::pd::pd2_tree;
use crate::rsma::cl_arborescence;
use crate::rsmt::rsmt_tree;

/// The PD blend factors the fallback sweeps (between the RSMT at the
/// wirelength end and the arborescence at the delay end).
pub const FALLBACK_ALPHAS: [f64; 3] = [0.25, 0.5, 0.75];

/// Routes `net` with every fallback constructor and prunes the results
/// into a Pareto set. Never empty, never panics on a valid [`Net`], and
/// deterministic — the same net always yields the same frontier.
pub fn fallback_frontier(net: &Net) -> ParetoSet<RoutingTree> {
    let mut entries: Vec<(Cost, RoutingTree)> = Vec::with_capacity(2 + FALLBACK_ALPHAS.len());
    let mut push = |tree: RoutingTree| {
        let (w, d) = tree.objectives();
        entries.push((Cost::new(w, d), tree));
    };
    push(rsmt_tree(net));
    push(cl_arborescence(net));
    for alpha in FALLBACK_ALPHAS {
        push(pd2_tree(net, alpha));
    }
    ParetoSet::from_unpruned(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor_geom::Point;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn fallback_is_valid_consistent_and_nonempty() {
        let nets = [
            net(&[(0, 0), (7, 3)]),
            net(&[(0, 0), (4, 2), (2, 4)]),
            net(&[(19, 2), (8, 4), (4, 3), (5, 4), (13, 12)]),
            net(&[(3, 3), (0, 7), (7, 0), (9, 9), (1, 1), (8, 2), (2, 8), (5, 5)]),
        ];
        for n in &nets {
            let frontier = fallback_frontier(n);
            assert!(!frontier.is_empty());
            for (c, t) in frontier.iter() {
                t.validate(n).unwrap();
                assert_eq!((c.wirelength, c.delay), t.objectives());
            }
        }
    }

    #[test]
    fn fallback_points_are_mutually_non_dominated() {
        let n = net(&[(0, 0), (12, 1), (3, 9), (10, 10), (1, 6), (7, 4)]);
        let costs = fallback_frontier(&n).cost_vec();
        for (i, a) in costs.iter().enumerate() {
            for (j, b) in costs.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert!(
                    !(a.wirelength <= b.wirelength && a.delay <= b.delay),
                    "{a:?} dominates {b:?}"
                );
            }
        }
    }

    #[test]
    fn fallback_is_deterministic() {
        let n = net(&[(5, 5), (0, 9), (9, 0), (14, 7), (2, 13)]);
        assert_eq!(fallback_frontier(&n), fallback_frontier(&n));
    }

    #[test]
    fn fallback_ends_hit_the_standard_bounds() {
        let n = net(&[(0, 0), (9, 1), (2, 8), (11, 10)]);
        let frontier = fallback_frontier(&n);
        // The delay end is an arborescence: every path shortest.
        let (d_end, _) = frontier.min_delay().unwrap();
        assert_eq!(d_end.delay, n.delay_lower_bound());
        // The wirelength end is no worse than the plain RSMT.
        let (w_end, _) = frontier.min_wirelength().unwrap();
        assert!(w_end.wirelength <= rsmt_tree(&n).objectives().0);
    }
}
