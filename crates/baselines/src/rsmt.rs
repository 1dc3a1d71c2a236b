//! Rectilinear Steiner minimum trees — the FLUTE substitute.
//!
//! Three levels of effort:
//!
//! * [`prim_mst`] — the rectilinear MST (no Steiner points), the classic
//!   3/2-approximation and the seed for everything else;
//! * [`iterated_one_steiner`] — Kahng–Robins iterated 1-Steiner: greedily
//!   insert the Hanan candidate with the best MST gain until dry.
//!   [`rsmt_tree`], the FLUTE substitute, runs it at every degree;
//! * [`exact_rsmt`] — the exact RSMT (numeric Pareto-DW, wirelength end),
//!   for degrees up to [`EXACT_RSMT_MAX_DEGREE`].

use patlabor_dw::{numeric, DwConfig};
use patlabor_geom::{Net, Point};
use patlabor_tree::{remove_redundant_steiner, RoutingTree};

/// Largest degree [`exact_rsmt`] accepts.
pub const EXACT_RSMT_MAX_DEGREE: usize = 7;

/// Rectilinear minimum spanning tree over the pins, rooted at the source.
///
/// Runs Prim in `O(n²)`.
pub fn prim_mst(net: &Net) -> RoutingTree {
    let pts = net.pins();
    let n = pts.len();
    let mut in_tree = vec![false; n];
    let mut best_dist = vec![i64::MAX; n];
    let mut best_parent = vec![0usize; n];
    in_tree[0] = true;
    for v in 1..n {
        best_dist[v] = pts[v].l1(pts[0]);
    }
    let mut parent = vec![0usize; n];
    for _ in 1..n {
        let v = (0..n)
            .filter(|&v| !in_tree[v])
            .min_by_key(|&v| (best_dist[v], v))
            .expect("some node is outside the tree");
        in_tree[v] = true;
        parent[v] = best_parent[v];
        for u in 1..n {
            if !in_tree[u] {
                let d = pts[u].l1(pts[v]);
                if d < best_dist[u] {
                    best_dist[u] = d;
                    best_parent[u] = v;
                }
            }
        }
    }
    RoutingTree::from_parents(pts.to_vec(), parent, n).expect("Prim produces a tree")
}

/// MST wirelength over an explicit point set (first point is the root).
fn mst_cost(pts: &[Point]) -> i64 {
    let n = pts.len();
    let mut in_tree = vec![false; n];
    let mut best = vec![i64::MAX; n];
    in_tree[0] = true;
    for v in 1..n {
        best[v] = pts[v].l1(pts[0]);
    }
    let mut total = 0;
    for _ in 1..n {
        let v = (1..n)
            .filter(|&v| !in_tree[v])
            .min_by_key(|&v| best[v])
            .expect("some node is outside the tree");
        in_tree[v] = true;
        total += best[v];
        for u in 1..n {
            if !in_tree[u] {
                best[u] = best[u].min(pts[u].l1(pts[v]));
            }
        }
    }
    total
}

/// Kahng–Robins iterated 1-Steiner.
///
/// Candidate Steiner points are the Hanan crossings of tree-adjacent node
/// pairs (a practical restriction that keeps each round linear in tree
/// size); the candidate with the largest MST gain is inserted and the
/// process repeats until no candidate gains.
pub fn iterated_one_steiner(net: &Net) -> RoutingTree {
    let mut pts: Vec<Point> = net.pins().to_vec();
    let num_pins = net.degree();
    loop {
        let base = mst_cost(&pts);
        // Candidates from current MST adjacencies.
        let tree = mst_over(&pts, num_pins);
        let mut candidates: Vec<Point> = Vec::new();
        for (v, p) in tree.edges() {
            let a = tree.point(v);
            let b = tree.point(p);
            for c in [Point::new(a.x, b.y), Point::new(b.x, a.y)] {
                if !pts.contains(&c) {
                    candidates.push(c);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut best: Option<(i64, Point)> = None;
        for c in candidates {
            let mut trial = pts.clone();
            trial.push(c);
            let cost = mst_cost(&trial);
            if cost < base && best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, c));
            }
        }
        match best {
            Some((_, c)) => pts.push(c),
            None => break,
        }
    }
    remove_redundant_steiner(&mst_over(&pts, num_pins))
}

/// Prim MST over pins + chosen Steiner points, as a [`RoutingTree`].
fn mst_over(pts: &[Point], num_pins: usize) -> RoutingTree {
    let n = pts.len();
    let mut in_tree = vec![false; n];
    let mut best = vec![i64::MAX; n];
    let mut best_parent = vec![0usize; n];
    in_tree[0] = true;
    for v in 1..n {
        best[v] = pts[v].l1(pts[0]);
    }
    let mut parent = vec![0usize; n];
    for _ in 1..n {
        let v = (1..n)
            .filter(|&v| !in_tree[v])
            .min_by_key(|&v| (best[v], v))
            .expect("some node is outside the tree");
        in_tree[v] = true;
        parent[v] = best_parent[v];
        for u in 1..n {
            if !in_tree[u] {
                let d = pts[u].l1(pts[v]);
                if d < best[u] {
                    best[u] = d;
                    best_parent[u] = v;
                }
            }
        }
    }
    RoutingTree::from_parents(pts.to_vec(), parent, num_pins).expect("Prim produces a tree")
}

/// The FLUTE-substitute: a near-minimal Steiner tree via iterated
/// 1-Steiner, **delay-agnostic** like the real FLUTE.
///
/// Deliberately *not* routed through the exact Pareto-DW: FLUTE returns
/// one wirelength-driven topology with arbitrary delay, and reproducing
/// that behaviour matters — the paper's Table III hinges on baselines
/// seeded from such trees missing the Pareto frontier. Use [`exact_rsmt`]
/// when the true minimum (with the best delay among RSMTs) is wanted.
pub fn rsmt_tree(net: &Net) -> RoutingTree {
    iterated_one_steiner(net)
}

/// The exact RSMT — the wirelength end of the exact Pareto frontier
/// (which, among all minimum-wirelength trees, is the one with the least
/// delay).
///
/// # Panics
///
/// Panics if the degree exceeds [`EXACT_RSMT_MAX_DEGREE`].
pub fn exact_rsmt(net: &Net) -> RoutingTree {
    assert!(
        net.degree() <= EXACT_RSMT_MAX_DEGREE,
        "exact RSMT supports degree <= {EXACT_RSMT_MAX_DEGREE}"
    );
    let frontier = numeric::pareto_frontier(net, &DwConfig::default());
    let (_, tree) = frontier.min_wirelength().expect("frontier is never empty");
    tree.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn mst_of_three_collinear_pins() {
        let t = prim_mst(&net(&[(0, 0), (5, 0), (9, 0)]));
        assert_eq!(t.wirelength(), 9);
    }

    #[test]
    fn one_steiner_beats_mst_on_a_cross() {
        let n = net(&[(0, 0), (4, 2), (2, 4)]);
        let mst = prim_mst(&n);
        let ios = iterated_one_steiner(&n);
        assert!(ios.wirelength() < mst.wirelength());
        assert_eq!(ios.wirelength(), 8); // exact RSMT for this instance
        ios.validate(&n).unwrap();
    }

    #[test]
    fn exact_rsmt_matches_dw() {
        let n = net(&[(1, 8), (0, 0), (8, 2), (9, 9), (4, 5)]);
        let t = exact_rsmt(&n);
        let f = numeric::pareto_frontier(&n, &DwConfig::default());
        assert_eq!(t.wirelength(), f.min_wirelength().unwrap().0.wirelength);
        // The FLUTE-substitute heuristic may only ever be >= the exact one.
        assert!(rsmt_tree(&n).wirelength() >= t.wirelength());
    }

    #[test]
    fn heuristic_is_close_to_exact_on_random_small_nets() {
        let mut seed = 42u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut total_exact = 0i64;
        let mut total_heur = 0i64;
        for _ in 0..30 {
            let pins: Vec<Point> = (0..6)
                .map(|_| Point::new((rng() % 40) as i64, (rng() % 40) as i64))
                .collect();
            let n = Net::new(pins).unwrap();
            let exact = numeric::pareto_frontier(&n, &DwConfig::default())
                .min_wirelength()
                .unwrap()
                .0
                .wirelength;
            let heur = iterated_one_steiner(&n).wirelength();
            assert!(heur >= exact);
            total_exact += exact;
            total_heur += heur;
        }
        // Iterated 1-Steiner is typically within a couple of percent.
        assert!(
            (total_heur as f64) <= total_exact as f64 * 1.05,
            "1-Steiner too weak: {total_heur} vs exact {total_exact}"
        );
    }

    #[test]
    fn large_degree_path_is_valid() {
        let mut seed = 7u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let pins: Vec<Point> = (0..20)
            .map(|_| Point::new((rng() % 100) as i64, (rng() % 100) as i64))
            .collect();
        let n = Net::new(pins).unwrap();
        let t = rsmt_tree(&n);
        t.validate(&n).unwrap();
        assert!(t.wirelength() <= prim_mst(&n).wirelength());
    }
}
