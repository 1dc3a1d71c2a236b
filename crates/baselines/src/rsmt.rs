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
    let (parent, _) = prim(net.pins());
    RoutingTree::from_parents(net.pins().to_vec(), parent, net.degree())
        .expect("Prim produces a tree")
}

/// Prim's rectilinear MST over `pts`, rooted at `pts[0]`, in `O(n²)`.
///
/// Returns each node's parent and the order in which the nodes joined the
/// tree: the root first, every parent before its children. Ties go to the
/// lower `(distance, index)`.
fn prim(pts: &[Point]) -> (Vec<usize>, Vec<usize>) {
    let n = pts.len();
    let mut in_tree = vec![false; n];
    let mut best = vec![i64::MAX; n];
    let mut best_parent = vec![0usize; n];
    in_tree[0] = true;
    for v in 1..n {
        best[v] = pts[v].l1(pts[0]);
    }
    let mut parent = vec![0usize; n];
    let mut joined = Vec::with_capacity(n);
    joined.push(0);
    for _ in 1..n {
        let v = (1..n)
            .filter(|&v| !in_tree[v])
            .min_by_key(|&v| (best[v], v))
            .expect("some node is outside the tree");
        in_tree[v] = true;
        parent[v] = best_parent[v];
        joined.push(v);
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
    (parent, joined)
}

/// One round of iterated 1-Steiner: the MST of the current points, laid
/// out for Chin–Houck vertex insertion.
///
/// The MST of `P ∪ {c}` uses only the `n − 1` edges of the MST of `P` and
/// the `n` edges from `c`, so its cost follows from one children-first
/// sweep over this tree in `O(n)` instead of a fresh `O(n²)` Prim.
struct MstRound {
    parent: Vec<usize>,
    /// `edge[v]` is the length of the edge from `v` to its parent.
    edge: Vec<i64>,
    /// Prim's join order: every parent before its children.
    joined: Vec<usize>,
    /// The MST's cost.
    cost: i64,
}

impl MstRound {
    fn new(pts: &[Point]) -> MstRound {
        let (parent, joined) = prim(pts);
        let edge: Vec<i64> = pts
            .iter()
            .zip(&parent)
            .map(|(p, &u)| p.l1(pts[u]))
            .collect();
        let cost = edge.iter().sum();
        MstRound {
            parent,
            edge,
            joined,
            cost,
        }
    }

    /// The Hanan crossings of MST-adjacent points that are not points
    /// already, sorted and deduplicated.
    fn candidates(&self, pts: &[Point]) -> Vec<Point> {
        let mut candidates = Vec::new();
        for (&a, &u) in pts.iter().zip(&self.parent).skip(1) {
            let b = pts[u];
            for c in [Point::new(a.x, b.y), Point::new(b.x, a.y)] {
                if !pts.contains(&c) {
                    candidates.push(c);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }

    /// The cost of the MST of `pts ∪ {c}`, in `O(n)`; `m` is scratch.
    ///
    /// `m[v]` starts as the length of `c`'s edge to `v` and ends as the
    /// longest edge still uncounted on the new tree's path from `v`'s
    /// subtree to `c`. Folding child `w` into its parent `r` puts the
    /// cycle `r – w ⇝ c ⇝ r` into the graph; the longest of `m[r]`,
    /// `m[w]` and `edge[w]` leaves it, the shortest of `m[w]` and
    /// `edge[w]` stays for good, and the survivor of the other two becomes
    /// `r`'s uncounted edge.
    fn cost_with(&self, pts: &[Point], c: Point, m: &mut Vec<i64>) -> i64 {
        m.clear();
        m.extend(pts.iter().map(|p| c.l1(*p)));
        let mut cost = 0;
        for &w in self.joined[1..].iter().rev() {
            let (r, e) = (self.parent[w], self.edge[w]);
            cost += m[w].min(e);
            m[r] = m[r].min(m[w].max(e));
        }
        cost + m[0]
    }

    /// The candidate that shrinks the MST the most (the first in sorted
    /// order on ties), or `None` when none shrinks it.
    fn best_insertion(&self, pts: &[Point]) -> Option<Point> {
        let mut m = Vec::with_capacity(pts.len());
        let mut best: Option<(i64, Point)> = None;
        for c in self.candidates(pts) {
            let cost = self.cost_with(pts, c, &mut m);
            if cost < self.cost && best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, c));
            }
        }
        best.map(|(_, c)| c)
    }
}

/// Kahng–Robins iterated 1-Steiner.
///
/// Candidate Steiner points are the Hanan crossings of tree-adjacent node
/// pairs, at most two per MST edge rather than the whole Hanan grid. The
/// candidate with the largest MST gain is inserted and the process repeats
/// until no candidate gains. A round costs one `O(n²)` Prim plus an
/// `O(n)` insertion per candidate, so `O(n²)`; with up to `O(n)` rounds
/// the whole run is `O(n³)`.
pub fn iterated_one_steiner(net: &Net) -> RoutingTree {
    let mut pts: Vec<Point> = net.pins().to_vec();
    loop {
        let round = MstRound::new(&pts);
        match round.best_insertion(&pts) {
            Some(c) => pts.push(c),
            None => {
                let tree = RoutingTree::from_parents(pts, round.parent, net.degree())
                    .expect("Prim produces a tree");
                return remove_redundant_steiner(&tree);
            }
        }
    }
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

    /// MST wirelength over an explicit point set by a fresh `O(n²)` Prim:
    /// the reference [`MstRound::cost_with`] must equal.
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

    #[test]
    fn insertion_cost_matches_a_fresh_prim_for_every_candidate() {
        let mut seed = 0x1_57e1u64;
        let mut rng = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound) as i64
        };
        let mut nets = Vec::new();
        for degree in 2..=40usize {
            for span in [8, 10_000] {
                for _ in 0..2 {
                    let pins = (0..degree)
                        .map(|_| Point::new(rng(span), rng(span)))
                        .collect();
                    nets.push(Net::new(pins).unwrap());
                }
            }
            // Collinear pins, repeating once the degree passes 23.
            let pins = (0..degree as i64)
                .map(|i| Point::new(i * 7 % 23, 3))
                .collect();
            nets.push(Net::new(pins).unwrap());
            // Every pin doubled, the source included.
            let half: Vec<Point> = (0..degree.div_ceil(2))
                .map(|_| Point::new(rng(10_000), rng(10_000)))
                .collect();
            let pins = half.iter().chain(&half).copied().take(degree).collect();
            nets.push(Net::new(pins).unwrap());
        }
        let mut m = Vec::new();
        let mut checked = 0;
        for net in &nets {
            let mut pts = net.pins().to_vec();
            loop {
                let round = MstRound::new(&pts);
                assert_eq!(round.cost, mst_cost(&pts));
                for c in round.candidates(&pts) {
                    let trial: Vec<Point> = pts.iter().copied().chain([c]).collect();
                    assert_eq!(
                        round.cost_with(&pts, c, &mut m),
                        mst_cost(&trial),
                        "inserting {c:?} into {pts:?}"
                    );
                    checked += 1;
                }
                match round.best_insertion(&pts) {
                    Some(c) => pts.push(c),
                    None => break,
                }
            }
        }
        assert!(checked > 10_000, "only {checked} candidates checked");
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
