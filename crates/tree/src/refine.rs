//! SALT-style post-processing passes (paper §V-B).
//!
//! After a local-search step rewires a subset of pins, the resulting
//! topology may be locally sub-optimal: Steiner nodes of degree ≤ 2 are
//! useless, and a node may have a much closer attachment point elsewhere in
//! the tree. The two passes here are *safe* rewrites — each accepted change
//! weakly improves the selected objective without worsening the other — so
//! they can be applied to every member of a Pareto set without knocking it
//! off the frontier.
//!
//! Candidate rewrites are scored analytically (O(1) per candidate after an
//! O(n) precomputation per accepted change), so a full pass over a
//! degree-100 net costs a few hundred thousand integer operations rather
//! than rebuilding trees.

use patlabor_geom::{BoundingBox, Point};

use crate::RoutingTree;

/// Which objective a [`reconnect_pass`] tries to improve. The other
/// objective is never allowed to get worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefineObjective {
    /// Reduce total wirelength, keeping delay no worse.
    Wirelength,
    /// Reduce delay, keeping wirelength no worse.
    Delay,
}

/// Which rewrites a reconnection pass may use.
///
/// Node-only moves model PD-II's detour-aware edge swaps; Steiner splits
/// are the stronger SALT-style move set used by PatLabor's
/// post-processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconnectMoves {
    /// Only reattach a node to another existing node.
    NodesOnly,
    /// Also allow splitting a tree edge with a new Steiner point.
    WithSteinerSplits,
}

/// Removes useless Steiner nodes: degree-1 Steiner leaves are dropped and
/// degree-2 Steiner nodes are spliced out (their child reattached to their
/// parent). By the triangle inequality neither rewrite can increase either
/// objective. Runs to fixpoint.
///
/// # Example
///
/// ```
/// use patlabor_geom::{Net, Point};
/// use patlabor_tree::{remove_redundant_steiner, RoutingTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Net::new(vec![Point::new(0, 0), Point::new(4, 0)])?;
/// // A detour through an off-path Steiner point.
/// let tree = RoutingTree::from_edges(&net, &[
///     (Point::new(0, 0), Point::new(2, 3)),
///     (Point::new(2, 3), Point::new(4, 0)),
/// ])?;
/// assert_eq!(tree.wirelength(), 5 + 5);
/// let slim = remove_redundant_steiner(&tree);
/// assert_eq!(slim.wirelength(), 4);
/// # Ok(())
/// # }
/// ```
pub fn remove_redundant_steiner(tree: &RoutingTree) -> RoutingTree {
    let num_pins = tree.num_pins();
    let mut degree = vec![0usize; tree.num_nodes()];
    for v in 1..tree.num_nodes() {
        degree[v] += 1;
        degree[tree.parent(v)] += 1;
    }
    if degree[num_pins..].iter().all(|&d| d > 2) {
        return tree.clone();
    }

    let mut points = tree.points().to_vec();
    let mut parent: Vec<usize> = (0..tree.num_nodes()).map(|v| tree.parent(v)).collect();
    let mut alive = vec![true; points.len()];

    loop {
        degree.fill(0);
        for v in 1..points.len() {
            if alive[v] {
                degree[v] += 1;
                degree[parent[v]] += 1;
            }
        }
        let mut changed = false;
        for v in num_pins..points.len() {
            if !alive[v] {
                continue;
            }
            match degree[v] {
                0 | 1 => {
                    // Isolated or leaf Steiner node: drop it.
                    alive[v] = false;
                    changed = true;
                }
                2 => {
                    // Splice: exactly one child c; reattach c to parent[v].
                    if let Some(c) = (1..points.len())
                        .find(|&c| alive[c] && c != v && parent[c] == v)
                    {
                        parent[c] = parent[v];
                        alive[v] = false;
                        changed = true;
                    }
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    // Compact.
    let keep: Vec<usize> = (0..points.len()).filter(|&v| alive[v]).collect();
    let mut remap = vec![usize::MAX; points.len()];
    for (new, &old) in keep.iter().enumerate() {
        remap[old] = new;
    }
    points = keep.iter().map(|&v| points[v]).collect();
    let parent = keep.iter().map(|&v| remap[parent[v]]).collect();
    RoutingTree::from_parents(points, parent, num_pins)
        .expect("splicing preserves tree structure")
}

/// One greedy reconnection sweep (SALT's "edge substitution") with the
/// full move set.
///
/// For every non-root node `v` (deepest first) the pass considers
/// reattaching `v` to any other tree node or to a Steiner point on any tree
/// edge (the `l₁` projection of `v` onto the edge's bounding box — splitting
/// an edge there never changes its length). The best strictly-improving,
/// non-worsening rewrite per node is applied immediately.
///
/// Returns the refined tree; compare objectives with the input to detect
/// convergence.
pub fn reconnect_pass(tree: &RoutingTree, objective: RefineObjective) -> RoutingTree {
    reconnect_pass_with(tree, objective, ReconnectMoves::WithSteinerSplits)
}

/// Mutable pass state: parents/points plus the derived arrays needed for
/// O(1) candidate scoring. Every array is rebuilt in place after an
/// accepted move, so a pass allocates only while the tree grows.
#[derive(Default)]
struct PassState {
    points: Vec<Point>,
    parent: Vec<usize>,
    num_pins: usize,
    wirelength: i64,
    /// Children in CSR form: node `v`'s are `kids[kid_start[v]..kid_start[v + 1]]`,
    /// in increasing index order.
    kid_start: Vec<usize>,
    kids: Vec<usize>,
    /// Root distance per node.
    dist: Vec<i64>,
    /// Euler-tour interval per node (`tin`, `tout`), for subtree tests.
    tin: Vec<usize>,
    tout: Vec<usize>,
    /// Max root distance over *sink pins* inside each node's subtree
    /// (`i64::MIN` when none).
    sub_pin_max: Vec<i64>,
    /// Prefix/suffix maxima of sink-pin distances in Euler order, for
    /// complement queries.
    prefix: Vec<i64>,
    suffix: Vec<i64>,
    /// Euler order of nodes.
    order: Vec<usize>,
    /// DFS stack: `(node, exiting)`.
    stack: Vec<(usize, bool)>,
}

impl PassState {
    fn new(tree: &RoutingTree) -> PassState {
        let mut state = PassState {
            points: tree.points().to_vec(),
            parent: (0..tree.num_nodes()).map(|v| tree.parent(v)).collect(),
            num_pins: tree.num_pins(),
            ..PassState::default()
        };
        state.recompute();
        state
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn edge_len(&self, v: usize) -> i64 {
        self.points[v].l1(self.points[self.parent[v]])
    }

    fn is_sink(&self, v: usize) -> bool {
        v >= 1 && v < self.num_pins
    }

    /// The root distance of `v` if it is a sink pin, else `i64::MIN`.
    fn pin_dist(&self, v: usize) -> i64 {
        if self.is_sink(v) {
            self.dist[v]
        } else {
            i64::MIN
        }
    }

    /// Rebuilds every derived array in O(n).
    fn recompute(&mut self) {
        let n = self.len();
        // Count children into `kid_start[p + 2]`; after the prefix sum
        // `kid_start[p + 1]` is where `p`'s children start, and filling
        // advances it to where they end, which is where `p + 1`'s start.
        self.kid_start.clear();
        self.kid_start.resize(n + 2, 0);
        self.wirelength = 0;
        for v in 1..n {
            self.kid_start[self.parent[v] + 2] += 1;
            self.wirelength += self.edge_len(v);
        }
        for i in 2..n + 2 {
            self.kid_start[i] += self.kid_start[i - 1];
        }
        self.kids.clear();
        self.kids.resize(n.saturating_sub(1), 0);
        for v in 1..n {
            let slot = &mut self.kid_start[self.parent[v] + 1];
            self.kids[*slot] = v;
            *slot += 1;
        }
        // Iterative DFS for dist + Euler intervals + subtree pin maxima.
        self.dist.clear();
        self.dist.resize(n, 0);
        self.sub_pin_max.clear();
        self.sub_pin_max.resize(n, i64::MIN);
        self.tin.resize(n, 0);
        self.tout.resize(n, 0);
        self.order.clear();
        self.stack.clear();
        self.stack.push((0, false));
        while let Some((v, exiting)) = self.stack.pop() {
            if exiting {
                self.tout[v] = self.order.len() - 1;
                if self.is_sink(v) {
                    self.sub_pin_max[v] = self.sub_pin_max[v].max(self.dist[v]);
                }
                let p = self.parent[v];
                if v != 0 {
                    let up = self.sub_pin_max[v];
                    if up > self.sub_pin_max[p] {
                        self.sub_pin_max[p] = up;
                    }
                }
                continue;
            }
            if v != 0 {
                self.dist[v] = self.dist[self.parent[v]] + self.edge_len(v);
            }
            self.tin[v] = self.order.len();
            self.order.push(v);
            self.stack.push((v, true));
            let kids = &self.kids[self.kid_start[v]..self.kid_start[v + 1]];
            self.stack.extend(kids.iter().map(|&c| (c, false)));
        }
        // Prefix/suffix maxima of sink distances in Euler order.
        self.prefix.clear();
        self.prefix.push(i64::MIN);
        for i in 0..n {
            let d = self.pin_dist(self.order[i]);
            self.prefix.push(self.prefix[i].max(d));
        }
        self.suffix.clear();
        self.suffix.resize(n + 1, i64::MIN);
        for i in (0..n).rev() {
            self.suffix[i] = self.suffix[i + 1].max(self.pin_dist(self.order[i]));
        }
    }

    fn in_subtree(&self, node: usize, root: usize) -> bool {
        self.tin[root] <= self.tin[node] && self.tin[node] <= self.tout[root]
    }

    /// Max sink distance outside `v`'s subtree (`i64::MIN` when none).
    fn complement_pin_max(&self, v: usize) -> i64 {
        self.prefix[self.tin[v]].max(self.suffix[self.tout[v] + 1])
    }

    /// Current delay.
    fn delay(&self) -> i64 {
        self.sub_pin_max[0].max(0)
    }

    /// Objectives after reattaching `v` so that its subtree's root path
    /// starts at `new_base` (the root distance of the attachment point)
    /// with a connecting edge of length `link`.
    fn rewired_objectives(&self, v: usize, link: i64, new_base: i64) -> (i64, i64) {
        let w = self.wirelength - self.edge_len(v) + link;
        let shift = new_base + link - self.dist[v];
        let inside = self.sub_pin_max[v];
        let inside_shifted = if inside == i64::MIN { i64::MIN } else { inside + shift };
        let d = self.complement_pin_max(v).max(inside_shifted).max(0);
        (w, d)
    }
}

/// [`reconnect_pass`] with an explicit move set.
pub fn reconnect_pass_with(
    tree: &RoutingTree,
    objective: RefineObjective,
    moves: ReconnectMoves,
) -> RoutingTree {
    let mut state = PassState::new(&remove_redundant_steiner(tree));

    // Deepest-first order mirrors SALT's DFS refinement (computed once).
    let mut order: Vec<usize> = (1..state.len()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(state.dist[v]));

    for &v in &order {
        let (w0, d0) = (state.wirelength, state.delay());
        let vp = state.points[v];
        // Both objectives demand `w ≤ w0`, so a link longer than the edge
        // it replaces can never be accepted: skip it before any scoring.
        let max_link = state.edge_len(v);

        /// A candidate rewrite: reattach `v` to `parent`, optionally
        /// through a fresh Steiner point splitting edge `(child, parent)`.
        enum Action {
            Node(usize),
            Split { child: usize, at: Point },
        }
        let mut best: Option<(i64, i64, Action)> = None;
        let consider = |w: i64, d: i64, action: Action, best: &mut Option<(i64, i64, Action)>| {
            let improves = match objective {
                RefineObjective::Wirelength => w < w0 && d <= d0,
                RefineObjective::Delay => d < d0 && w <= w0,
            };
            if !improves {
                return;
            }
            let better = match best {
                None => true,
                Some((bw, bd, _)) => match objective {
                    RefineObjective::Wirelength => (w, d) < (*bw, *bd),
                    RefineObjective::Delay => (d, w) < (*bd, *bw),
                },
            };
            if better {
                *best = Some((w, d, action));
            }
        };

        // Candidate 1: reattach to an existing node.
        for u in 0..state.len() {
            let link = vp.l1(state.points[u]);
            if link > max_link || u == state.parent[v] || state.in_subtree(u, v) {
                continue;
            }
            let (w, d) = state.rewired_objectives(v, link, state.dist[u]);
            consider(w, d, Action::Node(u), &mut best);
        }

        // Candidate 2: split an edge (c, p) at the projection of v.
        if moves == ReconnectMoves::WithSteinerSplits {
            for c in 1..state.len() {
                if c == v {
                    continue;
                }
                let p = state.parent[c];
                let bb = BoundingBox::of_points([state.points[c], state.points[p]])
                    .expect("two points");
                let q = bb.project(vp);
                let link = vp.l1(q);
                if link > max_link || state.in_subtree(c, v) || state.in_subtree(p, v) {
                    continue;
                }
                if q == state.points[c] || q == state.points[p] {
                    continue; // covered by node candidates
                }
                // q lies on a monotone c–p route: dist(q) = dist(p) + |p−q|
                // and the split leaves every other path length unchanged.
                let base = state.dist[p] + state.points[p].l1(q);
                let (w, d) = state.rewired_objectives(v, link, base);
                consider(w, d, Action::Split { child: c, at: q }, &mut best);
            }
        }

        if let Some((_, _, action)) = best {
            match action {
                Action::Node(u) => {
                    state.parent[v] = u;
                }
                Action::Split { child, at } => {
                    let p = state.parent[child];
                    state.points.push(at);
                    let q = state.points.len() - 1;
                    state.parent.push(p);
                    state.parent[child] = q;
                    state.parent[v] = q;
                }
            }
            state.recompute();
        }
    }

    let tree = RoutingTree::from_parents(state.points, state.parent, state.num_pins)
        .expect("reconnection preserves acyclicity by subtree checks");
    remove_redundant_steiner(&tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor_geom::{Net, Point};

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn removes_leaf_and_chain_steiner_nodes() {
        let n = net(&[(0, 0), (8, 0)]);
        let t = RoutingTree::from_edges(
            &n,
            &[
                (Point::new(0, 0), Point::new(4, 0)),
                (Point::new(4, 0), Point::new(8, 0)),
                (Point::new(4, 0), Point::new(4, 5)), // dangling stub
            ],
        )
        .unwrap();
        let slim = remove_redundant_steiner(&t);
        assert_eq!(slim.num_nodes(), 2);
        assert_eq!(slim.wirelength(), 8);
        assert_eq!(slim.delay(), 8);
    }

    #[test]
    fn keeps_branching_steiner_nodes() {
        let n = net(&[(0, 0), (4, 2), (4, -2)]);
        let t = RoutingTree::from_edges(
            &n,
            &[
                (Point::new(0, 0), Point::new(4, 0)),
                (Point::new(4, 0), Point::new(4, 2)),
                (Point::new(4, 0), Point::new(4, -2)),
            ],
        )
        .unwrap();
        let slim = remove_redundant_steiner(&t);
        assert_eq!(slim.num_nodes(), 4); // branching Steiner survives
        assert_eq!(slim.wirelength(), 8);
    }

    #[test]
    fn reconnect_shortens_a_detour() {
        // Sink 2 hangs off sink 1 although it is right next to the source.
        let n = net(&[(0, 0), (10, 0), (1, 1)]);
        let t = RoutingTree::from_parents(
            n.pins().to_vec(),
            vec![0, 0, 1],
            3,
        )
        .unwrap();
        assert_eq!(t.wirelength(), 10 + 10);
        let r = reconnect_pass(&t, RefineObjective::Wirelength);
        // Best rewrite splits the horizontal edge at (1, 0) and hangs the
        // sink there: 10 for the trunk plus a unit stub.
        assert_eq!(r.wirelength(), 10 + 1);
        assert!(r.delay() <= t.delay());
    }

    #[test]
    fn reconnect_can_split_an_edge() {
        // Sink 2 lies under the long horizontal edge; optimal attachment is
        // a Steiner split at (5, 0).
        let n = net(&[(0, 0), (10, 0), (5, -3)]);
        let t = RoutingTree::from_parents(n.pins().to_vec(), vec![0, 0, 0], 3).unwrap();
        assert_eq!(t.wirelength(), 10 + 8);
        let r = reconnect_pass(&t, RefineObjective::Wirelength);
        assert_eq!(r.wirelength(), 10 + 3);
        assert!(r.delay() <= t.delay());
        r.validate(&n).unwrap();
    }

    #[test]
    fn nodes_only_moves_never_add_steiner_points() {
        let n = net(&[(0, 0), (10, 0), (5, -3)]);
        let t = RoutingTree::from_parents(n.pins().to_vec(), vec![0, 0, 0], 3).unwrap();
        let r = reconnect_pass_with(&t, RefineObjective::Wirelength, ReconnectMoves::NodesOnly);
        assert!(r.num_nodes() <= t.num_nodes());
        // The split-based w=13 rewrite is out of reach for node-only moves.
        assert!(r.wirelength() >= 13);
    }

    #[test]
    fn delay_mode_never_hurts_wirelength() {
        let n = net(&[(0, 0), (5, 5), (6, 6)]);
        // Chain 0→1→2.
        let t = RoutingTree::from_parents(n.pins().to_vec(), vec![0, 0, 1], 3).unwrap();
        let r = reconnect_pass(&t, RefineObjective::Delay);
        assert!(r.wirelength() <= t.wirelength());
        assert!(r.delay() <= t.delay());
    }

    #[test]
    fn refinement_is_idempotent_on_optimal_trees() {
        let n = net(&[(0, 0), (4, 0), (4, 3)]);
        let t = RoutingTree::from_edges(
            &n,
            &[
                (Point::new(0, 0), Point::new(4, 0)),
                (Point::new(4, 0), Point::new(4, 3)),
            ],
        )
        .unwrap();
        let r = reconnect_pass(&t, RefineObjective::Wirelength);
        assert_eq!(r.objectives(), t.objectives());
    }

    /// The analytic candidate scoring must agree with ground-truth
    /// re-evaluation: after a pass, objectives must never have worsened,
    /// across many random trees.
    #[test]
    fn analytic_scoring_is_safe_on_random_trees() {
        let mut seed = 0x5eedu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for degree in [5usize, 9, 14] {
            for _ in 0..12 {
                let pins: Vec<Point> = (0..degree)
                    .map(|_| Point::new((rng() % 80) as i64, (rng() % 80) as i64))
                    .collect();
                let n = Net::new(pins).unwrap();
                // Random (valid) parent vector: parent[v] < v.
                let parent: Vec<usize> = (0..degree)
                    .map(|v| if v == 0 { 0 } else { (rng() as usize) % v })
                    .collect();
                let t = RoutingTree::from_parents(n.pins().to_vec(), parent, degree).unwrap();
                let (w0, d0) = t.objectives();
                for obj in [RefineObjective::Wirelength, RefineObjective::Delay] {
                    for moves in [ReconnectMoves::NodesOnly, ReconnectMoves::WithSteinerSplits] {
                        let r = reconnect_pass_with(&t, obj, moves);
                        r.validate(&n).unwrap();
                        let (w, d) = r.objectives();
                        assert!(
                            w <= w0 && d <= d0,
                            "pass worsened ({w0},{d0})→({w},{d}) on {:?}",
                            n.pins()
                        );
                    }
                }
            }
        }
    }
}
