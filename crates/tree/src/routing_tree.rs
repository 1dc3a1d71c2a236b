//! The core tree data structure.

use std::collections::HashMap;
use std::fmt;

use patlabor_geom::{Net, Point};

/// A rooted Steiner routing tree for a net.
///
/// Nodes `0 .. num_pins` are the net's pins in net order (node 0 is the
/// source and the root); any further nodes are Steiner points. Every
/// non-root node has exactly one parent; edge lengths are rectilinear.
///
/// The structure is immutable from the outside; algorithms build new trees
/// through [`RoutingTree::from_edges`], [`RoutingTree::from_parents`], or
/// the rewriting passes in [`crate::reconnect_pass_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTree {
    points: Vec<Point>,
    /// `parent[v]` for `v > 0`; `parent[0]` is unused (stored as 0).
    parent: Vec<usize>,
    num_pins: usize,
}

/// Error returned when a proposed tree does not span the net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidTreeError {
    /// A pin is not connected to the source through the edge set.
    DisconnectedPin {
        /// Index of the offending pin in the net's pin list.
        pin: usize,
    },
    /// The edge set contains a cycle reachable from the source.
    CyclicEdges,
    /// A parent index was out of range or self-referential.
    MalformedParent {
        /// The offending node index.
        node: usize,
    },
}

impl fmt::Display for InvalidTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidTreeError::DisconnectedPin { pin } => {
                write!(f, "pin {pin} is not connected to the source")
            }
            InvalidTreeError::CyclicEdges => write!(f, "edge set contains a cycle"),
            InvalidTreeError::MalformedParent { node } => {
                write!(f, "node {node} has a malformed parent index")
            }
        }
    }
}

impl std::error::Error for InvalidTreeError {}

impl RoutingTree {
    /// Builds a tree from an explicit edge list over plane points.
    ///
    /// Edge endpoints that coincide with pin positions are identified with
    /// those pins (first matching pin wins); all other endpoints become
    /// Steiner nodes. The edges must form a tree (connected, acyclic)
    /// spanning every pin.
    ///
    /// # Errors
    ///
    /// [`InvalidTreeError::DisconnectedPin`] if some pin cannot be reached
    /// from the source, [`InvalidTreeError::CyclicEdges`] if the edges
    /// contain a cycle.
    pub fn from_edges(net: &Net, edges: &[(Point, Point)]) -> Result<Self, InvalidTreeError> {
        let num_pins = net.degree();
        let mut points: Vec<Point> = net.pins().to_vec();
        let mut index: HashMap<Point, usize> = HashMap::new();
        // Pins first; coinciding pins map to the first occurrence.
        for (i, &p) in net.pins().iter().enumerate() {
            index.entry(p).or_insert(i);
        }
        let mut id_of = |p: Point, points: &mut Vec<Point>| -> usize {
            *index.entry(p).or_insert_with(|| {
                points.push(p);
                points.len() - 1
            })
        };
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); points.len()];
        for &(a, b) in edges {
            let ia = id_of(a, &mut points);
            let ib = id_of(b, &mut points);
            adj.resize(points.len().max(adj.len()), Vec::new());
            if ia != ib {
                adj[ia].push(ib);
                adj[ib].push(ia);
            }
        }
        adj.resize(points.len(), Vec::new());

        // BFS from the source; detect cycles among visited edges.
        let mut parent = vec![usize::MAX; points.len()];
        parent[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if parent[v] == usize::MAX {
                    parent[v] = u;
                    queue.push_back(v);
                } else if parent[u] != v && parent[v] != u {
                    // A visited neighbor on neither side of our tree edge
                    // closes a cycle. (Each undirected edge is seen from
                    // both endpoints; the parent-side sighting is legal.)
                    return Err(InvalidTreeError::CyclicEdges);
                }
            }
        }
        for (pin, &par) in parent.iter().enumerate().take(num_pins) {
            if par == usize::MAX {
                return Err(InvalidTreeError::DisconnectedPin { pin });
            }
        }
        // Drop unreachable Steiner nodes (legal: they carry no pins).
        let mut keep: Vec<usize> = (0..points.len())
            .filter(|&v| parent[v] != usize::MAX)
            .collect();
        keep.sort_unstable();
        let mut remap = vec![usize::MAX; points.len()];
        for (new, &old) in keep.iter().enumerate() {
            remap[old] = new;
        }
        let tree = RoutingTree {
            points: keep.iter().map(|&v| points[v]).collect(),
            parent: keep.iter().map(|&v| remap[parent[v]]).collect(),
            num_pins,
        };
        Ok(tree)
    }

    /// Builds a tree from parent pointers.
    ///
    /// `points[0..num_pins]` must be the net pins in net order; `parent[v]`
    /// gives the parent of node `v > 0` (`parent[0]` is ignored and stored
    /// as 0).
    ///
    /// # Errors
    ///
    /// [`InvalidTreeError::MalformedParent`] for out-of-range parents and
    /// [`InvalidTreeError::CyclicEdges`] if the parent pointers do not all
    /// lead back to the root.
    pub fn from_parents(
        points: Vec<Point>,
        mut parent: Vec<usize>,
        num_pins: usize,
    ) -> Result<Self, InvalidTreeError> {
        assert_eq!(points.len(), parent.len(), "points/parent length mismatch");
        assert!(num_pins >= 2 && num_pins <= points.len());
        let n = points.len();
        for (v, &p) in parent.iter().enumerate().skip(1) {
            if p >= n || p == v {
                return Err(InvalidTreeError::MalformedParent { node: v });
            }
        }
        if !reaches_root(&parent) {
            return Err(InvalidTreeError::CyclicEdges);
        }
        parent[0] = 0;
        Ok(RoutingTree {
            points,
            parent,
            num_pins,
        })
    }

    /// The trivial two-pin tree: one edge from source to sink.
    pub fn direct(net: &Net) -> Self {
        let points: Vec<Point> = net.pins().to_vec();
        let parent = vec![0; points.len()];
        RoutingTree {
            points,
            parent,
            num_pins: net.degree(),
        }
    }

    /// Number of pin nodes (the degree of the net).
    pub fn num_pins(&self) -> usize {
        self.num_pins
    }

    /// Total number of nodes (pins + Steiner points).
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// The position of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn point(&self, v: usize) -> Point {
        self.points[v]
    }

    /// All node positions (pins first, in net order).
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Parent of node `v` (`v = 0` returns 0: the root is its own parent).
    pub fn parent(&self, v: usize) -> usize {
        if v == 0 {
            0
        } else {
            self.parent[v]
        }
    }

    /// Iterator over the tree's edges as `(child, parent)` node indices.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (1..self.points.len()).map(|v| (v, self.parent[v]))
    }

    /// Iterator over the tree's edges as point pairs.
    pub fn edge_points(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        self.edges()
            .map(|(v, p)| (self.points[v], self.points[p]))
    }

    /// Length of the edge from node `v > 0` to its parent.
    fn edge_len(&self, v: usize) -> i64 {
        self.points[v].l1(self.points[self.parent[v]])
    }

    /// Total wirelength `w(T)`: the sum of rectilinear edge lengths.
    pub fn wirelength(&self) -> i64 {
        (1..self.points.len()).map(|v| self.edge_len(v)).sum()
    }

    /// Distance from the root to every node along tree edges.
    pub fn root_distances(&self) -> Vec<i64> {
        let mut dist = vec![0; self.points.len()];
        self.fill_root_distances(&mut dist);
        dist
    }

    /// Writes every node's root distance into `dist` (one entry per
    /// node) and returns the wirelength. Nodes may appear in any order,
    /// so an unresolved node walks up to its nearest resolved ancestor
    /// and resolves the whole walk on the way back: each node is
    /// resolved once, so the pass is `O(n)`.
    fn fill_root_distances(&self, dist: &mut [i64]) -> i64 {
        dist.fill(-1);
        dist[0] = 0;
        let mut wirelength = 0;
        for v in 1..self.points.len() {
            wirelength += self.edge_len(v);
            let (mut u, mut above) = (v, 0);
            while dist[u] < 0 {
                above += self.edge_len(u);
                u = self.parent[u];
            }
            let (mut u, mut d) = (v, dist[u] + above);
            while dist[u] < 0 {
                dist[u] = d;
                d -= self.edge_len(u);
                u = self.parent[u];
            }
        }
        wirelength
    }

    /// Delay `d(T)`: the maximum root→sink path length.
    pub fn delay(&self) -> i64 {
        self.objectives().1
    }

    /// Both objectives as a `(wirelength, delay)` pair, from one pass
    /// over the nodes. Allocates nothing up to 64 nodes.
    pub fn objectives(&self) -> (i64, i64) {
        with_scratch::<i64, STACK_NODES, _>(self.points.len(), |dist| {
            let wirelength = self.fill_root_distances(dist);
            let delay = dist[1..self.num_pins].iter().copied().max().unwrap_or(0);
            (wirelength, delay)
        })
    }

    /// Path length from the root to pin `pin` (net pin index).
    ///
    /// # Panics
    ///
    /// Panics if `pin >= num_pins`.
    pub fn pin_path_length(&self, pin: usize) -> i64 {
        assert!(pin < self.num_pins, "pin index out of range");
        self.root_distances()[pin]
    }

    /// Node degrees (number of incident tree edges).
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.points.len()];
        for (v, p) in self.edges() {
            deg[v] += 1;
            deg[p] += 1;
        }
        deg
    }

    /// Children lists (inverse of the parent map).
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.points.len()];
        for (v, p) in self.edges() {
            ch[p].push(v);
        }
        ch
    }

    /// The set of nodes in the subtree rooted at `v` (including `v`).
    pub fn subtree(&self, v: usize) -> Vec<usize> {
        let children = self.children();
        let mut out = vec![v];
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            for &c in &children[u] {
                out.push(c);
                stack.push(c);
            }
        }
        out
    }

    /// Verifies structural invariants; used by tests and debug assertions.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, net: &Net) -> Result<(), InvalidTreeError> {
        if self.num_pins != net.degree() || self.points[..self.num_pins] != *net.pins() {
            return Err(InvalidTreeError::DisconnectedPin { pin: 0 });
        }
        if !reaches_root(&self.parent) {
            return Err(InvalidTreeError::CyclicEdges);
        }
        Ok(())
    }
}

/// Node count up to which per-node bookkeeping (tree checks, objectives,
/// extraction distances) lives on the stack.
pub(crate) const STACK_NODES: usize = 64;

/// Runs `f` on a buffer of `len` default values: on the stack when
/// `len <= N`, on the heap above. Keeps small trees' bookkeeping
/// allocation-free.
pub(crate) fn with_scratch<T: Copy + Default, const N: usize, R>(
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    if len <= N {
        f(&mut [T::default(); N][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

/// Whether every node's parent chain ends at node 0 (in-range parents
/// assumed; `parent[0]` is never read). Each node is marked once: as on
/// the current walk, or as reaching the root. A walk that meets its own
/// mark has found a cycle, so the check is `O(n)`.
fn reaches_root(parent: &[usize]) -> bool {
    const ON_WALK: u8 = 1;
    const REACHES_ROOT: u8 = 2;
    with_scratch::<u8, STACK_NODES, _>(parent.len(), |mark| {
        mark[0] = REACHES_ROOT;
        for start in 1..parent.len() {
            let mut v = start;
            while mark[v] == 0 {
                mark[v] = ON_WALK;
                v = parent[v];
            }
            if mark[v] == ON_WALK {
                return false;
            }
            let mut v = start;
            while mark[v] == ON_WALK {
                mark[v] = REACHES_ROOT;
                v = parent[v];
            }
        }
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor_geom::Net;
    use proptest::prelude::*;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn direct_tree_objectives() {
        let n = net(&[(0, 0), (3, 4), (1, 1)]);
        let t = RoutingTree::direct(&n);
        assert_eq!(t.wirelength(), 7 + 2);
        assert_eq!(t.delay(), 7);
        t.validate(&n).unwrap();
    }

    #[test]
    fn from_edges_with_steiner_point() {
        let n = net(&[(0, 0), (4, 0), (4, 3)]);
        // Steiner point at (2, 0) splitting the horizontal run.
        let t = RoutingTree::from_edges(
            &n,
            &[
                (Point::new(0, 0), Point::new(2, 0)),
                (Point::new(2, 0), Point::new(4, 0)),
                (Point::new(4, 0), Point::new(4, 3)),
            ],
        )
        .unwrap();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.wirelength(), 7);
        assert_eq!(t.delay(), 7);
        assert_eq!(t.pin_path_length(1), 4);
    }

    #[test]
    fn from_edges_detects_disconnection() {
        let n = net(&[(0, 0), (4, 0), (9, 9)]);
        let err = RoutingTree::from_edges(&n, &[(Point::new(0, 0), Point::new(4, 0))])
            .unwrap_err();
        assert_eq!(err, InvalidTreeError::DisconnectedPin { pin: 2 });
    }

    #[test]
    fn from_edges_detects_cycle() {
        let n = net(&[(0, 0), (4, 0)]);
        let err = RoutingTree::from_edges(
            &n,
            &[
                (Point::new(0, 0), Point::new(4, 0)),
                (Point::new(4, 0), Point::new(4, 4)),
                (Point::new(4, 4), Point::new(0, 4)),
                (Point::new(0, 4), Point::new(0, 0)),
            ],
        )
        .unwrap_err();
        assert_eq!(err, InvalidTreeError::CyclicEdges);
    }

    #[test]
    fn from_parents_detects_malformed() {
        let pts = vec![Point::new(0, 0), Point::new(1, 0)];
        let err = RoutingTree::from_parents(pts, vec![0, 1], 2).unwrap_err();
        assert_eq!(err, InvalidTreeError::MalformedParent { node: 1 });
    }

    #[test]
    fn from_parents_detects_cycle() {
        let pts = vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(3, 0),
        ];
        let err = RoutingTree::from_parents(pts, vec![0, 2, 3, 2], 2).unwrap_err();
        assert_eq!(err, InvalidTreeError::CyclicEdges);
    }

    #[test]
    fn duplicate_pin_positions_are_identified() {
        let n = net(&[(0, 0), (4, 0), (4, 0)]);
        let t = RoutingTree::from_edges(&n, &[(Point::new(0, 0), Point::new(4, 0))]);
        // Pin 2 shares pin 1's position; from_edges identifies the position
        // with pin 1 only, so pin 2 stays disconnected — callers dedup
        // first. This documents the behavior.
        assert!(t.is_err());
    }

    #[test]
    fn subtree_and_children() {
        let n = net(&[(0, 0), (2, 0), (2, 2), (0, 2)]);
        // 0 → 1 → 2 → 3 chain
        let t = RoutingTree::from_parents(
            n.pins().to_vec(),
            vec![0, 0, 1, 2],
            4,
        )
        .unwrap();
        let mut sub = t.subtree(1);
        sub.sort_unstable();
        assert_eq!(sub, vec![1, 2, 3]);
        assert_eq!(t.children()[0], vec![1]);
        assert_eq!(t.delay(), 2 + 2 + 2);
    }

    fn arb_points(n: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::hash_set((0i64..50, 0i64..50), n..n + 1).prop_map(|s| {
            s.into_iter().map(Point::from).collect()
        })
    }

    proptest! {
        /// Random chains: wirelength is the chain length, delay the max
        /// prefix, and both are at least their trivial lower bounds.
        #[test]
        fn prop_chain_tree_objectives(pts in arb_points(5)) {
            let n = Net::new(pts).unwrap();
            let parent: Vec<usize> = (0..5usize).map(|v| v.saturating_sub(1)).collect();
            let t = RoutingTree::from_parents(n.pins().to_vec(), parent, 5).unwrap();
            t.validate(&n).unwrap();
            let w: i64 = (1..5).map(|v| n.pins()[v].l1(n.pins()[v - 1])).sum();
            prop_assert_eq!(t.wirelength(), w);
            prop_assert!(t.delay() >= n.delay_lower_bound());
            prop_assert!(t.delay() <= w);
        }

        /// Star trees: delay equals the delay lower bound exactly.
        #[test]
        fn prop_star_tree_is_delay_optimal(pts in arb_points(6)) {
            let n = Net::new(pts).unwrap();
            let t = RoutingTree::direct(&n);
            prop_assert_eq!(t.delay(), n.delay_lower_bound());
            let w: i64 = n.sinks().map(|s| n.source().l1(s)).sum();
            prop_assert_eq!(t.wirelength(), w);
        }
    }
}
