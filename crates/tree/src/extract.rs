//! Extraction of a valid routing tree from a union of edge sets.
//!
//! The Pareto-DW merge step `S ⊕ S'` unions the edge sets of two subtree
//! solutions. The union may reuse an edge (its length would be counted
//! twice) or even close a cycle; its bookkept objectives `(w₁+w₂,
//! max(d₁,d₂))` are then only an *upper bound* on what a real tree
//! achieves. This module turns such a union into a genuine tree that is no
//! worse in either objective:
//!
//! 1. number the union's plane points as graph nodes (coinciding points
//!    are one node);
//! 2. take the shortest-path tree of that graph from the source (delays
//!    can only shrink: every source→sink path of the union is still a
//!    path of the graph);
//! 3. prune Steiner leaves iteratively (wirelength can only shrink).
//!
//! Step 1 has two forms. [`extract_from_union`] takes plane-point edges
//! and numbers points with a linear-scan index (numeric DW, local search,
//! KS and the baselines). The lookup table numbers the nodes of a stored
//! topology by their rank-grid slot instead, and hands steps 2–3 the
//! numbered graph through [`extract_from_ids`].
//!
//! Union graphs are tiny — a handful of pins plus at most a few dozen
//! Steiner points — so steps 2–3 are sized for that regime: the graph
//! lives on the stack up to a few dozen nodes, a union that already is a
//! spanning tree takes its BFS parents as is, and any other union runs a
//! settled-scan Dijkstra instead of a binary heap.

use std::fmt;

use patlabor_geom::{Net, Point};

use crate::routing_tree::{with_scratch, STACK_NODES};
use crate::RoutingTree;

/// Node-id words (`u32`) [`extract_from_ids`] keeps on the stack: the
/// adjacency and per-node arrays of a graph with `P` nodes and `E` edges
/// take `3P + 1 + 2E` of them. A larger graph uses the heap.
const STACK_IDS: usize = 256;

/// Marks an unreached node's parent, and an unkept node's new id.
const NONE: u32 = u32::MAX;

/// Error returned by [`extract_from_union`] when the union graph does not
/// connect every pin to the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractTreeError {
    /// Index of the first pin that is unreachable from the source.
    pub pin: usize,
}

impl fmt::Display for ExtractTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pin {} is unreachable in the union graph", self.pin)
    }
}

impl std::error::Error for ExtractTreeError {}

/// Extracts a routing tree from an arbitrary union of edges.
///
/// The result is a valid tree spanning the net whose wirelength is at most
/// the total (deduplicated) union length and whose delay is at most the
/// longest source→sink path of any tree whose edges are contained in the
/// union.
///
/// # Errors
///
/// Returns [`ExtractTreeError`] when some pin is not connected to the
/// source by the union edges.
///
/// # Example
///
/// ```
/// use patlabor_geom::{Net, Point};
/// use patlabor_tree::extract_from_union;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Net::new(vec![Point::new(0, 0), Point::new(2, 0), Point::new(2, 2)])?;
/// // A union with a duplicated edge and a detour.
/// let tree = extract_from_union(&net, &[
///     (Point::new(0, 0), Point::new(2, 0)),
///     (Point::new(0, 0), Point::new(2, 0)), // duplicate
///     (Point::new(2, 0), Point::new(2, 2)),
///     (Point::new(0, 0), Point::new(2, 2)), // closes a cycle
/// ])?;
/// assert_eq!(tree.wirelength(), 2 + 2 + 4 - 2 /* pruned back to a tree */);
/// # Ok(())
/// # }
/// ```
pub fn extract_from_union(
    net: &Net,
    edges: &[(Point, Point)],
) -> Result<RoutingTree, ExtractTreeError> {
    // Index points: pins first (dedup by position → first occurrence
    // wins, matching the first-pin rule), then new endpoints in edge
    // order.
    let pins = net.pins();
    let mut points = pins.to_vec();
    let mut id_of = |p: Point| -> u32 {
        let id = match points.iter().position(|&q| q == p) {
            Some(i) => i,
            None => {
                points.push(p);
                points.len() - 1
            }
        };
        id as u32
    };
    let mut ids = Vec::with_capacity(edges.len());
    for &(a, b) in edges {
        let (ia, ib) = (id_of(a), id_of(b));
        if ia != ib {
            ids.push((ia, ib, a.l1(b)));
        }
    }
    let first_at = |pin: usize| {
        pins[..pin]
            .iter()
            .position(|&q| q == pins[pin])
            .unwrap_or(pin)
    };
    extract_from_ids(pins.len(), points.len(), &ids, first_at, |v| points[v])
}

/// The shortest-path-and-prune core of [`extract_from_union`], for a
/// caller that has already numbered the union's nodes.
///
/// - Nodes are `0..num_nodes`. Nodes `0..num_pins` are the net's pins in
///   pin order, node 0 the source; later nodes are Steiner points.
/// - `first_at(pin)` is the first pin at `pin`'s position (`pin` itself
///   when no earlier pin shares it). A pin that is not its own first
///   carries no edges; it hangs off that first pin by a zero-length
///   edge.
/// - `edges` holds `(a, b, length)` triples with `a != b`, in union
///   order, duplicates allowed.
/// - `point(v)` is node `v`'s position.
///
/// When the union is a spanning tree — its edges are exactly one fewer
/// than its nodes, and a BFS from the source reaches every node — the
/// BFS parents are the shortest-path parents, and the `O(P²)` settle scan
/// is skipped. The result is the same tree either way. Allocates only
/// the returned tree when the graph fits the stack buffers.
///
/// # Errors
///
/// Returns [`ExtractTreeError`] naming the first pin the edges do not
/// connect to the source.
pub fn extract_from_ids(
    num_pins: usize,
    num_nodes: usize,
    edges: &[(u32, u32, i64)],
    first_at: impl Fn(usize) -> usize,
    point: impl Fn(usize) -> Point,
) -> Result<RoutingTree, ExtractTreeError> {
    let (p, e) = (num_nodes, edges.len());
    with_scratch::<u32, STACK_IDS, _>(3 * p + 1 + 2 * e, |ids| {
        let (start, rest) = ids.split_at_mut(p + 1);
        let (adj, rest) = rest.split_at_mut(2 * e);
        let (parent, order) = rest.split_at_mut(p);

        // Adjacency in CSR form: node `u`'s incident edge indices are
        // `adj[start[u]..start[u + 1]]`, in edge order.
        for &(a, b, _) in edges {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for v in 0..p {
            start[v + 1] += start[v];
        }
        order.copy_from_slice(&start[..p]);
        for (i, &(a, b, _)) in edges.iter().enumerate() {
            for v in [a as usize, b as usize] {
                adj[order[v] as usize] = i as u32;
                order[v] += 1;
            }
        }
        let neighbors = |u: usize| {
            adj[start[u] as usize..start[u + 1] as usize]
                .iter()
                .map(move |&i| {
                    let (a, b, len) = edges[i as usize];
                    ((a ^ b ^ u as u32) as usize, len)
                })
        };

        // BFS from the source, `order` as its queue.
        parent.fill(NONE);
        parent[0] = 0;
        order[0] = 0;
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let u = order[head] as usize;
            head += 1;
            for (v, _) in neighbors(u) {
                if parent[v] == NONE {
                    parent[v] = u as u32;
                    order[tail] = v as u32;
                    tail += 1;
                }
            }
        }
        let twins = (0..num_pins).filter(|&pin| first_at(pin) != pin).count();
        if !(tail == p - twins && e + 1 == tail) {
            // Not a spanning tree: Dijkstra from the source. The graph is
            // tiny, so a settled scan beats a heap; nodes settle in
            // ascending (dist, index) order — the same order a
            // lexicographic min-heap pops them — and relaxation improves
            // strictly, so the parents are identical to the heap
            // formulation's. `order` holds the settled flags.
            with_scratch::<i64, STACK_NODES, _>(p, |dist| {
                dist.fill(i64::MAX);
                parent.fill(NONE);
                order.fill(0);
                dist[0] = 0;
                parent[0] = 0;
                loop {
                    let mut u = usize::MAX;
                    let mut best = i64::MAX;
                    for v in 0..p {
                        if order[v] == 0 && dist[v] < best {
                            best = dist[v];
                            u = v;
                        }
                    }
                    if u == usize::MAX {
                        break;
                    }
                    order[u] = 1;
                    for (v, len) in neighbors(u) {
                        let nd = best + len;
                        if nd < dist[v] {
                            dist[v] = nd;
                            parent[v] = u as u32;
                        }
                    }
                }
            });
        }
        // A pin sharing an earlier pin's position hangs off that pin.
        for pin in 0..num_pins {
            let first = first_at(pin);
            if parent[first] == NONE {
                return Err(ExtractTreeError { pin });
            }
            if first != pin {
                parent[pin] = first as u32;
            }
        }

        // Keep only nodes on some root→pin path (prune Steiner branches),
        // renumbered in index order: `order` marks the kept nodes, then
        // holds their new ids.
        order.fill(0);
        for pin in 0..num_pins {
            let mut v = pin;
            while order[v] == 0 {
                order[v] = 1;
                v = parent[v] as usize;
            }
        }
        let mut kept = 0;
        for id in order.iter_mut() {
            *id = if *id == 1 {
                kept += 1;
                kept - 1
            } else {
                NONE
            };
        }
        let mut points = Vec::with_capacity(kept as usize);
        let mut parents = Vec::with_capacity(kept as usize);
        for v in (0..p).filter(|&v| order[v] != NONE) {
            points.push(point(v));
            parents.push(order[parent[v] as usize] as usize);
        }
        Ok(RoutingTree::from_parents(points, parents, num_pins)
            .expect("shortest-path tree construction cannot produce cycles"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn e(a: (i64, i64), b: (i64, i64)) -> (Point, Point) {
        (Point::from(a), Point::from(b))
    }

    #[test]
    fn extraction_from_a_plain_tree_is_lossless() {
        let n = net(&[(0, 0), (4, 0), (4, 3)]);
        let edges = [e((0, 0), (4, 0)), e((4, 0), (4, 3))];
        let t = extract_from_union(&n, &edges).unwrap();
        assert_eq!(t.wirelength(), 7);
        assert_eq!(t.delay(), 7);
    }

    #[test]
    fn duplicate_edges_are_not_double_counted() {
        let n = net(&[(0, 0), (4, 0)]);
        let edges = [e((0, 0), (4, 0)), e((0, 0), (4, 0))];
        let t = extract_from_union(&n, &edges).unwrap();
        assert_eq!(t.wirelength(), 4);
    }

    #[test]
    fn cycles_are_broken_by_shortest_paths() {
        let n = net(&[(0, 0), (2, 0), (2, 2)]);
        let edges = [
            e((0, 0), (2, 0)),
            e((2, 0), (2, 2)),
            e((0, 0), (2, 2)), // shortcut to the far sink
        ];
        let t = extract_from_union(&n, &edges).unwrap();
        t.validate(&n).unwrap();
        // Shortest paths: sink (2,0) via direct (2), sink (2,2) via direct (4).
        assert_eq!(t.delay(), 4);
        assert_eq!(t.wirelength(), 2 + 4);
    }

    #[test]
    fn unused_branches_are_pruned() {
        let n = net(&[(0, 0), (4, 0)]);
        let edges = [
            e((0, 0), (4, 0)),
            e((4, 0), (4, 9)), // dangling Steiner stub
            e((4, 9), (9, 9)),
        ];
        let t = extract_from_union(&n, &edges).unwrap();
        assert_eq!(t.wirelength(), 4);
        assert_eq!(t.num_nodes(), 2);
    }

    #[test]
    fn disconnected_pin_is_reported() {
        let n = net(&[(0, 0), (4, 0), (9, 9)]);
        let err = extract_from_union(&n, &[e((0, 0), (4, 0))]).unwrap_err();
        assert_eq!(err.pin, 2);
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn duplicate_pin_positions_share_a_path() {
        let n = net(&[(0, 0), (4, 0), (4, 0)]);
        let t = extract_from_union(&n, &[e((0, 0), (4, 0))]).unwrap();
        t.validate(&n).unwrap();
        assert_eq!(t.wirelength(), 4); // zero-length edge for the twin pin
        assert_eq!(t.delay(), 4);
        assert_eq!(t.pin_path_length(2), 4);
    }

    #[test]
    fn extraction_never_worsens_objectives_vs_bookkeeping() {
        // Union of two subtrees sharing an edge: bookkeeping would count
        // the shared edge twice; extraction must beat that bound.
        let n = net(&[(0, 0), (6, 0), (6, 4)]);
        let sub1 = [e((0, 0), (6, 0))];
        let sub2 = [e((0, 0), (6, 0)), e((6, 0), (6, 4))];
        let union: Vec<_> = sub1.iter().chain(sub2.iter()).copied().collect();
        let bookkept_w: i64 = 6 + (6 + 4);
        let t = extract_from_union(&n, &union).unwrap();
        assert!(t.wirelength() <= bookkept_w);
        assert_eq!(t.wirelength(), 10);
        assert_eq!(t.delay(), 10);
    }

    #[test]
    fn spanning_tree_fast_path_matches_the_settle_scan() {
        // The same tree, once as a spanning-tree union (BFS path) and once
        // with a redundant duplicate edge (settle-scan path), with Steiner
        // parents numbered after their children.
        let n = net(&[(0, 0), (6, 4), (6, 0), (2, 4)]);
        let tree = [
            e((0, 0), (2, 0)),
            e((2, 0), (2, 4)),
            e((6, 4), (6, 0)),
            e((2, 0), (6, 0)),
        ];
        let fast = extract_from_union(&n, &tree).unwrap();
        let mut doubled = tree.to_vec();
        doubled.push(tree[1]);
        assert_eq!(extract_from_union(&n, &doubled).unwrap(), fast);
        fast.validate(&n).unwrap();
        assert_eq!(fast.objectives(), (2 + 4 + 4 + 4, 10));
    }

    #[test]
    fn large_unions_use_the_heap_buffers() {
        // A 200-pin comb: past every stack buffer, same tree shape rules.
        let pins: Vec<(i64, i64)> = (0..200).map(|i| (i, 5)).collect();
        let n = net(&pins);
        let mut edges: Vec<(Point, Point)> = (0..200).map(|i| e((i, 0), (i, 5))).collect();
        edges.extend((0..199).map(|i| e((i, 0), (i + 1, 0))));
        let t = extract_from_union(&n, &edges).unwrap();
        t.validate(&n).unwrap();
        assert_eq!(t.wirelength(), 200 * 5 + 199);
        assert_eq!(t.delay(), 5 + 199 + 5);
    }
}
