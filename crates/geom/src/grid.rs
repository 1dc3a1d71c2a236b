//! Hanan grids (paper §II, Fig. 3).
//!
//! The Hanan grid of a pin set is the grid induced by drawing a horizontal
//! and a vertical line through every pin. It is folklore that an optimal
//! RSMT exists on the Hanan grid (Hanan, 1966), and the paper points out the
//! same holds for Pareto-optimal timing-driven routing trees, so every exact
//! algorithm in this workspace searches on it.

use crate::{Net, Point};

/// A node of a [`HananGrid`], addressed by column and row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridNode {
    /// Column index into the sorted x coordinates.
    pub col: u16,
    /// Row index into the sorted y coordinates.
    pub row: u16,
}

impl GridNode {
    /// Creates a node from its column and row indices.
    pub const fn new(col: u16, row: u16) -> Self {
        GridNode { col, row }
    }
}

/// An edge of a routing tree drawn on a Hanan grid.
///
/// Endpoints are arbitrary grid nodes (not necessarily adjacent); the edge is
/// realized as an L-shaped (or straight) rectilinear connection of length
/// `‖a − b‖₁`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridEdge {
    /// One endpoint.
    pub a: GridNode,
    /// The other endpoint.
    pub b: GridNode,
}

impl GridEdge {
    /// Creates an edge; endpoints are stored in sorted order so that equal
    /// edges compare equal regardless of construction order.
    pub fn new(a: GridNode, b: GridNode) -> Self {
        if a <= b {
            GridEdge { a, b }
        } else {
            GridEdge { a: b, b: a }
        }
    }
}

/// The Hanan grid of a net: the cross product of the sorted pin x and y
/// coordinates.
///
/// Duplicate pin coordinates are kept as **distinct zero-width columns/rows**
/// (the grid always has exactly `n` columns and `n` rows for a degree-`n`
/// net). This keeps the rank-space *pattern* of a net independent of
/// coordinate ties, which is what the lookup-table machinery requires: a tie
/// simply makes the corresponding gap length `lᵢ = 0`, and any tree on the
/// generic grid evaluates to the same objectives on the degenerate one.
///
/// # Example
///
/// ```
/// use patlabor_geom::{HananGrid, Net, Point};
///
/// # fn main() -> Result<(), patlabor_geom::InvalidNetError> {
/// let net = Net::new(vec![Point::new(0, 0), Point::new(5, 3), Point::new(2, 8)])?;
/// let grid = HananGrid::new(&net);
/// assert_eq!(grid.size(), 3);
/// assert_eq!(grid.h_gaps(), &[2, 3]); // 0→2→5
/// assert_eq!(grid.v_gaps(), &[3, 5]); // 0→3→8
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HananGrid {
    xs: Vec<i64>,
    ys: Vec<i64>,
    /// For each pin of the originating net, its grid node.
    pin_nodes: Vec<GridNode>,
}

impl HananGrid {
    /// Builds the Hanan grid of `net`.
    ///
    /// Ties among pin coordinates are ranked by original pin order, so the
    /// mapping from pins to grid nodes is deterministic.
    pub fn new(net: &Net) -> Self {
        let n = net.degree();
        let mut x_order: Vec<usize> = (0..n).collect();
        x_order.sort_by_key(|&i| (net.pins()[i].x, i));
        let mut y_order: Vec<usize> = (0..n).collect();
        y_order.sort_by_key(|&i| (net.pins()[i].y, i));

        let xs: Vec<i64> = x_order.iter().map(|&i| net.pins()[i].x).collect();
        let ys: Vec<i64> = y_order.iter().map(|&i| net.pins()[i].y).collect();

        let mut pin_nodes = vec![GridNode::new(0, 0); n];
        for (rank, &pin) in x_order.iter().enumerate() {
            pin_nodes[pin].col = rank as u16;
        }
        for (rank, &pin) in y_order.iter().enumerate() {
            pin_nodes[pin].row = rank as u16;
        }
        HananGrid { xs, ys, pin_nodes }
    }

    /// Number of columns (= rows = degree of the net).
    pub fn size(&self) -> usize {
        self.xs.len()
    }

    /// Total number of grid nodes (`size²`).
    pub fn node_count(&self) -> usize {
        self.size() * self.size()
    }

    /// Sorted x coordinates (one per column, duplicates preserved).
    pub fn xs(&self) -> &[i64] {
        &self.xs
    }

    /// Sorted y coordinates (one per row, duplicates preserved).
    pub fn ys(&self) -> &[i64] {
        &self.ys
    }

    /// Horizontal gap lengths `l₁ … lₙ₋₁` (paper notation): the widths of
    /// consecutive columns.
    pub fn h_gaps(&self) -> Vec<i64> {
        self.xs.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Vertical gap lengths `lₙ … l₂ₙ₋₂`: the heights of consecutive rows.
    pub fn v_gaps(&self) -> Vec<i64> {
        self.ys.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// All `2n − 2` gap lengths, horizontal first — the vector the symbolic
    /// lookup-table solutions are evaluated against.
    pub fn gap_vector(&self) -> Vec<i64> {
        let mut g = self.h_gaps();
        g.extend(self.v_gaps());
        g
    }

    /// The grid node a pin was mapped to (`pin` indexes the originating
    /// net's pin list; the source is pin 0).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn pin_node(&self, pin: usize) -> GridNode {
        self.pin_nodes[pin]
    }

    /// All pin nodes, in pin order (source first).
    pub fn pin_nodes(&self) -> &[GridNode] {
        &self.pin_nodes
    }

    /// The plane coordinates of a grid node.
    ///
    /// # Panics
    ///
    /// Panics if the node indices are out of range.
    pub fn point(&self, node: GridNode) -> Point {
        Point::new(self.xs[node.col as usize], self.ys[node.row as usize])
    }

    /// Dense index of a node (`col · size + row`), usable as a `Vec` index.
    pub fn node_id(&self, node: GridNode) -> usize {
        node.col as usize * self.size() + node.row as usize
    }

    /// Inverse of [`HananGrid::node_id`].
    pub fn node_from_id(&self, id: usize) -> GridNode {
        GridNode::new((id / self.size()) as u16, (id % self.size()) as u16)
    }

    /// Iterator over every grid node.
    pub fn nodes(&self) -> impl Iterator<Item = GridNode> + '_ {
        let n = self.size() as u16;
        (0..n).flat_map(move |c| (0..n).map(move |r| GridNode::new(c, r)))
    }

    /// Rectilinear distance between two grid nodes in plane coordinates.
    pub fn distance(&self, a: GridNode, b: GridNode) -> i64 {
        self.point(a).l1(self.point(b))
    }

    /// Length of an edge in plane coordinates.
    pub fn edge_len(&self, e: GridEdge) -> i64 {
        self.distance(e.a, e.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Net;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn grid_of_three_pins() {
        let g = HananGrid::new(&net(&[(0, 0), (5, 3), (2, 8)]));
        assert_eq!(g.xs(), &[0, 2, 5]);
        assert_eq!(g.ys(), &[0, 3, 8]);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.pin_node(0), GridNode::new(0, 0));
        assert_eq!(g.pin_node(1), GridNode::new(2, 1));
        assert_eq!(g.pin_node(2), GridNode::new(1, 2));
    }

    #[test]
    fn duplicate_coordinates_become_zero_gaps() {
        let g = HananGrid::new(&net(&[(0, 0), (0, 4), (3, 4)]));
        assert_eq!(g.size(), 3);
        assert_eq!(g.h_gaps(), &[0, 3]);
        assert_eq!(g.v_gaps(), &[4, 0]);
        // Tied pins get distinct ranks in pin order.
        assert_eq!(g.pin_node(0).col, 0);
        assert_eq!(g.pin_node(1).col, 1);
    }

    #[test]
    fn gap_vector_concatenates_h_then_v() {
        let g = HananGrid::new(&net(&[(0, 0), (5, 3), (2, 8)]));
        assert_eq!(g.gap_vector(), vec![2, 3, 3, 5]);
    }

    #[test]
    fn node_id_roundtrip_and_distance() {
        let g = HananGrid::new(&net(&[(0, 0), (5, 3), (2, 8)]));
        for node in g.nodes() {
            assert_eq!(g.node_from_id(g.node_id(node)), node);
        }
        let a = GridNode::new(0, 0);
        let b = GridNode::new(2, 2);
        assert_eq!(g.distance(a, b), 5 + 8);
    }

    #[test]
    fn edge_is_order_insensitive() {
        let a = GridNode::new(1, 0);
        let b = GridNode::new(0, 2);
        assert_eq!(GridEdge::new(a, b), GridEdge::new(b, a));
    }

    #[test]
    fn nodes_iterator_covers_grid_exactly_once() {
        let g = HananGrid::new(&net(&[(0, 0), (5, 3), (2, 8), (9, 9)]));
        let all: std::collections::HashSet<_> = g.nodes().collect();
        assert_eq!(all.len(), g.node_count());
    }
}
