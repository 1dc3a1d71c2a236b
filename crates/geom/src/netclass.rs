//! Canonical congruence classes of nets — the single source of truth for
//! canonicalization.
//!
//! Two nets are *congruent* when one maps onto the other by translation,
//! scaling of individual Hanan gaps, or a dihedral symmetry of the plane.
//! Both routing objectives are invariant under translation and the `D₄`
//! symmetries (the L1 metric commutes with axis swaps and flips), and the
//! set of potentially Pareto-optimal topologies depends only on the
//! rank-space [`crate::Pattern`], so everything the serving stack derives
//! from a net — lookup-table indices, frontier-cache keys, symbolic-cost
//! evaluation — factors through one object: the net's [`NetClass`].
//!
//! A `NetClass` is computed once per net, entirely on the stack (fixed
//! arrays sized by [`NetClass::MAX_DEGREE`]), and carries:
//!
//! 1. the **canonical pattern key** — the D4-orbit representative of the
//!    net's rank pattern, densely encoded ([`NetClass::key`]);
//! 2. the **canonical gap vector** — the net's Hanan gap lengths mapped
//!    into canonical rank space ([`NetClass::canonical_gaps`]);
//! 3. the **inverse transform** — the map from canonical rank space back
//!    to this net's own rank space ([`NetClass::to_instance`]);
//! 4. the net's **own rank space** — its sorted pin coordinates and each
//!    pin's column and row rank — so topologies stored against the
//!    canonical representative can be materialized on the instance
//!    ([`NetClass::instance_point`], [`NetClass::pin_node`],
//!    [`NetClass::slot`]).
//!
//! The invariant every consumer relies on: **two nets with equal
//! `(key, canonical_gaps)` must route identically** — same frontier, same
//! tie-breaks, same winning topology ids. The frontier cache keys on this
//! pair, the lookup table searches the key and dot-products the gaps, and
//! the symbolic DW rows are generated in the same canonical space.

use crate::pattern::transformed_key_of;
use crate::{Net, PatternKey, Point, RankNode, Transform, ALL_TRANSFORMS};

const MAX: usize = NetClass::MAX_DEGREE;

/// The canonical congruence class of a net, plus the inverse transform
/// and the net's own rank space, for materializing canonical topologies
/// on it.
///
/// # Example
///
/// ```
/// use patlabor_geom::{Net, NetClass, Point};
///
/// # fn main() -> Result<(), patlabor_geom::InvalidNetError> {
/// let net = Net::new(vec![Point::new(0, 0), Point::new(5, 9), Point::new(9, 4)])?;
/// // The mirrored net is congruent: same class key, same canonical gaps.
/// let mirrored = net.map_points(|p| Point::new(-p.x, p.y));
/// let a = NetClass::of(&net).expect("degree 3 is classifiable");
/// let b = NetClass::of(&mirrored).expect("degree 3 is classifiable");
/// assert_eq!(a.key(), b.key());
/// assert_eq!(a.canonical_gaps(), b.canonical_gaps());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetClass {
    degree: u8,
    key: PatternKey,
    /// Maps canonical rank nodes back to this net's rank space.
    inverse: Transform,
    /// Sorted pin x coordinates, one per instance column (ties kept).
    xs: [i64; MAX],
    /// Sorted pin y coordinates, one per instance row (ties kept).
    ys: [i64; MAX],
    /// Each pin's instance column rank, in pin order.
    cols: [u8; MAX],
    /// Each pin's instance row rank, in pin order.
    rows: [u8; MAX],
    /// The canonical gap vector in its first `2·degree − 2` entries.
    gaps: [i64; 2 * MAX - 2],
}

impl NetClass {
    /// Largest classifiable degree: rank patterns use `u8` ranks and the
    /// dense [`PatternKey`] encoding, both capped at 16.
    pub const MAX_DEGREE: usize = 16;

    /// Canonicalizes a net, or `None` when its degree exceeds
    /// [`NetClass::MAX_DEGREE`] (such nets are served by local search,
    /// which never needs a class). Allocates nothing.
    pub fn of(net: &Net) -> Option<NetClass> {
        let n = net.degree();
        if n > Self::MAX_DEGREE {
            return None;
        }
        let pins = net.pins();
        let x_order = rank_order(n, |i| pins[i].x);
        let y_order = rank_order(n, |i| pins[i].y);
        let (mut xs, mut ys) = ([0i64; MAX], [0i64; MAX]);
        let (mut cols, mut rows) = ([0u8; MAX], [0u8; MAX]);
        for rank in 0..n {
            let (px, py) = (x_order[rank] as usize, y_order[rank] as usize);
            xs[rank] = pins[px].x;
            cols[px] = rank as u8;
            ys[rank] = pins[py].y;
            rows[py] = rank as u8;
        }
        // The rank pattern: the pin in column `c` sits in row `yperm[c]`.
        let mut yperm = [0u8; MAX];
        for (row, &pin) in yperm.iter_mut().zip(&x_order[..n]) {
            *row = rows[pin as usize];
        }
        let (yperm, source) = (&yperm[..n], cols[0]);

        // Canonicalize over the full D4 orbit, ordering candidates by
        // (pattern key, mapped gap vector). The secondary gap comparison
        // matters when the canonical pattern has a nontrivial stabilizer:
        // several transforms then reach the minimal key, and two congruent
        // nets can otherwise land on stabilizer-related (i.e. different)
        // gap mappings. Breaking the tie on the gaps themselves makes
        // `(key, canonical_gaps)` a true invariant of the congruence
        // class — every D4 image of a net classifies identically.
        //
        // Two passes: the minimal key first, then gap vectors only for the
        // transforms attaining it — with a trivial stabilizer that is one
        // gap mapping instead of eight.
        let keys = ALL_TRANSFORMS.map(|t| transformed_key_of(yperm, source, t));
        let key = *keys.iter().min().expect("transform set is non-empty");
        let dims = 2 * n - 2;
        let mut gaps = [0i64; 2 * MAX - 2];
        let mut candidate = [0i64; 2 * MAX - 2];
        let mut best = None;
        for (t, k) in ALL_TRANSFORMS.into_iter().zip(keys) {
            if k != key {
                continue;
            }
            gaps_under(t, &xs[..n], &ys[..n], &mut candidate[..dims]);
            if best.is_none() || candidate[..dims] < gaps[..dims] {
                gaps[..dims].copy_from_slice(&candidate[..dims]);
                best = Some(t);
            }
        }
        let transform = best.expect("some transform attains the minimal key");
        Some(NetClass {
            degree: n as u8,
            key,
            inverse: transform.inverse(),
            xs,
            ys,
            cols,
            rows,
            gaps,
        })
    }

    /// Degree `n` of the classified net.
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// The canonical pattern key — the smallest [`PatternKey`] over the
    /// net's D4 pattern orbit (encodes degree, source position and the
    /// canonical y-permutation).
    pub fn key(&self) -> PatternKey {
        self.key
    }

    /// [`NetClass::key`] as a raw `u64` (table indices, cache keys).
    pub fn canonical_key(&self) -> u64 {
        self.key.as_u64()
    }

    /// The net's Hanan-grid gap vector mapped into canonical rank space
    /// (horizontal gaps first, then vertical; `2n − 2` entries).
    ///
    /// Two congruent nets produce the same canonical key *and* the same
    /// canonical gap vector, so `(key, gaps)` identifies a net up to
    /// congruence — exactly the granularity at which query results
    /// (winning topology ids) coincide.
    pub fn canonical_gaps(&self) -> &[i64] {
        &self.gaps[..2 * self.degree as usize - 2]
    }

    /// The transform from canonical rank space back to this net's rank
    /// space.
    pub fn inverse(&self) -> Transform {
        self.inverse
    }

    /// Maps a canonical-space rank node into this net's rank space.
    pub fn to_instance(&self, node: RankNode) -> RankNode {
        self.inverse.apply(node, self.degree)
    }

    /// Plane coordinates of a canonical-space rank node on this net's
    /// Hanan grid — the materialization step for stored topologies.
    ///
    /// # Panics
    ///
    /// Panics if the node's ranks are outside the pattern grid.
    pub fn instance_point(&self, node: RankNode) -> Point {
        self.plane_point(self.to_instance(node))
    }

    /// Plane coordinates of a node of this net's own rank space.
    ///
    /// # Panics
    ///
    /// Panics if the node's ranks are outside the pattern grid.
    pub fn plane_point(&self, node: RankNode) -> Point {
        let n = self.degree as usize;
        Point::new(
            self.xs[..n][node.col as usize],
            self.ys[..n][node.row as usize],
        )
    }

    /// Pin `pin`'s node in this net's own rank space: its column and row
    /// rank (ties among coordinates ranked by pin order).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is not below the degree.
    pub fn pin_node(&self, pin: usize) -> RankNode {
        let n = self.degree as usize;
        RankNode::new(self.cols[..n][pin], self.rows[..n][pin])
    }

    /// The slot of a node of this net's own rank space: the first column
    /// of its run of equal x coordinates and the first row of its run of
    /// equal y coordinates. The coordinates are sorted, so two instance
    /// nodes are the same plane point exactly when they share a slot;
    /// materialization identifies nodes by slot instead of searching
    /// for their points.
    ///
    /// # Panics
    ///
    /// Panics if the node's ranks are outside the pattern grid.
    pub fn slot(&self, node: RankNode) -> RankNode {
        let n = self.degree as usize;
        RankNode::new(
            run_start(&self.xs[..n], node.col),
            run_start(&self.ys[..n], node.row),
        )
    }
}

/// Equality over the used prefix of each array.
impl PartialEq for NetClass {
    fn eq(&self, other: &NetClass) -> bool {
        let n = self.degree as usize;
        self.degree == other.degree
            && self.key == other.key
            && self.inverse == other.inverse
            && self.xs[..n] == other.xs[..n]
            && self.ys[..n] == other.ys[..n]
            && self.cols[..n] == other.cols[..n]
            && self.rows[..n] == other.rows[..n]
            && self.canonical_gaps() == other.canonical_gaps()
    }
}

impl Eq for NetClass {}

/// The first `n` pin indices in ascending `(coordinate, pin index)`
/// order — the Hanan grid's tie rule — by insertion sort: pins enter in
/// index order and only a strictly larger coordinate moves aside.
fn rank_order(n: usize, coord: impl Fn(usize) -> i64) -> [u8; MAX] {
    let mut order = [0u8; MAX];
    for pin in 0..n {
        let c = coord(pin);
        let mut j = pin;
        while j > 0 && coord(order[j - 1] as usize) > c {
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = pin as u8;
    }
    order
}

/// Writes the gap vector of sorted coordinates `xs`/`ys` as seen in
/// `t`'s rank space into `out` (`2n − 2` entries, horizontal first): the
/// swap applies first, then the flips (`T = flips ∘ swap`), mirroring
/// [`Transform::apply`] on nodes.
fn gaps_under(t: Transform, xs: &[i64], ys: &[i64], out: &mut [i64]) {
    let (h, v) = if t.swap { (ys, xs) } else { (xs, ys) };
    let (out_h, out_v) = out.split_at_mut(h.len() - 1);
    successive_gaps(h, t.flip_x, out_h);
    successive_gaps(v, t.flip_y, out_v);
}

/// The differences of consecutive sorted `coords`, reversed when `flip`.
fn successive_gaps(coords: &[i64], flip: bool, out: &mut [i64]) {
    for (i, w) in coords.windows(2).enumerate() {
        out[if flip { out.len() - 1 - i } else { i }] = w[1] - w[0];
    }
}

/// The first index of `sorted`'s run of values equal to `sorted[i]`.
fn run_start(sorted: &[i64], mut i: u8) -> u8 {
    let value = sorted[i as usize];
    while i > 0 && sorted[i as usize - 1] == value {
        i -= 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HananGrid, Pattern};
    use std::collections::BTreeSet;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    /// The eight point-level images of a net under the plane D4 group
    /// (mirrors and the transpose generate all of them).
    fn d4_images(base: &Net) -> Vec<Net> {
        let mut out = Vec::with_capacity(8);
        for swap in [false, true] {
            for fx in [false, true] {
                for fy in [false, true] {
                    out.push(base.map_points(|p| {
                        let (mut x, mut y) = (p.x, p.y);
                        if swap {
                            std::mem::swap(&mut x, &mut y);
                        }
                        if fx {
                            x = -x;
                        }
                        if fy {
                            y = -y;
                        }
                        Point::new(x, y)
                    }));
                }
            }
        }
        out
    }

    #[test]
    fn netclass_key_is_the_canonical_pattern_key() {
        let n = net(&[(9, 1), (0, 5), (4, 2)]);
        let class = NetClass::of(&n).unwrap();
        let (pattern, _) = Pattern::from_net(&n);
        assert_eq!(class.key(), pattern.canonical().0.key());
        assert_eq!(class.degree(), 3);
    }

    #[test]
    fn netclass_d4_images_share_key_and_gaps() {
        let base = net(&[(0, 0), (7, 2), (3, 9), (10, 5)]);
        let reference = NetClass::of(&base).unwrap();
        for (i, image) in d4_images(&base).iter().enumerate() {
            let class = NetClass::of(image).unwrap();
            assert_eq!(class.key(), reference.key(), "image {i}");
            assert_eq!(
                class.canonical_gaps(),
                reference.canonical_gaps(),
                "image {i}"
            );
        }
    }

    #[test]
    fn inverse_transform_maps_canonical_pins_onto_instance_pins() {
        let base = net(&[(0, 0), (7, 2), (3, 9), (10, 5)]);
        for image in d4_images(&base) {
            let class = NetClass::of(&image).unwrap();
            let (pattern, _) = Pattern::from_net(&image);
            let (canonical, _) = pattern.canonical();
            // Every canonical pin node must land on an actual pin of the
            // image net, and collectively they must cover all pins.
            let mapped: BTreeSet<Point> = canonical
                .pin_nodes()
                .into_iter()
                .map(|nd| class.instance_point(nd))
                .collect();
            let pins: BTreeSet<Point> = image.pins().iter().copied().collect();
            assert_eq!(mapped, pins);
            // The canonical source column maps back to the real source.
            assert_eq!(
                class.instance_point(canonical.source_node()),
                image.source()
            );
        }
    }

    #[test]
    fn canonical_gaps_of_identity_oriented_net_are_the_grid_gaps() {
        // A net instantiated from an already-canonical pattern classifies
        // to itself: identity inverse, raw gap vector.
        for pattern in Pattern::enumerate_canonical(4) {
            let h = [3i64, 1, 4];
            let v = [2i64, 7, 5];
            let instance = pattern.instantiate(&h, &v);
            let class = NetClass::of(&instance).unwrap();
            assert_eq!(class.key(), pattern.key());
            if class.inverse() == Transform::IDENTITY {
                let grid = HananGrid::new(&instance);
                assert_eq!(class.canonical_gaps(), grid.gap_vector().as_slice());
            }
        }
    }

    #[test]
    fn all_pattern_orbits_classify_consistently() {
        // Exhaustive over degree-4 patterns: every instantiation of every
        // orbit member produces the orbit representative's key.
        for pattern in Pattern::enumerate_all(4) {
            let instance = pattern.instantiate(&[2, 5, 1], &[3, 2, 7]);
            let class = NetClass::of(&instance).unwrap();
            assert_eq!(class.key(), pattern.canonical().0.key());
        }
    }

    /// The classifier this type replaced, rebuilt from the grid and
    /// pattern types: the least orbit key, then the least mapped gap
    /// vector among the transforms reaching it (first transform wins a
    /// tie), and that transform's inverse.
    fn grid_pattern_reference(net: &Net) -> (PatternKey, Vec<i64>, Transform) {
        let grid = HananGrid::new(net);
        let (pattern, _) = Pattern::from_grid(&grid);
        let key = ALL_TRANSFORMS
            .iter()
            .map(|&t| pattern.transformed(t).key())
            .min()
            .unwrap();
        let mut best: Option<(Vec<i64>, Transform)> = None;
        for t in ALL_TRANSFORMS {
            if pattern.transformed(t).key() != key {
                continue;
            }
            let (mut h, mut v) = if t.swap {
                (grid.v_gaps(), grid.h_gaps())
            } else {
                (grid.h_gaps(), grid.v_gaps())
            };
            if t.flip_x {
                h.reverse();
            }
            if t.flip_y {
                v.reverse();
            }
            h.extend(v);
            if best.as_ref().is_none_or(|(gaps, _)| h < *gaps) {
                best = Some((h, t));
            }
        }
        let (gaps, t) = best.unwrap();
        (key, gaps, t.inverse())
    }

    #[test]
    fn netclass_matches_the_grid_pattern_reference_on_every_degree_4_and_5_pattern() {
        for n in 4..=5u8 {
            let m = n as usize - 1;
            let distinct: Vec<i64> = (0..m as i64).map(|i| 3 * i + 2).collect();
            let partly_zero: Vec<i64> = (0..m as i64).map(|i| (i % 2) * 4).collect();
            let zero = vec![0i64; m];
            for pattern in Pattern::enumerate_all(n) {
                for (h, v) in [
                    (&zero, &zero),
                    (&distinct, &partly_zero),
                    (&partly_zero, &distinct),
                ] {
                    let net = pattern.instantiate(h, v);
                    let class = NetClass::of(&net).unwrap();
                    let (key, gaps, inverse) = grid_pattern_reference(&net);
                    assert_eq!(class.key(), key, "{net:?}");
                    assert_eq!(class.canonical_gaps(), gaps.as_slice(), "{net:?}");
                    assert_eq!(class.inverse(), inverse, "{net:?}");
                    // The instance rank space is the Hanan grid's.
                    let grid = HananGrid::new(&net);
                    for (pin, &at) in net.pins().iter().enumerate() {
                        let node = class.pin_node(pin);
                        let cell = grid.pin_node(pin);
                        assert_eq!((node.col as u16, node.row as u16), (cell.col, cell.row));
                        assert_eq!(class.plane_point(node), at);
                    }
                }
            }
        }
    }

    #[test]
    fn netclass_slots_identify_equal_plane_points() {
        // Every pair of instance nodes of tied degree-4 nets: same plane
        // point exactly when same slot, and a slot is its own slot.
        for pattern in Pattern::enumerate_all(4) {
            let net = pattern.instantiate(&[0, 3, 0], &[2, 0, 0]);
            let class = NetClass::of(&net).unwrap();
            let nodes: Vec<RankNode> = (0..4u8)
                .flat_map(|c| (0..4u8).map(move |r| RankNode::new(c, r)))
                .collect();
            for &a in &nodes {
                let slot = class.slot(a);
                assert_eq!(class.slot(slot), slot);
                assert_eq!(class.plane_point(slot), class.plane_point(a));
                for &b in &nodes {
                    assert_eq!(
                        class.plane_point(a) == class.plane_point(b),
                        slot == class.slot(b),
                        "{a:?} {b:?} of {net:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn degree_2_and_oversized_nets() {
        let tiny = net(&[(0, 0), (5, 3)]);
        let class = NetClass::of(&tiny).unwrap();
        assert_eq!(class.degree(), 2);
        assert_eq!(class.canonical_gaps().len(), 2);

        let big = Net::new((0..20).map(|i| Point::new(i, i * i)).collect()).unwrap();
        assert!(NetClass::of(&big).is_none());
    }

    #[test]
    fn zero_gaps_survive_classification() {
        // Tied coordinates produce zero-width gaps; the class must keep
        // them (positions matter for the dot-product evaluation).
        let n = net(&[(0, 0), (0, 4), (3, 4)]);
        let class = NetClass::of(&n).unwrap();
        assert_eq!(class.canonical_gaps().len(), 4);
        assert!(class.canonical_gaps().contains(&0));
    }
}
