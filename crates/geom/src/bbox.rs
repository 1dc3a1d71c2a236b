//! Axis-aligned bounding boxes and half-perimeter wirelength.

use crate::Point;

/// An axis-aligned rectangle, stored as its lower-left and upper-right
/// corners (both inclusive).
///
/// Used by the Lemma 3 pruning rule of the paper (projecting a Hanan-grid
/// node onto the bounding box of a pin subset) and by the policy-π scoring
/// function (HPWL term).
///
/// # Example
///
/// ```
/// use patlabor_geom::{BoundingBox, Point};
///
/// let bb = BoundingBox::of_points([Point::new(1, 5), Point::new(4, 2)])
///     .expect("non-empty");
/// assert_eq!(bb.half_perimeter(), 3 + 3);
/// assert!(bb.contains(Point::new(2, 3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundingBox {
    lo: Point,
    hi: Point,
}

impl BoundingBox {
    /// Creates the degenerate box containing exactly one point.
    pub fn point(p: Point) -> Self {
        BoundingBox { lo: p, hi: p }
    }

    /// Creates the smallest box containing every point of the iterator, or
    /// `None` when the iterator is empty.
    pub fn of_points<I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = Point>,
    {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = BoundingBox::point(first);
        for p in it {
            bb.expand(p);
        }
        Some(bb)
    }

    /// Lower-left corner.
    pub fn lo(&self) -> Point {
        self.lo
    }

    /// Upper-right corner.
    pub fn hi(&self) -> Point {
        self.hi
    }

    /// Grows the box (in place) to also contain `p`.
    pub fn expand(&mut self, p: Point) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Width plus height — the half-perimeter wirelength of the box.
    pub fn half_perimeter(&self) -> i64 {
        (self.hi.x - self.lo.x) + (self.hi.y - self.lo.y)
    }

    /// Whether `p` lies inside the box (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// The closest point of the box to `p` under any `lᵖ` metric: each
    /// coordinate of `p` clamped to the box range.
    ///
    /// This is the projection used by pruning Lemma 3: for a node `v`
    /// outside `BB(S)`, `S_{v,Q} = S_{u,Q} + ‖v − u‖₁` where
    /// `u = BB(S).project(v)`.
    pub fn project(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.lo.x, self.hi.x),
            p.y.clamp(self.lo.y, self.hi.y),
        )
    }
}

/// Half-perimeter wirelength of a point set; `0` for fewer than two points.
///
/// ```
/// use patlabor_geom::{hpwl, Point};
/// let pins = [Point::new(0, 0), Point::new(3, 1), Point::new(1, 4)];
/// assert_eq!(hpwl(pins), 3 + 4);
/// ```
pub fn hpwl<I>(points: I) -> i64
where
    I: IntoIterator<Item = Point>,
{
    BoundingBox::of_points(points).map_or(0, |bb| bb.half_perimeter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn of_points_empty_is_none() {
        assert!(BoundingBox::of_points(std::iter::empty()).is_none());
    }

    #[test]
    fn single_point_box_has_zero_half_perimeter() {
        let bb = BoundingBox::point(Point::new(5, -2));
        assert_eq!(bb.half_perimeter(), 0);
        assert!(bb.contains(Point::new(5, -2)));
        assert!(!bb.contains(Point::new(5, -1)));
    }

    #[test]
    fn projection_of_inside_point_is_identity() {
        let bb = BoundingBox::of_points([Point::new(0, 0), Point::new(10, 10)]).unwrap();
        let p = Point::new(3, 7);
        assert_eq!(bb.project(p), p);
    }

    #[test]
    fn projection_of_outside_point_lands_on_boundary() {
        let bb = BoundingBox::of_points([Point::new(0, 0), Point::new(10, 10)]).unwrap();
        assert_eq!(bb.project(Point::new(-4, 5)), Point::new(0, 5));
        assert_eq!(bb.project(Point::new(12, 15)), Point::new(10, 10));
    }

    #[test]
    fn hpwl_matches_manual_computation() {
        let pins = [Point::new(2, 2), Point::new(7, 3), Point::new(4, 9)];
        assert_eq!(hpwl(pins), (7 - 2) + (9 - 2));
        assert_eq!(hpwl([Point::new(1, 1)]), 0);
        assert_eq!(hpwl(std::iter::empty()), 0);
    }

    fn coord() -> impl Strategy<Value = i64> {
        -10_000i64..10_000
    }

    proptest! {
        #[test]
        fn prop_projection_is_closest_on_axis(
            (lx, hx) in (coord(), coord()).prop_map(|(a, b)| (a.min(b), a.max(b))),
            (ly, hy) in (coord(), coord()).prop_map(|(a, b)| (a.min(b), a.max(b))),
            px in coord(), py in coord(),
        ) {
            let bb = BoundingBox::of_points([Point::new(lx, ly), Point::new(hx, hy)]).unwrap();
            let p = Point::new(px, py);
            let u = bb.project(p);
            prop_assert!(bb.contains(u));
            // No box point can be strictly closer than the projection.
            for corner in [bb.lo(), bb.hi(),
                           Point::new(bb.lo().x, bb.hi().y),
                           Point::new(bb.hi().x, bb.lo().y)] {
                prop_assert!(p.l1(u) <= p.l1(corner));
            }
        }

        #[test]
        fn prop_hpwl_lower_bounds_pairwise_distance(
            pts in proptest::collection::vec((coord(), coord()), 2..8),
        ) {
            let pts: Vec<Point> = pts.into_iter().map(Point::from).collect();
            let h = hpwl(pts.iter().copied());
            for &a in &pts {
                for &b in &pts {
                    prop_assert!(a.l1(b) <= h);
                }
            }
        }
    }
}
