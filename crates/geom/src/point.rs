//! Integer points in the rectilinear plane.

use std::fmt;

/// A point in the rectilinear plane `(Z², ‖·‖₁)`.
///
/// Coordinates are `i64`, but the router accepts only points with
/// |x|, |y| ≤ [`Point::MAX_COORD`] = 2³¹ − 1 (DEF's 32-bit database
/// units; see [`Point::in_bounds`]). Inside that bound every distance,
/// wirelength and path delay the router computes fits in `i64`.
///
/// # Example
///
/// ```
/// use patlabor_geom::Point;
///
/// let a = Point::new(1, 5);
/// let b = Point::new(4, 1);
/// assert_eq!(a.l1(b), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: i64,
    /// Vertical coordinate.
    pub y: i64,
}

impl Point {
    /// The largest coordinate magnitude the router accepts: 2³¹ − 1, the
    /// range of DEF's 32-bit database units. Two in-bound points are
    /// less than 2³³ apart, so a tree of fewer than 2³⁰ such edges sums
    /// inside `i64`.
    pub const MAX_COORD: i64 = (1 << 31) - 1;

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }

    /// Rectilinear (`l₁`) distance to `other`.
    ///
    /// ```
    /// use patlabor_geom::Point;
    /// assert_eq!(Point::new(0, 0).l1(Point::new(-2, 3)), 5);
    /// ```
    #[inline]
    pub fn l1(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise minimum (lower-left corner of the bounding box of the
    /// two points).
    #[inline]
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum (upper-right corner of the bounding box of the
    /// two points).
    #[inline]
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Whether both coordinates lie in `[-MAX_COORD, MAX_COORD]`
    /// ([`Point::MAX_COORD`]).
    ///
    /// ```
    /// use patlabor_geom::Point;
    /// assert!(Point::new(Point::MAX_COORD, -Point::MAX_COORD).in_bounds());
    /// assert!(!Point::new(0, i64::MIN).in_bounds());
    /// ```
    #[inline]
    pub fn in_bounds(self) -> bool {
        let range = -Self::MAX_COORD..=Self::MAX_COORD;
        range.contains(&self.x) && range.contains(&self.y)
    }

    /// Swaps the two coordinates (reflection across the main diagonal).
    #[inline]
    pub fn transposed(self) -> Point {
        Point::new(self.y, self.x)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Point {
    fn from((x, y): (i64, i64)) -> Self {
        Point::new(x, y)
    }
}

/// Rectilinear (`l₁`) distance between two points.
///
/// Free-function form of [`Point::l1`], convenient in iterator chains.
///
/// ```
/// use patlabor_geom::{l1, Point};
/// assert_eq!(l1(Point::new(3, 3), Point::new(5, 0)), 5);
/// ```
#[inline]
pub fn l1(a: Point, b: Point) -> i64 {
    a.l1(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn l1_is_symmetric_on_examples() {
        let a = Point::new(-3, 9);
        let b = Point::new(12, -1);
        assert_eq!(a.l1(b), b.l1(a));
        assert_eq!(a.l1(b), 25);
    }

    #[test]
    fn l1_zero_iff_equal() {
        let a = Point::new(7, 7);
        assert_eq!(a.l1(a), 0);
        assert_ne!(a.l1(Point::new(7, 8)), 0);
    }

    #[test]
    fn min_max_bound_the_points() {
        let a = Point::new(1, 9);
        let b = Point::new(4, 2);
        assert_eq!(a.min(b), Point::new(1, 2));
        assert_eq!(a.max(b), Point::new(4, 9));
    }

    #[test]
    fn transpose_is_involutive() {
        let p = Point::new(3, -8);
        assert_eq!(p.transposed().transposed(), p);
    }

    #[test]
    fn display_and_from_tuple() {
        let p: Point = (2, 3).into();
        assert_eq!(p.to_string(), "(2, 3)");
    }

    fn coord() -> impl Strategy<Value = i64> {
        -1_000_000i64..1_000_000
    }

    proptest! {
        #[test]
        fn prop_l1_triangle_inequality(ax in coord(), ay in coord(),
                                       bx in coord(), by in coord(),
                                       cx in coord(), cy in coord()) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.l1(c) <= a.l1(b) + b.l1(c));
        }

        #[test]
        fn prop_l1_symmetry(ax in coord(), ay in coord(),
                            bx in coord(), by in coord()) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert_eq!(a.l1(b), b.l1(a));
        }

        #[test]
        fn prop_l1_invariant_under_transpose(ax in coord(), ay in coord(),
                                             bx in coord(), by in coord()) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert_eq!(a.l1(b), a.transposed().l1(b.transposed()));
        }
    }
}
