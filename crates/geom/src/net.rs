//! Routing instances `(r, P)`.

use std::fmt;

use crate::{BoundingBox, Point};

/// A routing net: one source pin followed by one or more sink pins.
///
/// The source is always `pins[0]`, matching the paper's convention
/// `r = p₁`. Duplicate pin *positions* are allowed (real netlists contain
/// them); a net must however contain at least two pins and no duplicate of
/// the source among the sinks is removed automatically — callers that want
/// dedup should do it explicitly before construction.
///
/// # Example
///
/// ```
/// use patlabor_geom::{Net, Point};
///
/// # fn main() -> Result<(), patlabor_geom::InvalidNetError> {
/// let net = Net::new(vec![Point::new(0, 0), Point::new(2, 3)])?;
/// assert_eq!(net.sinks().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Net {
    pins: Vec<Point>,
}

/// Error returned when constructing a [`Net`] from fewer than two pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidNetError {
    /// Number of pins that were supplied.
    pub pin_count: usize,
}

impl fmt::Display for InvalidNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a net needs at least two pins (source and one sink), got {}",
            self.pin_count
        )
    }
}

impl std::error::Error for InvalidNetError {}

impl Net {
    /// Creates a net from its pins; `pins[0]` is the source.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidNetError`] when fewer than two pins are given.
    pub fn new(pins: Vec<Point>) -> Result<Self, InvalidNetError> {
        if pins.len() < 2 {
            return Err(InvalidNetError {
                pin_count: pins.len(),
            });
        }
        Ok(Net { pins })
    }

    /// The source pin `r`.
    pub fn source(&self) -> Point {
        self.pins[0]
    }

    /// All pins, source first.
    pub fn pins(&self) -> &[Point] {
        &self.pins
    }

    /// Number of pins `n` (the *degree* of the net).
    pub fn degree(&self) -> usize {
        self.pins.len()
    }

    /// Iterator over the sink pins `p₂ … pₙ`.
    pub fn sinks(&self) -> impl Iterator<Item = Point> + '_ {
        self.pins[1..].iter().copied()
    }

    /// Bounding box of all pins.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::of_points(self.pins.iter().copied()).expect("net has at least two pins")
    }

    /// Half-perimeter wirelength of the pins — a classic lower bound on the
    /// wirelength of any routing tree for up to three pins and a common
    /// normalization constant.
    pub fn hpwl(&self) -> i64 {
        self.bounding_box().half_perimeter()
    }

    /// Lower bound on the delay of *any* routing tree: the largest `l₁`
    /// distance from the source to a sink (every tree path is at least the
    /// straight rectilinear distance).
    pub fn delay_lower_bound(&self) -> i64 {
        self.sinks()
            .map(|s| self.source().l1(s))
            .max()
            .expect("net has at least one sink")
    }

    /// Returns a copy of the net with every pin transformed by `f`.
    /// The source stays first.
    pub fn map_points<F>(&self, mut f: F) -> Net
    where
        F: FnMut(Point) -> Point,
    {
        Net {
            pins: self.pins.iter().map(|&p| f(p)).collect(),
        }
    }

    /// Returns the same pin set with exact duplicates of earlier pins
    /// removed (keeping first occurrences, so the source always survives).
    ///
    /// Degree-n statistics in the paper are computed on deduplicated nets.
    pub fn dedup_pins(&self) -> Net {
        let mut seen = std::collections::HashSet::new();
        let pins: Vec<Point> = self
            .pins
            .iter()
            .copied()
            .filter(|p| seen.insert(*p))
            .collect();
        // At worst everything collapsed onto the source; keep the net valid
        // by retaining one sink copy in that degenerate case.
        if pins.len() < 2 {
            Net {
                pins: vec![self.pins[0], self.pins[0]],
            }
        } else {
            Net { pins }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn rejects_tiny_pin_sets() {
        assert_eq!(Net::new(vec![]).unwrap_err().pin_count, 0);
        assert_eq!(Net::new(vec![Point::new(0, 0)]).unwrap_err().pin_count, 1);
        let msg = Net::new(vec![]).unwrap_err().to_string();
        assert!(msg.contains("at least two pins"));
    }

    #[test]
    fn accessors_follow_paper_convention() {
        let n = net(&[(1, 1), (4, 5), (0, 9)]);
        assert_eq!(n.source(), Point::new(1, 1));
        assert_eq!(n.degree(), 3);
        let sinks: Vec<_> = n.sinks().collect();
        assert_eq!(sinks, vec![Point::new(4, 5), Point::new(0, 9)]);
    }

    #[test]
    fn hpwl_and_delay_lower_bound() {
        let n = net(&[(0, 0), (3, 4), (6, 1)]);
        assert_eq!(n.hpwl(), 6 + 4);
        assert_eq!(n.delay_lower_bound(), 7);
    }

    #[test]
    fn dedup_keeps_first_occurrences() {
        let n = net(&[(0, 0), (3, 4), (3, 4), (0, 0), (1, 1)]);
        let d = n.dedup_pins();
        assert_eq!(
            d.pins(),
            &[Point::new(0, 0), Point::new(3, 4), Point::new(1, 1)]
        );
    }

    #[test]
    fn dedup_degenerate_all_same_point_stays_valid() {
        let n = net(&[(5, 5), (5, 5), (5, 5)]);
        let d = n.dedup_pins();
        assert_eq!(d.degree(), 2);
        assert_eq!(d.source(), Point::new(5, 5));
    }

    #[test]
    fn map_points_preserves_order() {
        let n = net(&[(0, 0), (1, 2)]);
        let m = n.map_points(|p| Point::new(p.y, p.x));
        assert_eq!(m.source(), Point::new(0, 0));
        assert_eq!(m.pins()[1], Point::new(2, 1));
    }
}
