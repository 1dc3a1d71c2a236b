//! The `(w, d)` objective vector.

use std::fmt;
use std::ops::Add;

/// The objective pair of a routing tree: total wirelength `w` and maximum
/// source→sink path length `d` (paper notation `s(T) = (w(T), d(T))`).
///
/// Both objectives are exact integers (database units), so dominance is an
/// exact comparison with no floating-point tolerance.
///
/// # Example
///
/// ```
/// use patlabor_pareto::Cost;
///
/// let a = Cost::new(10, 20);
/// let b = Cost::new(12, 20);
/// assert!(a.dominates(b));
/// assert!(a.dominates(a));          // dominance is reflexive (weak)
/// assert!(!b.dominates(a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cost {
    /// Total wirelength `w(T)`.
    pub wirelength: i64,
    /// Delay `d(T)`: maximum source→sink path length.
    pub delay: i64,
}

impl Cost {
    /// Creates an objective pair.
    #[inline]
    pub const fn new(wirelength: i64, delay: i64) -> Self {
        Cost { wirelength, delay }
    }

    /// Weak Pareto dominance `self ⪯ other`: no worse in both objectives.
    #[inline]
    pub fn dominates(self, other: Cost) -> bool {
        self.wirelength <= other.wirelength && self.delay <= other.delay
    }

    /// Strict dominance: `self ⪯ other` and better in at least one
    /// objective.
    #[inline]
    pub fn strictly_dominates(self, other: Cost) -> bool {
        self.dominates(other) && self != other
    }

    /// Shifts both objectives by `x` — the `S + x` operation of Eq. (1)
    /// applied to one solution (growing the tree by an edge of length `x`
    /// that every source→sink path crosses).
    #[inline]
    pub fn shift(self, x: i64) -> Cost {
        Cost::new(self.wirelength + x, self.delay + x)
    }

    /// Combines two subtree solutions rooted at the same node — the `⊕`
    /// operation of Eq. (1): wirelengths add, delays take the maximum.
    #[inline]
    pub fn combine(self, other: Cost) -> Cost {
        Cost::new(
            self.wirelength + other.wirelength,
            self.delay.max(other.delay),
        )
    }

    /// The scalarization `(1 − β)·w + β·d` used by weighted-sum baselines,
    /// computed in integer arithmetic as `num·w + den·d` to stay exact.
    #[inline]
    pub fn weighted(self, w_weight: i64, d_weight: i64) -> i64 {
        w_weight * self.wirelength + d_weight * self.delay
    }
}

impl Add<i64> for Cost {
    type Output = Cost;

    fn add(self, x: i64) -> Cost {
        self.shift(x)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(w={}, d={})", self.wirelength, self.delay)
    }
}

impl From<(i64, i64)> for Cost {
    fn from((w, d): (i64, i64)) -> Self {
        Cost::new(w, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dominance_cases() {
        let a = Cost::new(5, 5);
        assert!(a.dominates(Cost::new(5, 5)));
        assert!(a.dominates(Cost::new(6, 5)));
        assert!(a.dominates(Cost::new(5, 9)));
        assert!(!a.dominates(Cost::new(4, 9)));
        assert!(!a.dominates(Cost::new(9, 4)));
        assert!(!a.strictly_dominates(a));
        assert!(a.strictly_dominates(Cost::new(5, 6)));
    }

    #[test]
    fn shift_and_combine_follow_eq1() {
        let a = Cost::new(3, 7);
        assert_eq!(a.shift(4), Cost::new(7, 11));
        assert_eq!(a + 4, Cost::new(7, 11));
        let b = Cost::new(10, 2);
        assert_eq!(a.combine(b), Cost::new(13, 7));
        assert_eq!(b.combine(a), Cost::new(13, 7));
    }

    #[test]
    fn weighted_scalarization() {
        let a = Cost::new(3, 7);
        assert_eq!(a.weighted(2, 5), 6 + 35);
    }

    #[test]
    fn display_and_conversions() {
        let a: Cost = (3, 7).into();
        assert_eq!(a.to_string(), "(w=3, d=7)");
    }

    fn cost() -> impl Strategy<Value = Cost> {
        (0i64..1_000_000, 0i64..1_000_000).prop_map(Cost::from)
    }

    proptest! {
        #[test]
        fn prop_dominance_is_transitive(a in cost(), b in cost(), c in cost()) {
            if a.dominates(b) && b.dominates(c) {
                prop_assert!(a.dominates(c));
            }
        }

        #[test]
        fn prop_shift_preserves_dominance(a in cost(), b in cost(), x in 0i64..1000) {
            prop_assert_eq!(a.dominates(b), a.shift(x).dominates(b.shift(x)));
        }

        #[test]
        fn prop_combine_is_monotone(a in cost(), b in cost(), c in cost()) {
            if a.dominates(b) {
                prop_assert!(a.combine(c).dominates(b.combine(c)));
            }
        }

        #[test]
        fn prop_combine_commutes(a in cost(), b in cost()) {
            prop_assert_eq!(a.combine(b), b.combine(a));
        }
    }
}
