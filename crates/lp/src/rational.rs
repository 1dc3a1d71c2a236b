//! Exact rational numbers over `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0`, always stored in
/// lowest terms.
///
/// The simplex tableaus this crate manipulates start from tiny integer
/// coefficients (Hanan-grid edge multiplicities, 0–9), so `i128` numerators
/// and denominators never come close to overflowing in practice; all
/// arithmetic is nevertheless `checked_*` and panics loudly rather than
/// wrapping if the assumption is ever violated.
///
/// # Example
///
/// ```
/// use patlabor_lp::Rational;
///
/// let a = Rational::new(1, 3);
/// let b = Rational::new(1, 6);
/// assert_eq!(a + b, Rational::new(1, 2));
/// assert!(a > b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or if the reduced value is not representable
    /// (the only such case is a reduced denominator of exactly `2^127`,
    /// e.g. `Rational::new(1, i128::MIN)`).
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        // Reduce in unsigned space: `gcd` can be `2^127` (both arguments
        // `i128::MIN`), which a bare `as i128` cast would wrap negative and
        // silently corrupt the reduction. Signs are reapplied afterwards
        // with checked conversions so every unrepresentable edge panics
        // loudly instead of wrapping.
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        let num_mag = num.unsigned_abs() / g;
        let den_mag = den.unsigned_abs() / g;
        let negative = (num < 0) != (den < 0);
        let den = i128::try_from(den_mag)
            .expect("rational overflow: reduced denominator exceeds i128::MAX");
        let num = if negative {
            // A negative numerator can carry one more magnitude step than
            // a positive one (down to -2^127 = i128::MIN).
            if num_mag == i128::MIN.unsigned_abs() {
                i128::MIN
            } else {
                -i128::try_from(num_mag)
                    .expect("rational overflow: reduced numerator exceeds i128::MAX")
            }
        } else {
            i128::try_from(num_mag)
                .expect("rational overflow: reduced numerator exceeds i128::MAX")
        };
        Rational { num, den }
    }

    /// The numerator (sign-carrying).
    pub fn numerator(self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denominator(self) -> i128 {
        self.den
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b.max(1);
    }
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn mul_checked(a: i128, b: i128) -> i128 {
    a.checked_mul(b).expect("rational arithmetic overflow")
}

impl Add for Rational {
    type Output = Rational;

    fn add(self, rhs: Rational) -> Rational {
        let num = mul_checked(self.num, rhs.den)
            .checked_add(mul_checked(rhs.num, self.den))
            .expect("rational arithmetic overflow");
        Rational::new(num, mul_checked(self.den, rhs.den))
    }
}

impl Sub for Rational {
    type Output = Rational;

    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;

    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = gcd(self.num.unsigned_abs(), rhs.den.unsigned_abs()) as i128;
        let g2 = gcd(rhs.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        Rational::new(
            mul_checked(self.num / g1, rhs.num / g2),
            mul_checked(self.den / g2, rhs.den / g1),
        )
    }
}

impl Div for Rational {
    type Output = Rational;

    // Division by a rational IS multiplication by its reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;

    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        mul_checked(self.num, other.den).cmp(&mul_checked(other.num, self.den))
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn i128_min_edges_reduce_exactly() {
        // gcd(|MIN|, |MIN|) = 2^127 does not fit in i128; the reduction
        // must still produce the exact value instead of wrapping.
        assert_eq!(Rational::new(i128::MIN, i128::MIN), Rational::ONE);
        assert_eq!(
            Rational::new(i128::MIN, 2),
            Rational::new(i128::MIN / 2, 1)
        );
        assert_eq!(Rational::new(i128::MIN, -2), Rational::new(-(i128::MIN / 2), 1));
        let extreme = Rational::new(i128::MIN, 1);
        assert_eq!(extreme.numerator(), i128::MIN);
        assert_eq!(extreme.denominator(), 1);
        assert_eq!(Rational::new(0, i128::MIN), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn unrepresentable_denominator_panics_loudly() {
        // 1 / i128::MIN needs denominator 2^127 > i128::MAX: must panic,
        // not wrap.
        let _ = Rational::new(1, i128::MIN);
    }

    #[test]
    fn arithmetic_examples() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from(2i64));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Rational::new(1, 3) > Rational::new(333, 1000));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rational::new(3, 1).to_string(), "3");
        assert_eq!(Rational::new(-3, 7).to_string(), "-3/7");
    }

    fn rat() -> impl Strategy<Value = Rational> {
        (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Rational::new(n, d))
    }

    proptest! {
        #[test]
        fn prop_field_axioms(a in rat(), b in rat(), c in rat()) {
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!(a + Rational::ZERO, a);
            prop_assert_eq!(a * Rational::ONE, a);
            prop_assert_eq!(a - a, Rational::ZERO);
        }

        #[test]
        fn prop_recip_inverts(a in rat()) {
            if !a.is_zero() {
                prop_assert_eq!(a * a.recip(), Rational::ONE);
            }
        }

        #[test]
        fn prop_order_total_and_compatible(a in rat(), b in rat(), c in rat()) {
            if a < b {
                prop_assert!(a + c < b + c);
                if c.is_positive() {
                    prop_assert!(a * c < b * c);
                }
            }
        }
    }
}
