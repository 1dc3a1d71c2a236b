//! The dihedral symmetry group of Hanan-grid patterns.
//!
//! Two patterns that differ only by mirror or rotation transformations have
//! identical Pareto structure, so the lookup tables store only one canonical
//! representative per orbit (paper §V-A, "breaking symmetries"). The group
//! is the dihedral group of the square, `D₄`, of order 8.

use crate::pattern::RankNode;

/// An element of the pattern symmetry group `D₄`.
///
/// Every element is written canonically as *transpose first, then axis
/// flips*: `T(p) = flip(swap(p))`. All eight combinations of the three
/// booleans enumerate the whole group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Transform {
    /// Swap x and y first (reflection across the main diagonal).
    pub swap: bool,
    /// Then mirror columns (`c ↦ n−1−c`).
    pub flip_x: bool,
    /// Then mirror rows (`r ↦ n−1−r`).
    pub flip_y: bool,
}

/// All eight elements of the group, identity first.
pub const ALL_TRANSFORMS: [Transform; 8] = [
    Transform { swap: false, flip_x: false, flip_y: false },
    Transform { swap: false, flip_x: true, flip_y: false },
    Transform { swap: false, flip_x: false, flip_y: true },
    Transform { swap: false, flip_x: true, flip_y: true },
    Transform { swap: true, flip_x: false, flip_y: false },
    Transform { swap: true, flip_x: true, flip_y: false },
    Transform { swap: true, flip_x: false, flip_y: true },
    Transform { swap: true, flip_x: true, flip_y: true },
];

impl Transform {
    /// The identity transform.
    pub const IDENTITY: Transform = ALL_TRANSFORMS[0];

    /// Applies the transform to a rank-grid node of an `n × n` pattern grid.
    pub fn apply(self, node: RankNode, n: u8) -> RankNode {
        let (mut c, mut r) = (node.col, node.row);
        if self.swap {
            std::mem::swap(&mut c, &mut r);
        }
        if self.flip_x {
            c = n - 1 - c;
        }
        if self.flip_y {
            r = n - 1 - r;
        }
        RankNode { col: c, row: r }
    }

    /// The inverse transform.
    ///
    /// Since `T = F ∘ S` (flips after swap) and both factors are
    /// involutions, `T⁻¹ = S ∘ F`, which re-expressed in `F' ∘ S` form
    /// exchanges the two flip flags when `swap` is set.
    pub fn inverse(self) -> Transform {
        if self.swap {
            Transform {
                swap: true,
                flip_x: self.flip_y,
                flip_y: self.flip_x,
            }
        } else {
            self
        }
    }

    /// Composition `self ∘ other` (apply `other` first, then `self`).
    ///
    /// Derivation: writing `S` for the swap and `F(a, b)` for the flips,
    /// every element is `F ∘ S`, and `S ∘ F(a, b) = F(b, a) ∘ S`. Hence
    /// `F₁S₁ F₂S₂ = F₁ F₂′ S₁S₂` where `F₂′` exchanges its flags when `S₁`
    /// is the swap.
    pub fn compose(self, other: Transform) -> Transform {
        let (fx2, fy2) = if self.swap {
            (other.flip_y, other.flip_x)
        } else {
            (other.flip_x, other.flip_y)
        };
        Transform {
            swap: self.swap ^ other.swap,
            flip_x: self.flip_x ^ fx2,
            flip_y: self.flip_y ^ fy2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u8) -> Vec<RankNode> {
        (0..n)
            .flat_map(|c| (0..n).map(move |r| RankNode { col: c, row: r }))
            .collect()
    }

    #[test]
    fn identity_fixes_everything() {
        for p in nodes(5) {
            assert_eq!(Transform::IDENTITY.apply(p, 5), p);
        }
    }

    #[test]
    fn all_transforms_are_distinct_permutations() {
        let pts = nodes(3);
        let mut images = std::collections::HashSet::new();
        for t in ALL_TRANSFORMS {
            let img: Vec<RankNode> = pts.iter().map(|&p| t.apply(p, 3)).collect();
            let set: std::collections::HashSet<_> = img.iter().collect();
            assert_eq!(set.len(), pts.len(), "{t:?} is not a bijection");
            assert!(images.insert(img), "{t:?} duplicates another element");
        }
        assert_eq!(images.len(), 8);
    }

    #[test]
    fn inverse_undoes_apply() {
        for t in ALL_TRANSFORMS {
            let inv = t.inverse();
            for p in nodes(6) {
                assert_eq!(inv.apply(t.apply(p, 6), 6), p, "inverse of {t:?}");
                assert_eq!(t.apply(inv.apply(p, 6), 6), p);
            }
        }
    }

    #[test]
    fn compose_matches_sequential_application() {
        for a in ALL_TRANSFORMS {
            for b in ALL_TRANSFORMS {
                let c = a.compose(b);
                for p in nodes(4) {
                    assert_eq!(
                        c.apply(p, 4),
                        a.apply(b.apply(p, 4), 4),
                        "compose({a:?}, {b:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn group_is_closed_under_composition() {
        for a in ALL_TRANSFORMS {
            for b in ALL_TRANSFORMS {
                let c = a.compose(b);
                assert!(ALL_TRANSFORMS.contains(&c));
            }
        }
    }
}
