//! Rank-space patterns of nets (paper §V-A).
//!
//! The Pareto structure of a net on its Hanan grid depends only on the
//! *relative order* of the pin coordinates and on which pin is the source —
//! the concrete gap lengths `l₁ … l₂ₙ₋₂` only enter when a stored topology
//! is evaluated. A [`Pattern`] captures exactly that order information:
//! pin `c` (in x-rank order) sits at rank node `(c, yperm[c])` and one column
//! holds the source. There are `n! · n` patterns of degree `n`, reduced by
//! the [`Transform`] symmetry group before table generation.

use crate::{HananGrid, Net, Transform, ALL_TRANSFORMS};

/// A node of the `n × n` rank grid of a [`Pattern`].
///
/// Unlike [`crate::GridNode`] this is deliberately a separate type: rank
/// nodes live in pattern space (always `n` columns and rows, `u8` indices)
/// while grid nodes live on a concrete net's Hanan grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RankNode {
    /// Column rank, `0 ≤ col < n`.
    pub col: u8,
    /// Row rank, `0 ≤ row < n`.
    pub row: u8,
}

impl RankNode {
    /// Creates a rank node.
    pub const fn new(col: u8, row: u8) -> Self {
        RankNode { col, row }
    }
}

/// Compact identifier of a pattern, usable as a lookup-table index.
///
/// Encodes `(n, source column, Lehmer code of the y-permutation)` into a
/// `u64`; patterns of the same degree are densely comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternKey(u64);

impl PatternKey {
    /// The raw encoded value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The rank-space pattern of a degree-`n` net: a y-rank permutation plus the
/// source column.
///
/// # Example
///
/// ```
/// use patlabor_geom::{Net, Pattern, Point};
///
/// # fn main() -> Result<(), patlabor_geom::InvalidNetError> {
/// let net = Net::new(vec![Point::new(9, 1), Point::new(0, 5), Point::new(4, 2)])?;
/// let (pattern, cols) = Pattern::from_net(&net);
/// assert_eq!(pattern.n(), 3);
/// // x-order is pin1 (x=0), pin2 (x=4), pin0 (x=9): the source is column 2.
/// assert_eq!(pattern.source_col(), 2);
/// assert_eq!(cols, vec![1, 2, 0]); // pin index living in each column
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    n: u8,
    /// `yperm[c]` = row rank of the pin in column `c`.
    yperm: Vec<u8>,
    /// Column rank of the source pin.
    source: u8,
}

impl Pattern {
    /// Creates a pattern from its y-permutation and source column.
    ///
    /// # Panics
    ///
    /// Panics if `yperm` is not a permutation of `0..n` or `source` is out
    /// of range (patterns are internal artifacts; malformed ones are bugs).
    pub fn new(yperm: Vec<u8>, source: u8) -> Self {
        let n = yperm.len();
        assert!((2..=16).contains(&n), "pattern degree out of range: {n}");
        assert!((source as usize) < n, "source column out of range");
        let mut seen = vec![false; n];
        for &r in &yperm {
            assert!((r as usize) < n && !seen[r as usize], "yperm not a permutation");
            seen[r as usize] = true;
        }
        Pattern {
            n: n as u8,
            yperm,
            source,
        }
    }

    /// Extracts the pattern of a net together with the pin index occupying
    /// each column (`cols[c]` = original pin index).
    pub fn from_net(net: &Net) -> (Pattern, Vec<usize>) {
        let grid = HananGrid::new(net);
        Pattern::from_grid(&grid)
    }

    /// Same as [`Pattern::from_net`] when the Hanan grid is already built.
    pub fn from_grid(grid: &HananGrid) -> (Pattern, Vec<usize>) {
        let n = grid.size();
        let mut yperm = vec![0u8; n];
        let mut cols = vec![0usize; n];
        for (pin, node) in grid.pin_nodes().iter().enumerate() {
            yperm[node.col as usize] = node.row as u8;
            cols[node.col as usize] = pin;
        }
        let source = grid.pin_node(0).col as u8;
        (Pattern::new(yperm, source), cols)
    }

    /// Degree `n` of the pattern.
    pub fn n(&self) -> u8 {
        self.n
    }

    /// Column rank of the source pin.
    pub fn source_col(&self) -> u8 {
        self.source
    }

    /// The y-rank permutation (`yperm[c]` = row of the pin in column `c`).
    pub fn yperm(&self) -> &[u8] {
        &self.yperm
    }

    /// Rank node of the pin in column `c`.
    pub fn pin_node(&self, c: u8) -> RankNode {
        RankNode::new(c, self.yperm[c as usize])
    }

    /// Rank node of the source pin.
    pub fn source_node(&self) -> RankNode {
        self.pin_node(self.source)
    }

    /// All pin rank nodes in column order.
    pub fn pin_nodes(&self) -> Vec<RankNode> {
        (0..self.n).map(|c| self.pin_node(c)).collect()
    }

    /// Dense identifier of the pattern.
    pub fn key(&self) -> PatternKey {
        key_of(&self.yperm, self.source)
    }

    /// The image of the pattern under a symmetry transform.
    pub fn transformed(&self, t: Transform) -> Pattern {
        let n = self.n;
        let mut yperm = vec![0u8; n as usize];
        for c in 0..n {
            let img = t.apply(self.pin_node(c), n);
            yperm[img.col as usize] = img.row;
        }
        let source = t.apply(self.source_node(), n).col;
        Pattern::new(yperm, source)
    }

    /// The canonical representative of this pattern's symmetry orbit and
    /// the transform `t` with `canonical = self.transformed(t)`.
    ///
    /// The representative is the orbit element with the smallest
    /// [`PatternKey`]; all eight group elements are tried.
    pub fn canonical(&self) -> (Pattern, Transform) {
        let mut best: Option<(Pattern, Transform)> = None;
        for t in ALL_TRANSFORMS {
            let img = self.transformed(t);
            match &best {
                Some((b, _)) if b.key() <= img.key() => {}
                _ => best = Some((img, t)),
            }
        }
        best.expect("transform set is non-empty")
    }

    /// Whether this pattern is its own canonical representative.
    pub fn is_canonical(&self) -> bool {
        self.canonical().0.key() == self.key()
    }

    /// Materializes the pattern into a concrete [`Net`] with the given gap
    /// lengths (`h_gaps`/`v_gaps` of length `n − 1`, entries ≥ 0).
    ///
    /// Column `c` gets `x = Σ h_gaps[..c]`; row `r` gets
    /// `y = Σ v_gaps[..r]`. The source pin comes first; the remaining pins
    /// follow in column order.
    ///
    /// # Panics
    ///
    /// Panics if a gap vector has the wrong length or a negative entry.
    pub fn instantiate(&self, h_gaps: &[i64], v_gaps: &[i64]) -> Net {
        let n = self.n as usize;
        assert_eq!(h_gaps.len(), n - 1, "need n-1 horizontal gaps");
        assert_eq!(v_gaps.len(), n - 1, "need n-1 vertical gaps");
        assert!(
            h_gaps.iter().chain(v_gaps).all(|&g| g >= 0),
            "gap lengths must be non-negative"
        );
        let mut xs = vec![0i64; n];
        let mut ys = vec![0i64; n];
        for i in 1..n {
            xs[i] = xs[i - 1] + h_gaps[i - 1];
            ys[i] = ys[i - 1] + v_gaps[i - 1];
        }
        let coord = |c: u8| crate::Point::new(xs[c as usize], ys[self.yperm[c as usize] as usize]);
        let mut pins = vec![coord(self.source)];
        for c in 0..self.n {
            if c != self.source {
                pins.push(coord(c));
            }
        }
        Net::new(pins).expect("patterns have degree >= 2")
    }

    /// Enumerates every pattern of degree `n` (`n! · n` of them).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 12` (the enumeration is factorial; larger
    /// degrees are never tabulated).
    pub fn enumerate_all(n: u8) -> Vec<Pattern> {
        assert!((2..=12).contains(&n), "pattern enumeration degree out of range: {n}");
        let mut out = Vec::new();
        let mut perm: Vec<u8> = (0..n).collect();
        loop {
            for source in 0..n {
                out.push(Pattern::new(perm.clone(), source));
            }
            if !next_permutation(&mut perm) {
                break;
            }
        }
        out
    }

    /// Enumerates only the canonical orbit representatives of degree `n` —
    /// the `#Index` column of the paper's Table II.
    pub fn enumerate_canonical(n: u8) -> Vec<Pattern> {
        Pattern::enumerate_all(n)
            .into_iter()
            .filter(Pattern::is_canonical)
            .collect()
    }
}

/// The [`PatternKey`] of the pattern with y-permutation `yperm` and source
/// column `source`.
fn key_of(yperm: &[u8], source: u8) -> PatternKey {
    let n = yperm.len() as u64;
    PatternKey((n << 40) | ((source as u64) << 32) | lehmer_code(yperm))
}

/// `Pattern::new(yperm, source).transformed(t).key()` without building
/// either pattern. The transformed permutation lives on the stack (degree
/// is capped at 16 by the `u8`-rank machinery), so classification
/// computes its eight orbit keys without allocating.
pub(crate) fn transformed_key_of(yperm: &[u8], source: u8, t: Transform) -> PatternKey {
    let n = yperm.len() as u8;
    let mut image = [0u8; 16];
    for (c, &r) in (0..n).zip(yperm) {
        let img = t.apply(RankNode::new(c, r), n);
        image[img.col as usize] = img.row;
    }
    let source = t
        .apply(RankNode::new(source, yperm[source as usize]), n)
        .col;
    key_of(&image[..n as usize], source)
}

/// Lehmer code (factorial-base rank) of a permutation of `0..n`.
fn lehmer_code(perm: &[u8]) -> u64 {
    let n = perm.len();
    let mut code = 0u64;
    let mut factorial = 1u64;
    // Horner-style accumulation from the right.
    for i in (0..n).rev() {
        let smaller_right = perm[i + 1..].iter().filter(|&&v| v < perm[i]).count() as u64;
        code += smaller_right * factorial;
        factorial *= (n - i) as u64;
    }
    code
}

/// In-place next lexicographic permutation; returns `false` after the last.
fn next_permutation(perm: &mut [u8]) -> bool {
    if perm.len() < 2 {
        return false;
    }
    let mut i = perm.len() - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = perm.len() - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Net, Point};

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn from_net_assigns_ranks() {
        let (p, cols) = Pattern::from_net(&net(&[(9, 1), (0, 5), (4, 2)]));
        // x order: pin1(0), pin2(4), pin0(9); y order: pin0(1), pin2(2), pin1(5)
        assert_eq!(p.yperm(), &[2, 1, 0]);
        assert_eq!(p.source_col(), 2);
        assert_eq!(cols, vec![1, 2, 0]);
    }

    #[test]
    fn lehmer_code_examples() {
        assert_eq!(lehmer_code(&[0, 1, 2]), 0);
        assert_eq!(lehmer_code(&[2, 1, 0]), 5);
        assert_eq!(lehmer_code(&[0, 2, 1]), 1);
        assert_eq!(lehmer_code(&[1, 0, 2]), 2);
    }

    #[test]
    fn keys_are_unique_per_degree() {
        for n in 2..=5u8 {
            let all = Pattern::enumerate_all(n);
            let keys: std::collections::HashSet<_> = all.iter().map(|p| p.key()).collect();
            assert_eq!(keys.len(), all.len(), "degree {n}");
        }
    }

    #[test]
    fn enumerate_all_counts_are_n_factorial_times_n() {
        assert_eq!(Pattern::enumerate_all(2).len(), 2 * 2);
        assert_eq!(Pattern::enumerate_all(3).len(), 6 * 3);
        assert_eq!(Pattern::enumerate_all(4).len(), 24 * 4);
        assert_eq!(Pattern::enumerate_all(5).len(), 120 * 5);
    }

    #[test]
    fn canonical_is_idempotent_and_orbit_consistent() {
        for p in Pattern::enumerate_all(4) {
            let (canon, t) = p.canonical();
            assert_eq!(p.transformed(t).key(), canon.key());
            assert!(canon.is_canonical());
            // Every orbit member canonicalizes to the same representative.
            for t2 in ALL_TRANSFORMS {
                let q = p.transformed(t2);
                assert_eq!(q.canonical().0.key(), canon.key());
            }
        }
    }

    #[test]
    fn transform_roundtrip_restores_pattern() {
        for p in Pattern::enumerate_all(4) {
            for t in ALL_TRANSFORMS {
                let back = p.transformed(t).transformed(t.inverse());
                assert_eq!(back, p);
            }
        }
    }

    #[test]
    fn canonical_counts_are_orbit_counts() {
        // Full-D4 orbit counts. The paper's Table II reports #Index = 24 /
        // 220 / 1008 for degrees 4/5/6 under its (weaker) symmetry
        // reduction; full-orbit canonicalization stores strictly fewer
        // patterns: 16 / 89 / 579. Orbit counts are bounded below by
        // |patterns| / 8.
        assert_eq!(Pattern::enumerate_canonical(4).len(), 16);
        assert_eq!(Pattern::enumerate_canonical(5).len(), 89);
        assert_eq!(Pattern::enumerate_canonical(6).len(), 579);
        for n in 4..=6u8 {
            let all = Pattern::enumerate_all(n).len();
            let canon = Pattern::enumerate_canonical(n).len();
            assert!(canon >= all / 8 && canon <= all / 4, "degree {n}");
        }
    }

    #[test]
    fn degenerate_ties_get_deterministic_pattern() {
        // Two pins share x; ranks are broken by pin order so the pattern is
        // well defined and stable.
        let (p1, _) = Pattern::from_net(&net(&[(0, 0), (0, 4), (3, 2)]));
        let (p2, _) = Pattern::from_net(&net(&[(0, 0), (0, 4), (3, 2)]));
        assert_eq!(p1, p2);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn new_rejects_non_permutation() {
        let _ = Pattern::new(vec![0, 0, 1], 0);
    }

    #[test]
    fn instantiate_roundtrips_through_from_net() {
        for p in Pattern::enumerate_all(4) {
            let net = p.instantiate(&[3, 1, 4], &[2, 7, 5]);
            let (q, _) = Pattern::from_net(&net);
            assert_eq!(q, p, "instantiate/from_net mismatch");
        }
    }

    #[test]
    fn instantiate_places_source_first() {
        let p = Pattern::new(vec![1, 0, 2], 2);
        let net = p.instantiate(&[2, 3], &[4, 5]);
        // Source is column 2, row 2 → (2+3, 4+5).
        assert_eq!(net.source(), crate::Point::new(5, 9));
        assert_eq!(net.degree(), 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn instantiate_rejects_negative_gaps() {
        let p = Pattern::new(vec![0, 1], 0);
        let _ = p.instantiate(&[-1], &[1]);
    }
}
