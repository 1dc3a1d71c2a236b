//! Pareto-set container.

use crate::Cost;

/// A set of mutually non-dominating `(Cost, payload)` solutions — a *Pareto
/// curve* in the paper's terminology.
///
/// # Invariant
///
/// Entries are kept sorted by strictly increasing wirelength and strictly
/// decreasing delay; among solutions with identical cost only the first
/// inserted survives. All operations preserve this invariant, so iteration
/// order is always the frontier swept left-to-right.
///
/// The payload type `T` carries whatever the caller needs per solution
/// (tree topologies, indices, `()` for pure objective frontiers).
///
/// # Example
///
/// ```
/// use patlabor_pareto::{Cost, ParetoSet};
///
/// let a: ParetoSet<&str> = [(Cost::new(4, 9), "x"), (Cost::new(7, 3), "y")]
///     .into_iter()
///     .collect();
/// let shifted = a.shifted(10);
/// assert!(shifted.costs().eq([Cost::new(14, 19), Cost::new(17, 13)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoSet<T = ()> {
    /// Sorted by `(wirelength ↑, delay ↓)`.
    entries: Vec<(Cost, T)>,
}

impl<T> Default for ParetoSet<T> {
    fn default() -> Self {
        ParetoSet {
            entries: Vec::new(),
        }
    }
}

impl<T> ParetoSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frontier solutions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over `(cost, payload)` pairs, wirelength ascending.
    pub fn iter(&self) -> impl Iterator<Item = (Cost, &T)> {
        self.entries.iter().map(|(c, t)| (*c, t))
    }

    /// Iterator over the costs only.
    ///
    /// # Ordering contract
    ///
    /// Yields the frontier *staircase* in sorted order — wirelength
    /// strictly increasing, delay strictly decreasing (the container
    /// invariant above). Consumers may rely on this: the single
    /// left-to-right sweeps in [`crate::metrics::hypervolume`] and
    /// [`crate::metrics::found_on_frontier`] are correct only because of
    /// it.
    pub fn costs(&self) -> impl Iterator<Item = Cost> + '_ {
        self.entries.iter().map(|(c, _)| *c)
    }

    /// The costs as a vector (convenient for comparisons in tests).
    pub fn cost_vec(&self) -> Vec<Cost> {
        self.costs().collect()
    }

    /// The minimum-wirelength solution, if any.
    pub fn min_wirelength(&self) -> Option<(Cost, &T)> {
        self.entries.first().map(|(c, t)| (*c, t))
    }

    /// The minimum-delay solution, if any.
    pub fn min_delay(&self) -> Option<(Cost, &T)> {
        self.entries.last().map(|(c, t)| (*c, t))
    }

    /// Whether `cost` is dominated by (or equal to) some solution in the
    /// set.
    pub fn dominated(&self, cost: Cost) -> bool {
        // Binary search: candidates have wirelength <= cost.wirelength; the
        // best delay among them is the last such entry (delay decreases).
        let pos = self
            .entries
            .partition_point(|(c, _)| c.wirelength <= cost.wirelength);
        pos > 0 && self.entries[pos - 1].0.delay <= cost.delay
    }

    /// Inserts a solution, dropping it if dominated and evicting any
    /// solutions it dominates. Returns `true` when the solution survives.
    pub fn insert(&mut self, cost: Cost, payload: T) -> bool {
        if self.dominated(cost) {
            return false;
        }
        let pos = self
            .entries
            .partition_point(|(c, _)| c.wirelength < cost.wirelength);
        // Evict dominated successors (their wirelength is >= ours; evict
        // while their delay is also >= ours).
        let end = pos
            + self.entries[pos..].partition_point(|(c, _)| c.delay >= cost.delay);
        self.entries.splice(pos..end, [(cost, payload)]);
        true
    }

    /// Moves every solution of `other` into `self`, keeping the combined
    /// frontier.
    pub fn merge(&mut self, other: ParetoSet<T>) {
        for (c, t) in other.entries {
            self.insert(c, t);
        }
    }

    /// Extracts the payloads, consuming the set.
    pub fn into_payloads(self) -> Vec<T> {
        self.entries.into_iter().map(|(_, t)| t).collect()
    }

    /// Consumes the set, yielding `(cost, payload)` pairs.
    pub fn into_entries(self) -> Vec<(Cost, T)> {
        self.entries
    }

    /// The `S + x` operation of Eq. (1): every solution shifted by an edge
    /// of length `x`.
    pub fn shifted(&self, x: i64) -> ParetoSet<T>
    where
        T: Clone,
    {
        ParetoSet {
            entries: self
                .entries
                .iter()
                .map(|(c, t)| (c.shift(x), t.clone()))
                .collect(),
        }
    }

    /// The Pareto sum `S ⊕ S'` of Eq. (1): all pairwise combinations
    /// (wirelengths add, delays max), pruned back to a frontier. Payloads
    /// are merged with `merge_payload`.
    ///
    /// Runs in `O(|S|·|S'|)` combinations plus a prune.
    pub fn pareto_sum<U, V, F>(&self, other: &ParetoSet<U>, mut merge_payload: F) -> ParetoSet<V>
    where
        F: FnMut(&T, &U) -> V,
    {
        let mut combined = Vec::with_capacity(self.len() * other.len());
        for (ca, ta) in &self.entries {
            for (cb, tb) in &other.entries {
                combined.push((ca.combine(*cb), merge_payload(ta, tb)));
            }
        }
        ParetoSet::from_unpruned(combined)
    }

    /// Builds a frontier from arbitrary (possibly dominated) solutions in
    /// `O(k log k)` — the `Pareto(S)` operation of Eq. (1). The input
    /// vector is pruned in place and becomes the set's storage; it is
    /// shrunk only when pruning left it less than half full.
    ///
    /// When several solutions share a cost, the first in the input order
    /// wins.
    pub fn from_unpruned(mut solutions: Vec<(Cost, T)>) -> ParetoSet<T> {
        // Stable sort by (w ↑, d ↑) keeps first-inserted ties in front, then
        // a sweep keeps entries with strictly decreasing delay.
        solutions.sort_by_key(|(c, _)| (c.wirelength, c.delay));
        let mut last_delay = None;
        solutions.retain(|(c, _)| {
            let keep = last_delay.is_none_or(|d| c.delay < d);
            if keep {
                last_delay = Some(c.delay);
            }
            keep
        });
        if solutions.capacity() > 2 * solutions.len() {
            solutions.shrink_to_fit();
        }
        ParetoSet { entries: solutions }
    }
}

impl<T> FromIterator<(Cost, T)> for ParetoSet<T> {
    fn from_iter<I: IntoIterator<Item = (Cost, T)>>(iter: I) -> Self {
        ParetoSet::from_unpruned(iter.into_iter().collect())
    }
}

impl FromIterator<Cost> for ParetoSet<()> {
    fn from_iter<I: IntoIterator<Item = Cost>>(iter: I) -> Self {
        iter.into_iter().map(|c| (c, ())).collect()
    }
}

impl<T> Extend<(Cost, T)> for ParetoSet<T> {
    fn extend<I: IntoIterator<Item = (Cost, T)>>(&mut self, iter: I) {
        for (c, t) in iter {
            self.insert(c, t);
        }
    }
}

impl<'a, T> IntoIterator for &'a ParetoSet<T> {
    type Item = &'a (Cost, T);
    type IntoIter = std::slice::Iter<'a, (Cost, T)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl<T> IntoIterator for ParetoSet<T> {
    type Item = (Cost, T);
    type IntoIter = std::vec::IntoIter<(Cost, T)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn costs(set: &ParetoSet<impl Sized>) -> Vec<(i64, i64)> {
        set.costs().map(|c| (c.wirelength, c.delay)).collect()
    }

    #[test]
    fn insert_maintains_frontier() {
        let mut s = ParetoSet::new();
        assert!(s.insert(Cost::new(10, 10), 'a'));
        assert!(!s.insert(Cost::new(11, 11), 'b')); // dominated
        assert!(s.insert(Cost::new(5, 20), 'c'));
        assert!(s.insert(Cost::new(8, 12), 'd'));
        assert!(s.insert(Cost::new(4, 8), 'e')); // dominates everything but keeps nothing else? no: dominates (5,20),(8,12),(10,10)
        assert_eq!(costs(&s), vec![(4, 8)]);
    }

    #[test]
    fn insert_equal_cost_keeps_first() {
        let mut s = ParetoSet::new();
        s.insert(Cost::new(5, 5), 'a');
        assert!(!s.insert(Cost::new(5, 5), 'b'));
        assert_eq!(s.iter().next().unwrap().1, &'a');
    }

    #[test]
    fn insert_equal_wirelength_better_delay_replaces() {
        let mut s = ParetoSet::new();
        s.insert(Cost::new(5, 9), 'a');
        assert!(s.insert(Cost::new(5, 4), 'b'));
        assert_eq!(costs(&s), vec![(5, 4)]);
    }

    #[test]
    fn from_unpruned_sweeps_correctly() {
        let s: ParetoSet<()> = [
            Cost::new(9, 1),
            Cost::new(1, 9),
            Cost::new(5, 5),
            Cost::new(5, 6),
            Cost::new(6, 5),
            Cost::new(2, 8),
        ]
        .into_iter()
        .collect();
        assert_eq!(costs(&s), vec![(1, 9), (2, 8), (5, 5), (9, 1)]);
    }

    #[test]
    fn shifted_moves_both_objectives() {
        let s: ParetoSet<()> = [Cost::new(1, 9), Cost::new(5, 5)].into_iter().collect();
        assert_eq!(costs(&s.shifted(3)), vec![(4, 12), (8, 8)]);
    }

    #[test]
    fn pareto_sum_matches_bruteforce() {
        let a: ParetoSet<()> = [Cost::new(1, 9), Cost::new(5, 5)].into_iter().collect();
        let b: ParetoSet<()> = [Cost::new(2, 7), Cost::new(4, 3)].into_iter().collect();
        let sum = a.pareto_sum(&b, |_, _| ());
        // Combinations: (3,9) (5,9)✗ (7,7)✗? (7,7) vs (3,9): neither dominates; (9,5)
        assert_eq!(costs(&sum), vec![(3, 9), (7, 7), (9, 5)]);
    }

    #[test]
    fn min_accessors() {
        let s: ParetoSet<()> = [Cost::new(1, 9), Cost::new(5, 5), Cost::new(7, 2)]
            .into_iter()
            .collect();
        assert_eq!(s.min_wirelength().unwrap().0, Cost::new(1, 9));
        assert_eq!(s.min_delay().unwrap().0, Cost::new(7, 2));
    }

    #[test]
    fn merge_unions_frontiers() {
        let mut a: ParetoSet<char> = [(Cost::new(1, 9), 'a'), (Cost::new(5, 5), 'b')]
            .into_iter()
            .collect();
        let b: ParetoSet<char> = [(Cost::new(3, 6), 'c'), (Cost::new(9, 1), 'd')]
            .into_iter()
            .collect();
        a.merge(b);
        assert_eq!(costs(&a), vec![(1, 9), (3, 6), (5, 5), (9, 1)]);
    }

    #[test]
    fn dominated_query() {
        let s: ParetoSet<()> = [Cost::new(2, 8), Cost::new(6, 3)].into_iter().collect();
        assert!(s.dominated(Cost::new(2, 8)));
        assert!(s.dominated(Cost::new(3, 9)));
        assert!(s.dominated(Cost::new(7, 3)));
        assert!(!s.dominated(Cost::new(1, 100)));
        assert!(!s.dominated(Cost::new(5, 4)));
    }

    fn arb_costs() -> impl Strategy<Value = Vec<Cost>> {
        proptest::collection::vec((0i64..100, 0i64..100).prop_map(Cost::from), 0..60)
    }

    /// O(k²) reference implementation of `Pareto(S)`.
    fn brute_frontier(mut v: Vec<Cost>) -> Vec<Cost> {
        v.sort();
        v.dedup();
        let keep: Vec<Cost> = v
            .iter()
            .filter(|&&c| !v.iter().any(|&o| o.strictly_dominates(c)))
            .copied()
            .collect();
        keep
    }

    proptest! {
        #[test]
        fn prop_from_unpruned_equals_bruteforce(cs in arb_costs()) {
            let set: ParetoSet<()> = cs.iter().copied().collect();
            let brute = brute_frontier(cs);
            prop_assert_eq!(set.cost_vec(), brute);
        }

        #[test]
        fn prop_incremental_equals_batch(cs in arb_costs()) {
            let batch: ParetoSet<()> = cs.iter().copied().collect();
            let mut inc = ParetoSet::new();
            for c in cs {
                inc.insert(c, ());
            }
            prop_assert_eq!(inc.cost_vec(), batch.cost_vec());
        }

        #[test]
        fn prop_invariant_sorted_strictly(cs in arb_costs()) {
            let set: ParetoSet<()> = cs.into_iter().collect();
            let v = set.cost_vec();
            for w in v.windows(2) {
                prop_assert!(w[0].wirelength < w[1].wirelength);
                prop_assert!(w[0].delay > w[1].delay);
            }
        }

        #[test]
        fn prop_pareto_sum_lower_bound_is_respected(a in arb_costs(), b in arb_costs()) {
            let sa: ParetoSet<()> = a.iter().copied().collect();
            let sb: ParetoSet<()> = b.iter().copied().collect();
            let sum = sa.pareto_sum(&sb, |_, _| ());
            // Every sum point must be a combination of one point from each.
            for c in sum.costs() {
                prop_assert!(sa.costs().any(|x| sb.costs().any(|y| x.combine(y) == c)));
            }
            // And no combination may strictly dominate a frontier point.
            for x in sa.costs() {
                for y in sb.costs() {
                    prop_assert!(!sum.costs().any(|c| x.combine(y).strictly_dominates(c)));
                }
            }
        }
    }
}
