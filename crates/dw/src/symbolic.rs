//! The per-pattern (symbolic) Pareto-DW used to generate lookup tables
//! (paper §V-A).
//!
//! A solution here is not a concrete `(w, d)` pair but a pair `(W, D)` of
//! gap-multiplicity data: `w = Σᵢ Wᵢ lᵢ` and `d = maxᵢ Σⱼ Dᵢⱼ lⱼ` over the
//! `2n − 2` Hanan gap lengths `l ≥ 0` of whatever net instantiates the
//! pattern. A candidate is pruned only when it is dominated **for every**
//! non-negative gap vector (Lemma 1):
//!
//! * the wirelength condition `Σ (W² − W¹)ᵢ lᵢ ≥ 0 ∀ l ≥ 0` is simply
//!   componentwise `W¹ ≤ W²`;
//! * the delay condition holds iff for every row `a` of `D¹` the strict
//!   system `{(a − bₖ)·l > 0, l ≥ 0}` over the rows `bₖ` of `D²` is
//!   infeasible — decided exactly by [`patlabor_lp::cone::strictly_feasible`]
//!   (the paper calls an SMT solver here; the condition is linear, so exact
//!   LP is a complete decision procedure).
//!
//! Cheap componentwise and sampled prefilters skip almost all LP calls.

use patlabor_geom::{Pattern, RankNode};
use patlabor_lp::cone::strictly_feasible_with;
use patlabor_lp::SimplexScratch;

use crate::boundary::{boundary_position, consecutive_splits};
use crate::DwConfig;

/// Multiplicities over the `2n − 2` gap lengths (horizontal gaps first).
pub type GapVec = Vec<u16>;

/// The symbolic-cost dot product: `Σᵢ weights[i] · gaps[i]`.
///
/// This is the entire query kernel of the v3 lookup tables: a stored
/// topology's wirelength is `dot(W, l)` and its delay is the max of
/// `dot(Dⱼ, l)` over its per-sink delay rows, so serving a tabulated net
/// costs a handful of integer dot products instead of tree
/// materializations. Exposed so [`patlabor_lut`](../../patlabor_lut)
/// evaluates pooled rows with exactly the arithmetic the symbolic DP
/// used to prune them.
///
/// # Panics
///
/// Debug-asserts equal lengths; in release the shorter slice wins.
#[inline]
pub fn dot(weights: &[u16], gaps: &[i64]) -> i64 {
    debug_assert_eq!(weights.len(), gaps.len(), "gap vector length mismatch");
    weights
        .iter()
        .zip(gaps)
        .map(|(&m, &l)| m as i64 * l)
        .sum()
}

/// A potentially Pareto-optimal topology of a pattern, in symbolic form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicSolution {
    /// Wirelength multiplicities `W` (length `2n − 2`).
    pub w: GapVec,
    /// One delay row per sink of the covered subset, ordered by ascending
    /// sink column rank.
    pub delays: Vec<GapVec>,
    /// Topology edges between rank-grid nodes.
    pub edges: Vec<(RankNode, RankNode)>,
}

impl SymbolicSolution {
    /// Evaluates the bookkept objectives against concrete gap lengths.
    ///
    /// # Panics
    ///
    /// Panics if `gaps.len()` differs from the solution's gap dimension.
    pub fn evaluate(&self, gaps: &[i64]) -> (i64, i64) {
        assert_eq!(gaps.len(), self.w.len(), "gap vector length mismatch");
        let w = dot(&self.w, gaps);
        let d = self.delays.iter().map(|row| dot(row, gaps)).max().unwrap_or(0);
        (w, d)
    }

    /// Evaluates the objectives for a classified net.
    ///
    /// The solution must come from the symbolic DP of the class's
    /// canonical pattern — [`NetClass`](patlabor_geom::NetClass) carries
    /// the gap vector already mapped into canonical rank space, so this
    /// is the one correct pairing of symbolic rows and concrete gaps.
    /// Serving-side consumers should use this instead of calling
    /// [`SymbolicSolution::evaluate`] with hand-canonicalized gaps.
    ///
    /// # Panics
    ///
    /// Panics if the class's degree differs from the solution's.
    pub fn evaluate_for(&self, class: &patlabor_geom::NetClass) -> (i64, i64) {
        self.evaluate(class.canonical_gaps())
    }

    /// The cost rows flattened in lookup-table storage order: the `W` row
    /// first, then the delay rows in ascending sink-column order, each of
    /// length `2n − 2`.
    ///
    /// This is the payload the v3 table format stores per pooled topology;
    /// evaluating a stored row block against a gap vector with [`dot`]
    /// reproduces [`SymbolicSolution::evaluate`] exactly.
    pub fn flat_rows(&self) -> Vec<u16> {
        let dims = self.w.len();
        let mut rows = Vec::with_capacity(dims * (1 + self.delays.len()));
        rows.extend_from_slice(&self.w);
        for row in &self.delays {
            debug_assert_eq!(row.len(), dims, "ragged delay row");
            rows.extend_from_slice(row);
        }
        rows
    }
}

/// Runs the symbolic Pareto-DW on a pattern, returning every potentially
/// Pareto-optimal topology (the lookup-table entry for this pattern).
///
/// The result is exact in the following sense: for **any** gap lengths
/// `l ≥ 0`, evaluating the returned topologies on the instantiated net and
/// pruning numerically yields the true Pareto frontier of that net.
///
/// # Panics
///
/// Panics if the pattern degree exceeds 10.
pub fn symbolic_frontier(pattern: &Pattern, config: &DwConfig) -> Vec<SymbolicSolution> {
    let n = pattern.n() as usize;
    assert!(n <= 10, "symbolic Pareto-DW supports degree <= 10");
    let dims = 2 * n - 2;
    let nn = n * n;
    let node = |id: usize| RankNode::new((id / n) as u8, (id % n) as u8);
    let id_of = |nd: RankNode| nd.col as usize * n + nd.row as usize;

    // Sinks in ascending column order; the source column is excluded.
    let sinks: Vec<u8> = (0..pattern.n())
        .filter(|&c| c != pattern.source_col())
        .collect();
    let num_sinks = sinks.len();
    let full: u32 = (1u32 << num_sinks) - 1;
    let sink_node: Vec<usize> = sinks.iter().map(|&c| id_of(pattern.pin_node(c))).collect();
    let source_node = id_of(pattern.source_node());

    // Symbolic distance vectors between all node pairs.
    let gap_vec = |a: RankNode, b: RankNode| -> GapVec {
        let mut v = vec![0u16; dims];
        let (c0, c1) = (a.col.min(b.col) as usize, a.col.max(b.col) as usize);
        for x in &mut v[c0..c1] {
            *x += 1;
        }
        let (r0, r1) = (a.row.min(b.row) as usize, a.row.max(b.row) as usize);
        for x in &mut v[n - 1 + r0..n - 1 + r1] {
            *x += 1;
        }
        v
    };

    // Lemma 2 in rank space.
    let pins: Vec<RankNode> = pattern.pin_nodes();
    let alive: Vec<bool> = (0..nn)
        .map(|id| {
            if !config.corner_pruning {
                return true;
            }
            let p = node(id);
            !is_corner(&pins, p)
        })
        .collect();

    let sink_boundary_pos: Vec<Option<usize>> = sinks
        .iter()
        .map(|&c| {
            let nd = pattern.pin_node(c);
            boundary_position(nd.col as usize, nd.row as usize, n)
        })
        .collect();

    let sampler = GapSampler::new(dims);
    let mut states: Vec<Vec<Vec<SymbolicSolution>>> =
        vec![vec![Vec::new(); nn]; full as usize + 1];

    for mask in 1..=full {
        let members: Vec<usize> = (0..num_sinks).filter(|i| mask >> i & 1 == 1).collect();
        let mut pre: Vec<Vec<SymbolicSolution>> = vec![Vec::new(); nn];

        if members.len() == 1 {
            let q = sink_node[members[0]];
            for v in 0..nn {
                if !alive[v] {
                    continue;
                }
                let e = gap_vec(node(v), node(q));
                let edges = if v == q {
                    Vec::new()
                } else {
                    vec![(node(v), node(q))]
                };
                pre[v].push(SymbolicSolution {
                    w: e.clone(),
                    delays: vec![e],
                    edges,
                });
            }
        } else {
            let splits = symbolic_splits(mask, &members, &sink_boundary_pos, config);
            // Lemma 3 in rank space: merge only inside the members' bbox.
            let (mut c_lo, mut c_hi, mut r_lo, mut r_hi) = (u8::MAX, 0u8, u8::MAX, 0u8);
            for &i in &members {
                let p = pattern.pin_node(sinks[i]);
                c_lo = c_lo.min(p.col);
                c_hi = c_hi.max(p.col);
                r_lo = r_lo.min(p.row);
                r_hi = r_hi.max(p.row);
            }
            for v in 0..nn {
                if !alive[v] {
                    continue;
                }
                let p = node(v);
                if config.bbox_shortcut
                    && !(c_lo <= p.col && p.col <= c_hi && r_lo <= p.row && p.row <= r_hi)
                {
                    continue;
                }
                let mut acc: Vec<SymbolicSolution> = Vec::new();
                for &(m1, m2) in &splits {
                    for s1 in &states[m1 as usize][v] {
                        for s2 in &states[m2 as usize][v] {
                            acc.push(combine(s1, s2, m1, m2));
                        }
                    }
                }
                pre[v] = prune(acc, &sampler);
            }
        }

        // Edge growth: single all-pairs pass (triangle inequality holds per
        // gap component, so relayed growth is componentwise dominated).
        let mut fin: Vec<Vec<SymbolicSolution>> = vec![Vec::new(); nn];
        for v in 0..nn {
            if !alive[v] {
                continue;
            }
            let mut acc: Vec<SymbolicSolution> = Vec::new();
            for u in 0..nn {
                if !alive[u] || pre[u].is_empty() {
                    continue;
                }
                let step = gap_vec(node(u), node(v));
                for s in &pre[u] {
                    let mut w = s.w.clone();
                    add(&mut w, &step);
                    let delays = s
                        .delays
                        .iter()
                        .map(|row| {
                            let mut r = row.clone();
                            add(&mut r, &step);
                            r
                        })
                        .collect();
                    let mut edges = s.edges.clone();
                    if u != v {
                        edges.push((node(u), node(v)));
                    }
                    acc.push(SymbolicSolution { w, delays, edges });
                }
            }
            fin[v] = prune(acc, &sampler);
        }
        states[mask as usize] = fin;
    }

    let final_state = std::mem::take(&mut states[full as usize][source_node]);
    prune_exact(final_state, &sampler, &mut DominanceScratch::default())
}

fn is_corner(pins: &[RankNode], p: RankNode) -> bool {
    let mut ll = true;
    let mut lr = true;
    let mut ul = true;
    let mut ur = true;
    for q in pins {
        if q.col <= p.col && q.row <= p.row {
            ll = false;
        }
        if q.col >= p.col && q.row <= p.row {
            lr = false;
        }
        if q.col <= p.col && q.row >= p.row {
            ul = false;
        }
        if q.col >= p.col && q.row >= p.row {
            ur = false;
        }
    }
    ll || lr || ul || ur
}

fn add(target: &mut GapVec, other: &GapVec) {
    for (t, &o) in target.iter_mut().zip(other) {
        *t += o;
    }
}

/// Merges two disjoint-subset solutions rooted at the same node: `W` adds,
/// delay rows interleave by global sink order.
fn combine(s1: &SymbolicSolution, s2: &SymbolicSolution, m1: u32, m2: u32) -> SymbolicSolution {
    let mut w = s1.w.clone();
    add(&mut w, &s2.w);
    let mask = m1 | m2;
    let mut delays = Vec::with_capacity(s1.delays.len() + s2.delays.len());
    let (mut i1, mut i2) = (0usize, 0usize);
    for bit in 0..32 {
        if mask >> bit & 1 == 0 {
            continue;
        }
        if m1 >> bit & 1 == 1 {
            delays.push(s1.delays[i1].clone());
            i1 += 1;
        } else {
            delays.push(s2.delays[i2].clone());
            i2 += 1;
        }
    }
    let mut edges = s1.edges.clone();
    edges.extend_from_slice(&s2.edges);
    SymbolicSolution { w, delays, edges }
}

fn symbolic_splits(
    mask: u32,
    members: &[usize],
    sink_boundary_pos: &[Option<usize>],
    config: &DwConfig,
) -> Vec<(u32, u32)> {
    if config.separator_split {
        let positions: Option<Vec<usize>> =
            members.iter().map(|&i| sink_boundary_pos[i]).collect();
        if let Some(positions) = positions {
            if let Some(local) = consecutive_splits(&positions) {
                return local
                    .into_iter()
                    .map(|(l1, l2)| {
                        (expand_local(l1, members), expand_local(l2, members))
                    })
                    .collect();
            }
        }
    }
    let mut out = Vec::new();
    let mut m1 = (mask - 1) & mask;
    while m1 > 0 {
        let m2 = mask ^ m1;
        if m1 > m2 {
            out.push((m1, m2));
        }
        m1 = (m1 - 1) & mask;
    }
    out
}

fn expand_local(local: u32, members: &[usize]) -> u32 {
    let mut out = 0u32;
    for (i, &m) in members.iter().enumerate() {
        if local >> i & 1 == 1 {
            out |= 1 << m;
        }
    }
    out
}

/// Deterministic sample gap vectors used to prefilter dominance checks.
struct GapSampler {
    samples: Vec<Vec<i64>>,
}

impl GapSampler {
    fn new(dims: usize) -> Self {
        // Duplicate samples cost evaluations without adding filtering
        // power (likely at small `dims`, where the mod-13 pseudo-random
        // vectors collide), so only distinct vectors are kept.
        let mut samples: Vec<Vec<i64>> = Vec::new();
        let push_unique = |samples: &mut Vec<Vec<i64>>, v: Vec<i64>| {
            if !samples.contains(&v) {
                samples.push(v);
            }
        };
        push_unique(&mut samples, vec![1i64; dims]);
        // A few deterministic pseudo-random positive vectors.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..6 {
            let mut v = Vec::with_capacity(dims);
            for _ in 0..dims {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v.push((state % 13 + 1) as i64);
            }
            push_unique(&mut samples, v);
        }
        // Near-degenerate vectors catch zero-gap corner cases.
        for k in 0..dims.min(4) {
            let mut v = vec![1i64; dims];
            v[k] = 100;
            push_unique(&mut samples, v);
        }
        GapSampler { samples }
    }

    /// `false` when some sample proves `a` does **not** dominate `b`.
    fn may_dominate(&self, a: &SymbolicSolution, b: &SymbolicSolution) -> bool {
        for l in &self.samples {
            let (wa, da) = a.evaluate(l);
            let (wb, db) = b.evaluate(l);
            if wa > wb || da > db {
                return false;
            }
        }
        true
    }
}

/// Reusable buffers for [`dominates_with`].
///
/// The exact check builds one row-difference matrix per delay row of `a`
/// and solves an LP over it; both the matrix and the simplex tableau are
/// the same shape across the thousands of checks a pattern generates, so
/// threading one scratch through the exact pruning pass removes
/// essentially all allocation from the pruning inner loop.
#[derive(Debug, Default)]
pub struct DominanceScratch {
    /// Row-difference matrix `ra − rbₖ` (hoisted out of the per-`ra`
    /// loop; rows are overwritten in place for each `ra`).
    diff: Vec<Vec<i64>>,
    /// Simplex buffers for the strict-feasibility LP.
    lp: SimplexScratch,
}

/// Exact symbolic dominance `a ⪯ b` (Lemma 1).
pub fn dominates(a: &SymbolicSolution, b: &SymbolicSolution) -> bool {
    dominates_with(a, b, &mut DominanceScratch::default())
}

/// [`dominates`] with caller-provided scratch buffers (identical result).
pub fn dominates_with(
    a: &SymbolicSolution,
    b: &SymbolicSolution,
    scratch: &mut DominanceScratch,
) -> bool {
    // Wirelength: componentwise.
    if a.w.iter().zip(&b.w).any(|(&x, &y)| x > y) {
        return false;
    }
    // Delay, cheap sufficient check: every row of a is componentwise below
    // some row of b.
    let covered = a.delays.iter().all(|ra| {
        b.delays
            .iter()
            .any(|rb| ra.iter().zip(rb).all(|(&x, &y)| x <= y))
    });
    if covered {
        return true;
    }
    // Exact: row `ra` may exceed max-of-b-rows somewhere iff the strict
    // system {(ra − rb)·l > 0 ∀ rb} is feasible.
    let m = b.delays.len();
    scratch.diff.truncate(m);
    while scratch.diff.len() < m {
        scratch.diff.push(Vec::new());
    }
    for ra in &a.delays {
        for (row, rb) in scratch.diff.iter_mut().zip(&b.delays) {
            row.clear();
            row.extend(ra.iter().zip(rb).map(|(&x, &y)| x as i64 - y as i64));
        }
        if strictly_feasible_with(&scratch.diff, &mut scratch.lp) {
            return false;
        }
    }
    true
}

/// Prunes with cheap checks (dedupe + componentwise dominance + sampled
/// prefilter); used on every DP state.
fn prune(mut solutions: Vec<SymbolicSolution>, sampler: &GapSampler) -> Vec<SymbolicSolution> {
    // Sort by total wirelength first: a dominator's W is componentwise ≤
    // its victim's, hence its ΣW too, so ascending-ΣW order meets
    // dominators before their victims — dominated candidates die against
    // an early `keep` entry instead of growing the quadratic sweep. The
    // lexicographic tail makes the order total (up to exact duplicates,
    // which the dedup below removes), keeping the survivors
    // deterministic.
    solutions.sort_by(|a, b| {
        let sa: u32 = a.w.iter().map(|&x| x as u32).sum();
        let sb: u32 = b.w.iter().map(|&x| x as u32).sum();
        sa.cmp(&sb)
            .then_with(|| (&a.w, &a.delays).cmp(&(&b.w, &b.delays)))
    });
    solutions.dedup_by(|a, b| a.w == b.w && a.delays == b.delays);

    let mut keep: Vec<SymbolicSolution> = Vec::with_capacity(solutions.len());
    'outer: for s in solutions {
        let mut i = 0;
        while i < keep.len() {
            if cheap_dominates(&keep[i], &s, sampler) {
                continue 'outer;
            }
            if cheap_dominates(&s, &keep[i], sampler) {
                keep.swap_remove(i);
            } else {
                i += 1;
            }
        }
        keep.push(s);
    }
    keep
}

/// Componentwise-only dominance (sound, incomplete, no LP).
fn cheap_dominates(a: &SymbolicSolution, b: &SymbolicSolution, sampler: &GapSampler) -> bool {
    if a.w.iter().zip(&b.w).any(|(&x, &y)| x > y) {
        return false;
    }
    if !sampler.may_dominate(a, b) {
        return false;
    }
    a.delays.iter().all(|ra| {
        b.delays
            .iter()
            .any(|rb| ra.iter().zip(rb).all(|(&x, &y)| x <= y))
    })
}

/// Exact prune with the LP decision procedure; used on the final state.
///
/// `prune` leaves the candidates sorted by total wirelength, so the exact
/// sweep also meets dominators early; `scratch` is threaded through every
/// LP call (see [`DominanceScratch`]).
fn prune_exact(
    solutions: Vec<SymbolicSolution>,
    sampler: &GapSampler,
    scratch: &mut DominanceScratch,
) -> Vec<SymbolicSolution> {
    let solutions = prune(solutions, sampler);
    let mut keep: Vec<SymbolicSolution> = Vec::with_capacity(solutions.len());
    'outer: for s in solutions {
        let mut i = 0;
        while i < keep.len() {
            // Sampled prefilter first; LP only when samples cannot refute.
            if sampler.may_dominate(&keep[i], &s) && dominates_with(&keep[i], &s, scratch) {
                continue 'outer;
            }
            if sampler.may_dominate(&s, &keep[i]) && dominates_with(&s, &keep[i], scratch) {
                keep.swap_remove(i);
            } else {
                i += 1;
            }
        }
        keep.push(s);
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric;
    use patlabor_geom::Net;
    use patlabor_pareto::{Cost, ParetoSet};
    use patlabor_tree::extract_from_union;

    fn sol(w: &[u16], delays: &[&[u16]]) -> SymbolicSolution {
        SymbolicSolution {
            w: w.to_vec(),
            delays: delays.iter().map(|d| d.to_vec()).collect(),
            edges: Vec::new(),
        }
    }

    #[test]
    fn gap_sampler_has_no_duplicate_samples() {
        for dims in 1..=10 {
            let s = GapSampler::new(dims);
            assert!(!s.samples.is_empty());
            for (i, v) in s.samples.iter().enumerate() {
                assert!(!s.samples[..i].contains(v), "duplicate at dims={dims}");
            }
        }
    }

    #[test]
    fn evaluate_dots_gaps() {
        let s = sol(&[1, 2], &[&[1, 0], &[0, 3]]);
        assert_eq!(s.evaluate(&[10, 100]), (210, 300));
    }

    /// `evaluate_for` must agree with evaluating the canonical gap vector
    /// directly, for every D4 orientation of an instantiated pattern — the
    /// symbolic rows live in canonical rank space and `NetClass` delivers
    /// gaps in exactly that space.
    #[test]
    fn evaluate_for_netclass_matches_canonical_gap_evaluation() {
        use patlabor_geom::NetClass;
        for pattern in Pattern::enumerate_canonical(4).into_iter().take(8) {
            let sols = symbolic_frontier(&pattern, &DwConfig::default());
            let net = pattern.instantiate(&[3, 5, 2], &[4, 1, 6]);
            let class = NetClass::of(&net).expect("degree 4 classifies");
            assert_eq!(class.key(), pattern.key());
            for s in &sols {
                assert_eq!(s.evaluate_for(&class), s.evaluate(class.canonical_gaps()));
            }
        }
    }

    #[test]
    fn dominance_componentwise_cases() {
        let a = sol(&[1, 1], &[&[1, 0]]);
        let b = sol(&[2, 1], &[&[1, 1]]);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(dominates(&a, &a));
    }

    #[test]
    fn dominance_needs_lp_for_row_mixtures() {
        // a's single row (1,1) vs b's rows (2,0) and (0,2):
        // max(2l₀, 2l₁) ≥ l₀ + l₁ for all l ≥ 0, so a dominates b even
        // though (1,1) is not below either row componentwise.
        let a = sol(&[1, 1], &[&[1, 1]]);
        let b = sol(&[1, 1], &[&[2, 0], &[0, 2]]);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a)); // e.g. l=(1,1): max = 2 ≤ 2 … but
                                     // l=(1,0): b gives 2 > a's 1 — wait,
                                     // b must be ≤ a to dominate: 2 > 1 ✗.
    }

    #[test]
    fn dominance_is_refuted_by_witness_gap() {
        // a better at l=(1,0), b better at l=(0,1) → incomparable.
        let a = sol(&[1, 2], &[&[1, 0]]);
        let b = sol(&[2, 1], &[&[1, 0]]);
        assert!(!dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    /// Core exactness test: instantiate each degree-4 pattern with several
    /// gap vectors; the evaluated + pruned symbolic frontier must equal the
    /// numeric Pareto-DW frontier of the instantiated net.
    #[test]
    fn symbolic_matches_numeric_on_degree_4_patterns() {
        let gaps_list: [(&[i64], &[i64]); 3] =
            [(&[3, 5, 2], &[4, 1, 6]), (&[1, 1, 1], &[1, 1, 1]), (&[7, 2, 9], &[3, 8, 2])];
        for pattern in Pattern::enumerate_canonical(4) {
            let sols = symbolic_frontier(&pattern, &DwConfig::default());
            assert!(!sols.is_empty());
            for (h, v) in gaps_list {
                let net = pattern.instantiate(h, v);
                check_against_numeric(&pattern, &sols, &net, h, v);
            }
        }
    }

    #[test]
    fn symbolic_handles_zero_gaps() {
        // Degenerate instantiations (tied coordinates) must still evaluate
        // to the exact frontier.
        let pattern = Pattern::new(vec![2, 0, 1, 3], 1);
        let sols = symbolic_frontier(&pattern, &DwConfig::default());
        let h: &[i64] = &[0, 4, 3];
        let v: &[i64] = &[2, 0, 5];
        let net = pattern.instantiate(h, v);
        check_against_numeric(&pattern, &sols, &net, h, v);
    }

    #[test]
    fn symbolic_pruning_lemmas_preserve_instantiated_frontiers() {
        let pattern = Pattern::new(vec![1, 3, 0, 2], 0);
        let pruned = symbolic_frontier(&pattern, &DwConfig::default());
        let unpruned = symbolic_frontier(&pattern, &DwConfig::unpruned());
        for (h, v) in [(&[2i64, 5, 1], &[3i64, 2, 7]), (&[1, 1, 9], &[9, 1, 1])] {
            let net = pattern.instantiate(h, v);
            let fa = instantiated_frontier(&pruned, &net, h, v);
            let fb = instantiated_frontier(&unpruned, &net, h, v);
            assert_eq!(fa.cost_vec(), fb.cost_vec());
        }
    }

    fn instantiated_frontier(
        sols: &[SymbolicSolution],
        net: &Net,
        h: &[i64],
        v: &[i64],
    ) -> ParetoSet<()> {
        let n = net.degree();
        let mut xs = vec![0i64; n];
        let mut ys = vec![0i64; n];
        for i in 1..n {
            xs[i] = xs[i - 1] + h[i - 1];
            ys[i] = ys[i - 1] + v[i - 1];
        }
        sols.iter()
            .map(|s| {
                let pts: Vec<_> = s
                    .edges
                    .iter()
                    .map(|&(a, b)| {
                        (
                            patlabor_geom::Point::new(xs[a.col as usize], ys[a.row as usize]),
                            patlabor_geom::Point::new(xs[b.col as usize], ys[b.row as usize]),
                        )
                    })
                    .collect();
                let tree = extract_from_union(net, &pts).expect("LUT topology spans the net");
                let (w, d) = tree.objectives();
                Cost::new(w, d)
            })
            .collect()
    }

    fn check_against_numeric(
        pattern: &Pattern,
        sols: &[SymbolicSolution],
        net: &Net,
        h: &[i64],
        v: &[i64],
    ) {
        let expected = numeric::pareto_frontier(net, &DwConfig::default());
        let got = instantiated_frontier(sols, net, h, v);
        assert_eq!(
            got.cost_vec(),
            expected.cost_vec(),
            "pattern {pattern:?} gaps ({h:?}, {v:?})"
        );
    }
}
