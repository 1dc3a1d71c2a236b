//! The lookup table proper: CSR storage layout, the dot-product query
//! kernel and statistics.
//!
//! # v4 storage layout
//!
//! Each degree's table is a set of flat arenas (one allocation — or one
//! borrowed mapping range — each, no per-topology boxing):
//!
//! ```text
//! pool entry t (a pooled topology)
//!   edges  edge arena  [2·edge_off[t] .. 2·edge_off[t+1])  packed u8 pairs
//!   rows   cost arena  [t·stride .. (t+1)·stride)          u16, stride = n·(2n−2)
//!          ── W row (2n−2), then n−1 per-sink delay rows (2n−2 each)
//!
//! pattern p (canonical key, sorted ascending)
//!   ids    id arena    [pattern_off[p] .. pattern_off[p+1])  u32 pool ids
//! ```
//!
//! Arenas are [`Arena`]s: either owned `Vec`s (built or stream-loaded
//! tables) or borrowed slices of a shared read-only file mapping
//! (zero-copy opens, see [`LookupTable::open_mmap`]). The query kernels
//! are backing-agnostic.
//!
//! Pattern keys are additionally indexed in an Eytzinger (BFS) layout
//! built at construction: the branchless descent touches one cache line
//! per level near the root and prefetches grandchildren, replacing the
//! cache-hostile middle-of-the-array probes of a plain binary search.
//!
//! A query computes the net's canonical gap vector once, scores every
//! candidate topology with integer dot products against its stored rows
//! (`w = W·l`, `d = maxⱼ Dⱼ·l`), prunes the `(w, d)` pairs numerically,
//! and materializes [`RoutingTree`]s **only for the frontier survivors**.
//! Dominated candidates never touch the tree extractor. The dot products
//! run through a chunked scalar kernel with independent accumulators,
//! which the compiler autovectorizes.
//!
//! Materialization numbers a stored topology's nodes by rank slot
//! ([`NetClass::slot`]): the instance's coordinates are sorted, so two
//! rank nodes are one plane point exactly when they share a slot, and an
//! `n × n` table of node ids replaces any point search. Classification,
//! scoring and materialization allocate nothing but the answer: the
//! survivor list, and each witness tree.

use std::collections::HashMap;

use patlabor_dw::symbolic::SymbolicSolution;
use patlabor_geom::{Net, NetClass, RankNode};
use patlabor_pareto::{Cost, ParetoSet};
use patlabor_tree::{extract_from_ids, RoutingTree};

use crate::arena::Arena;

/// One pooled topology: tree edges in the canonical pattern's rank grid
/// (packed as `col · n + row` byte pairs) plus its symbolic cost rows.
///
/// `rows` is the flattened block [`SymbolicSolution::flat_rows`] produces:
/// the wirelength multiplicities `W` (length `2n − 2`) followed by one
/// delay row per sink in ascending sink-column order. Two topologies from
/// different patterns pool into one entry only when **both** the edge set
/// and the rows agree — the rows are what the query kernel evaluates, so
/// pooling must never conflate topologies whose costs differ on some net.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoredTopology {
    /// Packed edges (endpoint node ids), sorted and deduplicated.
    pub edges: Vec<(u8, u8)>,
    /// Flattened cost rows: `n · (2n − 2)` multiplicities.
    pub rows: Vec<u16>,
}

impl StoredTopology {
    /// Packs a symbolic DP solution of a degree-`n` pattern.
    ///
    /// # Panics
    ///
    /// Panics if the solution's row shape does not match degree `n`
    /// (`2n − 2` gap dimensions, `n − 1` delay rows).
    pub fn from_solution(sol: &SymbolicSolution, n: u8) -> Self {
        let dims = 2 * n as usize - 2;
        assert_eq!(sol.w.len(), dims, "W row has wrong gap dimension");
        assert_eq!(
            sol.delays.len(),
            n as usize - 1,
            "final DP solutions carry one delay row per sink"
        );
        let pack = |nd: RankNode| nd.col * n + nd.row;
        let mut packed: Vec<(u8, u8)> = sol
            .edges
            .iter()
            .map(|&(a, b)| {
                let (pa, pb) = (pack(a), pack(b));
                (pa.min(pb), pa.max(pb))
            })
            .collect();
        packed.sort_unstable();
        packed.dedup();
        StoredTopology {
            edges: packed,
            rows: sol.flat_rows(),
        }
    }

    /// Unpacks into rank-node edges.
    pub fn rank_edges(&self, n: u8) -> Vec<(RankNode, RankNode)> {
        self.edges
            .iter()
            .map(|&(a, b)| {
                (
                    RankNode::new(a / n, a % n),
                    RankNode::new(b / n, b % n),
                )
            })
            .collect()
    }
}

/// Per-degree statistics — the rows of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LutStats {
    /// Net degree.
    pub degree: u8,
    /// Number of stored canonical patterns (`#Index`).
    pub num_patterns: usize,
    /// Average number of potentially optimal tree topologies per pattern
    /// (`#Topo`).
    pub avg_topologies: f64,
    /// Total topology references across all patterns.
    pub total_topologies: usize,
    /// Unique topologies after cross-pattern clustering (the paper's
    /// "store only one topology for each cluster"; v3+ clusters on
    /// `(edges, cost rows)` so pooled entries are query-equivalent).
    pub unique_topologies: usize,
    /// Approximate in-memory size in bytes of this degree's arenas.
    pub bytes: usize,
}

/// How a [`LookupTable`]'s arenas are backed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Arenas are owned `Vec`s (built in-process or stream-parsed).
    Owned,
    /// Arenas borrow a shared read-only file mapping (zero-copy open).
    Mapped,
}

impl std::fmt::Display for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Owned => write!(f, "owned"),
            Backing::Mapped => write!(f, "mapped"),
        }
    }
}

/// One degree's table as flat CSR arenas (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct DegreeTable {
    /// Degree `n` (0 for the empty placeholder tables below degree 3).
    pub(crate) n: u8,
    /// `edge_off[t] .. edge_off[t+1]` indexes the edge *pairs* of pool
    /// entry `t`; length `npool + 1`, starts at 0.
    pub(crate) edge_off: Arena<u32>,
    /// Packed edge arena: 2 bytes per edge, flattened `(a, b)` pairs.
    pub(crate) edges: Arena<u8>,
    /// Cost arena: `npool × n × (2n − 2)` multiplicities, fixed stride.
    pub(crate) costs: Arena<u16>,
    /// Canonical pattern keys, sorted ascending.
    pub(crate) pattern_keys: Arena<u64>,
    /// `pattern_off[p] .. pattern_off[p+1]` indexes `pattern_ids`;
    /// length `npat + 1`, starts at 0.
    pub(crate) pattern_off: Arena<u32>,
    /// Pool-id arena.
    pub(crate) pattern_ids: Arena<u32>,
    /// `pattern_keys` in Eytzinger (BFS) order — derived at construction,
    /// always owned (it is small: one u64 + one u32 per pattern).
    eyt_keys: Vec<u64>,
    /// Sorted position of each Eytzinger slot, to recover the CSR index.
    eyt_pos: Vec<u32>,
}

impl DegreeTable {
    /// Builds a table from its arenas, deriving the Eytzinger key index.
    /// All construction paths (builder, stream parse, mmap open) funnel
    /// through here so the index can never be stale.
    pub(crate) fn assemble(
        n: u8,
        edge_off: Arena<u32>,
        edges: Arena<u8>,
        costs: Arena<u16>,
        pattern_keys: Arena<u64>,
        pattern_off: Arena<u32>,
        pattern_ids: Arena<u32>,
    ) -> DegreeTable {
        let (eyt_keys, eyt_pos) = eytzinger(&pattern_keys);
        DegreeTable {
            n,
            edge_off,
            edges,
            costs,
            pattern_keys,
            pattern_off,
            pattern_ids,
            eyt_keys,
            eyt_pos,
        }
    }

    /// An empty placeholder table for `degree`.
    pub(crate) fn empty(degree: u8) -> DegreeTable {
        DegreeTable::assemble(
            degree,
            vec![0].into(),
            Arena::default(),
            Arena::default(),
            Arena::default(),
            vec![0].into(),
            Arena::default(),
        )
    }

    /// Cost-arena stride per pool entry: one `W` row plus `n − 1` delay
    /// rows, each `2n − 2` long.
    pub(crate) fn row_stride(&self) -> usize {
        self.n as usize * (2 * self.n as usize).saturating_sub(2)
    }

    /// Number of pooled topologies.
    pub(crate) fn npool(&self) -> usize {
        self.edge_off.len().saturating_sub(1)
    }

    /// Packed edges of pool entry `id`, flattened (2 bytes per edge).
    pub(crate) fn edges_of(&self, id: u32) -> &[u8] {
        let (lo, hi) = (
            self.edge_off[id as usize] as usize,
            self.edge_off[id as usize + 1] as usize,
        );
        &self.edges[2 * lo..2 * hi]
    }

    /// Flattened cost rows of pool entry `id` (`W` first, then delays).
    pub(crate) fn rows_of(&self, id: u32) -> &[u16] {
        let stride = self.row_stride();
        &self.costs[id as usize * stride..(id as usize + 1) * stride]
    }

    /// CSR position of a canonical pattern key, via branchless Eytzinger
    /// descent with grandchild prefetch.
    fn find_key(&self, key: u64) -> Option<usize> {
        let m = self.eyt_keys.len();
        if m == 0 {
            return None;
        }
        let mut k = 1usize;
        while k <= m {
            #[cfg(target_arch = "x86_64")]
            // Touch the grandchild pair two levels down so it is in L1 by
            // the time the descent arrives.
            if 4 * k <= m {
                unsafe {
                    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                    _mm_prefetch(self.eyt_keys.as_ptr().add(4 * k - 1).cast(), _MM_HINT_T0);
                }
            }
            k = 2 * k + usize::from(self.eyt_keys[k - 1] < key);
        }
        // Undo the right-turns: the lower bound is the ancestor reached by
        // the last left turn.
        k >>= k.trailing_ones() + 1;
        if k == 0 || self.eyt_keys[k - 1] != key {
            return None;
        }
        Some(self.eyt_pos[k - 1] as usize)
    }

    /// Pool ids of a canonical pattern key.
    pub(crate) fn ids_of(&self, key: u64) -> Option<&[u32]> {
        let p = self.find_key(key)?;
        let (lo, hi) = (
            self.pattern_off[p] as usize,
            self.pattern_off[p + 1] as usize,
        );
        Some(&self.pattern_ids[lo..hi])
    }

    /// Number of stored patterns.
    pub(crate) fn pattern_count(&self) -> usize {
        self.pattern_keys.len()
    }

    /// True when any arena borrows a file mapping.
    pub(crate) fn is_mapped(&self) -> bool {
        self.edge_off.is_mapped()
            || self.edges.is_mapped()
            || self.costs.is_mapped()
            || self.pattern_keys.is_mapped()
            || self.pattern_off.is_mapped()
            || self.pattern_ids.is_mapped()
    }

    /// Reassembles pool entry `id` (test and tooling convenience; the
    /// query path reads the arenas directly).
    #[cfg(test)]
    pub(crate) fn topology(&self, id: u32) -> StoredTopology {
        StoredTopology {
            edges: self
                .edges_of(id)
                .chunks_exact(2)
                .map(|p| (p[0], p[1]))
                .collect(),
            rows: self.rows_of(id).to_vec(),
        }
    }

    /// Builds a degree table from per-pattern topology lists, pooling
    /// entries whose `(edges, rows)` agree.
    ///
    /// # Panics
    ///
    /// Panics if a topology's row block has the wrong stride for `degree`.
    pub(crate) fn from_lists(
        degree: u8,
        lists: HashMap<u64, Vec<StoredTopology>>,
    ) -> DegreeTable {
        let mut edge_off: Vec<u32> = vec![0];
        let mut edges: Vec<u8> = Vec::new();
        let mut costs: Vec<u16> = Vec::new();
        let mut pattern_keys: Vec<u64> = Vec::new();
        let mut pattern_off: Vec<u32> = vec![0];
        let mut pattern_ids: Vec<u32> = Vec::new();
        let stride = degree as usize * (2 * degree as usize).saturating_sub(2);
        let mut index: HashMap<StoredTopology, u32> = HashMap::new();
        // Deterministic arena order: process patterns by ascending key —
        // which is also the order `pattern_keys` needs for binary search.
        let mut keys: Vec<u64> = lists.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            for t in &lists[&key] {
                let id = *index.entry(t.clone()).or_insert_with(|| {
                    assert_eq!(t.rows.len(), stride, "row block has wrong stride");
                    for &(a, b) in &t.edges {
                        edges.push(a);
                        edges.push(b);
                    }
                    edge_off.push((edges.len() / 2) as u32);
                    costs.extend_from_slice(&t.rows);
                    (edge_off.len() - 2) as u32
                });
                pattern_ids.push(id);
            }
            pattern_keys.push(key);
            pattern_off.push(pattern_ids.len() as u32);
        }
        DegreeTable::assemble(
            degree,
            edge_off.into(),
            edges.into(),
            costs.into(),
            pattern_keys.into(),
            pattern_off.into(),
            pattern_ids.into(),
        )
    }
}

/// Lays `keys` (sorted ascending) out in Eytzinger (BFS) order, returning
/// the reordered keys and each slot's original sorted position.
fn eytzinger(keys: &[u64]) -> (Vec<u64>, Vec<u32>) {
    fn fill(k: usize, next: &mut usize, keys: &[u64], eyt: &mut [u64], pos: &mut [u32]) {
        if k <= keys.len() {
            fill(2 * k, next, keys, eyt, pos);
            eyt[k - 1] = keys[*next];
            pos[k - 1] = *next as u32;
            *next += 1;
            fill(2 * k + 1, next, keys, eyt, pos);
        }
    }
    let mut eyt = vec![0u64; keys.len()];
    let mut pos = vec![0u32; keys.len()];
    let mut next = 0usize;
    fill(1, &mut next, keys, &mut eyt, &mut pos);
    (eyt, pos)
}

/// Integer dot product of a stored multiplicity row against the canonical
/// gap vector, chunked into four independent accumulators so it
/// autovectorizes and pipelines. Wrapping integer arithmetic is
/// associative and commutative, so the chunked order gives the same
/// result as a naive left-to-right sum.
#[inline]
fn dot_scalar(row: &[u16], gaps: &[i64]) -> i64 {
    let mut acc = [0i64; 4];
    let mut r4 = row.chunks_exact(4);
    let mut g4 = gaps.chunks_exact(4);
    for (r, g) in (&mut r4).zip(&mut g4) {
        for i in 0..4 {
            acc[i] = acc[i].wrapping_add((r[i] as i64).wrapping_mul(g[i]));
        }
    }
    let mut s = acc[0]
        .wrapping_add(acc[1])
        .wrapping_add(acc[2])
        .wrapping_add(acc[3]);
    for (&r, &g) in r4.remainder().iter().zip(g4.remainder()) {
        s = s.wrapping_add((r as i64).wrapping_mul(g));
    }
    s
}

/// Scores one candidate's full row block: `(W·l, maxⱼ Dⱼ·l)`.
#[inline]
fn score_block(rows: &[u16], gaps: &[i64]) -> (i64, i64) {
    let dims = gaps.len();
    let w = dot_scalar(&rows[..dims], gaps);
    let d = rows[dims..]
        .chunks_exact(dims)
        .map(|row| dot_scalar(row, gaps))
        .max()
        .unwrap_or(0);
    (w, d)
}

std::thread_local! {
    /// Per-thread count of `RoutingTree` materializations (see
    /// [`LookupTable::thread_materializations`]).
    static MATERIALIZATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Slots of the largest rank grid a [`NetClass`] can have.
const SLOTS: usize = NetClass::MAX_DEGREE * NetClass::MAX_DEGREE;

/// Stored edges [`LookupTable::materialize`] numbers on the stack; a
/// longer topology uses the heap.
const STACK_EDGES: usize = 64;

/// A slot no node has claimed yet.
const UNCLAIMED: u16 = u16::MAX;

/// Instantiates one stored topology (packed rank-node pairs in canonical
/// space) on `net` and extracts its witness tree.
///
/// Nodes are numbered by slot, exactly as [`patlabor_tree::extract_from_union`]
/// numbers plane points: pins claim their slots first, in pin order (a
/// pin at an earlier pin's position maps to that pin), and other
/// endpoints take new ids in edge order. So the tree is the one that
/// mapping the edges to plane points and extracting from them gives,
/// without building a point or searching for one.
fn materialize_edges(net: &Net, class: &NetClass, packed: &[u8]) -> RoutingTree {
    let n = class.degree();
    let pins = net.pins();
    let index = |slot: RankNode| slot.col as usize * n as usize + slot.row as usize;
    let mut node_at = [UNCLAIMED; SLOTS];
    let mut first_at = [0u16; NetClass::MAX_DEGREE];
    for (pin, first) in first_at.iter_mut().enumerate().take(pins.len()) {
        let slot = &mut node_at[index(class.slot(class.pin_node(pin)))];
        if *slot == UNCLAIMED {
            *slot = pin as u16;
        }
        *first = *slot;
    }
    // Slot of each Steiner node, by id − n.
    let mut steiner = [RankNode::new(0, 0); SLOTS];
    let mut nodes = pins.len();
    let count = packed.len() / 2;
    let mut on_stack = [(0u32, 0u32, 0i64); STACK_EDGES];
    let mut on_heap = Vec::new();
    let edges: &mut [(u32, u32, i64)] = if count <= STACK_EDGES {
        &mut on_stack[..count]
    } else {
        on_heap.resize(count, (0, 0, 0));
        &mut on_heap
    };
    let mut len = 0;
    for pair in packed.chunks_exact(2) {
        let [a, b] = [pair[0], pair[1]].map(|p| {
            let slot = class.slot(class.to_instance(RankNode::new(p / n, p % n)));
            let id = &mut node_at[index(slot)];
            if *id == UNCLAIMED {
                *id = nodes as u16;
                steiner[nodes - pins.len()] = slot;
                nodes += 1;
            }
            (*id as u32, slot)
        });
        if a.0 != b.0 {
            edges[len] = (a.0, b.0, class.plane_point(a.1).l1(class.plane_point(b.1)));
            len += 1;
        }
    }
    let point = |v: usize| match v.checked_sub(pins.len()) {
        None => pins[v],
        Some(s) => class.plane_point(steiner[s]),
    };
    extract_from_ids(
        pins.len(),
        nodes,
        &edges[..len],
        |pin| first_at[pin] as usize,
        point,
    )
    .expect("stored topologies span every pattern pin")
}

/// Lookup tables for every degree `2 ..= λ`.
///
/// Construct with [`crate::LutBuilder`] (owned arenas), or serve a saved
/// table zero-copy from disk with [`LookupTable::open_mmap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupTable {
    pub(crate) lambda: u8,
    /// `tables[d]` for degree `d`; indices `0..3` stay empty.
    pub(crate) tables: Vec<DegreeTable>,
}

impl LookupTable {
    /// The largest tabulated degree λ.
    pub fn lambda(&self) -> u8 {
        self.lambda
    }

    /// Whether the arenas are owned or borrow a file mapping.
    pub fn backing(&self) -> Backing {
        if self.tables.iter().any(DegreeTable::is_mapped) {
            Backing::Mapped
        } else {
            Backing::Owned
        }
    }

    /// The exact Pareto frontier of `net` with one witness tree per point,
    /// or `None` when the net's degree exceeds λ.
    ///
    /// The query canonicalizes the net's pattern, scores every stored
    /// candidate with integer dot products against its symbolic cost rows,
    /// prunes numerically, and materializes witness trees only for the
    /// surviving frontier.
    pub fn query(&self, net: &Net) -> Option<ParetoSet<RoutingTree>> {
        let n = net.degree();
        if n < 2 || n > self.lambda as usize {
            return None;
        }
        if n == 2 {
            let tree = RoutingTree::direct(net);
            let (w, d) = tree.objectives();
            let mut set = ParetoSet::new();
            set.insert(Cost::new(w, d), tree);
            return Some(set);
        }
        let class = self
            .classify(net)
            .expect("degree checked to be in 3..=lambda");
        Some(self.query_witnesses(net, &class)?.0)
    }

    /// Canonicalizes `net` for [`LookupTable::query_witnesses`] /
    /// [`LookupTable::query_ids`], or `None` when its degree is outside
    /// `3..=λ` (degree 2 has a closed-form answer and nothing to cache).
    ///
    /// The canonicalization itself lives in [`patlabor_geom::NetClass`] —
    /// the same object the frontier cache keys on — so the table and the
    /// cache can never disagree about which nets are congruent.
    pub fn classify(&self, net: &Net) -> Option<NetClass> {
        let n = net.degree();
        if n < 3 || n > self.lambda as usize {
            return None;
        }
        NetClass::of(net)
    }

    /// The candidate pool ids stored for `class`'s canonical pattern, or
    /// `None` when the pattern is not tabulated. This is the pure *lookup*
    /// stage of a query: one Eytzinger descent over the key index.
    pub fn candidate_ids(&self, class: &NetClass) -> Option<&[u32]> {
        self.tables[class.degree() as usize].ids_of(class.canonical_key())
    }

    /// The *score* stage: evaluates every candidate id by dot products
    /// against its stored cost rows and prunes the `(w, d)` pairs
    /// numerically. Returns the frontier as `(cost, pool id)` pairs in
    /// frontier order (wirelength ascending) — exactly the entries
    /// [`LookupTable::materialize`] should be called for.
    ///
    /// Ties between equal-cost candidates break toward the earlier `ids`
    /// position, matching [`ParetoSet::from_unpruned`]'s first-in-input
    /// rule, so the surviving ids are a pure function of `(canonical key,
    /// canonical gaps)`. The returned vector is the one allocation.
    pub fn score_candidates(&self, class: &NetClass, ids: &[u32]) -> Vec<(Cost, u32)> {
        let table = &self.tables[class.degree() as usize];
        let gaps = class.canonical_gaps();
        // Candidates enter in `ids` order into a staircase kept sorted by
        // (w ↑, d ↓). One that an entry dominates or ties stays out, so the
        // earlier position wins a tie; one that enters evicts the entries
        // it dominates. What is left is the sort-and-sweep frontier.
        let mut frontier: Vec<(Cost, u32)> = Vec::with_capacity(ids.len());
        for &id in ids {
            let (w, d) = score_block(table.rows_of(id), gaps);
            let up_to = frontier.partition_point(|(c, _)| c.wirelength <= w);
            if up_to > 0 && frontier[up_to - 1].0.delay <= d {
                continue;
            }
            let lo = frontier.partition_point(|(c, _)| c.wirelength < w);
            let hi = lo + frontier[lo..].partition_point(|(c, _)| c.delay >= d);
            if lo == hi {
                frontier.insert(lo, (Cost::new(w, d), id));
            } else {
                frontier[lo] = (Cost::new(w, d), id);
                frontier.drain(lo + 1..hi);
            }
        }
        frontier
    }

    /// The *materialize* stage: instantiates one stored topology against
    /// `net`'s coordinates, producing a witness [`RoutingTree`]. Nodes
    /// are numbered by rank slot on the stack, so this allocates only the
    /// returned tree.
    pub fn materialize(&self, net: &Net, class: &NetClass, id: u32) -> RoutingTree {
        MATERIALIZATIONS.with(|c| c.set(c.get() + 1));
        let table = &self.tables[class.degree() as usize];
        materialize_edges(net, class, table.edges_of(id))
    }

    /// Number of [`RoutingTree`] materializations performed by queries on
    /// the calling thread since it started. Instrumentation for tests and
    /// benchmarks asserting that trees are built only for frontier
    /// survivors; per-thread so concurrent tests never interfere.
    pub fn thread_materializations() -> u64 {
        MATERIALIZATIONS.with(|c| c.get())
    }

    /// The Pareto frontier of `net` together with the pool ids of the
    /// winning topologies (in frontier order), or `None` when the
    /// canonical pattern is not tabulated.
    ///
    /// Composes the three query stages: [`LookupTable::candidate_ids`]
    /// (key-index lookup), [`LookupTable::score_candidates`] (dot products
    /// + numeric prune) and [`LookupTable::materialize`] (survivors only).
    ///
    /// The id list is exactly what a frontier cache needs to store:
    /// replaying it through [`LookupTable::query_ids`] on any net with the
    /// same canonical key and gap vector reproduces this frontier
    /// bit-for-bit, including tie-break order.
    pub fn query_witnesses(
        &self,
        net: &Net,
        class: &NetClass,
    ) -> Option<(ParetoSet<RoutingTree>, Vec<u32>)> {
        let ids = self.candidate_ids(class)?;
        let frontier = self.score_candidates(class, ids);
        let mut winners = Vec::with_capacity(frontier.len());
        let entries: Vec<(Cost, RoutingTree)> = frontier
            .into_iter()
            .map(|(cost, id)| {
                let tree = self.materialize(net, class, id);
                debug_assert_eq!(
                    (cost.wirelength, cost.delay),
                    tree.objectives(),
                    "dot-product score must equal the materialized tree's objectives"
                );
                winners.push(id);
                (cost, tree)
            })
            .collect();
        // Entries are already sorted ascending-w / strictly-descending-d,
        // so this sweep keeps every entry as-is.
        Some((ParetoSet::from_unpruned(entries), winners))
    }

    /// Re-evaluates a cached winning-id list against `net`.
    ///
    /// `ids` must come from a [`LookupTable::query_witnesses`] call whose
    /// class had the same canonical key and gap vector (the frontier
    /// cache's lookup key); the result then equals that call's frontier.
    pub fn query_ids(&self, net: &Net, class: &NetClass, ids: &[u32]) -> ParetoSet<RoutingTree> {
        let table = &self.tables[class.degree() as usize];
        let gaps = class.canonical_gaps();
        let witnesses: Vec<(Cost, RoutingTree)> = ids
            .iter()
            .map(|&id| {
                let (w, d) = score_block(table.rows_of(id), gaps);
                (Cost::new(w, d), self.materialize(net, class, id))
            })
            .collect();
        // Winners are mutually non-dominating and already in frontier
        // order, so this sort-and-sweep keeps every entry as-is.
        ParetoSet::from_unpruned(witnesses)
    }

    /// Reference query path: materializes **every** candidate topology and
    /// prunes by the trees' measured objectives — the pre-v3 behaviour.
    ///
    /// Kept for the equivalence tests: the dot-product scores of
    /// [`LookupTable::query_witnesses`] must reproduce this frontier
    /// exactly.
    pub fn query_materialize_all(
        &self,
        net: &Net,
        class: &NetClass,
    ) -> Option<ParetoSet<RoutingTree>> {
        let ids = self.candidate_ids(class)?;
        let witnesses: Vec<(Cost, RoutingTree)> = ids
            .iter()
            .map(|&id| {
                let tree = self.materialize(net, class, id);
                let (w, d) = tree.objectives();
                (Cost::new(w, d), tree)
            })
            .collect();
        Some(ParetoSet::from_unpruned(witnesses))
    }

    /// Number of stored patterns for `degree`.
    pub fn pattern_count(&self, degree: u8) -> usize {
        self.tables
            .get(degree as usize)
            .map_or(0, DegreeTable::pattern_count)
    }

    /// Drops every stored pattern for `degree`, leaving an empty table in
    /// its place.
    ///
    /// This simulates a truncated or corrupt table file — the situation
    /// the router's `MissingDegree` error reports — without hand-crafting
    /// broken bytes. Fault-injection helper for tests and tooling; a table
    /// built by [`crate::LutBuilder`] never has gaps.
    ///
    /// This hook mutates one concrete table. For orchestrated drills —
    /// injecting the same failure mode across a corpus without doctoring
    /// the shared table — use the router's fault plane
    /// (`patlabor::FaultPlane`, kind `missing-degree`), which simulates
    /// this condition per net, deterministically by seed.
    pub fn remove_degree(&mut self, degree: u8) {
        if let Some(table) = self.tables.get_mut(degree as usize) {
            *table = DegreeTable::empty(degree);
        }
    }

    /// Adds `delta` to every multiplicity in pool entry `id`'s cost-row
    /// block for `degree`, de-synchronizing the stored symbolic rows from
    /// the topology's true objectives. Returns `false` (and changes
    /// nothing) when the degree or id is out of range.
    ///
    /// Fault-injection helper (sibling of [`LookupTable::remove_degree`])
    /// for the differential harness's mutation-smoke mode: the harness
    /// corrupts one row and asserts its LUT-vs-numeric-DW oracle *catches*
    /// the planted divergence, proving the oracle itself works. Any net
    /// whose query scores the corrupted row with a nonzero gap vector sees
    /// a shifted dot-product cost. Tables built by [`crate::LutBuilder`]
    /// are never corrupt.
    ///
    /// On a mapped table this copies the cost arena out of the mapping
    /// first (copy-on-write) — the file and other tables sharing the
    /// mapping are never written through.
    ///
    /// Like [`LookupTable::remove_degree`], this is the table-local hook;
    /// the router's fault plane (`patlabor::FaultPlane`, kind
    /// `corrupted-row`) injects the equivalent frontier perturbation per
    /// net without touching the table, and the router's frontier
    /// validation then demotes the net down the degradation ladder.
    pub fn corrupt_cost_row(&mut self, degree: u8, id: u32, delta: u16) -> bool {
        let Some(table) = self.tables.get_mut(degree as usize) else {
            return false;
        };
        if id as usize >= table.npool() {
            return false;
        }
        let stride = table.row_stride();
        let costs = table.costs.to_mut();
        for v in &mut costs[id as usize * stride..(id as usize + 1) * stride] {
            *v = v.wrapping_add(delta);
        }
        true
    }

    /// Statistics per degree (Table II).
    pub fn stats(&self) -> Vec<LutStats> {
        (3..=self.lambda)
            .map(|d| {
                let table = &self.tables[d as usize];
                let total = table.pattern_ids.len();
                let bytes = table.edges.len()
                    + table.edge_off.len() * 4
                    + table.costs.len() * 2
                    + table.pattern_keys.len() * 8
                    + table.pattern_off.len() * 4
                    + table.pattern_ids.len() * 4;
                LutStats {
                    degree: d,
                    num_patterns: table.pattern_count(),
                    avg_topologies: if table.pattern_count() == 0 {
                        0.0
                    } else {
                        total as f64 / table.pattern_count() as f64
                    },
                    total_topologies: total,
                    unique_topologies: table.npool(),
                    bytes,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor_geom::Pattern;

    fn sol(n: u8, edges: &[(RankNode, RankNode)]) -> SymbolicSolution {
        let dims = 2 * n as usize - 2;
        SymbolicSolution {
            w: vec![1; dims],
            delays: vec![vec![2; dims]; n as usize - 1],
            edges: edges.to_vec(),
        }
    }

    #[test]
    fn stored_topology_pack_roundtrip() {
        let n = 5u8;
        let edges = vec![
            (RankNode::new(0, 0), RankNode::new(3, 2)),
            (RankNode::new(4, 4), RankNode::new(1, 1)),
        ];
        let t = StoredTopology::from_solution(&sol(n, &edges), n);
        let back = t.rank_edges(n);
        // Roundtrip preserves the edge set (endpoint order normalized).
        assert_eq!(back.len(), 2);
        assert!(back.contains(&(RankNode::new(0, 0), RankNode::new(3, 2))));
        assert!(back.contains(&(RankNode::new(1, 1), RankNode::new(4, 4))));
        // Rows: W first, then the four delay rows.
        assert_eq!(t.rows.len(), 5 * 8);
        assert_eq!(&t.rows[..8], &[1; 8]);
        assert_eq!(&t.rows[8..16], &[2; 8]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let n = 3u8;
        let e = (RankNode::new(0, 0), RankNode::new(2, 2));
        let t = StoredTopology::from_solution(&sol(n, &[e, e, (e.1, e.0)]), n);
        assert_eq!(t.edges.len(), 1);
    }

    fn topo(edges: Vec<(u8, u8)>, rows: Vec<u16>) -> StoredTopology {
        StoredTopology { edges, rows }
    }

    #[test]
    fn pooling_dedupes_across_patterns() {
        // Degree 3: stride = 3 · 4 = 12.
        let a = topo(vec![(0, 1), (1, 2)], vec![7; 12]);
        let b = topo(vec![(0, 2)], vec![9; 12]);
        let mut lists = HashMap::new();
        lists.insert(1u64, vec![a.clone(), b.clone()]);
        lists.insert(2u64, vec![a.clone()]);
        lists.insert(3u64, vec![b.clone(), a.clone()]);
        let table = DegreeTable::from_lists(3, lists);
        assert_eq!(table.npool(), 2, "two unique topologies");
        // Pattern 3 references both, in its own order.
        let ids3 = table.ids_of(3).unwrap();
        assert_eq!(table.topology(ids3[0]), b);
        assert_eq!(table.topology(ids3[1]), a);
    }

    #[test]
    fn pooling_keeps_same_edges_with_different_rows_apart() {
        // Same tree shape but different cost rows (e.g. two patterns with
        // different source columns): the query evaluates the rows, so the
        // entries must not merge.
        let a = topo(vec![(0, 1)], vec![1; 12]);
        let b = topo(vec![(0, 1)], vec![2; 12]);
        let mut lists = HashMap::new();
        lists.insert(1u64, vec![a.clone()]);
        lists.insert(2u64, vec![b.clone()]);
        let table = DegreeTable::from_lists(3, lists);
        assert_eq!(table.npool(), 2);
        assert_ne!(
            table.topology(table.ids_of(1).unwrap()[0]),
            table.topology(table.ids_of(2).unwrap()[0])
        );
    }

    #[test]
    fn pooling_is_deterministic() {
        let mk = || {
            let mut lists = HashMap::new();
            for k in 0..20u64 {
                lists.insert(k, vec![topo(vec![(0, (k % 5) as u8)], vec![k as u16; 12])]);
            }
            DegreeTable::from_lists(3, lists)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn csr_accessors_are_consistent() {
        let a = topo(vec![(0, 1), (1, 2), (2, 5)], vec![3; 12]);
        let b = topo(vec![(0, 2)], vec![4; 12]);
        let mut lists = HashMap::new();
        lists.insert(10u64, vec![a.clone(), b.clone()]);
        let table = DegreeTable::from_lists(3, lists);
        assert_eq!(table.edges_of(0), &[0, 1, 1, 2, 2, 5]);
        assert_eq!(table.edges_of(1), &[0, 2]);
        assert_eq!(table.rows_of(0), &a.rows[..]);
        assert_eq!(table.rows_of(1), &b.rows[..]);
        assert!(table.ids_of(11).is_none());
        assert_eq!(table.ids_of(10), Some(&[0u32, 1][..]));
    }

    #[test]
    fn eytzinger_search_agrees_with_binary_search() {
        // Exhaustive over sizes 0..=70 with stride-3 keys: every present
        // key is found at its sorted position, every absent probe misses.
        for m in 0..=70u64 {
            let keys: Vec<u64> = (0..m).map(|i| 3 * i + 1).collect();
            let (eyt, pos) = eytzinger(&keys);
            let table = DegreeTable {
                pattern_keys: keys.clone().into(),
                eyt_keys: eyt,
                eyt_pos: pos,
                ..DegreeTable::default()
            };
            for probe in 0..=(3 * m + 3) {
                assert_eq!(
                    table.find_key(probe),
                    keys.binary_search(&probe).ok(),
                    "m={m} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn kernel_dot_matches_reference() {
        // The chunked kernel must equal the naive dot on mixed-sign gaps
        // and all alignments/lengths 0..=17.
        let rows: Vec<u16> = (0..17).map(|i| (i * 37 + 5) as u16).collect();
        let gaps: Vec<i64> = (0..17)
            .map(|i| (i as i64 - 8) * 1_000_000_007)
            .collect();
        for len in 0..=17usize {
            let expect: i64 = rows[..len]
                .iter()
                .zip(&gaps[..len])
                .map(|(&m, &l)| (m as i64).wrapping_mul(l))
                .fold(0i64, |a, x| a.wrapping_add(x));
            assert_eq!(dot_scalar(&rows[..len], &gaps[..len]), expect, "len={len}");
        }
    }

    /// The materialize path the slot numbering replaced: stored edges
    /// mapped to plane points through [`NetClass::instance_point`], then
    /// numbered by [`patlabor_tree::extract_from_union`]'s point index.
    fn materialize_by_points(
        table: &LookupTable,
        net: &Net,
        class: &NetClass,
        id: u32,
    ) -> RoutingTree {
        let n = class.degree();
        let point = |p: u8| class.instance_point(RankNode::new(p / n, p % n));
        let edges: Vec<_> = table.tables[n as usize]
            .edges_of(id)
            .chunks_exact(2)
            .map(|pair| (point(pair[0]), point(pair[1])))
            .collect();
        patlabor_tree::extract_from_union(net, &edges).expect("stored topologies span every pin")
    }

    #[test]
    fn materialize_matches_the_point_index_reference_on_every_candidate() {
        // Every pattern of degree 3..=5 (all D4 images, so every inverse
        // transform) under all-distinct, partly zero and all-zero gaps,
        // and every candidate id of its class — not only survivors.
        let table = crate::LutBuilder::new(5).build();
        let mut checked = 0;
        for n in 3..=5u8 {
            let m = n as i64 - 1;
            let distinct: Vec<i64> = (0..m).map(|i| 2 * i + 3).collect();
            let partly_zero: Vec<i64> = (0..m).map(|i| (i % 2) * 5).collect();
            let zero = vec![0; m as usize];
            for pattern in Pattern::enumerate_all(n) {
                for (h, v) in [
                    (&distinct, &distinct),
                    (&partly_zero, &distinct),
                    (&zero, &zero),
                ] {
                    let net = pattern.instantiate(h, v);
                    let class = table.classify(&net).expect("degree 3..=5 classifies");
                    for &id in table
                        .candidate_ids(&class)
                        .expect("a built table holds every pattern")
                    {
                        assert_eq!(
                            table.materialize(&net, &class, id),
                            materialize_by_points(&table, &net, &class, id),
                            "{net:?} candidate {id}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 5_000, "only {checked} materializations checked");
    }

    #[test]
    fn score_candidates_matches_the_sort_and_sweep_reference() {
        // The staircase insert must keep exactly what sorting all scored
        // candidates by (w, d, position) and sweeping keeps.
        let table = crate::LutBuilder::new(5).build();
        for pattern in Pattern::enumerate_all(5) {
            for (h, v) in [([3, 1, 4, 1], [5, 9, 2, 6]), ([0, 2, 0, 2], [1, 0, 1, 0])] {
                let net = pattern.instantiate(&h, &v);
                let class = table.classify(&net).unwrap();
                let ids = table.candidate_ids(&class).unwrap();
                let degree = &table.tables[5];
                let mut scored: Vec<(Cost, usize, u32)> = ids
                    .iter()
                    .enumerate()
                    .map(|(seq, &id)| {
                        let (w, d) = score_block(degree.rows_of(id), class.canonical_gaps());
                        (Cost::new(w, d), seq, id)
                    })
                    .collect();
                scored.sort_by_key(|&(c, seq, _)| (c.wirelength, c.delay, seq));
                let mut swept: Vec<(Cost, u32)> = Vec::new();
                for (c, _, id) in scored {
                    if swept.last().is_none_or(|&(last, _)| c.delay < last.delay) {
                        swept.push((c, id));
                    }
                }
                assert_eq!(table.score_candidates(&class, ids), swept, "{net:?}");
            }
        }
    }

    #[test]
    fn lookup_table_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LookupTable>();
    }
}
