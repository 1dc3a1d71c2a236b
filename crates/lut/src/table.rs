//! The lookup table proper: a view of one v4 image, the dot-product
//! query kernel and statistics.
//!
//! # v4 storage layout
//!
//! Each degree's table is a set of flat arenas (one section of the image
//! each, no per-topology boxing):
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
//! Arenas are [`Arena`]s: typed slices of the table's image, which is a
//! read-only file mapping ([`LookupTable::open_mmap`]) or a heap copy
//! (a table built or re-encoded in memory). The one reader in
//! `format.rs` builds every table, so the query kernels see one form.
//!
//! Pattern keys are additionally indexed in an Eytzinger (BFS) layout
//! built by the reader: the branchless descent touches one cache line
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

use std::sync::Arc;

use patlabor_geom::{Net, NetClass, RankNode};
use patlabor_pareto::{Cost, ParetoSet};
use patlabor_tree::{extract_from_ids, RoutingTree};

use crate::arena::Arena;
use crate::format::CsrArrays;
use crate::mmap::Mapping;

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
    /// Bytes of this degree's six v4 sections, without alignment padding.
    pub bytes: usize,
}

/// Where a [`LookupTable`]'s v4 image lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// A heap copy: a table built in this process, or one a fault hook
    /// re-encoded.
    Owned,
    /// A shared read-only `mmap` of a table file (zero-copy open).
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
pub(crate) struct DegreeTable {
    /// Degree `n`.
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
    /// `pattern_keys` in Eytzinger order, derived by the reader (it is
    /// small: one u64 + one u32 per pattern).
    index: KeyIndex,
}

impl DegreeTable {
    /// Builds a table from its arenas, deriving the Eytzinger key index.
    /// The reader is the one caller, so the index can never be stale.
    pub(crate) fn assemble(
        n: u8,
        edge_off: Arena<u32>,
        edges: Arena<u8>,
        costs: Arena<u16>,
        pattern_keys: Arena<u64>,
        pattern_off: Arena<u32>,
        pattern_ids: Arena<u32>,
    ) -> DegreeTable {
        let index = KeyIndex::new(&pattern_keys);
        DegreeTable {
            n,
            edge_off,
            edges,
            costs,
            pattern_keys,
            pattern_off,
            pattern_ids,
            index,
        }
    }

    /// Copies the arenas out, for a fault hook to edit and re-encode.
    fn to_arrays(&self) -> CsrArrays {
        CsrArrays {
            edge_off: self.edge_off.to_vec(),
            edges: self.edges.to_vec(),
            costs: self.costs.to_vec(),
            pattern_keys: self.pattern_keys.to_vec(),
            pattern_off: self.pattern_off.to_vec(),
            pattern_ids: self.pattern_ids.to_vec(),
        }
    }

    /// Cost-arena stride per pool entry: one `W` row plus `n − 1` delay
    /// rows, each `2n − 2` long.
    pub(crate) fn row_stride(&self) -> usize {
        self.n as usize * (2 * self.n as usize - 2)
    }

    /// Number of pooled topologies.
    pub(crate) fn npool(&self) -> usize {
        self.edge_off.len() - 1
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

    /// Pool ids of a canonical pattern key.
    pub(crate) fn ids_of(&self, key: u64) -> Option<&[u32]> {
        let p = self.index.find(key)?;
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
}

/// Sorted keys laid out in Eytzinger (BFS) order, with each slot's
/// sorted position to recover the CSR index.
struct KeyIndex {
    keys: Vec<u64>,
    pos: Vec<u32>,
}

impl KeyIndex {
    /// Indexes `keys`, which are sorted ascending.
    fn new(keys: &[u64]) -> KeyIndex {
        fn fill(k: usize, next: &mut usize, keys: &[u64], index: &mut KeyIndex) {
            if k <= keys.len() {
                fill(2 * k, next, keys, index);
                index.keys[k - 1] = keys[*next];
                index.pos[k - 1] = *next as u32;
                *next += 1;
                fill(2 * k + 1, next, keys, index);
            }
        }
        let mut index = KeyIndex {
            keys: vec![0; keys.len()],
            pos: vec![0; keys.len()],
        };
        fill(1, &mut 0, keys, &mut index);
        index
    }

    /// Sorted position of `key`, via branchless Eytzinger descent with
    /// grandchild prefetch.
    fn find(&self, key: u64) -> Option<usize> {
        let m = self.keys.len();
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
                    _mm_prefetch(self.keys.as_ptr().add(4 * k - 1).cast(), _MM_HINT_T0);
                }
            }
            k = 2 * k + usize::from(self.keys[k - 1] < key);
        }
        // Undo the right-turns: the lower bound is the ancestor reached by
        // the last left turn.
        k >>= k.trailing_ones() + 1;
        if k == 0 || self.keys[k - 1] != key {
            return None;
        }
        Some(self.pos[k - 1] as usize)
    }
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


/// Lookup tables for every degree `3 ..= λ` (degree 2 has a closed-form
/// answer), as a view of one validated v4 image.
///
/// Build one with [`crate::LutBuilder`] (a heap image), or serve a saved
/// table zero-copy from disk with [`LookupTable::open_mmap`]. Either way
/// the same reader checked the image and the same arenas answer queries.
/// Cloning shares the image. Two tables are equal when their contents
/// are, whatever their backing: the reader accepts only canonical
/// images, so equal contents are equal bytes.
#[derive(Clone)]
pub struct LookupTable {
    pub(crate) view: Arc<View>,
}

/// What clones of a [`LookupTable`] share: the image and the per-degree
/// arenas that borrow it.
pub(crate) struct View {
    pub(crate) lambda: u8,
    pub(crate) image: Arc<Mapping>,
    /// `degrees[d - 3]` for degree `d`.
    pub(crate) degrees: Vec<DegreeTable>,
}

impl PartialEq for LookupTable {
    fn eq(&self, other: &Self) -> bool {
        self.view.image.bytes() == other.view.image.bytes()
    }
}

impl Eq for LookupTable {}

impl std::fmt::Debug for LookupTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupTable")
            .field("lambda", &self.lambda())
            .field("backing", &self.backing())
            .field("bytes", &self.view.image.len())
            .finish()
    }
}

impl LookupTable {
    /// The largest tabulated degree λ.
    pub fn lambda(&self) -> u8 {
        self.view.lambda
    }

    /// Whether the image is a file mapping or a heap copy.
    pub fn backing(&self) -> Backing {
        if self.view.image.is_mmap() {
            Backing::Mapped
        } else {
            Backing::Owned
        }
    }

    /// The table of `degree`, or `None` outside `3..=λ`.
    fn degree(&self, degree: u8) -> Option<&DegreeTable> {
        self.view.degrees.get(usize::from(degree).checked_sub(3)?)
    }

    /// The exact Pareto frontier of `net` with one witness tree per point,
    /// or `None` when the net's degree exceeds λ or its canonical pattern
    /// is not tabulated.
    ///
    /// Composes the three query stages: [`LookupTable::candidate_ids`]
    /// (key-index lookup), [`LookupTable::score_candidates`] (dot products
    /// and numeric prune) and [`LookupTable::materialize`] (survivors
    /// only) — the calls the engine's LUT rung makes.
    pub fn query(&self, net: &Net) -> Option<ParetoSet<RoutingTree>> {
        let n = net.degree();
        if n < 2 || n > self.lambda() as usize {
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
        let ids = self.candidate_ids(&class)?;
        let entries: Vec<(Cost, RoutingTree)> = self
            .score_candidates(&class, ids)
            .into_iter()
            .map(|(cost, id)| {
                let tree = self.materialize(net, &class, id);
                debug_assert_eq!(
                    (cost.wirelength, cost.delay),
                    tree.objectives(),
                    "dot-product score must equal the materialized tree's objectives"
                );
                (cost, tree)
            })
            .collect();
        // Entries are already sorted ascending-w / strictly-descending-d,
        // so this sweep keeps every entry as-is.
        Some(ParetoSet::from_unpruned(entries))
    }

    /// Canonicalizes `net` for the query stages, or `None` when its
    /// degree is outside `3..=λ` (degree 2 has a closed-form answer and
    /// nothing to cache).
    ///
    /// The canonicalization itself lives in [`patlabor_geom::NetClass`] —
    /// the same object the frontier cache keys on — so the table and the
    /// cache can never disagree about which nets are congruent.
    pub fn classify(&self, net: &Net) -> Option<NetClass> {
        let n = net.degree();
        if n < 3 || n > self.lambda() as usize {
            return None;
        }
        NetClass::of(net)
    }

    /// The candidate pool ids stored for `class`'s canonical pattern, or
    /// `None` when the pattern is not tabulated. This is the pure *lookup*
    /// stage of a query: one Eytzinger descent over the key index.
    pub fn candidate_ids(&self, class: &NetClass) -> Option<&[u32]> {
        self.degree(class.degree())?.ids_of(class.canonical_key())
    }

    /// The table of a class's degree, which the query stages after
    /// [`LookupTable::candidate_ids`] may take as tabulated.
    fn degree_of(&self, class: &NetClass) -> &DegreeTable {
        self.degree(class.degree())
            .expect("a class with candidate ids has a tabulated degree")
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
        let table = self.degree_of(class);
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
        materialize_edges(net, class, self.degree_of(class).edges_of(id))
    }

    /// Number of [`RoutingTree`] materializations performed by queries on
    /// the calling thread since it started. Instrumentation for tests and
    /// benchmarks asserting that trees are built only for frontier
    /// survivors; per-thread so concurrent tests never interfere.
    pub fn thread_materializations() -> u64 {
        MATERIALIZATIONS.with(|c| c.get())
    }

    /// Re-evaluates a cached winning-id list against `net`.
    ///
    /// `ids` must be the pool ids [`LookupTable::score_candidates`]
    /// returned for a class with the same canonical key and gap vector
    /// (the frontier cache's lookup key), in the order it returned them;
    /// the result then equals that query's frontier.
    pub fn query_ids(&self, net: &Net, class: &NetClass, ids: &[u32]) -> ParetoSet<RoutingTree> {
        let table = self.degree_of(class);
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
    /// [`LookupTable::query`] must reproduce this frontier exactly.
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
        self.degree(degree).map_or(0, DegreeTable::pattern_count)
    }

    /// This table with `edit` applied to `degree`'s arrays: re-encoded
    /// into a new heap image and read back, so a fault-injected table
    /// passes the same reader as any other, and a mapped file is never
    /// written through.
    fn edited(&self, degree: u8, edit: impl FnOnce(&mut CsrArrays)) -> LookupTable {
        let mut arrays: Vec<CsrArrays> =
            self.view.degrees.iter().map(DegreeTable::to_arrays).collect();
        edit(&mut arrays[usize::from(degree) - 3]);
        LookupTable::from_arrays(self.lambda(), arrays)
    }

    /// Drops every stored pattern for `degree`, leaving an empty table in
    /// its place.
    ///
    /// This simulates a truncated or corrupt table file — the situation
    /// the router's `MissingDegree` error reports — without hand-crafting
    /// broken bytes. Fault-injection helper for tests and tooling; a table
    /// built by [`crate::LutBuilder`] never has gaps.
    ///
    /// This hook re-encodes this one table. For orchestrated drills —
    /// injecting the same failure mode across a corpus without doctoring
    /// the shared table — use the router's fault plane
    /// (`patlabor::FaultPlane`, kind `missing-degree`), which simulates
    /// this condition per net, deterministically by seed.
    pub fn remove_degree(&mut self, degree: u8) {
        if self.degree(degree).is_some() {
            *self = self.edited(degree, |a| {
                *a = CsrArrays {
                    edge_off: vec![0],
                    pattern_off: vec![0],
                    ..CsrArrays::default()
                }
            });
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
    /// The table is re-encoded into a new heap image: the file of a mapped
    /// table, and other tables sharing its image, are never written
    /// through.
    ///
    /// Like [`LookupTable::remove_degree`], this is the table-local hook;
    /// the router's fault plane (`patlabor::FaultPlane`, kind
    /// `corrupted-row`) injects the equivalent frontier perturbation per
    /// net without touching the table, and the router's frontier
    /// validation then demotes the net down the degradation ladder.
    pub fn corrupt_cost_row(&mut self, degree: u8, id: u32, delta: u16) -> bool {
        let Some(table) = self.degree(degree) else {
            return false;
        };
        if id as usize >= table.npool() {
            return false;
        }
        let rows = id as usize * table.row_stride()..(id as usize + 1) * table.row_stride();
        *self = self.edited(degree, |a| {
            for v in &mut a.costs[rows] {
                *v = v.wrapping_add(delta);
            }
        });
        true
    }

    /// Statistics per degree (Table II).
    pub fn stats(&self) -> Vec<LutStats> {
        self.view
            .degrees
            .iter()
            .map(|table| {
                let total = table.pattern_ids.len();
                let bytes = std::mem::size_of_val(&*table.edge_off)
                    + std::mem::size_of_val(&*table.edges)
                    + std::mem::size_of_val(&*table.costs)
                    + std::mem::size_of_val(&*table.pattern_keys)
                    + std::mem::size_of_val(&*table.pattern_off)
                    + std::mem::size_of_val(&*table.pattern_ids);
                LutStats {
                    degree: table.n,
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

    #[test]
    fn csr_accessors_are_consistent() {
        // Degree 3: stride = 3 · 4 = 12. Two pool entries, one pattern.
        let arrays = CsrArrays {
            edge_off: vec![0, 3, 4],
            edges: vec![0, 1, 1, 2, 2, 5, 0, 2],
            costs: [[3; 12], [4; 12]].concat(),
            pattern_keys: vec![10],
            pattern_off: vec![0, 2],
            pattern_ids: vec![0, 1],
        };
        let table = LookupTable::from_arrays(3, vec![arrays]);
        let degree = table.degree(3).unwrap();
        assert_eq!(degree.edges_of(0), &[0, 1, 1, 2, 2, 5]);
        assert_eq!(degree.edges_of(1), &[0, 2]);
        assert_eq!(degree.rows_of(0), &[3; 12]);
        assert_eq!(degree.rows_of(1), &[4; 12]);
        assert!(degree.ids_of(11).is_none());
        assert_eq!(degree.ids_of(10), Some(&[0u32, 1][..]));
    }

    #[test]
    fn eytzinger_search_agrees_with_binary_search() {
        // Exhaustive over sizes 0..=70 with stride-3 keys: every present
        // key is found at its sorted position, every absent probe misses.
        for m in 0..=70u64 {
            let keys: Vec<u64> = (0..m).map(|i| 3 * i + 1).collect();
            let index = KeyIndex::new(&keys);
            for probe in 0..=(3 * m + 3) {
                assert_eq!(
                    index.find(probe),
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
        let edges: Vec<_> = table
            .degree(n)
            .unwrap()
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
                let degree = table.degree(5).unwrap();
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
