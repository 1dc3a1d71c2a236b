//! Parallel lookup-table generation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use patlabor_dw::boundary::boundary_position;
use patlabor_dw::symbolic::{symbolic_frontier, SymbolicSolution};
use patlabor_dw::DwConfig;
use patlabor_geom::{Pattern, RankNode};

use crate::format::CsrArrays;
use crate::table::LookupTable;

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
struct StoredTopology {
    /// Packed edges (endpoint node ids), sorted and deduplicated.
    edges: Vec<(u8, u8)>,
    /// Flattened cost rows: `n · (2n − 2)` multiplicities.
    rows: Vec<u16>,
}

impl StoredTopology {
    /// Packs a symbolic DP solution of a degree-`n` pattern.
    ///
    /// # Panics
    ///
    /// Panics if the solution's row shape does not match degree `n`
    /// (`2n − 2` gap dimensions, `n − 1` delay rows).
    fn from_solution(sol: &SymbolicSolution, n: u8) -> Self {
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
}

/// Pools a degree's per-pattern topology lists into its CSR arrays: one
/// pool entry per distinct `(edges, rows)`, patterns by ascending key.
///
/// # Panics
///
/// Panics if a topology's row block has the wrong stride for `degree`.
fn pool(degree: u8, lists: HashMap<u64, Vec<StoredTopology>>) -> CsrArrays {
    let mut a = CsrArrays {
        edge_off: vec![0],
        pattern_off: vec![0],
        ..CsrArrays::default()
    };
    let stride = degree as usize * (2 * degree as usize - 2);
    let mut index: HashMap<StoredTopology, u32> = HashMap::new();
    // Deterministic arena order: process patterns by ascending key —
    // which is also the order `pattern_keys` needs for the key index.
    let mut keys: Vec<u64> = lists.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        for t in &lists[&key] {
            let id = *index.entry(t.clone()).or_insert_with(|| {
                assert_eq!(t.rows.len(), stride, "row block has wrong stride");
                for &(x, y) in &t.edges {
                    a.edges.push(x);
                    a.edges.push(y);
                }
                a.edge_off.push((a.edges.len() / 2) as u32);
                a.costs.extend_from_slice(&t.rows);
                (a.edge_off.len() - 2) as u32
            });
            a.pattern_ids.push(id);
        }
        a.pattern_keys.push(key);
        a.pattern_off.push(a.pattern_ids.len() as u32);
    }
    a
}

/// Estimated symbolic-DW cost of a pattern, for scheduling.
///
/// The DP's split enumeration is O(k²) for subsets whose sinks all sit on
/// the grid boundary (Lemma 4 consecutive splits) but falls back to
/// enumerating exponentially many subset splits when interior sinks are
/// present, so interior-sink count dominates runtime. Sinks far from the
/// boundary break the lemma for more subsets, so their total boundary
/// distance is the secondary signal.
fn estimated_dw_cost(p: &Pattern) -> u64 {
    let n = p.n() as usize;
    let mut interior = 0u64;
    let mut spread = 0u64;
    for c in 0..p.n() {
        if c == p.source_col() {
            continue;
        }
        let nd = p.pin_node(c);
        let (col, row) = (nd.col as usize, nd.row as usize);
        if boundary_position(col, row, n).is_none() {
            interior += 1;
            spread += col.min(row).min(n - 1 - col).min(n - 1 - row) as u64;
        }
    }
    (interior << 32) | spread
}

/// Builder for [`LookupTable`]s.
///
/// Generation runs one symbolic Pareto-DW per canonical pattern of every
/// degree up to λ, pruning candidates with the exact LP dominance check
/// (paper Lemma 1), then pools identical topologies across patterns (the
/// paper's clustering step). Work is spread over `threads` OS threads.
///
/// The paper uses λ = 9 (4.76 h on 16 cores). Generation here is exact for
/// any λ ≤ 9. Measured in release on a 2-core host: λ = 6 builds in about
/// 0.5 s and λ = 7 in about 30 s; 8–9 are an offline job.
///
/// # Example
///
/// ```
/// use patlabor_lut::LutBuilder;
///
/// let table = LutBuilder::new(4).threads(2).build();
/// assert_eq!(table.lambda(), 4);
/// assert_eq!(table.pattern_count(4), 16);
/// ```
#[derive(Debug, Clone)]
pub struct LutBuilder {
    lambda: u8,
    threads: usize,
}

impl LutBuilder {
    /// Creates a builder for tables covering degrees `2 ..= lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside [`crate::LAMBDAS`] (`3 ..= 9`).
    pub fn new(lambda: u8) -> Self {
        assert!(
            crate::LAMBDAS.contains(&lambda),
            "lookup tables support {} <= lambda <= {}, got {lambda}",
            crate::LAMBDAS.start(),
            crate::LAMBDAS.end()
        );
        LutBuilder {
            lambda,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }

    /// Sets the number of generation threads (default: all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Generates the tables: pools each degree into its CSR arrays and
    /// encodes them into the table's v4 image, held in memory.
    pub fn build(self) -> LookupTable {
        let degrees = (3..=self.lambda)
            .map(|degree| pool(degree, self.build_degree(degree)))
            .collect();
        LookupTable::from_arrays(self.lambda, degrees)
    }

    fn build_degree(&self, degree: u8) -> HashMap<u64, Vec<StoredTopology>> {
        let mut patterns = Pattern::enumerate_canonical(degree);
        // Straggler fix: hand out the heaviest patterns first, so the
        // λ = 7 tail is many cheap patterns instead of one thread grinding
        // a late-scheduled expensive one. Key tie-break keeps the schedule
        // (not the output — that is keyed by pattern) deterministic.
        patterns.sort_by_key(|p| (std::cmp::Reverse(estimated_dw_cost(p)), p.key().as_u64()));
        let next = AtomicUsize::new(0);
        let out: Mutex<HashMap<u64, Vec<StoredTopology>>> = Mutex::new(HashMap::new());
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(patterns.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(pattern) = patterns.get(i) else {
                        break;
                    };
                    let solutions = symbolic_frontier(pattern, &DwConfig::default());
                    let mut topos: Vec<StoredTopology> = solutions
                        .iter()
                        .map(|s| StoredTopology::from_solution(s, degree))
                        .collect();
                    // Within-pattern dedup: distinct solutions often share
                    // a topology (same tree, different bookkeeping). Rows
                    // are part of the identity — entries with equal edges
                    // but different cost rows must both survive.
                    topos.sort();
                    topos.dedup();
                    out.lock()
                        .expect("generation thread panicked")
                        .insert(pattern.key().as_u64(), topos);
                });
            }
        });
        out.into_inner().expect("generation thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor_dw::numeric;
    use patlabor_geom::{Net, Point};

    fn sol(n: u8, edges: &[(RankNode, RankNode)]) -> SymbolicSolution {
        let dims = 2 * n as usize - 2;
        SymbolicSolution {
            w: vec![1; dims],
            delays: vec![vec![2; dims]; n as usize - 1],
            edges: edges.to_vec(),
        }
    }

    #[test]
    fn stored_topology_packs_edges_and_rows() {
        let n = 5u8;
        let edges = vec![
            (RankNode::new(0, 0), RankNode::new(3, 2)),
            (RankNode::new(4, 4), RankNode::new(1, 1)),
        ];
        let t = StoredTopology::from_solution(&sol(n, &edges), n);
        // Nodes pack as col · n + row; each edge is ordered, the list
        // sorted.
        assert_eq!(t.edges, [(0, 17), (6, 24)]);
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

    /// Pool entry `id` of degree-3 arrays, reassembled.
    fn entry(a: &CsrArrays, id: u32) -> StoredTopology {
        let (lo, hi) = (
            a.edge_off[id as usize] as usize,
            a.edge_off[id as usize + 1] as usize,
        );
        StoredTopology {
            edges: a.edges[2 * lo..2 * hi]
                .chunks_exact(2)
                .map(|p| (p[0], p[1]))
                .collect(),
            rows: a.costs[12 * id as usize..][..12].to_vec(),
        }
    }

    /// Pool ids of the pattern at sorted position `p`.
    fn ids(a: &CsrArrays, p: usize) -> &[u32] {
        &a.pattern_ids[a.pattern_off[p] as usize..a.pattern_off[p + 1] as usize]
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
        let arrays = pool(3, lists);
        assert_eq!(arrays.edge_off.len() - 1, 2, "two unique topologies");
        assert_eq!(arrays.pattern_keys, [1, 2, 3]);
        // Pattern 3 references both, in its own order.
        let ids3 = ids(&arrays, 2);
        assert_eq!(entry(&arrays, ids3[0]), b);
        assert_eq!(entry(&arrays, ids3[1]), a);
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
        let arrays = pool(3, lists);
        assert_eq!(arrays.edge_off.len() - 1, 2);
        assert_ne!(
            entry(&arrays, ids(&arrays, 0)[0]),
            entry(&arrays, ids(&arrays, 1)[0])
        );
    }

    #[test]
    fn pooling_is_deterministic() {
        let mk = || {
            let mut lists = HashMap::new();
            for k in 0..20u64 {
                lists.insert(k, vec![topo(vec![(0, (k % 5) as u8)], vec![k as u16; 12])]);
            }
            pool(3, lists)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn builds_all_degree_3_and_4_patterns() {
        let table = LutBuilder::new(4).threads(2).build();
        assert_eq!(table.pattern_count(3), 4);
        assert_eq!(table.pattern_count(4), 16);
        // Every pattern stores at least one topology; pooling never
        // inflates counts.
        for stats in table.stats() {
            assert!(stats.avg_topologies >= 1.0, "{stats:?}");
            assert!(stats.unique_topologies <= stats.total_topologies);
            assert!(stats.unique_topologies >= 1);
        }
    }

    #[test]
    fn pooling_is_row_aware() {
        // v3 pools on (edges, rows): a pool entry may be shared only when
        // the dot-product kernel would score it identically for both
        // patterns. In practice delay rows encode the source position, so
        // cross-pattern sharing essentially vanishes (v2 shared edge sets
        // whose costs were re-derived per net at query time) — the pool is
        // a deduplicated arena, never an inflated one, and every stored
        // entry must carry a full row block.
        let table = LutBuilder::new(5).threads(2).build();
        let s5 = table
            .stats()
            .into_iter()
            .find(|s| s.degree == 5)
            .expect("degree 5 generated");
        assert!(
            s5.unique_topologies <= s5.total_topologies,
            "pooling must never inflate: {s5:?}"
        );
        assert_eq!(s5.num_patterns, 89);
        assert!(s5.total_topologies >= s5.num_patterns);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_out_of_range_lambda() {
        let _ = LutBuilder::new(10);
    }

    #[test]
    fn query_matches_numeric_dw_on_random_nets() {
        let table = LutBuilder::new(5).threads(2).build();
        let mut seed = 0xdead_beefu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..60 {
            let degree = 3 + (trial % 3) as usize; // 3, 4, 5
            let pins: Vec<Point> = (0..degree)
                .map(|_| Point::new((rng() % 32) as i64, (rng() % 32) as i64))
                .collect();
            let net = Net::new(pins).unwrap();
            let expected = numeric::pareto_frontier(&net, &DwConfig::default());
            let got = table.query(&net).expect("degree within lambda");
            assert_eq!(
                got.cost_vec(),
                expected.cost_vec(),
                "LUT/DW mismatch on {:?}",
                net.pins()
            );
            for (c, t) in got.iter() {
                t.validate(&net).unwrap();
                assert_eq!((c.wirelength, c.delay), t.objectives());
            }
        }
    }

    #[test]
    fn query_handles_degree_2_and_out_of_range() {
        let table = LutBuilder::new(4).threads(1).build();
        let net2 = Net::new(vec![Point::new(0, 0), Point::new(3, 4)]).unwrap();
        let f = table.query(&net2).unwrap();
        assert_eq!(f.len(), 1);
        let big = Net::new((0..6).map(|i| Point::new(i, i * i)).collect()).unwrap();
        assert!(table.query(&big).is_none());
    }

    #[test]
    fn query_handles_tied_coordinates() {
        let table = LutBuilder::new(4).threads(1).build();
        let net = Net::new(vec![
            Point::new(0, 0),
            Point::new(0, 5),
            Point::new(5, 5),
            Point::new(5, 0),
        ])
        .unwrap();
        let expected = numeric::pareto_frontier(&net, &DwConfig::default());
        let got = table.query(&net).unwrap();
        assert_eq!(got.cost_vec(), expected.cost_vec());
    }
}
