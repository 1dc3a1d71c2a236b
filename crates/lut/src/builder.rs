//! Parallel lookup-table generation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use patlabor_dw::{boundary::boundary_position, symbolic::symbolic_frontier, DwConfig};
use patlabor_geom::Pattern;

use crate::table::{DegreeTable, LookupTable, StoredTopology};

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
    config: DwConfig,
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
            config: DwConfig::default(),
        }
    }

    /// Sets the number of generation threads (default: all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the DP pruning configuration (used by equivalence tests).
    pub fn config(mut self, config: DwConfig) -> Self {
        self.config = config;
        self
    }

    /// Generates the tables.
    pub fn build(self) -> LookupTable {
        let mut tables: Vec<DegreeTable> =
            (0..=self.lambda).map(|_| DegreeTable::default()).collect();
        for degree in 3..=self.lambda {
            tables[degree as usize] = DegreeTable::from_lists(degree, self.build_degree(degree));
        }
        LookupTable {
            lambda: self.lambda,
            tables,
        }
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
                    let solutions = symbolic_frontier(pattern, &self.config);
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
