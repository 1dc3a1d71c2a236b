//! Counterexample and report types: what the harness says when a fast
//! path and its oracle disagree — and when they don't.

use std::fmt;

use patlabor::Net;
use patlabor_pareto::Cost;

/// One fast-path/oracle pairing of the differential matrix (DESIGN.md
/// §11). Every production shortcut the router takes is listed here with
/// the slower reference computation it must be indistinguishable from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathPair {
    /// LUT dot-product query vs a fresh numeric DW enumeration on the
    /// instance — the exactness claim of the whole table machinery.
    LutVsNumericDw,
    /// Cache-replayed winning ids (and the warm second route) vs a
    /// cache-disabled full query.
    CachedVsUncached,
    /// `route_batch` at N threads vs the serial per-net loop.
    BatchVsSerial,
    /// Metamorphic invariance: the frontier costs of every D4 image and
    /// a translated copy vs the base net's.
    D4Translation,
    /// The zero-copy mmap-backed table (`open_mmap`) vs the owned
    /// in-memory table it was saved from: candidate lookup, scoring and
    /// the materialized witness trees must be identical — the borrowed
    /// arenas are the same bytes, so any divergence indicts the mapped
    /// serving path (alignment, bounds, eytzinger index rebuild). At
    /// construction the mapped table must also equal the original and
    /// re-serialize to the saved bytes.
    MmapVsOwned,
    /// The degradation ladder with its primary rung forced off by a
    /// `FaultPlane` injection: in-table degrees must fall to the
    /// numeric-DW rung and reproduce the healthy LUT frontier exactly;
    /// out-of-table degrees must fall to the baseline rung and serve
    /// valid, cost-consistent, mutually non-dominated trees.
    FallbackParity,
    /// The serve daemon's wire round trip vs an in-process route on a
    /// cache-disabled clone of the daemon's engine: the framed reply
    /// must be *byte-identical* to the locally-serialized
    /// `result_to_json` of the direct call — frontier, provenance,
    /// trace and all. Any byte of daylight indicts the transport
    /// (framing, JSON round trip, session plumbing), never the router.
    ServedVsDirect,
    /// ECO delta rerouting vs a fresh route of the mutated net: for
    /// every delta kind (move-pin, add/remove-sink, translate,
    /// blockage), `Engine::reroute_with_staleness` after a fresh route
    /// of the base net must produce the frontier a from-scratch route of
    /// the edited net produces —
    /// whether the edit preserved the congruence class (winner-id
    /// replay) or broke it (ladder fallback). Checked serially and
    /// through `route_batch_deltas` at N threads.
    DeltaVsFresh,
}

impl PathPair {
    /// Every pair, in the order the harness checks them.
    pub const ALL: [PathPair; 8] = [
        PathPair::LutVsNumericDw,
        PathPair::CachedVsUncached,
        PathPair::D4Translation,
        PathPair::MmapVsOwned,
        PathPair::FallbackParity,
        PathPair::ServedVsDirect,
        PathPair::DeltaVsFresh,
        PathPair::BatchVsSerial,
    ];

    /// Stable machine-readable label (CI greps for these).
    pub fn label(self) -> &'static str {
        match self {
            PathPair::LutVsNumericDw => "lut-vs-numeric-dw",
            PathPair::CachedVsUncached => "cached-vs-uncached",
            PathPair::BatchVsSerial => "batch-vs-serial",
            PathPair::D4Translation => "d4-translation",
            PathPair::MmapVsOwned => "mmap-vs-owned",
            PathPair::FallbackParity => "fallback-parity",
            PathPair::ServedVsDirect => "served-vs-direct",
            PathPair::DeltaVsFresh => "delta-vs-fresh",
        }
    }

    /// Human description of the fast path under test.
    pub fn fast_path(self) -> &'static str {
        match self {
            PathPair::LutVsNumericDw => "LUT dot-product query",
            PathPair::CachedVsUncached => "frontier-cache replay",
            PathPair::BatchVsSerial => "parallel route_batch",
            PathPair::D4Translation => "route of a congruent image",
            PathPair::MmapVsOwned => "mmap-backed zero-copy table",
            PathPair::FallbackParity => "LUT-off degradation ladder",
            PathPair::ServedVsDirect => "serve-daemon wire round trip",
            PathPair::DeltaVsFresh => "ECO delta reroute (winner-id replay)",
        }
    }

    /// Human description of the reference oracle.
    pub fn oracle(self) -> &'static str {
        match self {
            PathPair::LutVsNumericDw => "fresh numeric DW enumeration",
            PathPair::CachedVsUncached => "cache-disabled full query",
            PathPair::BatchVsSerial => "serial per-net routing loop",
            PathPair::D4Translation => "route of the base net",
            PathPair::MmapVsOwned => "owned-arena table query",
            PathPair::FallbackParity => "healthy-table route / tree invariants",
            PathPair::ServedVsDirect => "in-process engine route, serialized locally",
            PathPair::DeltaVsFresh => "fresh route of the edited net",
        }
    }
}

impl fmt::Display for PathPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A minimized, replayable divergence between a fast path and its oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Which fast/slow pairing diverged.
    pub pair: PathPair,
    /// The corpus seed — `patlabor verify --seed <seed>` replays the run.
    pub seed: u64,
    /// Index of the diverging net in the seeded corpus.
    pub net_index: usize,
    /// Degree of the corpus net before shrinking.
    pub original_degree: usize,
    /// The minimized diverging net (equals the corpus net when the pair
    /// is not shrinkable, e.g. batch-vs-serial).
    pub net: Net,
    /// Accepted shrink steps that led from the corpus net to `net`.
    pub shrink_steps: usize,
    /// Frontier costs the fast path produced on `net`.
    pub fast: Vec<Cost>,
    /// Frontier costs the oracle produced on `net`.
    pub reference: Vec<Cost>,
    /// Pair-specific context: the D4 image that broke, the thread count,
    /// a `RouteError`, ...
    pub detail: String,
}

impl Counterexample {
    /// The symmetric difference of the two frontiers' cost sets:
    /// `(fast − oracle, oracle − fast)`.
    pub fn cost_symmetric_difference(&self) -> (Vec<Cost>, Vec<Cost>) {
        let only_fast = self
            .fast
            .iter()
            .filter(|c| !self.reference.contains(c))
            .copied()
            .collect();
        let only_reference = self
            .reference
            .iter()
            .filter(|c| !self.fast.contains(c))
            .copied()
            .collect();
        (only_fast, only_reference)
    }

    /// The net in the CLI net-list format (`x,y` pins, source first), so
    /// the counterexample pastes straight into a `patlabor route` file.
    pub fn net_line(&self) -> String {
        let pins: Vec<String> = self
            .net
            .pins()
            .iter()
            .map(|p| format!("{},{}", p.x, p.y))
            .collect();
        pins.join(" ")
    }
}

fn costs_line(costs: &[Cost]) -> String {
    if costs.is_empty() {
        return "(empty frontier)".to_string();
    }
    costs
        .iter()
        .map(|c| format!("(w={}, d={})", c.wirelength, c.delay))
        .collect::<Vec<_>>()
        .join(" ")
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence on pair {}: {} vs {}",
            self.pair,
            self.pair.fast_path(),
            self.pair.oracle()
        )?;
        writeln!(
            f,
            "  corpus:      seed {:#x}, net #{} (degree {})",
            self.seed, self.net_index, self.original_degree
        )?;
        writeln!(
            f,
            "  minimized:   degree {} after {} accepted shrink steps",
            self.net.degree(),
            self.shrink_steps
        )?;
        writeln!(f, "  net:         {}", self.net_line())?;
        writeln!(f, "  fast:        {}", costs_line(&self.fast))?;
        writeln!(f, "  oracle:      {}", costs_line(&self.reference))?;
        let (only_fast, only_reference) = self.cost_symmetric_difference();
        writeln!(f, "  only fast:   {}", costs_line(&only_fast))?;
        writeln!(f, "  only oracle: {}", costs_line(&only_reference))?;
        if !self.detail.is_empty() {
            writeln!(f, "  detail:      {}", self.detail)?;
        }
        write!(
            f,
            "  replay:      patlabor verify --seed {:#x} (net index {})",
            self.seed, self.net_index
        )
    }
}

/// Per-pair tally of how many nets a check covered before the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckSummary {
    /// The fast/slow pairing.
    pub pair: PathPair,
    /// Nets (or, for batch-vs-serial, batch slots) compared.
    pub nets_checked: usize,
}

/// The outcome of one harness run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The corpus seed the run used.
    pub seed: u64,
    /// Nets in the corpus.
    pub corpus_size: usize,
    /// Per-pair coverage tallies.
    pub checks: Vec<CheckSummary>,
    /// The first divergence, minimized — `None` on a clean run.
    pub counterexample: Option<Counterexample>,
    /// Aggregated degradation-ladder outcomes from the fault sweep —
    /// `None` unless the run registered faults or a deadline.
    pub resilience: Option<patlabor::ResilienceReport>,
}

impl VerifyReport {
    /// Whether every checked pair agreed.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none()
    }

    /// Multi-line human summary (the CLI's success output).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "verify: seed {:#x}, {} corpus nets\n",
            self.seed, self.corpus_size
        );
        for check in &self.checks {
            out.push_str(&format!(
                "  {:<22} {:>6} checked   ({} vs {})\n",
                check.pair.label(),
                check.nets_checked,
                check.pair.fast_path(),
                check.pair.oracle()
            ));
        }
        if let Some(resilience) = &self.resilience {
            out.push_str(&format!("  fault sweep: {resilience}\n"));
        }
        match &self.counterexample {
            None => out.push_str("all fast paths agree with their oracles\n"),
            Some(cx) => {
                out.push_str(&cx.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// The outcome of the mutation-smoke mode: did the harness catch a
/// deliberately planted table corruption?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmokeReport {
    /// What was planted (degree, pool row, delta).
    pub mutation: String,
    /// The counterexample the harness produced — `None` means the oracle
    /// machinery itself is broken (it missed a real corruption).
    pub caught: Option<Counterexample>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor::Point;

    fn sample() -> Counterexample {
        Counterexample {
            pair: PathPair::LutVsNumericDw,
            seed: 0xbeef,
            net_index: 17,
            original_degree: 5,
            net: Net::new(vec![Point::new(0, 0), Point::new(3, 1), Point::new(2, 4)])
                .expect("valid net"),
            shrink_steps: 9,
            fast: vec![Cost::new(9, 5), Cost::new(11, 4)],
            reference: vec![Cost::new(9, 5), Cost::new(10, 4)],
            detail: String::new(),
        }
    }

    #[test]
    fn symmetric_difference_splits_both_ways() {
        let cx = sample();
        let (fast, reference) = cx.cost_symmetric_difference();
        assert_eq!(fast, vec![Cost::new(11, 4)]);
        assert_eq!(reference, vec![Cost::new(10, 4)]);
    }

    #[test]
    fn display_names_pair_seed_net_and_difference() {
        let text = sample().to_string();
        assert!(text.contains("lut-vs-numeric-dw"));
        assert!(text.contains("seed 0xbeef"));
        assert!(text.contains("net #17"));
        assert!(text.contains("0,0 3,1 2,4"));
        assert!(text.contains("only fast:   (w=11, d=4)"));
        assert!(text.contains("only oracle: (w=10, d=4)"));
        assert!(text.contains("patlabor verify --seed 0xbeef"));
    }

    #[test]
    fn net_line_is_cli_parseable_format() {
        assert_eq!(sample().net_line(), "0,0 3,1 2,4");
    }

    #[test]
    fn pair_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            PathPair::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PathPair::ALL.len());
    }

    #[test]
    fn report_summary_lists_checks_and_verdict() {
        let report = VerifyReport {
            seed: 7,
            corpus_size: 100,
            checks: vec![CheckSummary {
                pair: PathPair::CachedVsUncached,
                nets_checked: 100,
            }],
            counterexample: None,
            resilience: None,
        };
        assert!(report.is_clean());
        let text = report.summary();
        assert!(text.contains("cached-vs-uncached"));
        assert!(text.contains("all fast paths agree"));
    }
}
