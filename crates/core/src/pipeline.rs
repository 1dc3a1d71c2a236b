//! Staged-pipeline vocabulary: provenance and structured errors.
//!
//! [`crate::Engine::route`] is organized as an explicit pipeline
//!
//! ```text
//!            ┌───────────┐   degree > λ    ┌──────────────┐
//!  Net ────▶ │ Classify  │ ──────────────▶ │ LocalSearch  │ ──▶ Materialize
//!            └───────────┘                 └──────────────┘
//!                  │ degree ≤ λ (NetClass)
//!                  ▼
//!            ┌─────────────┐    hit   ┌─────────────┐
//!            │ CacheLookup │ ───────▶ │ Materialize │ ──▶ RouteOutcome
//!            └─────────────┘          └─────────────┘
//!                  │ miss
//!                  ▼
//!            ┌──────────┐
//!            │ LutQuery │ ──▶ Materialize (survivors only) ──▶ RouteOutcome
//!            └──────────┘
//! ```
//!
//! The CacheLookup stage runs only on an engine that opted into the
//! frontier cache ([`crate::Engine::with_cache`]); by default a
//! tabulated net goes from Classify straight to LutQuery.
//!
//! Every route returns a [`RouteOutcome`]: the Pareto frontier plus a
//! [`RouteProvenance`] recording which stage answered ([`RouteSource`])
//! and per-stage work counters ([`StageCounters`]). Failures are the
//! structured [`RouteError`]. A panic that no rung absorbs resumes out of
//! [`crate::Engine::route`]; the batch driver
//! ([`crate::Engine::route_batch_by`]) turns it into
//! [`RouteError::Panicked`] for its slot. So the batch entry points, the
//! CLI and the daemon never panic, while a direct `route` call can.

use std::fmt;

use patlabor_geom::Point;
use patlabor_pareto::ParetoSet;
use patlabor_tree::RoutingTree;

use crate::resilience::DegradationTrace;

/// Which stage produced the answer — the headline provenance fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteSource {
    /// Degree-2 closed form: the direct source→sink tree, no table.
    ClosedForm,
    /// Winning ids replayed from the frontier cache.
    CacheHit,
    /// Full lookup-table query (score every candidate, prune, keep
    /// survivors).
    ExactLut,
    /// Fresh numeric Pareto-DW enumeration — the degradation ladder's
    /// exact fallback when the cache and LUT rungs cannot serve.
    NumericDw,
    /// Local-search approximation for degree > λ.
    LocalSearch,
    /// Baseline heuristic sweep — the ladder's approximate last resort.
    Baseline,
    /// ECO replay: a prior route's winning ids re-evaluated against the
    /// edited geometry because the edit preserved the congruence class.
    /// `staleness` counts edits since the last full route.
    Reused {
        /// Edits applied since the net was last routed from scratch.
        staleness: u32,
    },
}

impl RouteSource {
    /// Short human-readable label (used by the CLI's per-net output).
    pub fn label(self) -> &'static str {
        match self {
            RouteSource::ClosedForm => "closed-form",
            RouteSource::CacheHit => "cache-hit",
            RouteSource::ExactLut => "exact-lut",
            RouteSource::NumericDw => "numeric-dw",
            RouteSource::LocalSearch => "local-search",
            RouteSource::Baseline => "baseline",
            RouteSource::Reused { .. } => "reused",
        }
    }

    /// Whether the frontier is exact (everything except local search and
    /// the baseline sweep).
    pub fn is_exact(self) -> bool {
        !matches!(self, RouteSource::LocalSearch | RouteSource::Baseline)
    }
}

impl fmt::Display for RouteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-stage work counters for one routed net.
///
/// Counters belonging to stages the net never entered stay zero (e.g.
/// `local_search_rounds` on a tabulated net).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCounters {
    /// Frontier-cache probes (0 with the cache disabled, else 1).
    pub cache_probes: u32,
    /// Probes answered from the cache (0 or 1).
    pub cache_hits: u32,
    /// Candidate topologies scored by the LutQuery stage.
    pub candidates_scored: u32,
    /// Witness trees built by the Materialize stage.
    pub trees_materialized: u32,
    /// Reroute rounds the LocalSearch stage ran: at most `⌊n/λ⌋`, fewer
    /// when the search stopped once its max-delay tree repeated.
    pub local_search_rounds: u32,
    /// Candidate whole-net trees the LocalSearch stage generated.
    pub local_search_candidates: u32,
    /// Deadline-budget polls (rung-boundary gates plus the cooperative
    /// checkpoints inside the DW / local-search loops). Zero when no
    /// deadline is configured.
    pub budget_checks: u32,
}

/// How one net was answered: the source stage plus per-stage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteProvenance {
    /// The net's degree.
    pub degree: usize,
    /// The stage that produced the frontier.
    pub source: RouteSource,
    /// Work done per stage.
    pub counters: StageCounters,
    /// Which ladder rungs were attempted and how each ended; a clean
    /// route has one `served` entry ([`DegradationTrace::degraded`] is
    /// `false`).
    pub trace: DegradationTrace,
}

/// A routed net: the Pareto frontier plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteOutcome {
    /// The Pareto set of witness trees (exact iff
    /// `provenance.source.is_exact()`).
    pub frontier: ParetoSet<RoutingTree>,
    /// Which stage answered, and how much work each stage did.
    pub provenance: RouteProvenance,
}

/// Structured failures of the routing pipeline.
///
/// These replace the panic paths the pre-pipeline router had: a net the
/// tables cannot serve now surfaces as a value the caller (CLI, batch
/// driver) can report per net instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A pin lies outside the coordinate bound ([`Point::MAX_COORD`]).
    /// Lengths of such a net can overflow `i64`, so it is rejected
    /// before any rung runs; an ECO edit is checked after it is applied
    /// and before replay.
    CoordinateOutOfRange {
        /// Index of the first offending pin (0 is the source).
        pin: usize,
        /// The pin's position.
        at: Point,
    },
    /// The table stores no patterns at all for this degree — a truncated
    /// or corrupt table file (a built table covers every degree `3..=λ`).
    MissingDegree {
        /// The net's degree.
        degree: u8,
        /// The table's claimed λ.
        lambda: u8,
    },
    /// The degree is populated but the net's canonical pattern is absent —
    /// a corrupt or incomplete table.
    MissingPattern {
        /// The net's degree.
        degree: u8,
        /// The canonical pattern key that missed.
        key: u64,
    },
    /// A panic escaped the net's route, and the batch driver isolated it
    /// to this slot ([`crate::Engine::route_batch_by`]'s per-slot
    /// `catch_unwind`). Only the batch driver produces this error: a
    /// panic that no ladder rung absorbs resumes out of
    /// [`crate::Engine::route`] as a panic.
    Panicked {
        /// The panic payload, stringified (`&str`/`String` payloads
        /// verbatim; anything else a placeholder).
        payload: String,
    },
    /// Every armed rung of the degradation ladder failed; the trace says
    /// which rungs were tried and why each fell through. Only reachable
    /// when fallback rungs are disabled ([`ResilienceConfig::strict`]) or
    /// a deadline expired with the baseline rung disarmed.
    ///
    /// [`ResilienceConfig::strict`]: crate::resilience::ResilienceConfig::strict
    RungsExhausted {
        /// The net's degree.
        degree: usize,
        /// The failed descent.
        trace: DegradationTrace,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::CoordinateOutOfRange { pin, at } => write!(
                f,
                "pin {pin} at {at} is outside the coordinate bound ±{}",
                Point::MAX_COORD
            ),
            RouteError::MissingDegree { degree, lambda } => write!(
                f,
                "lookup table has no patterns for degree {degree} \
                 (claims lambda = {lambda}); table file truncated or corrupt"
            ),
            RouteError::MissingPattern { degree, key } => write!(
                f,
                "canonical pattern {key:#x} missing from the degree-{degree} \
                 table; table file incomplete or corrupt"
            ),
            RouteError::Panicked { payload } => {
                write!(f, "routing worker panicked: {payload}")
            }
            RouteError::RungsExhausted { degree, trace } => write!(
                f,
                "every armed rung failed for this degree-{degree} net ({trace})"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// The per-net result of the pipeline.
pub type RouteResult = Result<RouteOutcome, RouteError>;

#[cfg(test)]
mod tests {
    use super::*;

    use crate::resilience::{Rung, RungOutcome};

    #[test]
    fn source_labels_and_exactness() {
        assert_eq!(RouteSource::CacheHit.label(), "cache-hit");
        assert_eq!(RouteSource::LocalSearch.to_string(), "local-search");
        assert_eq!(RouteSource::NumericDw.label(), "numeric-dw");
        assert_eq!(RouteSource::Baseline.label(), "baseline");
        assert_eq!(RouteSource::Reused { staleness: 3 }.label(), "reused");
        assert!(RouteSource::ExactLut.is_exact());
        assert!(RouteSource::ClosedForm.is_exact());
        assert!(RouteSource::NumericDw.is_exact());
        assert!(RouteSource::Reused { staleness: 1 }.is_exact());
        assert!(!RouteSource::LocalSearch.is_exact());
        assert!(!RouteSource::Baseline.is_exact());
    }

    #[test]
    fn errors_display_actionable_messages() {
        let e = RouteError::MissingDegree { degree: 4, lambda: 6 };
        assert!(e.to_string().contains("degree 4"));
        assert!(e.to_string().contains("lambda = 6"));
        let e = RouteError::MissingPattern { degree: 3, key: 0xabc };
        assert!(e.to_string().contains("0xabc"));
        let e = RouteError::Panicked { payload: "index out of bounds".to_string() };
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("index out of bounds"));
        let mut trace = DegradationTrace::default();
        trace.push(Rung::Lut, RungOutcome::MissingDegree);
        let e = RouteError::RungsExhausted { degree: 5, trace };
        assert!(e.to_string().contains("degree-5"));
        assert!(e.to_string().contains("lut:missing-degree"));
    }
}
