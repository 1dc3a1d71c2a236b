//! The resilience layer: clocks and deadline budgets, the unified fault
//! plane, and the degradation-ladder vocabulary (DESIGN.md §12).
//!
//! Production serving cannot afford a hard failure because one degree is
//! missing from a table file or one net's enumeration runs long. Instead
//! of erroring, [`crate::Engine::route`] walks a **degradation ladder**
//!
//! ```text
//! [cache →] LUT query → numeric DW → baseline    (degree ≤ λ)
//!           local search → baseline              (degree > λ)
//! ```
//!
//! (the cache rung only on an engine that opted into the frontier
//! cache), where every failed, faulted or budget-expired rung falls through to
//! the next. This module holds the pieces the router composes:
//!
//! * [`Clock`] / [`Budget`] — a monotonic clock abstraction so per-net
//!   deadlines are testable with a [`VirtualClock`] (no wall-time
//!   flakiness) and production uses the [`SystemClock`];
//! * [`FaultPlane`] — one seed-deterministic registry replacing the
//!   scattered test hooks (`remove_degree`, `corrupt_cost_row`, ad-hoc
//!   panic injection): missing-degree, missing-pattern, corrupted-row,
//!   stage-panic and stage-delay faults, injected per net by hash. Its
//!   `kind[:probability]` spec grammar ([`parse_kind_spec`]) and hash
//!   helpers ([`splitmix64`], [`unit_interval`]) are shared with the
//!   serve layer's transport fault plane;
//! * [`Rung`] / [`RungOutcome`] / [`DegradationTrace`] — what each rung
//!   attempted and why it fell through, recorded per net in
//!   [`crate::RouteProvenance`];
//! * [`ResilienceConfig`] — which fallbacks are armed ([`strict`]
//!   disables them all, restoring fail-fast semantics for oracles);
//! * [`ResilienceReport`] — the one fold of [`crate::RouteResult`]s that
//!   the CLI, the serve daemon's `/metrics` and the verify harness read.
//!
//! [`strict`]: ResilienceConfig::strict

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use patlabor_geom::Net;

use crate::pipeline::RouteResult;

// ---------------------------------------------------------------------------
// Clocks and budgets
// ---------------------------------------------------------------------------

/// A monotonic clock the router reads deadlines against.
///
/// Production routers use the [`SystemClock`]; tests inject a
/// [`VirtualClock`], which moves only when a test advances it, so
/// deadline behavior is a pure function of the configuration — no
/// sleeps, no flaky timing assertions. The router itself never moves a
/// clock: an injected stage delay is charged to the stalled request's
/// own [`Budget`], so concurrent routes sharing one clock cannot spend
/// each other's deadlines.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Monotonic time since the clock's origin.
    fn now(&self) -> Duration;
}

/// Wall-clock time relative to the clock's construction instant.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock starting now.
    pub fn new() -> Self {
        SystemClock { origin: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A test clock that moves only when told to.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `by` — how a test lets time pass.
    pub fn advance(&self, by: Duration) {
        let by = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(by, Ordering::AcqRel);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Acquire))
    }
}

/// A per-net deadline: fixed at route entry, checked cooperatively at
/// rung boundaries and inside the DW / local-search inner loops. It
/// belongs to one route on one thread, so charging it is a plain cell
/// write.
#[derive(Debug, Clone)]
pub struct Budget {
    clock: Arc<dyn Clock>,
    deadline_at: Cell<Duration>,
}

impl Budget {
    /// Starts a budget of `deadline` from the clock's current reading.
    pub fn new(clock: Arc<dyn Clock>, deadline: Duration) -> Self {
        let deadline_at = Cell::new(clock.now().saturating_add(deadline));
        Budget { clock, deadline_at }
    }

    /// Spends `by` of this budget without time passing on the clock —
    /// the stage-delay fault's injection point. Only this budget's
    /// route sees the charge.
    pub fn charge(&self, by: Duration) {
        let deadline_at = self.deadline_at.get().saturating_sub(by);
        self.deadline_at.set(deadline_at);
    }

    /// Whether the deadline has passed.
    pub fn exceeded(&self) -> bool {
        self.clock.now() >= self.deadline_at.get()
    }
}

// ---------------------------------------------------------------------------
// Fault plane
// ---------------------------------------------------------------------------

/// The kinds of fault the plane can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The LUT rung behaves as if the net's degree had no table (the
    /// `remove_degree` failure mode, without mutating the shared table).
    /// At the LocalSearch rung it simulates reroute tables the search
    /// cannot use, demoting large nets to the baseline rung.
    MissingDegree,
    /// The LUT rung behaves as if the net's canonical pattern were absent.
    MissingPattern,
    /// The LUT rung's scored frontier is perturbed the way a corrupted
    /// cost row perturbs it (the `corrupt_cost_row` failure mode);
    /// frontier validation then catches the mismatch.
    CorruptedRow,
    /// The targeted rung panics (the batch driver's isolation test).
    StagePanic,
    /// The targeted rung stalls: the plane's
    /// [`delay`](FaultPlane::delay) is charged to the net's deadline
    /// [`Budget`] before the rung runs. A net without a deadline is
    /// unaffected.
    StageDelay,
}

impl FaultKind {
    /// Every kind, in CLI/report order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::MissingDegree,
        FaultKind::MissingPattern,
        FaultKind::CorruptedRow,
        FaultKind::StagePanic,
        FaultKind::StageDelay,
    ];

    /// Stable machine-readable label (`--faults` spelling).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::MissingDegree => "missing-degree",
            FaultKind::MissingPattern => "missing-pattern",
            FaultKind::CorruptedRow => "corrupted-row",
            FaultKind::StagePanic => "stage-panic",
            FaultKind::StageDelay => "stage-delay",
        }
    }

    /// Parses a [`label`](FaultKind::label).
    pub fn from_label(label: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// The primary serving rung for the net's degree: [`Rung::Lut`] on
    /// tabulated degrees, [`Rung::LocalSearch`] above λ. The default —
    /// it exercises the fallback rungs without disabling them.
    Primary,
    /// Exactly one rung.
    Rung(Rung),
    /// Every rung the net passes through (a fault nothing can absorb).
    AllRungs,
}

impl FaultScope {
    /// Whether a fault with this scope applies at `rung`.
    pub fn matches(self, rung: Rung) -> bool {
        match self {
            FaultScope::Primary => matches!(rung, Rung::Lut | Rung::LocalSearch),
            FaultScope::Rung(r) => r == rung,
            FaultScope::AllRungs => true,
        }
    }
}

/// One registered fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Where to inject it.
    pub scope: FaultScope,
    /// Fraction of nets hit, decided deterministically per net by the
    /// plane's seed (`1.0` hits every net).
    pub probability: f64,
}

impl Fault {
    /// Parses the CLI spelling `kind[:probability][@rung|@all]`, e.g.
    /// `stage-panic`, `corrupted-row:0.3`, `stage-delay:1@local-search`.
    /// Scope defaults to [`FaultScope::Primary`], probability to `1.0`;
    /// the `kind[:probability]` head is [`parse_kind_spec`].
    pub fn parse(spec: &str) -> Result<Fault, String> {
        let (head, scope) = match spec.split_once('@') {
            None => (spec, FaultScope::Primary),
            Some((head, "all")) => (head, FaultScope::AllRungs),
            Some((head, rung)) => {
                let rung = Rung::from_label(rung)
                    .ok_or_else(|| format!("unknown rung `{rung}` in fault `{spec}`"))?;
                (head, FaultScope::Rung(rung))
            }
        };
        let (kind, probability) = parse_kind_spec(head, &FaultKind::ALL, FaultKind::label)?;
        Ok(Fault { kind, scope, probability })
    }
}

/// Parses the `kind[:probability]` fault-spec grammar shared by the
/// engine's [`Fault::parse`] and the serve layer's transport faults.
///
/// `kind` must be one of `kinds` (matched by `label`); a missing
/// probability means `1.0`, and a present one must parse as a number in
/// `[0, 1]` (NaN and infinities are rejected). Whitespace around either
/// part is ignored. Every malformed spec is an `Err` naming the problem,
/// never a panic.
pub fn parse_kind_spec<K: Copy>(
    spec: &str,
    kinds: &[K],
    label: fn(K) -> &'static str,
) -> Result<(K, f64), String> {
    let (name, probability) = match spec.split_once(':') {
        None => (spec, None),
        Some((name, prob)) => (name, Some(prob.trim())),
    };
    let name = name.trim();
    let kind = kinds
        .iter()
        .copied()
        .find(|&k| label(k) == name)
        .ok_or_else(|| {
            let known: Vec<&str> = kinds.iter().map(|&k| label(k)).collect();
            format!(
                "unknown fault kind `{name}` in `{spec}`; expected one of {}",
                known.join(", ")
            )
        })?;
    let probability = match probability {
        None => 1.0,
        Some(prob) => {
            let p: f64 = prob
                .parse()
                .map_err(|_| format!("bad probability `{prob}` in fault `{spec}`"))?;
            // `contains` is false for NaN, so NaN is rejected here too.
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0, 1] in fault `{spec}`"));
            }
            p
        }
    };
    Ok((kind, probability))
}

/// The unified fault-injection registry ([`crate::RouterConfig::faults`]).
///
/// Whether a fault fires on a given net is a pure function of
/// `(seed, fault kind, net pins)` — independent of rung, thread schedule
/// and routing order — so a missing-degree fault that hits a net in a
/// serial run hits the same net in every batch run, and the verify
/// harness can replay the exact fault pattern from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlane {
    seed: u64,
    delay: Duration,
    faults: Vec<Fault>,
}

impl Default for FaultPlane {
    /// An empty plane: nothing fires, zero serving-path overhead.
    fn default() -> Self {
        FaultPlane {
            seed: 0,
            delay: Duration::from_millis(5),
            faults: Vec::new(),
        }
    }
}

impl FaultPlane {
    /// An empty plane with the given decision seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlane { seed, ..FaultPlane::default() }
    }

    /// Adds one fault (builder style).
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the stage-delay fault's budget charge (default 5 ms).
    #[must_use]
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Whether any fault is registered (the serving path skips all fault
    /// bookkeeping on an empty plane).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The stage-delay fault's budget charge.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// Whether a `kind` fault strikes `rung` for the net identified by
    /// `net_key` (see [`net_key`]). Deterministic per `(seed, kind, net)`:
    /// the rung only gates on scope, so an `AllRungs` fault that hits a
    /// net hits it at every rung.
    pub fn fires(&self, kind: FaultKind, rung: Rung, net_key: u64) -> bool {
        if self.faults.is_empty() {
            return false;
        }
        self.faults.iter().any(|f| {
            f.kind == kind
                && f.scope.matches(rung)
                && unit_interval(splitmix64(self.seed ^ kind_salt(kind) ^ net_key)) < f.probability
        })
    }
}

/// A stable identity for a net's pin set, used by [`FaultPlane::fires`].
pub fn net_key(net: &Net) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in net.pins() {
        h = splitmix64(h ^ (p.x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix64(h ^ (p.y as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    }
    h
}

fn kind_salt(kind: FaultKind) -> u64 {
    match kind {
        FaultKind::MissingDegree => 0x6d69_7373_6465_6721,
        FaultKind::MissingPattern => 0x6d69_7373_7061_7421,
        FaultKind::CorruptedRow => 0x636f_7272_7570_7421,
        FaultKind::StagePanic => 0x7061_6e69_6321_2121,
        FaultKind::StageDelay => 0x6465_6c61_7921_2121,
    }
}

/// The SplitMix64 finalizer: the hash behind every seed-deterministic
/// decision in the workspace (engine faults, transport faults, client
/// retry jitter).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from a 64-bit hash (its upper 53 bits); a fault
/// with probability `p` fires when this falls below `p`.
pub fn unit_interval(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// ---------------------------------------------------------------------------
// Rungs and traces
// ---------------------------------------------------------------------------

/// The rungs of the degradation ladder, in descent order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Degree-2 closed form (infallible; not a fault site).
    ClosedForm,
    /// Frontier-cache replay of winning topology ids.
    Cache,
    /// LUT dot-product query + survivor materialization (the primary
    /// rung for degrees `3..=λ`).
    Lut,
    /// Fresh numeric Pareto-DW enumeration — exact but per-instance
    /// expensive; the fallback when the tables cannot serve.
    NumericDw,
    /// Policy-guided local search (the primary rung above λ).
    LocalSearch,
    /// Baseline heuristic sweep from `crates/baselines` — always
    /// available, approximate, the last resort.
    Baseline,
}

impl Rung {
    /// Every rung, in ladder order.
    pub const ALL: [Rung; 6] = [
        Rung::ClosedForm,
        Rung::Cache,
        Rung::Lut,
        Rung::NumericDw,
        Rung::LocalSearch,
        Rung::Baseline,
    ];

    /// Number of rungs (array-index bound for per-rung counters).
    pub const COUNT: usize = Rung::ALL.len();

    /// Position in [`Rung::ALL`].
    pub fn index(self) -> usize {
        match self {
            Rung::ClosedForm => 0,
            Rung::Cache => 1,
            Rung::Lut => 2,
            Rung::NumericDw => 3,
            Rung::LocalSearch => 4,
            Rung::Baseline => 5,
        }
    }

    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Rung::ClosedForm => "closed-form",
            Rung::Cache => "cache",
            Rung::Lut => "lut",
            Rung::NumericDw => "numeric-dw",
            Rung::LocalSearch => "local-search",
            Rung::Baseline => "baseline",
        }
    }

    /// Parses a [`label`](Rung::label).
    pub fn from_label(label: &str) -> Option<Rung> {
        Rung::ALL.into_iter().find(|r| r.label() == label)
    }

    /// Whether the per-net deadline gates this rung. Only the compute
    /// rungs are gated; the cache probe is nearly free and the baseline
    /// is the deliberately cheap last resort, so an expired budget still
    /// yields *some* tree instead of nothing.
    pub fn deadline_gated(self) -> bool {
        matches!(self, Rung::Lut | Rung::NumericDw | Rung::LocalSearch)
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How one rung attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RungOutcome {
    /// The rung produced the frontier (always the trace's last entry).
    Served,
    /// The table has no patterns for the degree (real or injected).
    MissingDegree,
    /// The net's canonical pattern is absent (real or injected).
    MissingPattern,
    /// Frontier validation caught a cost/witness mismatch — a corrupted
    /// cost row (real or injected).
    CorruptRow,
    /// The rung panicked; the ladder caught it and fell through.
    Panicked,
    /// The per-net deadline expired before or during the rung.
    DeadlineExceeded,
    /// The rung was not attempted (disabled fallback or trace filler).
    Unavailable,
}

impl RungOutcome {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            RungOutcome::Served => "served",
            RungOutcome::MissingDegree => "missing-degree",
            RungOutcome::MissingPattern => "missing-pattern",
            RungOutcome::CorruptRow => "corrupt-row",
            RungOutcome::Panicked => "panicked",
            RungOutcome::DeadlineExceeded => "deadline",
            RungOutcome::Unavailable => "unavailable",
        }
    }
}

impl fmt::Display for RungOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One rung attempt: which rung, and how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RungAttempt {
    /// The rung.
    pub rung: Rung,
    /// Its outcome.
    pub outcome: RungOutcome,
}

const TRACE_FILLER: RungAttempt = RungAttempt {
    rung: Rung::Baseline,
    outcome: RungOutcome::Unavailable,
};

/// The per-net record of the ladder's descent, stored inline in
/// [`crate::RouteProvenance`] (fixed-size so provenance stays `Copy`).
///
/// A clean route has a single `served` entry for its primary rung; every
/// earlier entry names a rung that failed and why. Cache *misses* are
/// not recorded — a miss is the normal path, not a degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DegradationTrace {
    len: u8,
    attempts: [RungAttempt; Rung::COUNT],
}

impl Default for DegradationTrace {
    fn default() -> Self {
        DegradationTrace {
            len: 0,
            attempts: [TRACE_FILLER; Rung::COUNT],
        }
    }
}

impl DegradationTrace {
    /// Appends an attempt (each rung is tried at most once, so the
    /// fixed-size array never overflows; saturates defensively anyway).
    pub fn push(&mut self, rung: Rung, outcome: RungOutcome) {
        let i = self.len as usize;
        if i < Rung::COUNT {
            self.attempts[i] = RungAttempt { rung, outcome };
            self.len += 1;
        }
    }

    /// The recorded attempts, in ladder order.
    pub fn attempts(&self) -> &[RungAttempt] {
        &self.attempts[..self.len as usize]
    }

    /// Whether any rung failed before (or instead of) serving.
    pub fn degraded(&self) -> bool {
        self.attempts()
            .iter()
            .any(|a| a.outcome != RungOutcome::Served)
    }

    /// The rung that served, if any ([`RungOutcome::Served`] is always
    /// last — the ladder stops on success).
    pub fn served_by(&self) -> Option<Rung> {
        self.attempts()
            .last()
            .filter(|a| a.outcome == RungOutcome::Served)
            .map(|a| a.rung)
    }

    /// Whether `rung` was attempted with `outcome`.
    pub fn contains(&self, rung: Rung, outcome: RungOutcome) -> bool {
        self.attempts()
            .iter()
            .any(|a| a.rung == rung && a.outcome == outcome)
    }
}

impl fmt::Display for DegradationTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            return f.write_str("(no rungs attempted)");
        }
        for (i, a) in self.attempts().iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{}:{}", a.rung, a.outcome)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Configuration and report
// ---------------------------------------------------------------------------

/// Which parts of the resilience layer are armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Fall through to a fresh numeric DW enumeration when the cache and
    /// LUT rungs cannot serve a tabulated degree.
    pub dw_fallback: bool,
    /// Fall through to the baseline heuristic sweep as the last rung.
    pub baseline_fallback: bool,
    /// Validate every served frontier (each cost must equal its witness
    /// tree's recomputed objectives) so corrupted cost rows demote to
    /// the next rung instead of serving wrong answers.
    pub validate_frontiers: bool,
    /// Per-net deadline; `None` routes without a budget (and without the
    /// budget checkpoints' overhead).
    pub deadline: Option<Duration>,
}

impl Default for ResilienceConfig {
    /// Everything armed, no deadline.
    fn default() -> Self {
        ResilienceConfig {
            dw_fallback: true,
            baseline_fallback: true,
            validate_frontiers: true,
            deadline: None,
        }
    }
}

impl ResilienceConfig {
    /// Fail-fast mode: no fallback rungs, no validation, no deadline —
    /// the pre-ladder behavior. The verify harness routes its oracles
    /// this way so a table fault surfaces as a `RouteError` divergence
    /// instead of being silently absorbed.
    pub fn strict() -> Self {
        ResilienceConfig {
            dw_fallback: false,
            baseline_fallback: false,
            validate_frontiers: false,
            deadline: None,
        }
    }
}

/// The aggregate of a run's [`RouteResult`]s: what served, what
/// degraded, what failed. Built with [`ResilienceReport::from_results`]
/// (or [`ResilienceReport::record`] per result), it is the only tally of
/// routing outcomes: the CLI's `resilience:` line, the serve daemon's
/// `/metrics` families and its shutdown summary all read it. Cache
/// health is not part of it; see [`crate::Engine::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceReport {
    /// Nets routed.
    pub nets: u64,
    /// Nets that produced a frontier (any rung).
    pub served: u64,
    /// Served nets whose trace shows at least one failed rung.
    pub degraded: u64,
    /// Nets that failed every armed rung (structured `RouteError`).
    pub errors: u64,
    /// Errored nets whose failure was an isolated panic.
    pub panicked: u64,
    /// Nets whose trace records a deadline expiry, served or not.
    pub deadline_hits: u64,
    /// Served nets per rung, indexed by [`Rung::index`].
    pub served_by: [u64; Rung::COUNT],
}

impl ResilienceReport {
    /// Folds one net's result into the tally.
    pub fn record(&mut self, result: &RouteResult) {
        self.nets += 1;
        match result {
            Ok(outcome) => {
                self.served += 1;
                let trace = &outcome.provenance.trace;
                if trace.degraded() {
                    self.degraded += 1;
                }
                if let Some(rung) = trace.served_by() {
                    self.served_by[rung.index()] += 1;
                }
                if trace
                    .attempts()
                    .iter()
                    .any(|a| a.outcome == RungOutcome::DeadlineExceeded)
                {
                    self.deadline_hits += 1;
                }
            }
            Err(e) => {
                self.errors += 1;
                if matches!(e, crate::RouteError::Panicked { .. }) {
                    self.panicked += 1;
                }
                if let crate::RouteError::RungsExhausted { trace, .. } = e {
                    if trace
                        .attempts()
                        .iter()
                        .any(|a| a.outcome == RungOutcome::DeadlineExceeded)
                    {
                        self.deadline_hits += 1;
                    }
                }
            }
        }
    }

    /// Aggregates a whole batch.
    pub fn from_results(results: &[RouteResult]) -> Self {
        let mut report = ResilienceReport::default();
        for r in results {
            report.record(r);
        }
        report
    }
}

impl fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nets: {} served ({} degraded), {} errors ({} panicked), {} deadline hits; served by:",
            self.nets, self.served, self.degraded, self.errors, self.panicked, self.deadline_hits
        )?;
        for rung in Rung::ALL {
            write!(f, " {} {}", rung.label(), self.served_by[rung.index()])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor_geom::Point;

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(3));
        clock.advance(Duration::from_millis(4));
        assert_eq!(clock.now(), Duration::from_millis(7));
    }

    #[test]
    fn budget_expires_exactly_at_the_deadline() {
        let clock = Arc::new(VirtualClock::new());
        clock.advance(Duration::from_secs(1)); // non-zero origin
        let budget = Budget::new(clock.clone() as Arc<dyn Clock>, Duration::from_millis(10));
        assert!(!budget.exceeded());
        clock.advance(Duration::from_millis(9));
        assert!(!budget.exceeded());
        clock.advance(Duration::from_millis(1));
        assert!(budget.exceeded());
    }

    #[test]
    fn a_charge_spends_only_its_own_budget() {
        let clock = Arc::new(VirtualClock::new());
        let charged = Budget::new(clock.clone() as Arc<dyn Clock>, Duration::from_millis(10));
        let sibling = Budget::new(clock.clone() as Arc<dyn Clock>, Duration::from_millis(10));
        charged.charge(Duration::from_millis(4));
        clock.advance(Duration::from_millis(6));
        assert!(charged.exceeded());
        assert!(!sibling.exceeded());
        // A charge larger than the whole budget saturates.
        sibling.charge(Duration::MAX);
        assert!(sibling.exceeded());
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn fault_labels_roundtrip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::from_label("bogus"), None);
        for rung in Rung::ALL {
            assert_eq!(Rung::from_label(rung.label()), Some(rung));
            assert_eq!(Rung::ALL[rung.index()], rung);
        }
    }

    #[test]
    fn fault_parse_accepts_kind_probability_and_scope() {
        let f = Fault::parse("missing-degree").unwrap();
        assert_eq!(f.kind, FaultKind::MissingDegree);
        assert_eq!(f.scope, FaultScope::Primary);
        assert_eq!(f.probability, 1.0);

        let f = Fault::parse("corrupted-row:0.25").unwrap();
        assert_eq!(f.kind, FaultKind::CorruptedRow);
        assert_eq!(f.probability, 0.25);

        let f = Fault::parse("stage-panic:0.5@local-search").unwrap();
        assert_eq!(f.scope, FaultScope::Rung(Rung::LocalSearch));

        let f = Fault::parse("stage-panic@all").unwrap();
        assert_eq!(f.scope, FaultScope::AllRungs);

        assert!(Fault::parse("bogus").is_err());
        assert!(Fault::parse("stage-panic:2.0").is_err());
        assert!(Fault::parse("stage-panic:x").is_err());
        assert!(Fault::parse("stage-panic@warp").is_err());
    }

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn fault_plane_is_deterministic_and_probability_scaled() {
        let plane = FaultPlane::seeded(7).with_fault(Fault {
            kind: FaultKind::StagePanic,
            scope: FaultScope::Primary,
            probability: 0.5,
        });
        let mut hits = 0usize;
        let total = 400;
        for i in 0..total {
            let n = net(&[(0, 0), (i as i64 + 1, 3), (2, i as i64 + 5)]);
            let key = net_key(&n);
            let fired = plane.fires(FaultKind::StagePanic, Rung::Lut, key);
            // Deterministic: same decision on every query and rung in scope.
            assert_eq!(fired, plane.fires(FaultKind::StagePanic, Rung::Lut, key));
            assert_eq!(fired, plane.fires(FaultKind::StagePanic, Rung::LocalSearch, key));
            // Out-of-scope rung never fires under Primary.
            assert!(!plane.fires(FaultKind::StagePanic, Rung::Baseline, key));
            // Unregistered kinds never fire.
            assert!(!plane.fires(FaultKind::MissingDegree, Rung::Lut, key));
            hits += usize::from(fired);
        }
        // ~50% within a generous tolerance (the hash is seed-fixed).
        assert!((total / 4..=3 * total / 4).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn probability_one_hits_every_net_and_zero_hits_none() {
        let always = FaultPlane::seeded(3).with_fault(Fault {
            kind: FaultKind::MissingDegree,
            scope: FaultScope::Primary,
            probability: 1.0,
        });
        let never = FaultPlane::seeded(3).with_fault(Fault {
            kind: FaultKind::MissingDegree,
            scope: FaultScope::Primary,
            probability: 0.0,
        });
        for i in 0..50 {
            let n = net(&[(0, 0), (9, i), (i + 1, 4)]);
            let key = net_key(&n);
            assert!(always.fires(FaultKind::MissingDegree, Rung::Lut, key));
            assert!(!never.fires(FaultKind::MissingDegree, Rung::Lut, key));
        }
    }

    #[test]
    fn net_key_distinguishes_nets() {
        let a = net_key(&net(&[(0, 0), (1, 2), (3, 4)]));
        let b = net_key(&net(&[(0, 0), (1, 2), (3, 5)]));
        let c = net_key(&net(&[(0, 0), (2, 1), (4, 3)]));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, net_key(&net(&[(0, 0), (1, 2), (3, 4)])));
    }

    #[test]
    fn trace_records_descent_and_reports_degradation() {
        let mut trace = DegradationTrace::default();
        assert!(!trace.degraded());
        assert_eq!(trace.served_by(), None);
        trace.push(Rung::Lut, RungOutcome::MissingDegree);
        trace.push(Rung::NumericDw, RungOutcome::Served);
        assert!(trace.degraded());
        assert_eq!(trace.served_by(), Some(Rung::NumericDw));
        assert!(trace.contains(Rung::Lut, RungOutcome::MissingDegree));
        assert!(!trace.contains(Rung::Lut, RungOutcome::Served));
        assert_eq!(trace.to_string(), "lut:missing-degree -> numeric-dw:served");

        let mut clean = DegradationTrace::default();
        clean.push(Rung::Lut, RungOutcome::Served);
        assert!(!clean.degraded());
        assert_eq!(clean.served_by(), Some(Rung::Lut));
    }

    #[test]
    fn trace_push_saturates_at_capacity() {
        let mut trace = DegradationTrace::default();
        for _ in 0..10 {
            trace.push(Rung::Lut, RungOutcome::Panicked);
        }
        assert_eq!(trace.attempts().len(), Rung::COUNT);
    }

    #[test]
    fn strict_config_disarms_everything() {
        let strict = ResilienceConfig::strict();
        assert!(!strict.dw_fallback);
        assert!(!strict.baseline_fallback);
        assert!(!strict.validate_frontiers);
        assert_eq!(strict.deadline, None);
        let default = ResilienceConfig::default();
        assert!(default.dw_fallback && default.baseline_fallback && default.validate_frontiers);
    }
}
