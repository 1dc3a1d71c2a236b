//! The long-lived serving core: [`Engine`] and per-request [`Session`]s.
//!
//! The paper's amortization argument (§V-A) only pays off when the
//! lookup tables are loaded **once** and queried millions of times, so
//! the serving state is split into two layers:
//!
//! * [`Engine`] — everything expensive and shared: the (possibly
//!   mmap'd) [`LookupTable`], the sharded frontier cache, the policy
//!   weights, the fault plane and the deadline clock, all behind one
//!   `Arc`. Built once; [`Engine::clone`] is a reference-count bump, so
//!   every connection handler, batch worker and CLI invocation can hold
//!   its own handle without duplicating a byte of table data.
//! * [`Session`] — everything per-request: the deadline budget and an
//!   identity for provenance. A `Session` is a few machine words of
//!   `Copy` data; the server mints one per wire request.
//!
//! The engine is the crate's only router handle: library callers route
//! with [`Engine::route`] or the batch driver, and `patlabor serve` runs
//! one engine per process, one session per request, batched through
//! [`Engine::route_batch_sessions`].

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use patlabor_baselines::fallback_frontier;
use patlabor_dw::{numeric, Cancelled, DwConfig};
use patlabor_geom::{Net, NetClass};
use patlabor_lut::{LookupTable, LutBuilder};
use patlabor_pareto::{Cost, ParetoSet};
use patlabor_tree::RoutingTree;

use crate::cache::{CacheConfig, CacheKey, CacheStats, FrontierCache};
use crate::eco::{DeltaKind, EcoConfig, NetDelta};
use crate::local_search::{local_search_cancellable, LocalSearchConfig};
use crate::pipeline::{
    RouteError, RouteOutcome, RouteProvenance, RouteResult, RouteSource, StageCounters,
};
use crate::policy::Policy;
use crate::resilience::{
    net_key, Budget, Clock, DegradationTrace, FaultKind, FaultPlane, ResilienceConfig, Rung,
    RungOutcome, SystemClock,
};

/// Numeric-DW cancellation checkpoints between clock reads. Checkpoints
/// are counted on every poll, but the deadline clock — the expensive part
/// of a poll — is consulted only on this stride, keeping the
/// budgeted/unbudgeted gap of the `resilience` criterion bench
/// (`crates/bench/benches/resilience.rs`) under 2%. Rung gates still
/// read the clock unconditionally, so deadline granularity stays
/// bounded by a rung even when the DP finishes in fewer polls than one
/// stride. Local search is not strided:
/// it polls a few times per reroute round, each poll far apart, so every
/// poll reads the clock.
const BUDGET_POLL_STRIDE: u32 = 64;

/// Engine-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// λ used when the engine builds its own lookup tables (degrees
    /// `2..=λ` answered exactly). Tables for λ ≤ 6 build in seconds;
    /// λ = 7+ should be generated offline and loaded.
    pub lambda: u8,
    /// Local-search settings for nets with degree `> λ`.
    pub local_search: LocalSearchConfig,
    /// Frontier-cache settings ([`crate::cache`]). The cache memoizes
    /// winning topology ids per congruence class of nets, so repeated,
    /// translated and mirrored pin patterns skip the evaluation of
    /// dominated candidates. Routing results are bit-identical with the
    /// cache enabled or disabled; set `cache.enabled = false` (or use
    /// [`CacheConfig::disabled`]) to always evaluate from scratch.
    pub cache: CacheConfig,
    /// Which fallback rungs of the degradation ladder are armed, whether
    /// served frontiers are validated against their witness trees, and
    /// the optional per-net deadline. [`ResilienceConfig::strict`]
    /// restores the pre-ladder fail-fast behavior (oracles and tests
    /// that assert on `RouteError`s route that way).
    pub resilience: ResilienceConfig,
    /// Deterministic fault injection ([`FaultPlane`]), replacing ad-hoc
    /// table doctoring in tests and drills. Empty by default: nothing
    /// fires and the serving path skips all fault bookkeeping.
    pub faults: FaultPlane,
    /// Incremental-rerouting policy ([`EcoConfig`]): how many
    /// consecutive edits [`Engine::reroute`] may serve from replay
    /// before forcing a fresh route.
    pub eco: EcoConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            lambda: 5,
            local_search: LocalSearchConfig::default(),
            cache: CacheConfig::default(),
            resilience: ResilienceConfig::default(),
            faults: FaultPlane::default(),
            eco: EcoConfig::default(),
        }
    }
}

/// The per-request layer: deadline and identity.
///
/// Cheap (`Copy`, a few words) by design — the server mints one per wire
/// request, the batch driver carries one per slot. A default session
/// adds nothing: [`Engine::route`] with `Session::default()` behaves
/// exactly like the engine-level configuration alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Session {
    /// Caller-chosen identity, carried for provenance/logging (the serve
    /// layer stores the wire request id here). Not consulted by routing.
    pub id: u64,
    /// Per-request deadline. `Some` overrides the engine's configured
    /// [`ResilienceConfig::deadline`]; `None` inherits it.
    pub deadline: Option<Duration>,
}

impl Session {
    /// A session with the given identity and no deadline override.
    pub fn new(id: u64) -> Self {
        Session { id, ..Session::default() }
    }

    /// Sets the per-request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One loaded table generation: the table plus the monotone epoch it
/// was installed under. Epoch 0 is the table the engine was built with;
/// every successful [`Engine::reload_table`] bumps it. `Clone` is an
/// `Arc` bump — no table bytes move.
#[derive(Debug, Clone)]
pub(crate) struct TableGeneration {
    pub(crate) table: Arc<LookupTable>,
    pub(crate) epoch: u64,
}

/// The engine's swappable table slot (DESIGN.md §17).
///
/// Readers snapshot the current generation — an `Arc` bump under a
/// briefly-held read lock — at route entry and never touch the lock
/// again, so in-flight routes finish on the generation they started
/// on while a reload installs the next one. The lock is only ever held
/// across pointer-sized work; table validation happens off-slot.
#[derive(Debug)]
pub(crate) struct TableSlot {
    slot: RwLock<TableGeneration>,
}

impl TableSlot {
    fn new(table: Arc<LookupTable>) -> Self {
        TableSlot {
            slot: RwLock::new(TableGeneration { table, epoch: 0 }),
        }
    }

    /// The current generation. Poisoning is shrugged off: the guarded
    /// state is two words that are never left half-written.
    pub(crate) fn snapshot(&self) -> TableGeneration {
        self.slot.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Commits a validated table as the next generation and returns its
    /// epoch. The cache epoch is advanced *inside* the write section,
    /// before the new table becomes snapshottable: a route that
    /// snapshots the new generation can therefore never hit an entry
    /// stamped by the old one.
    fn install(&self, table: Arc<LookupTable>, cache: Option<&FrontierCache>) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        let epoch = slot.epoch + 1;
        if let Some(cache) = cache {
            cache.set_epoch(epoch);
        }
        slot.table = table;
        slot.epoch = epoch;
        epoch
    }
}

impl Clone for TableSlot {
    /// A detached slot over the same current generation (fresh lock):
    /// builder rebuilds and explicit engine deep-copies must not share
    /// reload state with the original.
    fn clone(&self) -> Self {
        TableSlot {
            slot: RwLock::new(self.snapshot()),
        }
    }
}

/// Why [`Engine::reload_table`] refused to swap. The old table keeps
/// serving in every case — a failed reload is an observation, never an
/// outage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadError {
    /// The candidate file failed the same structural validation
    /// [`LookupTable::open_mmap`] enforces (magic, section table,
    /// checksum, arena invariants). The string is the loader's report.
    Validation(String),
    /// The candidate is a well-formed table for a different λ; swapping
    /// it would silently change which degrees are tabulated.
    LambdaMismatch {
        /// λ of the table currently serving.
        current: u8,
        /// λ of the rejected candidate.
        proposed: u8,
    },
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::Validation(detail) => write!(f, "table validation failed: {detail}"),
            ReloadError::LambdaMismatch { current, proposed } => write!(
                f,
                "lambda mismatch: serving table has lambda {current}, candidate has lambda {proposed}"
            ),
        }
    }
}

impl std::error::Error for ReloadError {}

/// Everything the engine shares between requests. One allocation,
/// behind the engine's `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct EngineInner {
    pub(crate) table: TableSlot,
    pub(crate) policy: Policy,
    pub(crate) config: RouterConfig,
    /// Present iff `config.cache.enabled`. Shared (not deep-copied) by
    /// clones, so batch workers cloning a handle still pool their hits.
    pub(crate) cache: Option<Arc<FrontierCache>>,
    /// The clock deadlines are read against. Production engines keep the
    /// default [`SystemClock`]; tests inject a
    /// [`crate::resilience::VirtualClock`].
    pub(crate) clock: Arc<dyn Clock>,
}

/// The long-lived routing engine (see the module docs for the
/// engine/session split).
///
/// `Clone` is an `Arc` bump: handles share the table, cache, policy,
/// fault plane and clock. Builder methods (`with_*`) rebuild the shared
/// state — call them while setting up, before handing clones out.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Builds an engine with freshly generated λ = 5 lookup tables and
    /// the default trained policy.
    pub fn new() -> Self {
        Self::with_config(RouterConfig::default())
    }

    /// Builds an engine with the given configuration (generating tables
    /// for its λ).
    pub fn with_config(config: RouterConfig) -> Self {
        let table = LutBuilder::new(config.lambda).build();
        Self::assemble(table, config)
    }

    /// Builds an engine around pre-generated tables (e.g. mmap'd from
    /// disk via [`LookupTable::open_mmap`]).
    pub fn with_table(table: LookupTable) -> Self {
        let config = RouterConfig {
            lambda: table.lambda(),
            ..RouterConfig::default()
        };
        Self::assemble(table, config)
    }

    /// Builds an engine around pre-generated tables with an explicit
    /// configuration. `config.lambda` is overridden by the table's λ —
    /// the table, not the config, decides which degrees are tabulated.
    pub fn with_table_and_config(table: LookupTable, config: RouterConfig) -> Self {
        let config = RouterConfig {
            lambda: table.lambda(),
            ..config
        };
        Self::assemble(table, config)
    }

    fn assemble(table: LookupTable, config: RouterConfig) -> Self {
        Engine {
            inner: Arc::new(EngineInner {
                table: TableSlot::new(Arc::new(table)),
                policy: Policy::default(),
                cache: Self::build_cache(&config),
                config,
                clock: Arc::new(SystemClock::new()),
            }),
        }
    }

    fn build_cache(config: &RouterConfig) -> Option<Arc<FrontierCache>> {
        config
            .cache
            .enabled
            .then(|| Arc::new(FrontierCache::new(&config.cache)))
    }

    /// Applies a mutation to the shared state, cloning it out of the
    /// `Arc` only when other handles exist (builder calls during setup
    /// mutate in place).
    fn map_inner(self, f: impl FnOnce(&mut EngineInner)) -> Self {
        let mut inner = Arc::try_unwrap(self.inner).unwrap_or_else(|arc| (*arc).clone());
        f(&mut inner);
        Engine { inner: Arc::new(inner) }
    }

    /// Replaces the pin-selection policy (e.g. with a freshly trained one).
    #[must_use]
    pub fn with_policy(self, policy: Policy) -> Self {
        self.map_inner(|inner| inner.policy = policy)
    }

    /// Replaces the frontier-cache configuration, dropping any cached
    /// entries (and the old counters) in the process.
    #[must_use]
    pub fn with_cache(self, cache: CacheConfig) -> Self {
        self.map_inner(|inner| {
            inner.config.cache = cache;
            inner.cache = Self::build_cache(&inner.config);
        })
    }

    /// Replaces the resilience configuration (armed fallback rungs,
    /// frontier validation, per-net deadline).
    #[must_use]
    pub fn with_resilience(self, resilience: ResilienceConfig) -> Self {
        self.map_inner(|inner| inner.config.resilience = resilience)
    }

    /// Replaces the fault plane (deterministic fault injection).
    #[must_use]
    pub fn with_faults(self, faults: FaultPlane) -> Self {
        self.map_inner(|inner| inner.config.faults = faults)
    }

    /// Replaces the deadline clock (tests inject a
    /// [`crate::resilience::VirtualClock`] so deadline behavior is a
    /// pure function of the configuration).
    #[must_use]
    pub fn with_clock(self, clock: Arc<dyn Clock>) -> Self {
        self.map_inner(|inner| inner.clock = clock)
    }

    /// The lookup tables backing this engine — a snapshot of the
    /// current generation. A concurrent [`Engine::reload_table`] does
    /// not invalidate the returned handle; it keeps the generation it
    /// captured alive.
    pub fn table(&self) -> Arc<LookupTable> {
        self.inner.table.snapshot().table
    }

    /// The epoch of the currently serving table generation: 0 at build,
    /// +1 per successful [`Engine::reload_table`]. Exposed by the serve
    /// layer as the `patlabor_table_epoch` gauge.
    pub fn table_epoch(&self) -> u64 {
        self.inner.table.snapshot().epoch
    }

    /// Hot-swaps the serving table from a v4 file (DESIGN.md §17).
    ///
    /// The candidate is opened and validated **off the hot path** with
    /// the same invariants [`LookupTable::open_mmap`] enforces (magic,
    /// section table, word-striped checksum, arena bounds); only a
    /// candidate that passes and matches the serving λ is committed.
    /// The commit is an epoch'd pointer swap: in-flight routes finish
    /// on the generation they snapshotted at entry, the frontier cache
    /// is invalidated wholesale by the epoch bump (no sweep), and late
    /// inserts from old-generation routes are dropped by their stale
    /// epoch stamp. On any error the old table keeps serving.
    ///
    /// Returns the new generation's epoch.
    pub fn reload_table(&self, path: impl AsRef<Path>) -> Result<u64, ReloadError> {
        let candidate = LookupTable::open_mmap(path)
            .map_err(|e| ReloadError::Validation(e.to_string()))?;
        let current = self.inner.table.snapshot().table.lambda();
        if candidate.lambda() != current {
            return Err(ReloadError::LambdaMismatch {
                current,
                proposed: candidate.lambda(),
            });
        }
        Ok(self
            .inner
            .table
            .install(Arc::new(candidate), self.inner.cache.as_deref()))
    }

    /// The active pin-selection policy.
    pub fn policy(&self) -> &Policy {
        &self.inner.policy
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.inner.config
    }

    /// Frontier-cache counters, or `None` when the cache is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache.as_ref().map(|c| c.stats())
    }

    /// Whether routing is exact for this degree (against the currently
    /// serving table generation).
    pub fn is_exact_for(&self, degree: usize) -> bool {
        degree <= self.inner.table.snapshot().table.lambda() as usize
    }

    /// Routes one net under the engine-level configuration alone
    /// (equivalent to [`Engine::route_session`] with a default session).
    pub fn route(&self, net: &Net) -> RouteResult {
        self.route_session(net, &Session::default())
    }

    /// Routes one net through the staged pipeline under a per-request
    /// [`Session`], returning the Pareto frontier with its provenance.
    ///
    /// Exact (the full Pareto frontier, one witness tree per point) for
    /// degrees `≤ λ`; the local-search approximation above. A rung that
    /// cannot serve — missing table degree or pattern, corrupted cost
    /// row caught by validation, expired deadline, or a panic — falls
    /// through the degradation ladder
    ///
    /// ```text
    /// cache → LUT query → numeric DW → baseline      (degree ≤ λ)
    ///         local search → baseline                (degree > λ)
    /// ```
    ///
    /// and the descent is recorded in [`RouteProvenance::trace`]. A net
    /// with a pin outside [`patlabor_geom::Point::MAX_COORD`] is
    /// rejected before any rung runs
    /// ([`RouteError::CoordinateOutOfRange`]). The session's `deadline`
    /// overrides the engine's configured deadline for this request only.
    /// Routing is deterministic: the frontier is bit-identical regardless
    /// of the frontier cache's state and of any session deadline generous
    /// enough not to expire.
    pub fn route_session(&self, net: &Net, session: &Session) -> RouteResult {
        check_coordinates(net)?;
        let inner = &*self.inner;
        let degree = net.degree();
        let mut counters = StageCounters::default();
        let mut trace = DegradationTrace::default();

        // Stage: Classify — pick the serving path by degree.
        if degree == 2 {
            // Closed form: the direct tree is the entire frontier; no
            // class, no cache, no table involvement, no fault surface.
            let tree = RoutingTree::direct(net);
            let (w, d) = tree.objectives();
            let mut frontier = ParetoSet::new();
            frontier.insert(Cost::new(w, d), tree);
            counters.trees_materialized = 1;
            trace.push(Rung::ClosedForm, RungOutcome::Served);
            return Ok(outcome(frontier, degree, RouteSource::ClosedForm, counters, trace));
        }

        // Snapshot the table generation once: this route runs start to
        // finish against one table even if a hot reload commits midway,
        // and its cache inserts carry the snapshot's epoch so they are
        // dropped rather than published into a newer generation.
        let generation = inner.table.snapshot();
        let table = &*generation.table;

        let res = inner.config.resilience;
        let deadline = session.deadline.or(res.deadline);
        let budget =
            deadline.map(|deadline| Budget::new(Arc::clone(&inner.clock), deadline));
        let ctx = LadderCtx {
            faults: &inner.config.faults,
            budget: budget.as_ref(),
            key: net_key(net),
        };
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        let mut table_error: Option<RouteError> = None;

        if degree <= table.lambda() as usize {
            let class = table
                .classify(net)
                .ok_or(RouteError::UnclassifiableDegree { degree })?;

            // Rung: Cache — replay the class's winning ids on a hit. A
            // cache the adaptive bypass has retired (hit rate below the
            // configured floor through the warmup window) is skipped:
            // no probe, no insert, no rung attempt — until the periodic
            // re-probe window re-arms it (`skip_probe` drives that).
            if let Some(cache) = inner.cache.as_ref().filter(|c| !c.skip_probe()) {
                let outcome_ =
                    run_rung(&ctx, Rung::Cache, &mut counters, &mut panic_payload, |counters| {
                        counters.cache_probes = 1;
                        let key = CacheKey::from_class(&class);
                        let ids = cache.get(&key).ok_or(RungOutcome::Unavailable)?;
                        counters.cache_hits = 1;
                        counters.trees_materialized = ids.len() as u32;
                        let mut frontier = table.query_ids(net, &class, &ids);
                        if ctx.fires(FaultKind::CorruptedRow, Rung::Cache) {
                            frontier = corrupt_first_cost(frontier);
                        }
                        if res.validate_frontiers && !frontier_consistent(&frontier) {
                            return Err(RungOutcome::CorruptRow);
                        }
                        Ok(frontier)
                    });
                match outcome_ {
                    Ok(frontier) => {
                        trace.push(Rung::Cache, RungOutcome::Served);
                        return Ok(outcome(
                            frontier,
                            degree,
                            RouteSource::CacheHit,
                            counters,
                            trace,
                        ));
                    }
                    // A plain miss is the normal path, not a degradation.
                    Err(RungOutcome::Unavailable) => {}
                    Err(o) => trace.push(Rung::Cache, o),
                }
            }

            // Rung: Lut — the primary rung for tabulated degrees.
            let outcome_ =
                run_rung(&ctx, Rung::Lut, &mut counters, &mut panic_payload, |counters| {
                    // In this branch degree ≤ λ ≤ u8::MAX, so the narrowing
                    // casts below are lossless.
                    if ctx.fires(FaultKind::MissingDegree, Rung::Lut) {
                        table_error.get_or_insert(RouteError::MissingDegree {
                            degree: degree as u8,
                            lambda: table.lambda(),
                        });
                        return Err(RungOutcome::MissingDegree);
                    }
                    if ctx.fires(FaultKind::MissingPattern, Rung::Lut) {
                        table_error.get_or_insert(RouteError::MissingPattern {
                            degree: degree as u8,
                            key: class.canonical_key(),
                        });
                        return Err(RungOutcome::MissingPattern);
                    }
                    let (mut frontier, winners) = match lut_query(table, net, &class, counters) {
                        Ok(r) => r,
                        Err(e) => {
                            let outcome = if matches!(e, RouteError::MissingDegree { .. }) {
                                RungOutcome::MissingDegree
                            } else {
                                RungOutcome::MissingPattern
                            };
                            table_error.get_or_insert(e);
                            return Err(outcome);
                        }
                    };
                    if ctx.fires(FaultKind::CorruptedRow, Rung::Lut) {
                        frontier = corrupt_first_cost(frontier);
                    }
                    if res.validate_frontiers && !frontier_consistent(&frontier) {
                        return Err(RungOutcome::CorruptRow);
                    }
                    Ok((frontier, winners))
                });
            match outcome_ {
                Ok((frontier, winners)) => {
                    if let Some(cache) = inner.cache.as_ref().filter(|c| !c.bypassed()) {
                        cache.insert_at(CacheKey::from_class(&class), winners.into(), generation.epoch);
                    }
                    trace.push(Rung::Lut, RungOutcome::Served);
                    return Ok(outcome(
                        frontier,
                        degree,
                        RouteSource::ExactLut,
                        counters,
                        trace,
                    ));
                }
                Err(o) => trace.push(Rung::Lut, o),
            }

            // Rung: NumericDw — re-enumerate from scratch what the table
            // could not serve. Exact but per-instance expensive, hence
            // capped at `numeric::MAX_DEGREE`.
            if res.dw_fallback && degree <= numeric::MAX_DEGREE {
                let outcome_ =
                    run_rung(&ctx, Rung::NumericDw, &mut counters, &mut panic_payload, |counters| {
                        let checks = Cell::new(0u32);
                        let result =
                            numeric::pareto_frontier_cancellable(net, &DwConfig::default(), &|| {
                                let n = checks.get() + 1;
                                checks.set(n);
                                // Reading the clock is what costs, not the
                                // checkpoint itself: stride the reads so a
                                // hot DP loop stays inside the 2% budget
                                // of `BUDGET_POLL_STRIDE`.
                                n.is_multiple_of(BUDGET_POLL_STRIDE)
                                    && ctx.budget.is_some_and(Budget::exceeded)
                            });
                        counters.budget_checks += checks.get();
                        result.map_err(|Cancelled| RungOutcome::DeadlineExceeded)
                    });
                match outcome_ {
                    Ok(frontier) => {
                        trace.push(Rung::NumericDw, RungOutcome::Served);
                        return Ok(outcome(
                            frontier,
                            degree,
                            RouteSource::NumericDw,
                            counters,
                            trace,
                        ));
                    }
                    Err(o) => trace.push(Rung::NumericDw, o),
                }
            }
        } else {
            // Rung: LocalSearch — the primary rung above λ.
            let outcome_ =
                run_rung(&ctx, Rung::LocalSearch, &mut counters, &mut panic_payload, |counters| {
                    // A missing-degree fault here simulates reroute tables
                    // the search cannot use (its subnets query the same
                    // LUT), demoting the net to the baseline rung.
                    if ctx.fires(FaultKind::MissingDegree, Rung::LocalSearch) {
                        return Err(RungOutcome::MissingDegree);
                    }
                    let checks = Cell::new(0u32);
                    let result = local_search_cancellable(
                        net,
                        table,
                        &inner.policy,
                        &inner.config.local_search,
                        &|| {
                            checks.set(checks.get() + 1);
                            ctx.budget.is_some_and(Budget::exceeded)
                        },
                    );
                    counters.budget_checks += checks.get();
                    match result {
                        Ok((frontier, report)) => {
                            counters.local_search_rounds = report.rounds as u32;
                            counters.local_search_candidates = report.candidates as u32;
                            Ok(frontier)
                        }
                        Err(Cancelled) => Err(RungOutcome::DeadlineExceeded),
                    }
                });
            match outcome_ {
                Ok(frontier) => {
                    trace.push(Rung::LocalSearch, RungOutcome::Served);
                    return Ok(outcome(
                        frontier,
                        degree,
                        RouteSource::LocalSearch,
                        counters,
                        trace,
                    ));
                }
                Err(o) => trace.push(Rung::LocalSearch, o),
            }
        }

        // Rung: Baseline — deliberately cheap and never deadline-gated:
        // an expired budget still yields valid (approximate) trees
        // instead of nothing.
        if res.baseline_fallback {
            let outcome_ =
                run_rung(&ctx, Rung::Baseline, &mut counters, &mut panic_payload, |counters| {
                    let frontier = fallback_frontier(net);
                    counters.trees_materialized += frontier.len() as u32;
                    Ok(frontier)
                });
            match outcome_ {
                Ok(frontier) => {
                    trace.push(Rung::Baseline, RungOutcome::Served);
                    return Ok(outcome(
                        frontier,
                        degree,
                        RouteSource::Baseline,
                        counters,
                        trace,
                    ));
                }
                Err(o) => trace.push(Rung::Baseline, o),
            }
        }

        // Ladder exhausted. A caught panic is not ours to swallow when no
        // rung could absorb it (the batch driver isolates it per slot);
        // otherwise prefer the real table error over the generic
        // exhaustion report.
        if let Some(payload) = panic_payload {
            panic::resume_unwind(payload);
        }
        Err(table_error.unwrap_or(RouteError::RungsExhausted { degree, trace }))
    }

    /// Incremental (ECO) rerouting: applies `delta` to its base net and
    /// answers from replay when the edit preserved the congruence class
    /// (see [`crate::eco`] and DESIGN.md §16).
    ///
    /// `prev` supplies the staleness lineage: a prior
    /// [`RouteSource::Reused`] outcome continues the edit count, any
    /// other provenance restarts it. [`RouterConfig::eco`]'s
    /// `staleness_cap` bounds how many consecutive edits replay may
    /// serve; past the cap the mutated net routes fresh, which resets
    /// the counter (a fresh outcome's provenance is no longer `Reused`).
    ///
    /// The replayed frontier is bit-identical to routing the mutated net
    /// from scratch: the cached winner set is a pure function of the
    /// (unchanged) congruence class, and replay only skips the scoring
    /// of candidates that were already dominated. When the class
    /// changed, the winners are not resident, or validation fails, the
    /// mutated net falls through the ordinary degradation ladder.
    pub fn reroute(&self, prev: &RouteOutcome, delta: &NetDelta, session: Session) -> RouteResult {
        let prior_edits = match prev.provenance.source {
            RouteSource::Reused { staleness } => staleness,
            _ => 0,
        };
        self.reroute_with_staleness(delta, prior_edits, &session)
    }

    /// [`Engine::reroute`] without a prior outcome in hand: the caller
    /// supplies the number of edits already served from replay for this
    /// net's lineage (the serve layer forwards the wire request's
    /// `staleness` field here; 0 after a fresh route).
    pub fn reroute_with_staleness(
        &self,
        delta: &NetDelta,
        prior_edits: u32,
        session: &Session,
    ) -> RouteResult {
        let mutated = delta.apply();
        check_coordinates(&mutated)?;
        let staleness = prior_edits.saturating_add(1);
        if staleness <= self.inner.config.eco.staleness_cap {
            if let Some(outcome) = self.replay_reuse(delta, &mutated, staleness) {
                return Ok(outcome);
            }
        }
        self.route_session(&mutated, session)
    }

    /// The ECO replay fast path: `Some` only when the edit is provably
    /// class-preserving (base and mutated nets canonicalize to the same
    /// cache key), the class's winners are resident in an armed frontier
    /// cache, and the replayed frontier passes validation. No LUT
    /// candidate is scored on this path (`candidates_scored` stays 0).
    fn replay_reuse(&self, delta: &NetDelta, mutated: &Net, staleness: u32) -> Option<RouteOutcome> {
        let inner = &*self.inner;
        let generation = inner.table.snapshot();
        let table = &*generation.table;
        let base = &delta.base;
        let degree = mutated.degree();
        if degree != base.degree() || degree < 3 || degree > table.lambda() as usize {
            return None;
        }
        let cache = inner.cache.as_ref().filter(|c| !c.skip_probe())?;
        let class = table.classify(mutated)?;
        let key = CacheKey::from_class(&class);
        // A rigid translate is class-preserving by theorem (the
        // canonical pattern key and gap vector are translation
        // invariant), so the base never needs canonicalizing — a second
        // classify would double the replay path's dominant cost for the
        // most common ECO edit. Every other kind must prove
        // preservation by canonicalizing both sides.
        if !matches!(delta.kind, DeltaKind::Translate { .. }) {
            let base_class = table.classify(base)?;
            if key != CacheKey::from_class(&base_class) {
                return None; // the edit broke the congruence class
            }
        }
        let mut counters = StageCounters {
            cache_probes: 1,
            ..StageCounters::default()
        };
        let ids = cache.get(&key)?;
        counters.cache_hits = 1;
        counters.trees_materialized = ids.len() as u32;
        let frontier = table.query_ids(mutated, &class, &ids);
        if inner.config.resilience.validate_frontiers && !frontier_consistent(&frontier) {
            return None;
        }
        let mut trace = DegradationTrace::default();
        trace.push(Rung::Cache, RungOutcome::Served);
        Some(outcome(
            frontier,
            degree,
            RouteSource::Reused { staleness },
            counters,
            trace,
        ))
    }
}

/// Rejects a net with a pin outside [`patlabor_geom::Point::MAX_COORD`]
/// ([`RouteError::CoordinateOutOfRange`]).
fn check_coordinates(net: &Net) -> Result<(), RouteError> {
    match net.pins().iter().position(|p| !p.in_bounds()) {
        Some(pin) => Err(RouteError::CoordinateOutOfRange {
            pin,
            at: net.pins()[pin],
        }),
        None => Ok(()),
    }
}

/// Stages LutQuery + Materialize: score the stored candidates, prune,
/// and build witness trees for the survivors only. Composes the same
/// stage calls as [`LookupTable::query_witnesses`], so the frontier
/// (including tie-break order) is bit-identical to it.
fn lut_query(
    table: &LookupTable,
    net: &Net,
    class: &NetClass,
    counters: &mut StageCounters,
) -> Result<(ParetoSet<RoutingTree>, Vec<u32>), RouteError> {
    let Some(ids) = table.candidate_ids(class) else {
        let degree = class.degree();
        return Err(if table.pattern_count(degree) == 0 {
            RouteError::MissingDegree {
                degree,
                lambda: table.lambda(),
            }
        } else {
            RouteError::MissingPattern {
                degree,
                key: class.canonical_key(),
            }
        });
    };
    counters.candidates_scored = ids.len() as u32;
    let survivors = table.score_candidates(class, ids);
    counters.trees_materialized = survivors.len() as u32;
    let mut winners = Vec::with_capacity(survivors.len());
    let entries: Vec<(Cost, RoutingTree)> = survivors
        .into_iter()
        .map(|(cost, id)| {
            let tree = table.materialize(net, class, id);
            winners.push(id);
            (cost, tree)
        })
        .collect();
    Ok((ParetoSet::from_unpruned(entries), winners))
}

fn outcome(
    frontier: ParetoSet<RoutingTree>,
    degree: usize,
    source: RouteSource,
    counters: StageCounters,
    trace: DegradationTrace,
) -> RouteOutcome {
    RouteOutcome {
        frontier,
        provenance: RouteProvenance {
            degree,
            source,
            counters,
            trace,
        },
    }
}

/// The per-route context [`run_rung`] reads: the fault plane, the
/// deadline budget injected delays are charged to, and the net's
/// fault-decision key.
struct LadderCtx<'a> {
    faults: &'a FaultPlane,
    budget: Option<&'a Budget>,
    key: u64,
}

impl LadderCtx<'_> {
    /// [`FaultPlane::fires`] for this route's net.
    fn fires(&self, kind: FaultKind, rung: Rung) -> bool {
        self.faults.fires(kind, rung, self.key)
    }
}

/// Runs one rung inside the ladder's shared harness:
///
/// 1. an injected stage delay is charged to the net's own budget
///    *before* the deadline gate, so a stalled stage burns the budget it
///    is about to be judged against — and no other net's;
/// 2. compute rungs ([`Rung::deadline_gated`]) are skipped once the
///    budget is exceeded;
/// 3. the body runs under `catch_unwind` (with an injected stage panic
///    fired inside it), so a panicking rung falls through instead of
///    unwinding the caller. The first caught payload is kept so an
///    unabsorbed panic can resume after the ladder is exhausted.
fn run_rung<T>(
    ctx: &LadderCtx<'_>,
    rung: Rung,
    counters: &mut StageCounters,
    panic_payload: &mut Option<Box<dyn Any + Send>>,
    body: impl FnOnce(&mut StageCounters) -> Result<T, RungOutcome>,
) -> Result<T, RungOutcome> {
    if let Some(budget) = ctx.budget {
        if ctx.fires(FaultKind::StageDelay, rung) {
            budget.charge(ctx.faults.delay());
        }
    }
    if rung.deadline_gated() {
        if let Some(budget) = ctx.budget {
            counters.budget_checks += 1;
            if budget.exceeded() {
                return Err(RungOutcome::DeadlineExceeded);
            }
        }
    }
    let inject = ctx.fires(FaultKind::StagePanic, rung);
    match panic::catch_unwind(AssertUnwindSafe(|| {
        if inject {
            panic!("injected fault: stage panic at rung {rung}");
        }
        body(counters)
    })) {
        Ok(result) => result,
        Err(payload) => {
            panic_payload.get_or_insert(payload);
            Err(RungOutcome::Panicked)
        }
    }
}

/// Every cost must equal its witness tree's recomputed objectives; a
/// corrupted cost row breaks exactly this invariant. The frontier must
/// also be non-empty: every net has at least one tree, so a table that
/// yields no survivors is damaged, not exact.
pub(crate) fn frontier_consistent(frontier: &ParetoSet<RoutingTree>) -> bool {
    !frontier.is_empty()
        && frontier
            .iter()
            .all(|(c, t)| (c.wirelength, c.delay) == t.objectives())
}

/// The corrupted-row injection: shift the first cost off its witness.
/// Decrementing (not incrementing) keeps the perturbed point dominant,
/// so [`ParetoSet::from_unpruned`]'s re-pruning cannot silently discard
/// the corruption before validation sees it.
fn corrupt_first_cost(frontier: ParetoSet<RoutingTree>) -> ParetoSet<RoutingTree> {
    let mut entries: Vec<(Cost, RoutingTree)> =
        frontier.iter().map(|(c, t)| (c, t.clone())).collect();
    if let Some((cost, _)) = entries.first_mut() {
        cost.wirelength -= 1;
    }
    ParetoSet::from_unpruned(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{Fault, FaultScope, VirtualClock};
    use patlabor_geom::Point;

    fn net3() -> Net {
        Net::new(vec![Point::new(0, 0), Point::new(5, 9), Point::new(9, 4)]).unwrap()
    }

    fn engine4() -> Engine {
        Engine::with_table(LutBuilder::new(4).threads(2).build())
    }

    #[test]
    fn engine_clone_is_a_shared_handle() {
        let engine = engine4();
        let clone = engine.clone();
        // Same shared state: a route through one handle warms the
        // other's cache.
        let net = net3();
        let first = engine.route(&net).unwrap();
        assert_eq!(first.provenance.source, RouteSource::ExactLut);
        let second = clone.route(&net).unwrap();
        assert_eq!(second.provenance.source, RouteSource::CacheHit);
        assert_eq!(first.frontier, second.frontier);
        // And no table bytes were duplicated: both handles point at one
        // EngineInner.
        assert!(Arc::ptr_eq(&engine.inner, &clone.inner));
    }

    #[test]
    fn default_session_matches_engine_route() {
        let engine = engine4();
        let net = net3();
        let plain = engine.route(&net).unwrap();
        let session = engine.route_session(&net, &Session::new(42)).unwrap();
        // Provenance differs only through the cache warmup; compare a
        // fresh engine for full equality.
        assert_eq!(plain.frontier, session.frontier);
    }

    #[test]
    fn session_deadline_overrides_engine_deadline() {
        // Engine has a generous deadline; the session's zero deadline
        // must win and push the net down to the baseline rung.
        let clock = Arc::new(VirtualClock::new());
        clock.advance(Duration::from_secs(1));
        let engine = Engine::with_table_and_config(
            LutBuilder::new(4).threads(2).build(),
            RouterConfig {
                resilience: ResilienceConfig {
                    deadline: Some(Duration::from_secs(3600)),
                    ..ResilienceConfig::default()
                },
                ..RouterConfig::default()
            },
        )
        .with_cache(CacheConfig::disabled())
        .with_clock(clock);
        let net = net3();
        let generous = engine.route(&net).unwrap();
        assert_eq!(generous.provenance.source, RouteSource::ExactLut);
        let strict = engine
            .route_session(&net, &Session::new(1).with_deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(strict.provenance.source, RouteSource::Baseline);
        assert!(strict
            .provenance
            .trace
            .contains(Rung::Lut, RungOutcome::DeadlineExceeded));
        // The engine-level deadline still applies to sessions that do
        // not override it.
        let inherited = engine.route_session(&net, &Session::new(2)).unwrap();
        assert_eq!(inherited.provenance.source, RouteSource::ExactLut);
    }

    #[test]
    fn hot_reload_swaps_table_and_invalidates_cache() {
        let dir = std::env::temp_dir().join("patlabor_engine_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reload_swap.plut");
        LutBuilder::new(4).threads(2).build().save(&path).unwrap();

        let engine = engine4();
        let net = net3();
        assert_eq!(engine.table_epoch(), 0);
        assert_eq!(engine.route(&net).unwrap().provenance.source, RouteSource::ExactLut);
        assert_eq!(engine.route(&net).unwrap().provenance.source, RouteSource::CacheHit);

        let epoch = engine.reload_table(&path).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(engine.table_epoch(), 1);
        // The epoch bump logically emptied the cache: the first route on
        // the new generation re-queries the LUT and re-publishes, with a
        // frontier identical to the pre-reload one (same λ, same net).
        let fresh = engine.route(&net).unwrap();
        assert_eq!(fresh.provenance.source, RouteSource::ExactLut);
        assert_eq!(engine.route(&net).unwrap().provenance.source, RouteSource::CacheHit);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_reload_leaves_old_table_serving() {
        let dir = std::env::temp_dir().join("patlabor_engine_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corrupt = dir.join("reload_corrupt.plut");
        std::fs::write(&corrupt, b"not a lookup table at all").unwrap();

        let engine = engine4();
        let net = net3();
        engine.route(&net).unwrap();
        let err = engine.reload_table(&corrupt).unwrap_err();
        assert!(matches!(err, ReloadError::Validation(_)), "got {err}");
        assert_eq!(engine.table_epoch(), 0, "failed reload must not bump the epoch");
        // Cache entries from before the failed attempt are still live.
        assert_eq!(engine.route(&net).unwrap().provenance.source, RouteSource::CacheHit);

        // A structurally valid table for the wrong λ is also refused.
        let wrong = dir.join("reload_wrong_lambda.plut");
        LutBuilder::new(3).threads(2).build().save(&wrong).unwrap();
        let err = engine.reload_table(&wrong).unwrap_err();
        assert_eq!(
            err,
            ReloadError::LambdaMismatch { current: 4, proposed: 3 }
        );
        assert_eq!(engine.table_epoch(), 0);

        std::fs::remove_file(&corrupt).ok();
        std::fs::remove_file(&wrong).ok();
    }

    #[test]
    fn inflight_style_insert_from_old_epoch_is_dropped() {
        // Simulate the reload race at the cache API level: a route that
        // snapshotted epoch 0 finishes after the swap and tries to
        // publish — the stale-stamped insert must vanish.
        let dir = std::env::temp_dir().join("patlabor_engine_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reload_race.plut");
        LutBuilder::new(4).threads(2).build().save(&path).unwrap();

        let engine = engine4();
        let net = net3();
        engine.route(&net).unwrap(); // warm at epoch 0
        engine.reload_table(&path).unwrap();
        let stats = engine.cache_stats().unwrap();
        // Probe after swap: resident entry is epoch-stale, reads as miss.
        let outcome = engine.route(&net).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::ExactLut);
        let after = engine.cache_stats().unwrap();
        assert_eq!(after.misses, stats.misses + 1);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_methods_on_shared_engine_leave_clones_untouched() {
        let engine = engine4();
        let clone = engine.clone();
        let rebuilt = engine.with_resilience(ResilienceConfig::strict());
        assert_eq!(rebuilt.config().resilience, ResilienceConfig::strict());
        // The pre-existing clone still routes with the default ladder.
        assert_eq!(clone.config().resilience, ResilienceConfig::default());
        assert!(!Arc::ptr_eq(&rebuilt.inner, &clone.inner));
    }

    fn random_net(seed: &mut u64, degree: usize, span: u64) -> Net {
        let mut rng = move || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed
        };
        Net::new(
            (0..degree)
                .map(|_| Point::new((rng() % span) as i64, (rng() % span) as i64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn small_nets_are_exact() {
        let engine = Engine::new();
        let mut seed = 2u64;
        for degree in 3..=5 {
            let net = random_net(&mut seed, degree, 60);
            let outcome = engine.route(&net).expect("tabulated degree");
            let exact = numeric::pareto_frontier(&net, &DwConfig::default());
            assert_eq!(outcome.frontier.cost_vec(), exact.cost_vec());
            assert!(engine.is_exact_for(degree));
            assert!(outcome.provenance.source.is_exact());
            assert_eq!(outcome.provenance.degree, degree);
            assert!(!outcome.provenance.trace.degraded());
        }
    }

    #[test]
    fn large_nets_use_local_search() {
        let engine = Engine::new();
        let mut seed = 4u64;
        let net = random_net(&mut seed, 15, 150);
        assert!(!engine.is_exact_for(15));
        let outcome = engine.route(&net).expect("local search cannot fail");
        assert_eq!(outcome.provenance.source, RouteSource::LocalSearch);
        assert!(outcome.provenance.counters.local_search_rounds >= 1);
        assert!(outcome.provenance.counters.local_search_candidates >= 1);
        assert_eq!(outcome.provenance.trace.served_by(), Some(Rung::LocalSearch));
        assert!(!outcome.frontier.is_empty());
        for (c, t) in outcome.frontier.iter() {
            t.validate(&net).unwrap();
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
    }

    #[test]
    fn engine_from_loaded_table() {
        let dir = std::env::temp_dir().join("patlabor_engine_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loaded.plut");
        LutBuilder::new(4).threads(2).build().save(&path).unwrap();
        let loaded = LookupTable::open_mmap(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let engine = Engine::with_table(loaded);
        let net = Net::new(vec![
            Point::new(0, 0),
            Point::new(7, 3),
            Point::new(2, 9),
            Point::new(8, 8),
        ])
        .unwrap();
        let exact = numeric::pareto_frontier(&net, &DwConfig::default());
        assert_eq!(engine.route(&net).unwrap().frontier.cost_vec(), exact.cost_vec());
    }

    #[test]
    fn provenance_distinguishes_cache_hits_from_full_queries() {
        let engine = Engine::new();
        let mut seed = 9u64;
        let net = random_net(&mut seed, 4, 50);
        let first = engine.route(&net).unwrap();
        assert_eq!(first.provenance.source, RouteSource::ExactLut);
        assert_eq!(first.provenance.counters.cache_probes, 1);
        assert_eq!(first.provenance.counters.cache_hits, 0);
        assert!(first.provenance.counters.candidates_scored >= 1);
        let second = engine.route(&net).unwrap();
        assert_eq!(second.provenance.source, RouteSource::CacheHit);
        assert_eq!(second.provenance.counters.cache_hits, 1);
        // A cache hit scores nothing and materializes winners only.
        assert_eq!(second.provenance.counters.candidates_scored, 0);
        assert_eq!(
            second.provenance.counters.trees_materialized as usize,
            second.frontier.len()
        );
        // A cache miss is the normal path, not a degradation.
        assert!(!first.provenance.trace.degraded());
        assert_eq!(second.provenance.trace.served_by(), Some(Rung::Cache));
        // The frontier itself is bit-identical either way.
        assert_eq!(first.frontier, second.frontier);
    }

    #[test]
    fn adaptive_bypass_stops_probing_a_useless_cache() {
        // A 100% hit-rate floor no real workload can meet: the bypass
        // must fire as soon as the 8-probe warmup window closes.
        let engine = Engine::new().with_cache(CacheConfig {
            bypass_warmup: 8,
            bypass_threshold_permille: 1000,
            ..CacheConfig::default()
        });
        let mut seed = 11u64;
        let nets: Vec<Net> = (0..20).map(|_| random_net(&mut seed, 4, 5000)).collect();
        let mut post_bypass = 0;
        for net in &nets {
            let was_bypassed = engine.cache_stats().unwrap().bypassed;
            let outcome = engine.route(net).unwrap();
            if was_bypassed {
                post_bypass += 1;
                assert_eq!(
                    outcome.provenance.counters.cache_probes, 0,
                    "a bypassed cache must not be probed"
                );
                assert_eq!(outcome.provenance.source, RouteSource::ExactLut);
            }
        }
        let stats = engine.cache_stats().unwrap();
        assert!(stats.bypassed, "warmup elapsed below the floor");
        assert!(post_bypass > 0, "some nets must have routed past the bypass");
        assert_eq!(
            stats.hits + stats.misses,
            8,
            "probing must stop exactly at the warmup boundary"
        );
    }

    #[test]
    fn degree_2_is_closed_form() {
        let engine = Engine::new();
        let net = Net::new(vec![Point::new(0, 0), Point::new(3, 4)]).unwrap();
        let outcome = engine.route(&net).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::ClosedForm);
        assert_eq!(outcome.provenance.counters.trees_materialized, 1);
        assert_eq!(outcome.provenance.counters.cache_probes, 0);
        assert_eq!(outcome.provenance.trace.served_by(), Some(Rung::ClosedForm));
        assert_eq!(outcome.frontier.len(), 1);
    }

    fn net_of(pins: &[(i64, i64)]) -> Net {
        Net::new(pins.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    /// Coordinates whose lengths overflow `i64` used to be served
    /// wrapped frontiers (the degree-2 net as `w=1 d=1`, the degree-3
    /// net from the baseline with a negative wirelength). Each is now
    /// rejected before any rung, naming its first out-of-range pin.
    #[test]
    fn nets_outside_the_coordinate_bound_are_rejected() {
        let engine = engine4();
        let far = 1i64 << 62;
        let past = Point::MAX_COORD + 1;
        for (pins, pin) in [
            (vec![(i64::MAX, 0), (i64::MIN, 0)], 0),
            (vec![(i64::MAX, 0), (i64::MIN, 0), (0, 5)], 0),
            (vec![(-far, -far), (far, far), (far, -far), (-far, far)], 0),
            (vec![(0, 0), (5, 9), (9, -past)], 2),
        ] {
            let net = net_of(&pins);
            assert_eq!(
                engine.route(&net),
                Err(RouteError::CoordinateOutOfRange {
                    pin,
                    at: net.pins()[pin]
                }),
                "{pins:?}"
            );
        }
    }

    /// A net at the bound routes on the closed-form, table and
    /// local-search paths, and every frontier cost is its witness
    /// tree's own objectives.
    #[test]
    fn nets_at_the_coordinate_bound_route_exactly() {
        let engine = engine4();
        let m = Point::MAX_COORD;
        for (pins, source) in [
            (vec![(m, m), (-m, -m)], RouteSource::ClosedForm),
            (vec![(-m, -m), (m, m), (m, -m)], RouteSource::ExactLut),
            (
                vec![(-m, -m), (m, m), (m, -m), (-m, m)],
                RouteSource::ExactLut,
            ),
            (
                vec![(0, 0), (m, m), (-m, -m), (m, -m), (-m, m), (m, 0), (0, -m)],
                RouteSource::LocalSearch,
            ),
        ] {
            let net = net_of(&pins);
            let outcome = engine.route(&net).unwrap();
            assert_eq!(outcome.provenance.source, source, "{pins:?}");
            assert!(!outcome.frontier.is_empty());
            for (cost, tree) in outcome.frontier.iter() {
                assert_eq!(tree.objectives(), (cost.wirelength, cost.delay), "{pins:?}");
                assert!(cost.delay > 0 && cost.wirelength >= cost.delay, "{pins:?}");
            }
        }
    }

    #[test]
    fn strict_gutted_table_reports_missing_degree_not_panic() {
        let mut table = LutBuilder::new(4).threads(1).build();
        table.remove_degree(3);
        // Strict mode: no fallback rungs — the pre-ladder fail-fast
        // contract that oracles assert on.
        let engine = Engine::with_table_and_config(
            table,
            RouterConfig {
                resilience: ResilienceConfig::strict(),
                ..RouterConfig::default()
            },
        );
        let net = Net::new(vec![Point::new(0, 0), Point::new(5, 2), Point::new(2, 7)]).unwrap();
        match engine.route(&net) {
            Err(RouteError::MissingDegree { degree: 3, lambda: 4 }) => {}
            other => panic!("expected MissingDegree, got {other:?}"),
        }
        // Degree 4 still routes fine — the failure is per-degree.
        let ok = Net::new(vec![
            Point::new(0, 0),
            Point::new(5, 2),
            Point::new(2, 7),
            Point::new(8, 4),
        ])
        .unwrap();
        assert!(engine.route(&ok).is_ok());
    }

    #[test]
    fn gutted_table_degrades_to_numeric_dw() {
        let mut table = LutBuilder::new(4).threads(1).build();
        table.remove_degree(3);
        let engine = Engine::with_table(table);
        let net = Net::new(vec![Point::new(0, 0), Point::new(5, 2), Point::new(2, 7)]).unwrap();
        let outcome = engine.route(&net).expect("the DW rung absorbs the missing degree");
        assert_eq!(outcome.provenance.source, RouteSource::NumericDw);
        assert!(outcome.provenance.source.is_exact());
        let exact = numeric::pareto_frontier(&net, &DwConfig::default());
        assert_eq!(outcome.frontier.cost_vec(), exact.cost_vec());
        let trace = outcome.provenance.trace;
        assert!(trace.degraded());
        assert_eq!(trace.to_string(), "lut:missing-degree -> numeric-dw:served");
    }

    #[test]
    fn injected_corrupt_row_is_validated_away() {
        let faults = FaultPlane::seeded(11).with_fault(Fault {
            kind: FaultKind::CorruptedRow,
            scope: FaultScope::Primary,
            probability: 1.0,
        });
        let engine = engine4().with_faults(faults);
        let mut seed = 5u64;
        let net = random_net(&mut seed, 4, 60);
        let outcome = engine.route(&net).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::NumericDw);
        assert!(outcome
            .provenance
            .trace
            .contains(Rung::Lut, RungOutcome::CorruptRow));
        // The served frontier is the uncorrupted exact answer.
        let exact = numeric::pareto_frontier(&net, &DwConfig::default());
        assert_eq!(outcome.frontier.cost_vec(), exact.cost_vec());
        assert!(frontier_consistent(&outcome.frontier));
    }

    #[test]
    fn empty_frontier_is_not_consistent() {
        assert!(!frontier_consistent(&ParetoSet::new()));
    }

    #[test]
    fn table_rewritten_under_its_mapping_falls_through_to_numeric_dw() {
        // A served file overwritten in place (not replaced by rename)
        // keeps its mapping but reads zeros past the new end of file: the
        // pattern index (built at open) still finds the key, the zeroed
        // offsets yield no candidates, and the LUT rung's frontier is
        // empty. The λ=4 table fits in one page, so the mapping never
        // reaches past the file's last page.
        let dir = std::env::temp_dir().join("patlabor_engine_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rewritten.plut");
        LutBuilder::new(4).threads(2).build().save(&path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() <= 4096);
        let engine = Engine::with_table(LookupTable::open_mmap(&path).unwrap());
        std::fs::write(&path, b"not a lookup table").unwrap();

        let net = Net::new(vec![
            Point::new(0, 0),
            Point::new(7, 3),
            Point::new(2, 9),
            Point::new(8, 8),
        ])
        .unwrap();
        let outcome = engine.route(&net).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::NumericDw);
        assert!(outcome
            .provenance
            .trace
            .contains(Rung::Lut, RungOutcome::CorruptRow));
        let exact = numeric::pareto_frontier(&net, &DwConfig::default());
        assert_eq!(outcome.frontier.cost_vec(), exact.cost_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_stage_panic_is_absorbed_by_the_ladder() {
        let faults = FaultPlane::seeded(2).with_fault(Fault {
            kind: FaultKind::StagePanic,
            scope: FaultScope::Primary,
            probability: 1.0,
        });
        let engine = engine4().with_faults(faults);
        let mut seed = 6u64;
        // Small net: the LUT rung panics, numeric DW absorbs it exactly.
        let small = random_net(&mut seed, 4, 50);
        let outcome = engine.route(&small).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::NumericDw);
        assert!(outcome
            .provenance
            .trace
            .contains(Rung::Lut, RungOutcome::Panicked));
        // Large net: local search panics, the baseline serves.
        let large = random_net(&mut seed, 9, 90);
        let outcome = engine.route(&large).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::Baseline);
        assert!(!outcome.provenance.source.is_exact());
        assert!(outcome
            .provenance
            .trace
            .contains(Rung::LocalSearch, RungOutcome::Panicked));
        for (c, t) in outcome.frontier.iter() {
            t.validate(&large).unwrap();
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
    }

    #[test]
    fn unabsorbed_panic_resumes_after_exhaustion() {
        let faults = FaultPlane::seeded(4).with_fault(Fault {
            kind: FaultKind::StagePanic,
            scope: FaultScope::AllRungs,
            probability: 1.0,
        });
        let engine = engine4().with_faults(faults);
        let mut seed = 7u64;
        let net = random_net(&mut seed, 4, 50);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| engine.route(&net)));
        let payload = caught.expect_err("every rung panics; nothing can absorb it");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected fault: stage panic"), "{msg}");
    }

    #[test]
    fn stage_delay_with_deadline_walks_to_the_baseline() {
        let faults = FaultPlane::seeded(0)
            .with_fault(Fault {
                kind: FaultKind::StageDelay,
                scope: FaultScope::Primary,
                probability: 1.0,
            })
            .with_delay(Duration::from_millis(10));
        let config = RouterConfig {
            resilience: ResilienceConfig {
                deadline: Some(Duration::from_millis(5)),
                ..ResilienceConfig::default()
            },
            faults,
            ..RouterConfig::default()
        };
        let engine = Engine::with_table_and_config(
            LutBuilder::new(4).threads(2).build(),
            config,
        )
        .with_clock(Arc::new(VirtualClock::new()));
        let mut seed = 8u64;
        let net = random_net(&mut seed, 4, 60);
        let outcome = engine.route(&net).unwrap();
        assert_eq!(outcome.provenance.source, RouteSource::Baseline);
        assert_eq!(
            outcome.provenance.trace.to_string(),
            "lut:deadline -> numeric-dw:deadline -> baseline:served"
        );
        assert!(outcome.provenance.counters.budget_checks >= 2);
        for (c, t) in outcome.frontier.iter() {
            t.validate(&net).unwrap();
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
    }

    #[test]
    fn a_generous_deadline_does_not_change_the_route() {
        let config = RouterConfig {
            resilience: ResilienceConfig {
                deadline: Some(Duration::from_secs(3600)),
                ..ResilienceConfig::default()
            },
            ..RouterConfig::default()
        };
        let plain = engine4();
        let budgeted = Engine::with_table_and_config(
            LutBuilder::new(4).threads(2).build(),
            config,
        );
        let mut seed = 12u64;
        for degree in [3, 4, 9] {
            let net = random_net(&mut seed, degree, 70);
            let a = plain.route(&net).unwrap();
            let b = budgeted.route(&net).unwrap();
            assert_eq!(a.frontier.cost_vec(), b.frontier.cost_vec());
            assert_eq!(a.provenance.source, b.provenance.source);
            assert!(!b.provenance.trace.degraded());
            assert!(b.provenance.counters.budget_checks >= 1);
        }
    }

    /// A clock that moves 1 ms forward on every read, so a deadline
    /// expires after a fixed number of reads however fast the host is.
    #[derive(Debug, Default)]
    struct TickingClock(std::sync::atomic::AtomicU64);

    impl Clock for TickingClock {
        fn now(&self) -> Duration {
            Duration::from_millis(self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
        }
    }

    #[test]
    fn local_search_reads_the_clock_on_every_poll() {
        // Degree 40 at λ = 4 runs 10 reroute rounds and polls its budget
        // 22 times; a 20 ms deadline on a clock that ticks per read must
        // expire inside the search, not after it.
        let engine = engine4().with_clock(Arc::new(TickingClock::default()));
        let mut seed = 40u64;
        let net = random_net(&mut seed, 40, 500);
        let session = Session::default().with_deadline(Duration::from_millis(20));
        let outcome = engine.route_session(&net, &session).unwrap();
        assert_eq!(
            outcome.provenance.trace.to_string(),
            "local-search:deadline -> baseline:served"
        );
        assert_eq!(outcome.provenance.source, RouteSource::Baseline);
        // Without a deadline the same net is served by the search.
        let plain = engine.route(&net).unwrap();
        assert_eq!(plain.provenance.trace.to_string(), "local-search:served");
    }
}
