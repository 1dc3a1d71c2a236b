//! The long-lived serving core: [`Engine`] and per-request [`Session`]s.
//!
//! The paper's amortization argument (§V-A) only pays off when the
//! lookup tables are loaded **once** and queried millions of times, so
//! the serving state is split into two layers:
//!
//! * [`Engine`] — everything expensive and shared: the (possibly
//!   mmap'd) [`LookupTable`], the policy weights, the fault plane, the
//!   deadline clock and, when a caller opts in, the frontier cache, all
//!   behind one `Arc`. Built once; [`Engine::clone`] is a
//!   reference-count bump, so every connection handler, batch worker
//!   and CLI invocation can hold its own handle without duplicating a
//!   byte of table data.
//! * [`Session`] — everything per-request: the deadline budget and an
//!   identity for provenance. A `Session` is a few machine words of
//!   `Copy` data; the server mints one per wire request.
//!
//! The engine is the crate's only router handle: library callers route
//! with [`Engine::route`] or the batch driver, and `patlabor serve` runs
//! one engine per process, one session per request, batched through
//! [`Engine::route_batch_by`]. Every route runs on a [`Pinned`] borrow
//! of the engine that holds one table generation: a single route pins
//! its own, and a batch pins one for all of its slots.

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
    RungOutcome, SystemClock, STAGE_DELAY,
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

/// Engine-level configuration. λ is not part of it: the lookup table an
/// engine is built around decides which degrees are tabulated.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Local-search settings for nets with degree `> λ`.
    pub local_search: LocalSearchConfig,
    /// Frontier-cache settings ([`crate::cache`]). Off by default
    /// ([`CacheConfig::disabled`]): every tabulated net routes classify →
    /// lookup → score → materialize, with no probe and no insert. The
    /// cache is opt-in, with [`Engine::with_cache`] and
    /// [`CacheConfig::default`]: it memoizes winning topology ids per
    /// congruence class, so a congruent repeat skips only the scoring
    /// of dominated candidates, and it enables ECO replay
    /// ([`Engine::reroute_with_staleness`]). Measured on the benchmark's
    /// workloads, its probes and inserts cost more than that saves.
    /// Frontiers are bit-identical with the cache on or off.
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
    /// consecutive edits [`Engine::reroute_with_staleness`] may serve
    /// from replay before forcing a fresh route. Replay needs the opt-in
    /// frontier cache, so without one this has no effect.
    pub eco: EcoConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            local_search: LocalSearchConfig::default(),
            cache: CacheConfig::disabled(),
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
/// every successful [`Engine::reload_table`] bumps it. `Clone` is the
/// table's own `Arc` bump — no table bytes move.
#[derive(Debug, Clone)]
pub(crate) struct TableGeneration {
    pub(crate) table: LookupTable,
    pub(crate) epoch: u64,
}

/// The engine's swappable table slot (DESIGN.md §17).
///
/// Readers snapshot the current generation — an `Arc` bump under a
/// briefly-held read lock — once per [`Pinned`] handle and never touch
/// the lock again: a single route pins for itself, and a batch pins
/// once for all of its slots, so its routes write neither the lock nor
/// the count. In-flight routes and batches finish on the generation
/// they pinned while a reload installs the next one. The lock is only
/// ever held across pointer-sized work; table validation happens
/// off-slot.
#[derive(Debug)]
pub(crate) struct TableSlot {
    slot: RwLock<TableGeneration>,
}

impl TableSlot {
    fn new(table: LookupTable) -> Self {
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
    fn install(&self, table: LookupTable, cache: Option<&FrontierCache>) -> u64 {
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
        Self::with_table(LutBuilder::new(5).build())
    }

    /// Builds an engine around pre-generated tables: built with
    /// [`LutBuilder`], or mmap'd from disk via [`LookupTable::open_mmap`].
    /// The table decides λ: degrees `2..=table.lambda()` are answered
    /// exactly.
    pub fn with_table(table: LookupTable) -> Self {
        Self::with_table_and_config(table, RouterConfig::default())
    }

    /// [`Engine::with_table`] with an explicit configuration.
    pub fn with_table_and_config(table: LookupTable, config: RouterConfig) -> Self {
        Engine {
            inner: Arc::new(EngineInner {
                table: TableSlot::new(table),
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
    /// entries (and the old counters) in the process. Engines start
    /// without a cache; `.with_cache(CacheConfig::default())` opts in.
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
    pub fn table(&self) -> LookupTable {
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
    /// on the generation they snapshotted at entry, an opted-in frontier
    /// cache is invalidated wholesale by the epoch bump (no sweep), and
    /// late inserts from old-generation routes are dropped by their
    /// stale epoch stamp. On any error the old table keeps serving.
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
            .install(candidate, self.inner.cache.as_deref()))
    }

    /// The active pin-selection policy.
    pub fn policy(&self) -> &Policy {
        &self.inner.policy
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.inner.config
    }

    /// Frontier-cache counters, or `None` when the engine has no cache
    /// (the default).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache.as_ref().map(|c| c.stats())
    }

    /// Whether routing is exact for this degree (against the currently
    /// serving table generation).
    pub fn is_exact_for(&self, degree: usize) -> bool {
        degree <= self.inner.table.snapshot().table.lambda() as usize
    }

    /// A routing handle pinned to the currently serving table
    /// generation: every route through it runs against that table, even
    /// after a reload commits. [`Engine::route_session`] pins for its one
    /// route; the batch driver ([`Engine::route_batch_by`]) pins once
    /// per batch and hands the handle to every slot.
    pub fn pinned(&self) -> Pinned<'_> {
        Pinned {
            inner: &self.inner,
            generation: self.inner.table.snapshot(),
        }
    }

    /// Routes one net under the engine-level configuration alone
    /// (equivalent to [`Engine::route_session`] with a default session,
    /// and like it re-raises a panic that no rung absorbs).
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
    /// [cache →] LUT query → numeric DW → baseline    (degree ≤ λ)
    ///           local search → baseline              (degree > λ)
    /// ```
    ///
    /// (the bracketed cache rung runs only on an engine that opted into
    /// the frontier cache), and the descent is recorded in
    /// [`RouteProvenance::trace`]. A net with a pin outside
    /// [`patlabor_geom::Point::MAX_COORD`] is rejected before any rung
    /// runs ([`RouteError::CoordinateOutOfRange`]). The session's `deadline`
    /// overrides the engine's configured deadline for this request only.
    /// Routing is deterministic: the frontier is bit-identical regardless
    /// of the frontier cache's state and of any session deadline generous
    /// enough not to expire.
    ///
    /// # Panics
    ///
    /// A panic inside a rung is caught and the next rung tries the net.
    /// When no later rung serves it (every one that could have absorbed
    /// it is disabled, or panicked too), the first caught panic resumes
    /// unwinding out of this call. The batch driver
    /// ([`Engine::route_batch_by`]) catches it per slot as
    /// [`RouteError::Panicked`].
    pub fn route_session(&self, net: &Net, session: &Session) -> RouteResult {
        self.pinned().route_session(net, session)
    }

    /// Incremental (ECO) rerouting: applies `delta` to its base net and
    /// routes the edited net. On an engine without a frontier cache (the
    /// default) that is all it does: one [`Engine::route_session`] of
    /// `delta.apply()`, which classifies the net once, and `prior_edits`
    /// is not read. An engine that opted into the cache
    /// ([`Engine::with_cache`]) first tries to answer from replay when
    /// the edit preserved the congruence class (see [`crate::eco`] and
    /// DESIGN.md §16).
    ///
    /// `prior_edits` is the replay staleness lineage: the number of
    /// edits already served from replay for this net, which a prior
    /// [`RouteSource::Reused`] outcome reports as its `staleness` (0
    /// after any other provenance; the serve layer forwards the wire
    /// request's `staleness` field). [`RouterConfig::eco`]'s
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
    pub fn reroute_with_staleness(
        &self,
        delta: &NetDelta,
        prior_edits: u32,
        session: &Session,
    ) -> RouteResult {
        self.pinned()
            .reroute_with_staleness(delta, prior_edits, session)
    }
}

/// An [`Engine`] handle pinned to one table generation
/// ([`Engine::pinned`]).
///
/// Pinning is a route's only access to the table slot, so routes through
/// one handle share one snapshot instead of each taking the slot's read
/// lock and bumping the table's reference count. Those are writes to
/// words every routing thread shares. The handle holds the table
/// generation it pinned alive, and answers exactly as the engine did
/// when it was pinned.
#[derive(Debug)]
pub struct Pinned<'e> {
    inner: &'e EngineInner,
    generation: TableGeneration,
}

impl Pinned<'_> {
    /// [`Engine::route`] against this handle's table generation.
    pub fn route(&self, net: &Net) -> RouteResult {
        self.route_session(net, &Session::default())
    }

    /// [`Engine::route_session`] against this handle's table generation:
    /// the one routing body.
    pub fn route_session(&self, net: &Net, session: &Session) -> RouteResult {
        check_coordinates(net)?;
        let inner = self.inner;
        let degree = net.degree();

        // Stage: Classify — pick the serving path by degree.
        if degree == 2 {
            // Closed form: the direct tree is the entire frontier; no
            // class, no cache, no table involvement, no fault surface.
            let tree = RoutingTree::direct(net);
            let (w, d) = tree.objectives();
            let mut frontier = ParetoSet::new();
            frontier.insert(Cost::new(w, d), tree);
            let counters = StageCounters {
                trees_materialized: 1,
                ..StageCounters::default()
            };
            let mut trace = DegradationTrace::default();
            trace.push(Rung::ClosedForm, RungOutcome::Served);
            return Ok(outcome(frontier, degree, RouteSource::ClosedForm, counters, trace));
        }

        // The handle pinned the table generation (a batch pins once for
        // all of its slots): this route runs start to finish against one
        // table even if a hot reload commits midway, and its cache
        // inserts carry the pinned epoch so they are dropped rather than
        // published into a newer generation.
        let generation = &self.generation;
        let table = &generation.table;

        let res = inner.config.resilience;
        let deadline = session.deadline.or(res.deadline);
        let budget = deadline.map(|deadline| Budget::new(&*inner.clock, deadline));
        let faults = &inner.config.faults;
        let mut ladder = Ladder {
            faults,
            budget: budget.as_ref(),
            // `FaultPlane::fires` reads the key only when a fault is
            // armed, so an empty plane skips hashing the pins.
            key: if faults.is_empty() { 0 } else { net_key(net) },
            degree,
            validate: res.validate_frontiers,
            counters: StageCounters::default(),
            trace: DegradationTrace::default(),
            panic_payload: None,
            table_error: None,
        };

        if degree <= table.lambda() as usize {
            // Here 3 ≤ degree ≤ λ, and λ lies in `patlabor_lut::LAMBDAS`
            // (3..=9): `LutBuilder::new` asserts it and the v4 header
            // check refuses anything else.
            let class = table
                .classify(net)
                .expect("NetClass classifies every degree up to 16, and λ ≤ 9");

            // Rung: Cache — only on an engine that opted into the
            // cache: replay the class's winning ids on a hit. A
            // cache the adaptive bypass has retired (hit rate below the
            // configured floor through the warmup window) is skipped:
            // no probe, no insert, no rung attempt — until the periodic
            // re-probe window re-arms it (`skip_probe` drives that).
            if let Some(cache) = inner.cache.as_ref().filter(|c| !c.skip_probe()) {
                if let Some(served) = ladder.run(Rung::Cache, RouteSource::CacheHit, |l| {
                    l.counters.cache_probes = 1;
                    let ids = cache
                        .get(&CacheKey::from_class(&class))
                        .ok_or(RungOutcome::Unavailable)?;
                    l.counters.cache_hits = 1;
                    l.counters.trees_materialized = ids.len() as u32;
                    l.vetted(Rung::Cache, table.query_ids(net, &class, &ids))
                }) {
                    return Ok(served);
                }
            }

            // Rung: Lut — the primary rung for tabulated degrees.
            if let Some(served) = ladder.run(Rung::Lut, RouteSource::ExactLut, |l| {
                // In this branch degree ≤ λ ≤ u8::MAX, so the narrowing
                // casts below are lossless.
                if l.fires(FaultKind::MissingDegree, Rung::Lut) {
                    return Err(l.table_miss(RouteError::MissingDegree {
                        degree: degree as u8,
                        lambda: table.lambda(),
                    }));
                }
                if l.fires(FaultKind::MissingPattern, Rung::Lut) {
                    return Err(l.table_miss(RouteError::MissingPattern {
                        degree: degree as u8,
                        key: class.canonical_key(),
                    }));
                }
                let cache = inner.cache.as_ref().filter(|c| !c.bypassed());
                let (frontier, winners) =
                    lut_query(table, net, &class, cache.is_some(), &mut l.counters)
                        .map_err(|e| l.table_miss(e))?;
                let frontier = l.vetted(Rung::Lut, frontier)?;
                if let Some(cache) = cache {
                    cache.insert_at(
                        CacheKey::from_class(&class),
                        winners.into(),
                        generation.epoch,
                    );
                }
                Ok(frontier)
            }) {
                return Ok(served);
            }

            // Rung: NumericDw — re-enumerate from scratch what the table
            // could not serve. Exact but per-instance expensive, hence
            // capped at `numeric::MAX_DEGREE`.
            if res.fallbacks && degree <= numeric::MAX_DEGREE {
                if let Some(served) = ladder.run(Rung::NumericDw, RouteSource::NumericDw, |l| {
                    // Reading the clock is what costs, not the checkpoint
                    // itself: stride the reads so a hot DP loop stays
                    // inside the 2% budget of `BUDGET_POLL_STRIDE`.
                    l.polled::<BUDGET_POLL_STRIDE, _>(|poll| {
                        numeric::pareto_frontier_cancellable(net, &DwConfig::default(), poll)
                    })
                }) {
                    return Ok(served);
                }
            }
        } else {
            // Rung: LocalSearch — the primary rung above λ.
            if let Some(served) = ladder.run(Rung::LocalSearch, RouteSource::LocalSearch, |l| {
                // A missing-degree fault here simulates reroute tables
                // the search cannot use (its subnets query the same
                // LUT), demoting the net to the baseline rung.
                if l.fires(FaultKind::MissingDegree, Rung::LocalSearch) {
                    return Err(RungOutcome::MissingDegree);
                }
                // The search polls a few times per round, each poll far
                // apart, so every poll reads the clock.
                let (frontier, report) = l.polled::<1, _>(|poll| {
                    let config = &inner.config.local_search;
                    local_search_cancellable(net, table, &inner.policy, config, poll)
                })?;
                l.counters.local_search_rounds = report.rounds as u32;
                l.counters.local_search_candidates = report.candidates as u32;
                Ok(frontier)
            }) {
                return Ok(served);
            }
        }

        // Rung: Baseline — deliberately cheap and never deadline-gated:
        // an expired budget still yields valid (approximate) trees
        // instead of nothing.
        if res.fallbacks {
            if let Some(served) = ladder.run(Rung::Baseline, RouteSource::Baseline, |l| {
                let frontier = fallback_frontier(net);
                l.counters.trees_materialized += frontier.len() as u32;
                Ok(frontier)
            }) {
                return Ok(served);
            }
        }
        Err(ladder.exhausted())
    }

    /// [`Engine::reroute_with_staleness`] against this handle's table
    /// generation.
    pub fn reroute_with_staleness(
        &self,
        delta: &NetDelta,
        prior_edits: u32,
        session: &Session,
    ) -> RouteResult {
        let mutated = delta.apply();
        if let Some(cache) = &self.inner.cache {
            // Replay serves without the ladder, so it checks the
            // coordinate bound itself.
            check_coordinates(&mutated)?;
            let staleness = prior_edits.saturating_add(1);
            if staleness <= self.inner.config.eco.staleness_cap {
                if let Some(outcome) = self.replay_reuse(cache, delta, &mutated, staleness) {
                    return Ok(outcome);
                }
            }
        }
        self.route_session(&mutated, session)
    }

    /// The ECO replay fast path: `Some` only when the edit is provably
    /// class-preserving (base and mutated nets canonicalize to the same
    /// cache key), the class's winners are resident in an armed frontier
    /// cache, and the replayed frontier passes validation. No LUT
    /// candidate is scored on this path (`candidates_scored` stays 0).
    fn replay_reuse(
        &self,
        cache: &FrontierCache,
        delta: &NetDelta,
        mutated: &Net,
        staleness: u32,
    ) -> Option<RouteOutcome> {
        let inner = self.inner;
        let table = &self.generation.table;
        let base = &delta.base;
        let degree = mutated.degree();
        if degree != base.degree() || degree < 3 || degree > table.lambda() as usize {
            return None;
        }
        if cache.skip_probe() {
            return None;
        }
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
/// stage calls as [`LookupTable::query`], so the frontier (including
/// tie-break order) is bit-identical to it. The winning ids
/// are collected only when `with_winners` (a cache will store them);
/// otherwise the second vector is empty and allocates nothing.
fn lut_query(
    table: &LookupTable,
    net: &Net,
    class: &NetClass,
    with_winners: bool,
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
    let winners = if with_winners {
        survivors.iter().map(|&(_, id)| id).collect()
    } else {
        Vec::new()
    };
    let entries: Vec<(Cost, RoutingTree)> = survivors
        .into_iter()
        .map(|(cost, id)| (cost, table.materialize(net, class, id)))
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

/// One route's descent through the degradation ladder: what every rung
/// reads — the fault plane, the deadline budget injected delays are
/// charged to, the net's fault-decision key (0 when the plane is empty
/// and never reads it) and whether frontiers are validated — and what
/// the rungs leave behind: the stage counters, the trace, the first
/// caught panic and the first table error.
struct Ladder<'a> {
    faults: &'a FaultPlane,
    budget: Option<&'a Budget<'a>>,
    key: u64,
    degree: usize,
    validate: bool,
    counters: StageCounters,
    trace: DegradationTrace,
    panic_payload: Option<Box<dyn Any + Send>>,
    table_error: Option<RouteError>,
}

impl Ladder<'_> {
    /// [`FaultPlane::fires`] for this route's net.
    fn fires(&self, kind: FaultKind, rung: Rung) -> bool {
        self.faults.fires(kind, rung, self.key)
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
    ///
    /// A rung that serves records `served` and returns the outcome, with
    /// `source` as its provenance. A rung that fails records how, and
    /// returns `None` for the next rung to try. An `unavailable` rung, a
    /// cache miss, records nothing: a miss is the normal path, not a
    /// degradation.
    fn run(
        &mut self,
        rung: Rung,
        source: RouteSource,
        body: impl FnOnce(&mut Self) -> Result<ParetoSet<RoutingTree>, RungOutcome>,
    ) -> Option<RouteOutcome> {
        if let Some(budget) = self.budget {
            if self.fires(FaultKind::StageDelay, rung) {
                budget.charge(STAGE_DELAY);
            }
        }
        let result = if rung.deadline_gated() && self.deadline_exceeded() {
            Err(RungOutcome::DeadlineExceeded)
        } else {
            let inject = self.fires(FaultKind::StagePanic, rung);
            panic::catch_unwind(AssertUnwindSafe(|| {
                if inject {
                    // `resume_unwind` skips the panic hook: a drill's
                    // injected panics unwind like real ones without
                    // printing, while a real panic in `body` still
                    // reports itself.
                    panic::resume_unwind(Box::new(format!(
                        "injected fault: stage panic at rung {rung}"
                    )));
                }
                body(self)
            }))
            .unwrap_or_else(|payload| {
                self.panic_payload.get_or_insert(payload);
                Err(RungOutcome::Panicked)
            })
        };
        match result {
            Ok(frontier) => {
                self.trace.push(rung, RungOutcome::Served);
                Some(outcome(frontier, self.degree, source, self.counters, self.trace))
            }
            Err(RungOutcome::Unavailable) => None,
            Err(failed) => {
                self.trace.push(rung, failed);
                None
            }
        }
    }

    /// Runs a cancellable search whose poll reads the deadline on every
    /// `STRIDE`-th call, and counts its polls as budget checks when the
    /// route has a deadline. A cancelled search is a deadline miss.
    fn polled<const STRIDE: u32, T>(
        &mut self,
        search: impl FnOnce(&dyn Fn() -> bool) -> Result<T, Cancelled>,
    ) -> Result<T, RungOutcome> {
        let budget = self.budget;
        let polls = Cell::new(0u32);
        let result = search(&|| {
            let n = polls.get() + 1;
            polls.set(n);
            n.is_multiple_of(STRIDE) && budget.is_some_and(Budget::exceeded)
        });
        if budget.is_some() {
            self.counters.budget_checks += polls.get();
        }
        result.map_err(|Cancelled| RungOutcome::DeadlineExceeded)
    }

    /// The deadline gate of a compute rung, counted as a budget check
    /// when a deadline is set.
    fn deadline_exceeded(&mut self) -> bool {
        self.budget.is_some_and(|budget| {
            self.counters.budget_checks += 1;
            budget.exceeded()
        })
    }

    /// A table rung's frontier as served: an injected corrupted row
    /// shifts a cost off its witness, and validation (when enabled)
    /// refuses a frontier whose costs are not its witnesses' objectives.
    fn vetted(
        &self,
        rung: Rung,
        mut frontier: ParetoSet<RoutingTree>,
    ) -> Result<ParetoSet<RoutingTree>, RungOutcome> {
        if self.fires(FaultKind::CorruptedRow, rung) {
            frontier = corrupt_first_cost(frontier);
        }
        if self.validate && !frontier_consistent(&frontier) {
            return Err(RungOutcome::CorruptRow);
        }
        Ok(frontier)
    }

    /// Records a table that cannot serve the net (the first such error
    /// is what an exhausted ladder reports) and returns the rung outcome
    /// that names it.
    fn table_miss(&mut self, error: RouteError) -> RungOutcome {
        let failed = if matches!(error, RouteError::MissingDegree { .. }) {
            RungOutcome::MissingDegree
        } else {
            RungOutcome::MissingPattern
        };
        self.table_error.get_or_insert(error);
        failed
    }

    /// The error of a ladder that ran out of rungs. A caught panic is
    /// not ours to swallow when no rung could absorb it (the batch
    /// driver isolates it per slot), so it resumes; otherwise the real
    /// table error is preferred over the generic exhaustion report.
    fn exhausted(self) -> RouteError {
        if let Some(payload) = self.panic_payload {
            panic::resume_unwind(payload);
        }
        self.table_error.unwrap_or(RouteError::RungsExhausted {
            degree: self.degree,
            trace: self.trace,
        })
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

    /// `engine4` opted into the frontier cache, for the tests of the
    /// cache itself.
    fn cached_engine4() -> Engine {
        engine4().with_cache(CacheConfig::default())
    }

    #[test]
    fn engine_clone_is_a_shared_handle() {
        let engine = cached_engine4();
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
        assert_eq!(plain, session);
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

        let engine = cached_engine4();
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

        let engine = cached_engine4();
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

        let engine = cached_engine4();
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
        let engine = Engine::new().with_cache(CacheConfig::default());
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
        let faults = FaultPlane::seeded(0).with_fault(Fault {
            kind: FaultKind::StageDelay,
            scope: FaultScope::Primary,
            probability: 1.0,
        });
        // The delay spends the whole budget before the LUT rung runs.
        let config = RouterConfig {
            resilience: ResilienceConfig {
                deadline: Some(STAGE_DELAY),
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
        // The budget reads the clock once when it starts and the rung gate
        // once more; degree 40 at λ = 4 then polls after each of its two
        // seeds and twice in its one reroute round (the max-delay tree
        // repeats after it). A 3 ms deadline on a clock that ticks per
        // read expires at the second seed's poll: inside the search, not
        // at the gate before it.
        let engine = engine4().with_clock(Arc::new(TickingClock::default()));
        let mut seed = 40u64;
        let net = random_net(&mut seed, 40, 500);
        let session = Session::default().with_deadline(Duration::from_millis(3));
        let outcome = engine.route_session(&net, &session).unwrap();
        assert_eq!(
            outcome.provenance.trace.to_string(),
            "local-search:deadline -> baseline:served"
        );
        assert_eq!(outcome.provenance.source, RouteSource::Baseline);
        // The rung gate and the two seed polls.
        assert_eq!(outcome.provenance.counters.budget_checks, 3);
        // Without a deadline the same net is served by the search.
        let plain = engine.route(&net).unwrap();
        assert_eq!(plain.provenance.trace.to_string(), "local-search:served");
    }

    /// `budget_checks` counts deadline polls: a route without a deadline
    /// reports none on either rung with cooperative checkpoints, and the
    /// same route under a generous deadline counts them.
    #[test]
    fn routes_without_a_deadline_count_no_budget_checks() {
        let generous = Session::default().with_deadline(Duration::from_secs(3600));
        let mut seed = 41u64;
        let engine = engine4();
        let large = random_net(&mut seed, 12, 200);
        let plain = engine.route(&large).unwrap();
        assert_eq!(plain.provenance.source, RouteSource::LocalSearch);
        assert_eq!(plain.provenance.counters.budget_checks, 0);
        let budgeted = engine.route_session(&large, &generous).unwrap();
        assert_eq!(budgeted.frontier, plain.frontier);
        // The rung gate and at least the two seed polls.
        assert!(budgeted.provenance.counters.budget_checks >= 3);

        // A missing-degree fault on the LUT rung hands the net to
        // numeric DW.
        let lut_off = engine4().with_faults(FaultPlane::seeded(0).with_fault(Fault {
            kind: FaultKind::MissingDegree,
            scope: FaultScope::Rung(Rung::Lut),
            probability: 1.0,
        }));
        let small = random_net(&mut seed, 4, 60);
        let plain = lut_off.route(&small).unwrap();
        assert_eq!(plain.provenance.source, RouteSource::NumericDw);
        assert_eq!(plain.provenance.counters.budget_checks, 0);
        let budgeted = lut_off.route_session(&small, &generous).unwrap();
        assert_eq!(budgeted.provenance.source, RouteSource::NumericDw);
        // The LUT and numeric-DW rung gates, then the DP's checkpoints.
        assert!(budgeted.provenance.counters.budget_checks > 2);
    }

    /// A default engine has no frontier cache: a repeated net and a
    /// translated copy of it each route through the LUT with no probe,
    /// and a translate reroute is one route of the edited net.
    #[test]
    fn default_engine_routes_every_net_through_the_lut() {
        let engine = Engine::new();
        assert!(engine.cache_stats().is_none());
        let mut seed = 9u64;
        let net = random_net(&mut seed, 4, 50);
        let translated = net.map_points(|p| Point::new(p.x + 1000, p.y - 37));
        let first = engine.route(&net).unwrap();
        for outcome in [
            &first,
            &engine.route(&net).unwrap(),
            &engine.route(&translated).unwrap(),
        ] {
            assert_eq!(outcome.provenance.source, RouteSource::ExactLut);
            assert_eq!(outcome.provenance.counters.cache_probes, 0);
            assert!(outcome.provenance.counters.candidates_scored >= 1);
            assert_eq!(outcome.frontier.cost_vec(), first.frontier.cost_vec());
        }
        let delta = NetDelta::new(net, DeltaKind::Translate { dx: 5, dy: -2 });
        let rerouted = engine
            .reroute_with_staleness(&delta, 0, &Session::default())
            .unwrap();
        assert_eq!(rerouted.provenance.source, RouteSource::ExactLut);
        assert_eq!(rerouted.provenance.counters.cache_probes, 0);
        assert_eq!(rerouted.frontier, engine.route(&delta.apply()).unwrap().frontier);
    }
}
