//! Differential verification harness for the PatLabor router.
//!
//! The router is built out of fast paths that each claim to be
//! indistinguishable from a slower reference computation: the LUT
//! dot-product query from a fresh numeric DW enumeration, the frontier
//! cache from a cache-disabled query, the parallel batch driver from a
//! serial loop, a routed net from its D4/translated images, a table
//! mapped from its saved file from the in-memory original. Unit tests pin
//! each claim on a handful of hand-written nets; this crate
//! cross-validates all of them on a seeded corpus of hundreds of random
//! nets and reports the *first divergence* as a minimized, replayable
//! counterexample.
//!
//! The harness also verifies **itself**: [`mutation_smoke`] plants a
//! single corrupted cost row in an otherwise healthy table (via
//! [`LookupTable::corrupt_cost_row`]) and asserts that the run catches
//! it. An oracle that cannot detect a known-bad table is worse than no
//! oracle — it manufactures confidence.
//!
//! Entry points: [`verify`] (build tables, run every pair), [`verify_with_table`]
//! (caller-supplied tables, e.g. loaded from disk), [`mutation_smoke`].
//! The `patlabor verify` CLI subcommand wraps them.

#![forbid(unsafe_code)]

mod chaos;
mod report;
mod shrink;

pub use chaos::{chaos_soak, ChaosSoakReport};
pub use report::{CheckSummary, Counterexample, PathPair, SmokeReport, VerifyReport};
pub use shrink::shrink_net;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use patlabor::{
    DeltaJob, DeltaKind, Engine, Fault, FaultKind, FaultPlane, FaultScope, Net, NetDelta, Point,
    ResilienceConfig, ResilienceReport, RouterConfig, Session, VirtualClock,
};
use patlabor_serve::{result_to_json, RouteClient, RouteRequest, ServeConfig, Server};
use patlabor_dw::{numeric, DwConfig};
use patlabor_lut::{LookupTable, LutBuilder};
use patlabor_netgen::{clustered_net, uniform_net};
use patlabor_pareto::Cost;
use rand::rngs::StdRng;
use rand::SeedableRng;

use patlabor::pipeline::{RouteOutcome, RouteResult, RouteSource};
use patlabor::CacheConfig;

/// Predicate evaluations the shrinker may spend per counterexample.
const SHRINK_EVAL_BUDGET: usize = 4_000;

/// Smallest corpus degree (degree 2 is a closed form).
pub const MIN_DEGREE: usize = 3;

/// Largest degree the numeric-DW oracle re-enumerates, capped further by
/// λ (the oracle is exponential in degree; 6 keeps a 500-net corpus in
/// seconds).
pub const DW_MAX_DEGREE: usize = 6;

/// Harness configuration: corpus shape plus per-pair scope knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyConfig {
    /// Corpus seed; the whole run is a pure function of the config.
    pub seed: u64,
    /// Number of corpus nets.
    pub nets: usize,
    /// Largest corpus degree, at least [`MIN_DEGREE`]. Degrees above λ
    /// exercise the local-search path (covered by the cache and batch
    /// pairs only — local search is neither table-backed nor D4-invariant
    /// by contract).
    pub max_degree: usize,
    /// λ of the freshly built tables ([`verify`] only; λ ≤ 6 builds in
    /// seconds, larger tables should be built offline and passed to
    /// [`verify_with_table`]).
    pub lambda: u8,
    /// Worker threads for the batch-vs-serial pair.
    pub threads: usize,
    /// Pin coordinates are drawn from `[0, span)²`.
    pub span: i64,
    /// Whether to minimize the first divergence before reporting it.
    pub shrink: bool,
    /// Injected faults for the resilience sweep. When non-empty, the
    /// whole corpus is replayed through a fault-armed router and the
    /// ladder's service invariants are checked (zero aborts, every `Ok`
    /// a valid consistent frontier, every failure a structured error).
    pub faults: FaultPlane,
    /// Per-net deadline for the resilience sweep, driven by a
    /// [`VirtualClock`] so only injected stage delays consume time.
    pub deadline_ms: Option<u64>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            seed: 0x5eed,
            nets: 500,
            max_degree: 8,
            lambda: 6,
            threads: 4,
            span: 48,
            shrink: true,
            faults: FaultPlane::default(),
            deadline_ms: None,
        }
    }
}

impl VerifyConfig {
    /// Largest degree checked against the numeric-DW oracle.
    fn dw_cap(&self) -> usize {
        DW_MAX_DEGREE.min(self.lambda as usize)
    }
}

/// The seeded corpus: degrees round-robin over
/// `MIN_DEGREE..=max_degree`, pin clouds alternating between uniform and
/// clustered placement (the two shapes real placers produce). Pure
/// function of the config — two calls yield identical nets.
pub fn corpus(config: &VerifyConfig) -> Vec<Net> {
    assert!(
        config.max_degree >= MIN_DEGREE,
        "corpus max_degree must be at least {MIN_DEGREE}"
    );
    assert!(config.span >= 2, "corpus span must be at least 2");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let degree_count = config.max_degree - MIN_DEGREE + 1;
    (0..config.nets)
        .map(|i| {
            let degree = MIN_DEGREE + i % degree_count;
            if config.span >= 16 && i % 3 == 2 {
                clustered_net(&mut rng, degree, config.span, 1 + i % 3)
            } else {
                uniform_net(&mut rng, degree, config.span)
            }
        })
        .collect()
}

/// Builds λ tables per `config` and runs the full differential matrix.
pub fn verify(config: &VerifyConfig) -> VerifyReport {
    verify_with_table(LutBuilder::new(config.lambda).build(), config)
}

/// Runs the full differential matrix against caller-supplied tables
/// (loaded from disk, deliberately corrupted, ...). Checks stop at the
/// first divergence, which is minimized (when `config.shrink`) and
/// returned in the report.
pub fn verify_with_table(table: LookupTable, config: &VerifyConfig) -> VerifyReport {
    let mut counts = [0usize; PathPair::ALL.len()];
    let harness = match Harness::new(table, config) {
        Ok(h) => h,
        Err(cx) => return finish(config, 0, counts, Some(cx), None),
    };
    let nets = corpus(config);
    let mut serial: Vec<RouteResult> = Vec::with_capacity(nets.len());

    for (index, net) in nets.iter().enumerate() {
        for (slot, &pair) in PathPair::ALL.iter().enumerate() {
            if pair == PathPair::BatchVsSerial {
                continue; // whole-corpus check, runs after the loop
            }
            if !harness.in_scope(pair, net) {
                continue;
            }
            counts[slot] += 1;
            // The cache pair doubles as the serial reference for the
            // batch pair, so its route result is kept either way.
            let divergence = if pair == PathPair::CachedVsUncached {
                let (result, divergence) = harness.cached_vs_uncached(net);
                serial.push(result);
                divergence
            } else {
                harness.divergence(pair, net)
            };
            if divergence.is_some() {
                let cx = harness.minimized(pair, index, net);
                return finish(config, nets.len(), counts, Some(cx), None);
            }
        }
    }

    // Pair (c): the parallel batch driver vs the serial loop above,
    // swept across thread counts — determinism must hold whichever
    // worker takes which chunk, including when oversubscribed (more
    // workers than hardware threads, maximal preemption) and at the
    // configured count.
    let batch_slot = PathPair::ALL
        .iter()
        .position(|&p| p == PathPair::BatchVsSerial)
        .expect("BatchVsSerial is in ALL");
    let configured = config.threads.max(1);
    let mut thread_sweep = vec![1, 2, configured, configured + 3];
    thread_sweep.sort_unstable();
    thread_sweep.dedup();
    for threads in thread_sweep {
        let batch = harness.cached.route_batch(&nets, threads);
        for (index, (batched, serial)) in batch.iter().zip(serial.iter()).enumerate() {
            counts[batch_slot] += 1;
            if let Some((fast, reference, why)) = result_mismatch(batched, serial) {
                let cx = Counterexample {
                    pair: PathPair::BatchVsSerial,
                    seed: config.seed,
                    net_index: index,
                    original_degree: nets[index].degree(),
                    net: nets[index].clone(),
                    shrink_steps: 0, // a 1-net batch degrades to the serial path
                    fast,
                    reference,
                    detail: format!("{threads} worker threads; {why}"),
                };
                return finish(config, nets.len(), counts, Some(cx), None);
            }
        }
    }

    // ECO pair, batch half: the per-net loop above already held every
    // serial `reroute` to the fresh-route oracle; here the same deltas
    // go through `route_batch_deltas` at 1 and N threads and must agree
    // slot-for-slot — replay determinism whichever worker takes which
    // chunk.
    let delta_slot = PathPair::ALL
        .iter()
        .position(|&p| p == PathPair::DeltaVsFresh)
        .expect("DeltaVsFresh is in ALL");
    let mut jobs = Vec::new();
    let mut job_origin = Vec::new();
    for (index, net) in nets.iter().enumerate() {
        if !harness.in_scope(PathPair::DeltaVsFresh, net) {
            continue;
        }
        for (name, kind) in delta_kinds(net) {
            jobs.push(DeltaJob {
                delta: NetDelta::new(net.clone(), kind),
                prior_edits: 0,
                session: Session::default(),
            });
            job_origin.push((index, name));
        }
    }
    let (serial_deltas, _) = harness.cached.route_batch_deltas(&jobs, 1);
    let (threaded_deltas, _) = harness.cached.route_batch_deltas(&jobs, configured.max(2));
    for (slot, (one, many)) in serial_deltas.iter().zip(&threaded_deltas).enumerate() {
        counts[delta_slot] += 1;
        if let Some((fast, reference, why)) = result_mismatch(many, one) {
            let (index, name) = job_origin[slot];
            let cx = Counterexample {
                pair: PathPair::DeltaVsFresh,
                seed: config.seed,
                net_index: index,
                original_degree: nets[index].degree(),
                net: nets[index].clone(),
                shrink_steps: 0, // thread schedules are not net-shrinkable
                fast,
                reference,
                detail: format!(
                    "route_batch_deltas at {} threads vs serial, delta {name}: {why}",
                    configured.max(2)
                ),
            };
            return finish(config, nets.len(), counts, Some(cx), None);
        }
    }

    // Resilience sweep: replay the corpus through a fault-armed router
    // and hold the degradation ladder to its service invariants.
    let mut resilience = None;
    if !config.faults.is_empty() || config.deadline_ms.is_some() {
        match harness.resilience_sweep(&nets, config) {
            Ok(report) => resilience = Some(report),
            Err(cx) => return finish(config, nets.len(), counts, Some(*cx), None),
        }
    }

    finish(config, nets.len(), counts, None, resilience)
}

/// Plants a single-row table corruption that provably flips at least one
/// corpus net's query, then runs the full harness against the corrupted
/// table. `caught: Some(..)` proves the oracle machinery detects real
/// table damage; `None` means the harness itself is broken.
pub fn mutation_smoke(config: &VerifyConfig) -> SmokeReport {
    mutation_smoke_with_table(LutBuilder::new(config.lambda).build(), config)
}

/// [`mutation_smoke`] against caller-supplied (healthy) tables.
pub fn mutation_smoke_with_table(table: LookupTable, config: &VerifyConfig) -> SmokeReport {
    let dw_cap = config.dw_cap();
    for net in corpus(config) {
        if net.degree() < 3 || net.degree() > dw_cap {
            continue;
        }
        let Some(class) = table.classify(&net) else {
            continue;
        };
        let Some(ids) = table.candidate_ids(&class) else {
            continue;
        };
        let healthy = table.score_candidates(&class, ids);
        // Corrupt each frontier winner in turn until one provably shifts
        // this net's scored frontier (a tie may mask a single victim).
        for &(_, victim) in &healthy {
            let mut mutated = table.clone();
            if !mutated.corrupt_cost_row(class.degree(), victim, 1) {
                continue;
            }
            let corrupted = mutated
                .candidate_ids(&class)
                .map(|ids| mutated.score_candidates(&class, ids))
                .unwrap_or_default();
            let differs = healthy.iter().map(|&(c, _)| c).ne(corrupted.iter().map(|&(c, _)| c));
            if differs {
                let mutation = format!(
                    "degree-{} pool row {victim}: every cost-row multiplicity +1",
                    class.degree()
                );
                let caught = verify_with_table(mutated, config).counterexample;
                return SmokeReport { mutation, caught };
            }
        }
    }
    SmokeReport {
        mutation: "no corruptible winner found (degenerate corpus)".to_string(),
        caught: None,
    }
}

fn finish(
    config: &VerifyConfig,
    corpus_size: usize,
    counts: [usize; PathPair::ALL.len()],
    counterexample: Option<Counterexample>,
    resilience: Option<ResilienceReport>,
) -> VerifyReport {
    VerifyReport {
        seed: config.seed,
        corpus_size,
        checks: PathPair::ALL
            .iter()
            .zip(counts)
            .map(|(&pair, nets_checked)| CheckSummary { pair, nets_checked })
            .collect(),
        counterexample,
        resilience,
    }
}

/// One fast-vs-reference disagreement, before counterexample packaging.
struct Divergence {
    fast: Vec<Cost>,
    reference: Vec<Cost>,
    detail: String,
}

/// The routers and tables one run checks against each other.
struct Harness {
    /// The table under test (shared by both routers).
    table: LookupTable,
    /// The same table served zero-copy from a saved file via
    /// `open_mmap` — borrowed arenas, not owned copies.
    mapped: LookupTable,
    /// Production-shaped router, minus the degradation ladder: cache
    /// enabled, local search above λ, strict resilience so table damage
    /// surfaces as route errors instead of being absorbed by a fallback
    /// rung (a differential oracle must see the damage, not mask it).
    cached: Engine,
    /// The cache-disabled reference router (also strict).
    uncached: Engine,
    /// The ladder under test: full resilience with the primary rung
    /// forced off by an injected missing-degree fault, so in-table nets
    /// serve via numeric DW and out-of-table nets via the baseline.
    fallback: Engine,
    /// The in-process side of the served-vs-direct pair: a
    /// cache-disabled engine over the same table the daemon serves, so
    /// both sides are pure functions of the net and the wire reply can
    /// be demanded byte-identical (a shared cache would make provenance
    /// depend on call order).
    serve_engine: Engine,
    /// The wire side: a client connected to `server`. `RefCell` because
    /// the harness checks pairs serially but through `&self`. Declared
    /// before `server` so the connection closes before the daemon's
    /// `Drop` drains and joins.
    wire: RefCell<RouteClient>,
    /// Monotone wire correlation ids (shrinking re-sends nets, so ids
    /// cannot be derived from the corpus index).
    wire_id: Cell<u64>,
    /// The daemon under test, serving `serve_engine`'s twin over the
    /// framed socket protocol for the whole run. Held for its `Drop`
    /// (drain + join); never read.
    _server: Server,
    seed: u64,
    lambda: usize,
    dw_cap: usize,
    shrink: bool,
}

impl Harness {
    /// Builds the routers and performs the construction-time half of the
    /// mmap pair: save, open zero-copy, and demand the mapped table be
    /// structurally identical and re-serialize to the saved bytes.
    // Cold constructor, called once per run — the big Err is fine here.
    #[allow(clippy::result_large_err)]
    fn new(table: LookupTable, config: &VerifyConfig) -> Result<Harness, Counterexample> {
        let setup_failure = |pair: PathPair, detail: String| Counterexample {
            pair,
            seed: config.seed,
            net_index: 0,
            original_degree: 2,
            net: Net::new(vec![Point::new(0, 0), Point::new(1, 0)])
                .expect("two distinct pins form a net"),
            shrink_steps: 0,
            fast: Vec::new(),
            reference: Vec::new(),
            detail,
        };
        let mmap_failure = |detail: String| setup_failure(PathPair::MmapVsOwned, detail);
        let mut bytes = Vec::new();
        table
            .write_to(&mut bytes)
            .map_err(|e| mmap_failure(format!("serializing the table failed: {e}")))?;
        // The file is removed as soon as it is mapped — the mapping must
        // keep itself alive without it. Harnesses running at once in one
        // process (the tests do) each write a file of their own.
        static NEXT_FILE: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "patlabor_verify_mmap_{:x}_{}_{}.plut",
            config.seed,
            std::process::id(),
            NEXT_FILE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes)
            .map_err(|e| mmap_failure(format!("writing the table file failed: {e}")))?;
        let mapped = LookupTable::open_mmap(&path).map_err(|e| {
            std::fs::remove_file(&path).ok();
            mmap_failure(format!("zero-copy open of the just-saved table failed: {e}"))
        })?;
        std::fs::remove_file(&path).ok();
        if mapped.backing() != patlabor_lut::Backing::Mapped {
            return Err(mmap_failure(format!(
                "open_mmap produced a {} table, not a mapped one",
                mapped.backing()
            )));
        }
        if mapped != table {
            return Err(mmap_failure(
                "mmap-backed table differs structurally from the in-memory original".to_string(),
            ));
        }
        let mut rewritten = Vec::new();
        mapped
            .write_to(&mut rewritten)
            .map_err(|e| mmap_failure(format!("re-serializing the mapped table failed: {e}")))?;
        if rewritten != bytes {
            return Err(mmap_failure(
                "serialization is not byte-deterministic across a round trip".to_string(),
            ));
        }
        let strict = RouterConfig {
            resilience: ResilienceConfig::strict(),
            ..RouterConfig::default()
        };
        let lut_off = FaultPlane::seeded(config.seed).with_fault(Fault {
            kind: FaultKind::MissingDegree,
            scope: FaultScope::Primary,
            probability: 1.0,
        });
        // The served-vs-direct pair: one daemon for the whole run,
        // serving the table under test with no cache on either side (the
        // default, so wire and direct replies are pure functions of the
        // net and can be demanded byte-identical).
        let serve_failure = |detail: String| setup_failure(PathPair::ServedVsDirect, detail);
        let serve_engine = Engine::with_table(table.clone());
        let server = patlabor_serve::serve(
            serve_engine.clone(),
            ServeConfig {
                threads: 1,
                http_addr: None,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| serve_failure(format!("starting the serve daemon failed: {e}")))?;
        let wire = RouteClient::connect(server.addr())
            .map_err(|e| serve_failure(format!("connecting to the serve daemon failed: {e}")))?;
        Ok(Harness {
            // The cache is opt-in, so the cached side of the cache,
            // batch and delta pairs opts in explicitly.
            cached: Engine::with_table_and_config(table.clone(), strict.clone())
                .with_cache(CacheConfig::default()),
            uncached: Engine::with_table_and_config(table.clone(), strict),
            fallback: Engine::with_table(table.clone()).with_faults(lut_off),
            serve_engine,
            wire: RefCell::new(wire),
            wire_id: Cell::new(0),
            _server: server,
            lambda: table.lambda() as usize,
            table,
            mapped,
            seed: config.seed,
            dw_cap: config.dw_cap(),
            shrink: config.shrink,
        })
    }

    /// Whether `pair`'s oracle applies to `net` (degree scoping).
    fn in_scope(&self, pair: PathPair, net: &Net) -> bool {
        let d = net.degree();
        match pair {
            // The DW oracle is exponential in degree; capped explicitly.
            PathPair::LutVsNumericDw => (3..=self.dw_cap).contains(&d),
            // Cache, batch and the wire round trip cover every degree,
            // local search included — the daemon must be transparent
            // for whatever the engine can route.
            PathPair::CachedVsUncached | PathPair::BatchVsSerial | PathPair::ServedVsDirect => true,
            // Exact-path-only invariants: local search (> λ) promises
            // neither D4 invariance nor table-backed answers.
            PathPair::D4Translation | PathPair::MmapVsOwned => (3..=self.lambda).contains(&d),
            // In-table degrees need the DW oracle's cap; out-of-table
            // degrees exercise the baseline rung instead. Degrees in
            // between (dw_cap < d ≤ λ) have no affordable oracle.
            PathPair::FallbackParity => (3..=self.dw_cap).contains(&d) || d > self.lambda,
            // Winner-id replay exists only for table-backed degrees; the
            // deltas themselves may push the edited net out of λ, which
            // the pair covers via the ladder fallback.
            PathPair::DeltaVsFresh => (3..=self.lambda).contains(&d),
        }
    }

    /// Checks one pair on one net; `None` means the pair agrees.
    fn divergence(&self, pair: PathPair, net: &Net) -> Option<Divergence> {
        if !self.in_scope(pair, net) {
            return None; // shrink candidates can leave a pair's scope
        }
        match pair {
            PathPair::LutVsNumericDw => self.lut_vs_dw(net),
            PathPair::CachedVsUncached => self.cached_vs_uncached(net).1,
            PathPair::D4Translation => self.d4_translation(net),
            PathPair::MmapVsOwned => self.mmap_vs_owned(net),
            PathPair::FallbackParity => self.fallback_parity(net),
            PathPair::ServedVsDirect => self.served_vs_direct(net),
            PathPair::DeltaVsFresh => self.delta_vs_fresh(net),
            PathPair::BatchVsSerial => None, // whole-corpus pair, not per-net
        }
    }

    /// Pair (a): the production exact path vs a fresh numeric DW run.
    fn lut_vs_dw(&self, net: &Net) -> Option<Divergence> {
        let reference = numeric::pareto_frontier(net, &DwConfig::default()).cost_vec();
        match self.uncached.route(net) {
            Ok(outcome) => {
                let fast = outcome.frontier.cost_vec();
                (fast != reference).then(|| Divergence {
                    fast,
                    reference,
                    detail: String::new(),
                })
            }
            Err(e) => Some(Divergence {
                fast: Vec::new(),
                reference,
                detail: format!("router error on the fast path: {e}"),
            }),
        }
    }

    /// Pair (b): route three times — cache-disabled (reference), first
    /// cached call (fills the cache), second cached call (replays the
    /// cached ids). All three frontiers must be identical, witness trees
    /// included. Also returns the first cached result as the serial
    /// reference for the batch pair.
    fn cached_vs_uncached(&self, net: &Net) -> (RouteResult, Option<Divergence>) {
        let reference = self.uncached.route(net);
        let first = self.cached.route(net);
        let replay = self.cached.route(net);
        let legs = [(&first, "cache-filling"), (&replay, "cache-replay")];
        let divergence = legs.into_iter().find_map(|(result, leg)| {
            result_mismatch(result, &reference).map(|(fast, reference, why)| Divergence {
                fast,
                reference,
                detail: format!("{leg} route: {why}"),
            })
        });
        (first, divergence)
    }

    /// Pair (d): the frontier's cost set is a geometric invariant, so
    /// every D4 image and a translated copy must route to the same costs.
    fn d4_translation(&self, net: &Net) -> Option<Divergence> {
        let reference = match self.uncached.route(net) {
            Ok(outcome) => outcome.frontier.cost_vec(),
            // A base-net error is the cache pair's divergence, not ours.
            Err(_) => return None,
        };
        for (name, image) in congruent_images(net) {
            let fast = match self.uncached.route(&image) {
                Ok(outcome) => outcome.frontier.cost_vec(),
                Err(e) => {
                    return Some(Divergence {
                        fast: Vec::new(),
                        reference,
                        detail: format!("image {name}: router error: {e}"),
                    })
                }
            };
            if fast != reference {
                return Some(Divergence {
                    fast,
                    reference,
                    detail: format!("image {name}"),
                });
            }
        }
        None
    }

    /// Mmap pair, per-net half: the zero-copy table must answer the full
    /// query — candidate lookup, scoring, witness materialization —
    /// identically to the heap image it was saved from. (Structural
    /// equality is checked once at construction; this checks the serving
    /// behavior over the whole corpus.)
    fn mmap_vs_owned(&self, net: &Net) -> Option<Divergence> {
        let owned = self.table.query(net)?;
        match self.mapped.query(net) {
            Some(mapped) => (mapped != owned).then(|| Divergence {
                fast: mapped.cost_vec(),
                reference: owned.cost_vec(),
                detail: "mmap-backed table serves a different frontier".to_string(),
            }),
            None => Some(Divergence {
                fast: Vec::new(),
                reference: owned.cost_vec(),
                detail: "net answerable from the owned table only".to_string(),
            }),
        }
    }

    /// Pair (f): the degradation ladder with its primary rung injected
    /// away. In-table degrees must be served by the numeric-DW rung with
    /// the exact frontier costs the healthy LUT produces; out-of-table
    /// degrees must be served by the baseline rung with trees that are
    /// valid, cost-consistent, and mutually non-dominated.
    fn fallback_parity(&self, net: &Net) -> Option<Divergence> {
        let outcome = match self.fallback.route(net) {
            Ok(outcome) => outcome,
            Err(e) => {
                return Some(Divergence {
                    fast: Vec::new(),
                    reference: Vec::new(),
                    detail: format!("ladder failed with every fallback rung armed: {e}"),
                })
            }
        };
        let trace = outcome.provenance.trace;
        let source = outcome.provenance.source;
        let expected = if net.degree() <= self.dw_cap {
            RouteSource::NumericDw
        } else {
            RouteSource::Baseline
        };
        if source != expected {
            return Some(Divergence {
                fast: outcome.frontier.cost_vec(),
                reference: Vec::new(),
                detail: format!(
                    "expected the {} rung, served by {} (trace: {trace})",
                    expected.label(),
                    source.label()
                ),
            });
        }
        if !trace.degraded() {
            return Some(Divergence {
                fast: outcome.frontier.cost_vec(),
                reference: Vec::new(),
                detail: format!("injected fault left no degradation trace (trace: {trace})"),
            });
        }
        if net.degree() <= self.dw_cap {
            // Cost-only comparison: the DW rung enumerates fresh witness
            // trees that may legitimately differ from the LUT's pool.
            let reference = match self.uncached.route(net) {
                Ok(reference) => reference.frontier.cost_vec(),
                Err(e) => {
                    return Some(Divergence {
                        fast: outcome.frontier.cost_vec(),
                        reference: Vec::new(),
                        detail: format!("healthy-table reference route failed: {e}"),
                    })
                }
            };
            let fast = outcome.frontier.cost_vec();
            return (fast != reference).then(|| Divergence {
                fast,
                reference,
                detail: format!("fallback rung disagrees with the healthy LUT (trace: {trace})"),
            });
        }
        served_invariants(net, &outcome).map(|why| Divergence {
            fast: outcome.frontier.cost_vec(),
            reference: Vec::new(),
            detail: format!("{why} (trace: {trace})"),
        })
    }

    /// Served-vs-direct pair: round-trip the net through the daemon's
    /// framed socket and demand the reply byte-identical to the
    /// locally-serialized result of the same engine's in-process
    /// `route`. Costs, provenance labels, the degradation trace, JSON
    /// framing — all of it; both sides are cache-disabled pure
    /// functions, so any difference is the transport's fault.
    fn served_vs_direct(&self, net: &Net) -> Option<Divergence> {
        let id = self.wire_id.get();
        self.wire_id.set(id + 1);
        let request = RouteRequest {
            id,
            net: net.clone(),
            deadline_ms: None,
        };
        let reply = match self.wire.borrow_mut().route(&request) {
            Ok(reply) => reply,
            Err(e) => {
                return Some(Divergence {
                    fast: Vec::new(),
                    reference: Vec::new(),
                    detail: format!("wire round trip failed: {e}"),
                })
            }
        };
        let direct = self.serve_engine.route(net);
        let expected = result_to_json(id, &direct).render();
        let served = reply.render();
        (served != expected).then(|| Divergence {
            fast: wire_frontier_costs(&reply),
            reference: direct.map(|o| o.frontier.cost_vec()).unwrap_or_default(),
            detail: format!("wire reply != in-process serialization\n    wire:   {served}\n    direct: {expected}"),
        })
    }

    /// ECO pair, per-net half: route the net once, then for every delta
    /// kind `Engine::reroute_with_staleness` must match a fresh,
    /// cache-disabled route of the edited net — frontier, witness trees
    /// and all. The base is a fresh route, so every reroute starts from
    /// a staleness of 0. Class-preserving edits take the winner-id replay
    /// path; class-breaking ones fall through the ordinary ladder; the
    /// oracle cannot tell and demands the same answer either way.
    fn delta_vs_fresh(&self, net: &Net) -> Option<Divergence> {
        let engine = &self.cached;
        // The base route warms the cache a replay reads. A base-net
        // error is the cache pair's divergence, not ours.
        if engine.route(net).is_err() {
            return None;
        }
        for (name, kind) in delta_kinds(net) {
            let delta = NetDelta::new(net.clone(), kind);
            let fast = engine.reroute_with_staleness(&delta, 0, &Session::default());
            let reference = self.uncached.route(&delta.apply());
            if let Some((fast_costs, reference_costs, why)) = result_mismatch(&fast, &reference) {
                let via = fast
                    .as_ref()
                    .map(|o| o.provenance.source.label())
                    .unwrap_or("error");
                return Some(Divergence {
                    fast: fast_costs,
                    reference: reference_costs,
                    detail: format!("delta {name} (reroute via {via}): {why}"),
                });
            }
        }
        None
    }

    /// Replays the corpus through a fault-armed copy of the router (the
    /// batch driver, so panic isolation is under test too) and checks
    /// the ladder's service invariants: the process survives, every `Ok`
    /// slot holds a valid consistent frontier, and every failed slot
    /// holds a structured error. Time is virtual — only injected stage
    /// delays advance the clock, so deadline behavior is deterministic.
    fn resilience_sweep(
        &self,
        nets: &[Net],
        config: &VerifyConfig,
    ) -> Result<ResilienceReport, Box<Counterexample>> {
        let engine = Engine::with_table_and_config(
            self.table.clone(),
            RouterConfig {
                resilience: ResilienceConfig {
                    deadline: config.deadline_ms.map(Duration::from_millis),
                    ..ResilienceConfig::default()
                },
                faults: config.faults.clone(),
                ..RouterConfig::default()
            },
        )
        .with_clock(Arc::new(VirtualClock::new()));
        let results = engine.route_batch(nets, config.threads.max(1));
        let report = ResilienceReport::from_results(&results);
        for (index, (net, result)) in nets.iter().zip(&results).enumerate() {
            // Structured errors are legitimate sweep outcomes (e.g. an
            // all-rungs stage panic nothing can absorb); the batch
            // driver converting them to per-slot `Err` IS the invariant.
            let violation = match result {
                Ok(outcome) => served_invariants(net, outcome),
                Err(_) => None,
            };
            if let Some(why) = violation {
                return Err(Box::new(Counterexample {
                    pair: PathPair::FallbackParity,
                    seed: config.seed,
                    net_index: index,
                    original_degree: net.degree(),
                    net: net.clone(),
                    shrink_steps: 0, // fault sites are keyed to the net, not shrinkable
                    fast: result
                        .as_ref()
                        .map(|o| o.frontier.cost_vec())
                        .unwrap_or_default(),
                    reference: Vec::new(),
                    detail: format!("resilience sweep: {why}"),
                }));
            }
        }
        Ok(report)
    }

    /// Packages the first divergence: re-shrink the net while the pair
    /// still diverges, then re-evaluate on the minimized net so the
    /// reported frontiers describe what the user can replay.
    fn minimized(&self, pair: PathPair, index: usize, net: &Net) -> Counterexample {
        let (minimized, steps) = if self.shrink {
            shrink_net(net, |n| self.divergence(pair, n).is_some(), SHRINK_EVAL_BUDGET)
        } else {
            (net.clone(), 0)
        };
        let divergence = self
            .divergence(pair, &minimized)
            .expect("the shrinker only accepts nets that still diverge");
        Counterexample {
            pair,
            seed: self.seed,
            net_index: index,
            original_degree: net.degree(),
            net: minimized,
            shrink_steps: steps,
            fast: divergence.fast,
            reference: divergence.reference,
            detail: divergence.detail,
        }
    }
}

/// Invariants every served (`Ok`) outcome must satisfy regardless of
/// which rung produced it: a non-empty frontier of trees that validate
/// against the net, advertise exactly their recomputed objectives, and
/// do not dominate each other. `Some(why)` localizes the first breach.
fn served_invariants(net: &Net, outcome: &RouteOutcome) -> Option<String> {
    let costs = outcome.frontier.cost_vec();
    if costs.is_empty() {
        return Some("served an empty frontier".to_string());
    }
    for (cost, tree) in outcome.frontier.iter() {
        if let Err(e) = tree.validate(net) {
            return Some(format!("invalid witness tree at (w={}, d={}): {e}", cost.wirelength, cost.delay));
        }
        let (wirelength, delay) = tree.objectives();
        if (wirelength, delay) != (cost.wirelength, cost.delay) {
            return Some(format!(
                "advertised cost (w={}, d={}) disagrees with the tree's objectives (w={wirelength}, d={delay})",
                cost.wirelength, cost.delay
            ));
        }
    }
    for (i, a) in costs.iter().enumerate() {
        for b in &costs[i + 1..] {
            let a_dominates = a.wirelength <= b.wirelength && a.delay <= b.delay;
            let b_dominates = b.wirelength <= a.wirelength && b.delay <= a.delay;
            if a_dominates || b_dominates {
                return Some(format!(
                    "frontier is not mutually non-dominated: (w={}, d={}) vs (w={}, d={})",
                    a.wirelength, a.delay, b.wirelength, b.delay
                ));
            }
        }
    }
    None
}

/// Extracts the `(w, d)` frontier from a wire reply, for counterexample
/// rendering (byte comparison is the actual oracle).
fn wire_frontier_costs(reply: &patlabor_serve::Json) -> Vec<Cost> {
    reply
        .get("frontier")
        .and_then(|f| f.as_array())
        .map(|points| {
            points
                .iter()
                .filter_map(|p| {
                    Some(Cost::new(
                        p.get("w")?.as_i64()?,
                        p.get("d")?.as_i64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compares two route results; `Some((fast_costs, reference_costs, why))`
/// when they differ. Frontier comparison is full [`PartialEq`] on the
/// Pareto sets — witness trees included — not just costs.
fn result_mismatch(
    fast: &RouteResult,
    reference: &RouteResult,
) -> Option<(Vec<Cost>, Vec<Cost>, &'static str)> {
    match (fast, reference) {
        (Ok(f), Ok(r)) => (f.frontier != r.frontier).then(|| {
            let why = if f.frontier.cost_vec() == r.frontier.cost_vec() {
                "equal costs but different witness trees"
            } else {
                "frontiers differ"
            };
            (f.frontier.cost_vec(), r.frontier.cost_vec(), why)
        }),
        (Err(f), Err(r)) => {
            (f != r).then(|| (Vec::new(), Vec::new(), "route errors differ"))
        }
        (Ok(f), Err(_)) => Some((f.frontier.cost_vec(), Vec::new(), "only the reference errored")),
        (Err(_), Ok(r)) => Some((Vec::new(), r.frontier.cost_vec(), "only the fast path errored")),
    }
}

/// One deterministic edit of every [`DeltaKind`] for `net`: a rigid
/// translate (class-preserving by construction), a last-pin nudge, a
/// sink appended outside the bounding box, a sink removal, and a
/// blockage covering the box's interior — the same vocabulary the wire
/// protocol and the CLI edits file speak.
fn delta_kinds(net: &Net) -> [(&'static str, DeltaKind); 5] {
    let pins = net.pins();
    let last = pins.len() - 1;
    let min_x = pins.iter().map(|p| p.x).min().unwrap_or(0);
    let max_x = pins.iter().map(|p| p.x).max().unwrap_or(0);
    let min_y = pins.iter().map(|p| p.y).min().unwrap_or(0);
    let max_y = pins.iter().map(|p| p.y).max().unwrap_or(0);
    [
        ("translate", DeltaKind::Translate { dx: 7, dy: -3 }),
        (
            "move-pin",
            DeltaKind::MovePin {
                index: last,
                to: Point::new(pins[last].x + 3, pins[last].y + 2),
            },
        ),
        (
            "add-sink",
            DeltaKind::AddSink {
                at: Point::new(max_x + 5, min_y - 4),
            },
        ),
        ("remove-sink", DeltaKind::RemoveSink { index: last.saturating_sub(1) }),
        (
            "blockage-mask",
            DeltaKind::BlockageMask {
                min: Point::new(min_x + 1, min_y + 1),
                max: Point::new(max_x - 1, max_y - 1),
            },
        ),
    ]
}

/// The eight D4 images of `net` plus one translated copy, labelled for
/// counterexample details. Reflections negate coordinates rather than
/// mirroring inside the bounding box — the router is translation
/// invariant, so any representative of the congruence class serves.
fn congruent_images(net: &Net) -> Vec<(String, Net)> {
    let mut images = Vec::with_capacity(9);
    for swap in [false, true] {
        for flip_x in [false, true] {
            for flip_y in [false, true] {
                let image = net.map_points(|p| {
                    let (mut x, mut y) = (p.x, p.y);
                    if swap {
                        std::mem::swap(&mut x, &mut y);
                    }
                    if flip_x {
                        x = -x;
                    }
                    if flip_y {
                        y = -y;
                    }
                    Point::new(x, y)
                });
                images.push((format!("d4(swap={swap}, flip_x={flip_x}, flip_y={flip_y})"), image));
            }
        }
    }
    images.push((
        "translate(+37, -13)".to_string(),
        net.map_points(|p| Point::new(p.x + 37, p.y - 13)),
    ));
    images
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-but-complete config: λ = 4 tables build instantly, degree 5
    /// still exercises the local-search path through the cache and batch
    /// pairs, and every pair gets double-digit coverage.
    fn small_config() -> VerifyConfig {
        VerifyConfig {
            seed: 0xded1_cace,
            nets: 24,
            max_degree: 5,
            lambda: 4,
            threads: 2,
            span: 20,
            shrink: true,
            faults: FaultPlane::default(),
            deadline_ms: None,
        }
    }

    #[test]
    fn corpus_is_deterministic_and_covers_all_degrees() {
        let config = small_config();
        let a = corpus(&config);
        let b = corpus(&config);
        assert_eq!(a, b, "same config must yield the identical corpus");
        assert_eq!(a.len(), config.nets);
        for degree in MIN_DEGREE..=config.max_degree {
            assert!(
                a.iter().any(|n| n.degree() == degree),
                "corpus is missing degree {degree}"
            );
        }
        let other = corpus(&VerifyConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a, other, "a different seed must change the corpus");
    }

    #[test]
    fn healthy_tables_verify_clean_on_every_pair() {
        let config = small_config();
        let report = verify(&config);
        assert!(
            report.is_clean(),
            "healthy tables must verify clean, got:\n{}",
            report.summary()
        );
        assert_eq!(report.corpus_size, config.nets);
        for check in &report.checks {
            assert!(
                check.nets_checked > 0,
                "pair {} was never exercised",
                check.pair
            );
        }
    }

    #[test]
    fn mutation_smoke_catches_a_planted_corruption() {
        let config = small_config();
        let smoke = mutation_smoke(&config);
        let caught = smoke
            .caught
            .unwrap_or_else(|| panic!("harness missed the planted corruption ({})", smoke.mutation));
        assert_eq!(caught.seed, config.seed);
        // The corruption lives in the shared table, so whichever pair
        // trips first must be one that consults it.
        assert!(
            caught.pair != PathPair::BatchVsSerial,
            "a table corruption cannot manifest as a batch/serial split"
        );
        let (only_fast, only_reference) = caught.cost_symmetric_difference();
        assert!(
            !only_fast.is_empty() || !only_reference.is_empty() || !caught.detail.is_empty(),
            "counterexample must localize the disagreement"
        );
        let text = caught.to_string();
        assert!(text.contains("divergence on pair"));
        assert!(text.contains("patlabor verify --seed"));
    }

    #[test]
    fn counterexamples_shrink_when_enabled() {
        let config = small_config();
        let table = LutBuilder::new(config.lambda).build();
        // Corrupt a row a corpus net is known to score (reuse the smoke
        // victim selection), then compare shrunk vs unshrunk reports.
        let smoke = mutation_smoke_with_table(table, &config);
        let shrunk = smoke.caught.expect("smoke must catch");
        assert!(
            shrunk.net.degree() <= shrunk.original_degree,
            "shrinking must never grow the net"
        );
        assert!(
            shrunk.net.degree() >= 2,
            "a net cannot shrink below two pins"
        );
    }

    #[test]
    fn verify_with_corrupted_table_reports_nonclean() {
        let config = small_config();
        let mut table = LutBuilder::new(config.lambda).build();
        // Wipe a whole degree: every degree-4 net now fails to route,
        // which the cache pair reports as a route error mismatch only if
        // fast/slow disagree — both error identically, so the harness
        // flags it via the DW pair (router errors, oracle doesn't).
        table.remove_degree(4);
        let report = verify_with_table(table, &config);
        let cx = report.counterexample.expect("a gutted table must fail verification");
        assert_eq!(cx.pair, PathPair::LutVsNumericDw);
        assert!(cx.detail.contains("router error"));
    }

    #[test]
    fn fault_free_runs_skip_the_resilience_sweep() {
        let report = verify(&small_config());
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.resilience.is_none());
    }

    #[test]
    fn resilience_sweep_isolates_panics_and_stays_clean() {
        let config = VerifyConfig {
            faults: FaultPlane::seeded(0x5eed).with_fault(Fault {
                kind: FaultKind::StagePanic,
                scope: FaultScope::AllRungs,
                probability: 0.25,
            }),
            ..small_config()
        };
        let report = verify(&config);
        assert!(report.is_clean(), "{}", report.summary());
        let sweep = report.resilience.expect("registered faults must trigger the sweep");
        assert_eq!(sweep.nets as usize, config.nets);
        assert_eq!(sweep.served + sweep.errors, sweep.nets);
        assert!(
            sweep.panicked >= 1,
            "an all-rungs panic at p=0.25 should hit at least one of {} nets",
            config.nets
        );
        assert_eq!(sweep.errors, sweep.panicked, "panics are the only armed fault");
        assert!(report.summary().contains("fault sweep:"));
    }

    #[test]
    fn deadline_sweep_demotes_every_net_to_the_baseline() {
        let config = VerifyConfig {
            faults: FaultPlane::seeded(1).with_fault(Fault {
                kind: FaultKind::StageDelay,
                scope: FaultScope::Primary,
                probability: 1.0,
            }),
            deadline_ms: Some(1), // default injected delay is 5ms
            ..small_config()
        };
        let report = verify(&config);
        assert!(report.is_clean(), "{}", report.summary());
        let sweep = report.resilience.expect("a deadline must trigger the sweep");
        assert_eq!(sweep.errors, 0, "the baseline rung is never deadline-gated");
        assert!(sweep.deadline_hits >= sweep.nets, "every net should hit the deadline");
        assert_eq!(
            sweep.served_by[patlabor::Rung::Baseline.index()] + sweep.served_by[patlabor::Rung::ClosedForm.index()],
            sweep.nets,
            "every net should be served closed-form or by the baseline"
        );
    }

    #[test]
    fn congruent_images_are_nine_labelled_variants() {
        let net = Net::new(vec![Point::new(0, 0), Point::new(3, 1), Point::new(1, 4)])
            .expect("valid net");
        let images = congruent_images(&net);
        assert_eq!(images.len(), 9);
        // The identity image is among the eight D4 elements.
        assert!(images.iter().any(|(_, img)| *img == net));
        // All images preserve degree.
        assert!(images.iter().all(|(_, img)| img.degree() == net.degree()));
    }
}
