//! The engine's route, recomposed from the public calls of each layer so
//! that every layer boundary can carry a span.
//!
//! [`Recomposer::route`] follows `Engine::route` rung by rung for a
//! healthy engine (no faults, no deadline): classify, cache probe, LUT
//! lookup, score, materialize, validate, cache insert for tabulated
//! degrees, and the local search for larger ones. [`Recomposer::reroute`]
//! follows `Engine::reroute_with_staleness`. It owns a frontier cache
//! built from the engine's `CacheConfig`, so fed the same nets in the
//! same order it makes the same hit, miss and bypass decisions as a
//! fresh engine; the traced run asserts that both the frontier and the
//! serving source agree with the engine's for every net.

use patlabor::cache::{CacheKey, FrontierCache};
use patlabor::local_search::{reroute_candidates, LocalSearchConfig};
use patlabor::policy::Policy;
use patlabor::{Cost, DeltaKind, Engine, Net, NetDelta, ParetoSet, RouteSource, RoutingTree};
use patlabor_baselines::rsma::cl_arborescence;
use patlabor_baselines::rsmt::rsmt_tree;
use patlabor_lut::LookupTable;
use patlabor_tree::{reconnect_pass, RefineObjective};

use crate::trace::Recorder;

pub struct Recomposer<'a> {
    table: &'a LookupTable,
    policy: &'a Policy,
    local_search: LocalSearchConfig,
    staleness_cap: u32,
    validate: bool,
    cache: Option<FrontierCache>,
}

/// A recomposed answer: the frontier and the rung that served it.
pub type Answer = (ParetoSet<RoutingTree>, RouteSource);

impl<'a> Recomposer<'a> {
    /// A recomposer over `engine`'s table and configuration, with a cold
    /// cache of its own.
    pub fn new(engine: &'a Engine, table: &'a LookupTable) -> Self {
        let config = engine.config();
        Recomposer {
            table,
            policy: engine.policy(),
            local_search: config.local_search,
            staleness_cap: config.eco.staleness_cap,
            validate: config.resilience.validate_frontiers,
            cache: config
                .cache
                .enabled
                .then(|| FrontierCache::new(&config.cache)),
        }
    }

    pub fn route(&self, rec: &mut Recorder, id: u64, net: &Net) -> Answer {
        rec.span("route", id, |rec| self.route_inner(rec, id, net))
    }

    fn route_inner(&self, rec: &mut Recorder, id: u64, net: &Net) -> Answer {
        let degree = net.degree();
        if degree == 2 {
            let tree = RoutingTree::direct(net);
            let (w, d) = tree.objectives();
            let mut frontier = ParetoSet::new();
            frontier.insert(Cost::new(w, d), tree);
            return (frontier, RouteSource::ClosedForm);
        }
        if degree > self.table.lambda() as usize {
            return (self.local_search(rec, id, net), RouteSource::LocalSearch);
        }
        let table = self.table;
        let class = rec
            .span("lut.classify", id, |_| table.classify(net))
            .expect("tabulated degrees classify");
        if let Some(cache) = self.cache.as_ref().filter(|c| !c.skip_probe()) {
            if let Some(ids) = rec.span("cache.probe", id, |_| {
                cache.get(&CacheKey::from_class(&class))
            }) {
                let frontier = rec.span("lut.materialize", id, |_| {
                    table.query_ids(net, &class, &ids)
                });
                self.validated(rec, id, &frontier);
                return (frontier, RouteSource::CacheHit);
            }
        }
        let ids = rec
            .span("lut.lookup", id, |_| table.candidate_ids(&class))
            .expect("a built table holds every pattern");
        let survivors = rec.span("lut.score", id, |_| table.score_candidates(&class, ids));
        let (frontier, winners) = rec.span("lut.materialize", id, |_| {
            let mut winners = Vec::with_capacity(survivors.len());
            let entries: Vec<(Cost, RoutingTree)> = survivors
                .into_iter()
                .map(|(cost, id)| {
                    winners.push(id);
                    (cost, table.materialize(net, &class, id))
                })
                .collect();
            (ParetoSet::from_unpruned(entries), winners)
        });
        self.validated(rec, id, &frontier);
        if let Some(cache) = self.cache.as_ref().filter(|c| !c.bypassed()) {
            rec.span("cache.insert", id, |_| {
                cache.insert(CacheKey::from_class(&class), winners.into())
            });
        }
        (frontier, RouteSource::ExactLut)
    }

    /// The engine's frontier validation: every stored cost equals its
    /// witness's objectives. A healthy table always passes.
    fn validated(&self, rec: &mut Recorder, id: u64, frontier: &ParetoSet<RoutingTree>) {
        if self.validate {
            let ok = rec.span("engine.validate", id, |_| {
                frontier
                    .iter()
                    .all(|(c, t)| (c.wirelength, c.delay) == t.objectives())
            });
            assert!(ok, "a healthy table serves consistent frontiers");
        }
    }

    /// `local_search_cancellable` with a never-firing cancel hook.
    fn local_search(&self, rec: &mut Recorder, id: u64, net: &Net) -> ParetoSet<RoutingTree> {
        rec.span("local_search", id, |rec| {
            let config = &self.local_search;
            let lambda = self.table.lambda() as usize;
            let mut frontier = ParetoSet::new();
            let mut seeds = vec![rec.span("local_search.seed", id, |_| rsmt_tree(net))];
            if config.seed_arborescence {
                seeds.push(rec.span("local_search.seed", id, |_| cl_arborescence(net)));
            }
            for seed in seeds {
                self.admit(rec, id, &mut frontier, seed);
            }
            let rounds = config
                .rounds
                .unwrap_or_else(|| (net.degree() / lambda).max(1));
            for _ in 0..rounds {
                let Some((_, worst)) = frontier.min_wirelength() else {
                    break;
                };
                let worst = worst.clone();
                let selection = rec.span("local_search.select", id, |_| {
                    self.policy.select_pins(net, &worst, lambda - 1)
                });
                let candidates = rec.span("local_search.reroute", id, |_| {
                    reroute_candidates(net, &worst, &selection, self.table)
                });
                for candidate in candidates {
                    self.admit(rec, id, &mut frontier, candidate);
                }
            }
            frontier
        })
    }

    /// Refines a candidate (when configured) and prunes it and its
    /// variants into the frontier, variants first, as the engine does.
    fn admit(
        &self,
        rec: &mut Recorder,
        id: u64,
        frontier: &mut ParetoSet<RoutingTree>,
        tree: RoutingTree,
    ) {
        let variants = if self.local_search.refine {
            rec.span("local_search.refine", id, |_| refine_variants(&tree))
        } else {
            Vec::new()
        };
        rec.span("local_search.prune", id, |_| {
            for t in variants.into_iter().chain([tree]) {
                let (w, d) = t.objectives();
                frontier.insert(Cost::new(w, d), t);
            }
        });
    }

    pub fn reroute(
        &self,
        rec: &mut Recorder,
        id: u64,
        delta: &NetDelta,
        prior_edits: u32,
    ) -> Answer {
        rec.span("reroute", id, |rec| {
            let mutated = rec.span("eco.apply", id, |_| delta.apply());
            let staleness = prior_edits.saturating_add(1);
            if staleness <= self.staleness_cap {
                if let Some(frontier) = self.replay(rec, id, delta, &mutated) {
                    return (frontier, RouteSource::Reused { staleness });
                }
            }
            rec.span("eco.fallthrough", id, |rec| {
                self.route_inner(rec, id, &mutated)
            })
        })
    }

    /// The engine's replay fast path: `Some` only for a class-preserving
    /// edit whose winners are cached.
    fn replay(
        &self,
        rec: &mut Recorder,
        id: u64,
        delta: &NetDelta,
        mutated: &Net,
    ) -> Option<ParetoSet<RoutingTree>> {
        let table = self.table;
        let degree = mutated.degree();
        if degree != delta.base.degree() || degree < 3 || degree > table.lambda() as usize {
            return None;
        }
        let cache = self.cache.as_ref().filter(|c| !c.skip_probe())?;
        let class = rec.span("lut.classify", id, |_| table.classify(mutated))?;
        let key = CacheKey::from_class(&class);
        if !matches!(delta.kind, DeltaKind::Translate { .. }) {
            let base_class = rec.span("lut.classify", id, |_| table.classify(&delta.base))?;
            if key != CacheKey::from_class(&base_class) {
                return None;
            }
        }
        let ids = rec.span("cache.probe", id, |_| cache.get(&key))?;
        let frontier = rec.span("lut.materialize", id, |_| {
            table.query_ids(mutated, &class, &ids)
        });
        self.validated(rec, id, &frontier);
        Some(frontier)
    }
}

/// The local search's refinement: delay-first and wirelength-first
/// two-pass chains, keeping the intermediate trees.
fn refine_variants(tree: &RoutingTree) -> Vec<RoutingTree> {
    let mut out = Vec::with_capacity(4);
    for (first, second) in [
        (RefineObjective::Delay, RefineObjective::Wirelength),
        (RefineObjective::Wirelength, RefineObjective::Delay),
    ] {
        let a = reconnect_pass(tree, first);
        let b = reconnect_pass(&a, second);
        out.push(a);
        out.push(b);
    }
    out
}
