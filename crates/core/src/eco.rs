//! Incremental (ECO) rerouting: net deltas and replay reuse.
//!
//! Production routing traffic is not i.i.d. fresh nets — it is small
//! edits to placed designs: a pin nudged by legalization, a sink added
//! by buffering, a blockage dropped over a macro. A delta API lets a
//! client reroute only the nets an edit touched:
//! [`crate::Engine::reroute_with_staleness`] applies the edit and routes
//! the edited net, and [`crate::Engine::route_batch_deltas`] does so for
//! a batch of edits.
//!
//! Replay is opt-in. Both objectives are invariant under translation and
//! the D4 symmetries, so an edit that preserves the net's `(canonical
//! pattern key, canonical gap vector)` class leaves the *winning
//! topology ids* of the previous route exactly correct for the new
//! geometry. On an engine that opted into the frontier cache
//! ([`crate::Engine::with_cache`]), a reroute classifies the mutated net
//! and, when the class is unchanged and the winners are resident,
//! replays them against the new pins without touching the LUT's
//! candidate pool — provenance [`crate::RouteSource::Reused`],
//! `candidates_scored == 0`. That saves only the scoring step, so
//! default engines route every edit.
//!
//! This module owns the delta vocabulary ([`NetDelta`], [`DeltaKind`]),
//! the batch-driver job type ([`DeltaJob`]) and the replay staleness
//! policy ([`EcoConfig`]); the replay fast path itself lives on the
//! engine (DESIGN.md §16).
//!
//! # Totality
//!
//! [`NetDelta::apply`] is infallible by construction: out-of-range
//! indices clamp into range, a `RemoveSink` that would leave fewer
//! than two pins is a no-op, and a translate saturates at the `i64`
//! limits instead of wrapping. Callers (the wire layer, the CLI's edits
//! file, proptest generators) can therefore produce deltas freely
//! without a validation handshake — every delta denotes *some* edit.
//! An edit that leaves a pin outside [`patlabor_geom::Point::MAX_COORD`]
//! is rejected by the reroute ([`crate::RouteError::CoordinateOutOfRange`]);
//! saturation guarantees it never wraps back into range.

use patlabor_geom::{Net, Point};

use crate::engine::Session;

/// One edit applied to a placed net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Move pin `index` (0 = the source) to an absolute position. An
    /// out-of-range index clamps to the last pin.
    MovePin {
        /// Pin index into [`Net::pins`] (0 is the source).
        index: usize,
        /// The pin's new position.
        to: Point,
    },
    /// Append a new sink.
    AddSink {
        /// Position of the new sink.
        at: Point,
    },
    /// Remove sink `index` (0 = the first sink; the source cannot be
    /// removed). An out-of-range index clamps to the last sink; removing
    /// the only sink of a degree-2 net is a no-op.
    RemoveSink {
        /// Sink index (pin `index + 1`).
        index: usize,
    },
    /// Translate the whole net rigidly. Always class-preserving: the
    /// canonical pattern key and gap vector are translation-invariant.
    /// Coordinates saturate at the `i64` limits.
    Translate {
        /// Horizontal offset.
        dx: i64,
        /// Vertical offset.
        dy: i64,
    },
    /// Push every pin strictly inside the rectangle `[min, max]` out to
    /// its nearest boundary point (ties broken left, right, bottom, top
    /// — deterministic). Models a blockage dropped over placed pins. A
    /// degenerate rectangle (`min` not component-wise ≤ `max`) is
    /// normalized first.
    BlockageMask {
        /// One corner of the blockage rectangle.
        min: Point,
        /// The opposite corner.
        max: Point,
    },
}

impl DeltaKind {
    /// Stable machine-readable label (the wire protocol, the CLI edits
    /// file and the verify harness all speak these).
    pub fn label(&self) -> &'static str {
        match self {
            DeltaKind::MovePin { .. } => "move-pin",
            DeltaKind::AddSink { .. } => "add-sink",
            DeltaKind::RemoveSink { .. } => "remove-sink",
            DeltaKind::Translate { .. } => "translate",
            DeltaKind::BlockageMask { .. } => "blockage-mask",
        }
    }
}

/// An edit against a concrete base net: the unit of the ECO API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetDelta {
    /// The net as it was when last routed.
    pub base: Net,
    /// The edit to apply.
    pub kind: DeltaKind,
}

impl NetDelta {
    /// Pairs a base net with an edit.
    pub fn new(base: Net, kind: DeltaKind) -> Self {
        NetDelta { base, kind }
    }

    /// The edited net. Total: see the module docs on clamping and no-op
    /// semantics — the result is always a valid net (≥ 2 pins).
    pub fn apply(&self) -> Net {
        let mut pins: Vec<Point> = self.base.pins().to_vec();
        match self.kind {
            DeltaKind::MovePin { index, to } => {
                let i = index.min(pins.len() - 1);
                pins[i] = to;
            }
            DeltaKind::AddSink { at } => pins.push(at),
            DeltaKind::RemoveSink { index } => {
                if pins.len() > 2 {
                    let i = 1 + index.min(pins.len() - 2);
                    pins.remove(i);
                }
            }
            DeltaKind::Translate { dx, dy } => {
                for p in pins.iter_mut() {
                    *p = Point::new(p.x.saturating_add(dx), p.y.saturating_add(dy));
                }
            }
            DeltaKind::BlockageMask { min, max } => {
                let (x0, x1) = (min.x.min(max.x), min.x.max(max.x));
                let (y0, y1) = (min.y.min(max.y), min.y.max(max.y));
                for p in pins.iter_mut() {
                    if p.x > x0 && p.x < x1 && p.y > y0 && p.y < y1 {
                        *p = project_to_boundary(*p, x0, x1, y0, y1);
                    }
                }
            }
        }
        Net::new(pins).expect("delta application preserves the two-pin minimum")
    }
}

/// Nearest boundary point of the rectangle for a strictly interior `p`,
/// ties broken in the fixed order left, right, bottom, top. Distances
/// saturate at `i64::MAX`, so a rectangle spanning the whole `i64` range
/// cannot overflow them.
fn project_to_boundary(p: Point, x0: i64, x1: i64, y0: i64, y1: i64) -> Point {
    let dl = p.x.saturating_sub(x0);
    let dr = x1.saturating_sub(p.x);
    let db = p.y.saturating_sub(y0);
    let dt = y1.saturating_sub(p.y);
    let m = dl.min(dr).min(db).min(dt);
    if m == dl {
        Point::new(x0, p.y)
    } else if m == dr {
        Point::new(x1, p.y)
    } else if m == db {
        Point::new(p.x, y0)
    } else {
        Point::new(p.x, y1)
    }
}

/// Staleness policy for replay reuse, part of [`crate::RouterConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcoConfig {
    /// Most consecutive edits a net may be served from replay before a
    /// fresh route is forced. Replay is exact (the winner set is a pure
    /// function of the unchanged congruence class), so this is a policy
    /// bound on provenance-chain length, not a correctness knob: a fresh
    /// route re-anchors the lineage and resets the edit counter.
    pub staleness_cap: u32,
}

impl Default for EcoConfig {
    fn default() -> Self {
        EcoConfig { staleness_cap: 32 }
    }
}

/// One slot of a delta batch ([`crate::Engine::route_batch_deltas`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaJob {
    /// The edit to apply and route.
    pub delta: NetDelta,
    /// Edits already served from replay for this net's lineage (what a
    /// prior outcome's `Reused { staleness }` reported; 0 after a fresh
    /// route).
    pub prior_edits: u32,
    /// The per-request session (deadline, identity).
    pub session: Session,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Net {
        Net::new(vec![
            Point::new(0, 0),
            Point::new(10, 2),
            Point::new(4, 8),
            Point::new(7, 5),
        ])
        .expect("valid net")
    }

    #[test]
    fn move_pin_clamps_out_of_range_indices() {
        let d = NetDelta::new(base(), DeltaKind::MovePin { index: 99, to: Point::new(1, 1) });
        let edited = d.apply();
        assert_eq!(edited.pins()[3], Point::new(1, 1));
        assert_eq!(edited.degree(), 4);
        let d = NetDelta::new(base(), DeltaKind::MovePin { index: 0, to: Point::new(2, 2) });
        assert_eq!(d.apply().source(), Point::new(2, 2));
    }

    #[test]
    fn add_and_remove_sinks_change_degree() {
        let d = NetDelta::new(base(), DeltaKind::AddSink { at: Point::new(3, 3) });
        assert_eq!(d.apply().degree(), 5);
        let d = NetDelta::new(base(), DeltaKind::RemoveSink { index: 1 });
        let edited = d.apply();
        assert_eq!(edited.degree(), 3);
        assert_eq!(edited.pins(), &[Point::new(0, 0), Point::new(10, 2), Point::new(7, 5)]);
    }

    #[test]
    fn remove_sink_never_breaks_the_two_pin_minimum() {
        let tiny = Net::new(vec![Point::new(0, 0), Point::new(5, 5)]).expect("valid");
        let d = NetDelta::new(tiny.clone(), DeltaKind::RemoveSink { index: 0 });
        assert_eq!(d.apply(), tiny, "degree-2 removal is a no-op");
    }

    #[test]
    fn translate_shifts_every_pin() {
        let d = NetDelta::new(base(), DeltaKind::Translate { dx: 5, dy: -3 });
        let edited = d.apply();
        assert_eq!(edited.source(), Point::new(5, -3));
        assert_eq!(edited.pins()[1], Point::new(15, -1));
        assert_eq!(edited.degree(), 4);
    }

    #[test]
    fn blockage_projects_interior_pins_to_the_nearest_edge() {
        // Rect [2,8]×[2,8]; only (4,8) is on the boundary... (7,5) and
        // (4,8): (7,5) is interior (nearest edge: right, distance 1);
        // (4,8) sits on the top edge and must not move.
        let d = NetDelta::new(
            base(),
            DeltaKind::BlockageMask { min: Point::new(2, 2), max: Point::new(8, 8) },
        );
        let edited = d.apply();
        assert_eq!(edited.pins()[0], Point::new(0, 0), "outside pins untouched");
        assert_eq!(edited.pins()[2], Point::new(4, 8), "boundary pins untouched");
        assert_eq!(edited.pins()[3], Point::new(8, 5), "interior pin pushed right");
        // Swapped corners normalize to the same rectangle.
        let swapped = NetDelta::new(
            base(),
            DeltaKind::BlockageMask { min: Point::new(8, 8), max: Point::new(2, 2) },
        );
        assert_eq!(swapped.apply(), edited);
    }

    #[test]
    fn blockage_tie_break_is_deterministic() {
        // Dead center of [0,10]×[0,10]: all four edges at distance 5;
        // the fixed order picks "left".
        let centered = Net::new(vec![Point::new(5, 5), Point::new(20, 20)]).expect("valid");
        let d = NetDelta::new(
            centered,
            DeltaKind::BlockageMask { min: Point::new(0, 0), max: Point::new(10, 10) },
        );
        assert_eq!(d.apply().source(), Point::new(0, 5));
    }

    /// Edits at the `i64` limits neither panic nor wrap: a translate
    /// saturates, and a blockage spanning the whole range still projects
    /// onto one of its own edges.
    #[test]
    fn extreme_edits_saturate_instead_of_wrapping() {
        let d = NetDelta::new(
            base(),
            DeltaKind::Translate {
                dx: i64::MAX,
                dy: i64::MIN,
            },
        );
        let edited = d.apply();
        assert_eq!(edited.source(), Point::new(i64::MAX, i64::MIN));
        assert_eq!(edited.pins()[1], Point::new(i64::MAX, i64::MIN + 2));
        let d = NetDelta::new(
            base(),
            DeltaKind::BlockageMask {
                min: Point::new(i64::MIN, i64::MIN),
                max: Point::new(i64::MAX, i64::MAX),
            },
        );
        for p in d.apply().pins() {
            assert!(
                [i64::MIN, i64::MAX].contains(&p.x) || [i64::MIN, i64::MAX].contains(&p.y),
                "{p} is not on the blockage boundary"
            );
        }
    }

    use crate::cache::{CacheConfig, CacheKey};
    use crate::engine::{Engine, Session};
    use crate::pipeline::{RouteOutcome, RouteSource};
    use crate::{LutBuilder, RouterConfig};

    fn engine4() -> Engine {
        Engine::with_table(LutBuilder::new(4).threads(2).build())
    }

    /// The next link of a replay chain: reroutes `delta` continuing the
    /// staleness of `prev`, its `Reused` edit count or 0 after a fresh
    /// route.
    fn reroute_from(engine: &Engine, prev: &RouteOutcome, delta: &NetDelta) -> RouteOutcome {
        let prior_edits = match prev.provenance.source {
            RouteSource::Reused { staleness } => staleness,
            _ => 0,
        };
        engine
            .reroute_with_staleness(delta, prior_edits, &Session::default())
            .expect("reroute")
    }

    /// xorshift64 — the same deterministic generator the router tests use.
    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn random_kind(seed: &mut u64, degree: usize) -> DeltaKind {
        let p = |seed: &mut u64| {
            Point::new((rng(seed) % 64) as i64, (rng(seed) % 64) as i64)
        };
        match rng(seed) % 5 {
            0 => DeltaKind::MovePin { index: (rng(seed) as usize) % degree, to: p(seed) },
            1 => DeltaKind::AddSink { at: p(seed) },
            2 => DeltaKind::RemoveSink { index: (rng(seed) as usize) % degree },
            3 => DeltaKind::Translate {
                dx: (rng(seed) % 100) as i64 - 50,
                dy: (rng(seed) % 100) as i64 - 50,
            },
            _ => {
                let a = p(seed);
                let b = p(seed);
                DeltaKind::BlockageMask { min: a, max: b }
            }
        }
    }

    /// Whether an edit preserved the congruence class, computed
    /// independently of the reroute path: both nets must classify and
    /// canonicalize to the same cache key.
    fn class_preserved(engine: &Engine, base: &Net, mutated: &Net) -> bool {
        if base.degree() != mutated.degree() {
            return false;
        }
        match (engine.table().classify(base), engine.table().classify(mutated)) {
            (Some(a), Some(b)) => CacheKey::from_class(&a) == CacheKey::from_class(&b),
            _ => false,
        }
    }

    /// Satellite property test: across every [`DeltaKind`], an edit that
    /// preserves the congruence class is served from replay (provenance
    /// `Reused`, zero LUT candidates scored) and an edit that breaks it
    /// is never labeled `Reused` — while the frontier always equals
    /// routing the mutated net from scratch.
    #[test]
    fn every_delta_kind_replays_iff_the_class_is_preserved() {
        let engine = engine4().with_cache(CacheConfig::default());
        let scratch = engine4(); // independent tables, no cache
        let nets: Vec<Net> = patlabor_netgen::iccad_like_suite(0xec0, 60, 4)
            .into_iter()
            .filter(|n| (3..=4).contains(&n.degree()))
            .collect();
        assert!(nets.len() >= 20, "suite must supply tabulated nets");
        let mut seed = 0x05ee_dec0_u64;
        let mut replayed = 0usize;
        let mut broken = 0usize;
        let mut seen_kinds = std::collections::HashSet::new();
        for (i, net) in nets.iter().enumerate() {
            // Warm the winners for this net's class.
            engine.route(net).expect("base route");
            let kind = random_kind(&mut seed, net.degree());
            seen_kinds.insert(kind.label());
            let delta = NetDelta::new(net.clone(), kind);
            let mutated = delta.apply();
            let preserved = class_preserved(&engine, net, &mutated);
            let out = engine
                .reroute_with_staleness(&delta, 0, &Session::new(i as u64))
                .expect("reroute");
            let fresh = scratch.route(&mutated).expect("scratch route");
            assert_eq!(
                out.frontier.cost_vec(),
                fresh.frontier.cost_vec(),
                "net {i} ({}): reroute must equal a scratch route",
                kind.label()
            );
            if preserved {
                assert_eq!(
                    out.provenance.source,
                    RouteSource::Reused { staleness: 1 },
                    "net {i} ({}): class-preserving edits replay",
                    kind.label()
                );
                assert_eq!(
                    out.provenance.counters.candidates_scored, 0,
                    "replay must not score LUT candidates"
                );
                replayed += 1;
            } else {
                assert!(
                    !matches!(out.provenance.source, RouteSource::Reused { .. }),
                    "net {i} ({}): class-breaking edits must not claim reuse",
                    kind.label()
                );
                broken += 1;
            }
        }
        assert_eq!(seen_kinds.len(), 5, "all delta kinds must be exercised");
        assert!(replayed > 0, "some edits must preserve the class (translate always does)");
        assert!(broken > 0, "some edits must break the class");
    }

    /// Satellite: edit N+1 past the staleness cap forces a fresh route
    /// (provenance no longer `Reused`), which resets the counter — the
    /// next edit replays at staleness 1 again.
    #[test]
    fn staleness_cap_forces_a_fresh_route_and_resets_the_counter() {
        let cap = 3u32;
        let engine = Engine::with_table_and_config(
            LutBuilder::new(4).threads(2).build(),
            RouterConfig {
                cache: CacheConfig::default(),
                eco: EcoConfig { staleness_cap: cap },
                ..RouterConfig::default()
            },
        );
        let mut current = Net::new(vec![
            Point::new(0, 0),
            Point::new(9, 2),
            Point::new(3, 7),
            Point::new(6, 5),
        ])
        .expect("valid net");
        let mut prev = engine.route(&current).expect("base route");
        assert_eq!(prev.provenance.source, RouteSource::ExactLut);
        // Edits 1..=cap are served from replay with a growing counter.
        for edit in 1..=cap {
            let delta = NetDelta::new(current.clone(), DeltaKind::Translate { dx: 2, dy: 1 });
            current = delta.apply();
            prev = reroute_from(&engine, &prev, &delta);
            assert_eq!(prev.provenance.source, RouteSource::Reused { staleness: edit });
        }
        // Edit cap+1 busts the cap: a fresh ladder route answers (for a
        // translate, the warm cache serves it — but NOT as `Reused`).
        let delta = NetDelta::new(current.clone(), DeltaKind::Translate { dx: 2, dy: 1 });
        current = delta.apply();
        prev = reroute_from(&engine, &prev, &delta);
        assert_eq!(
            prev.provenance.source,
            RouteSource::CacheHit,
            "edit cap+1 must route through the ladder, not replay"
        );
        // The fresh route re-anchored the lineage: the counter restarts.
        let delta = NetDelta::new(current.clone(), DeltaKind::Translate { dx: 2, dy: 1 });
        prev = reroute_from(&engine, &prev, &delta);
        assert_eq!(prev.provenance.source, RouteSource::Reused { staleness: 1 });
    }

    /// Batch deltas: input order, replay where possible, bit-identical
    /// to serial reroutes at 1 and N threads.
    #[test]
    fn route_batch_deltas_matches_serial_at_every_thread_count() {
        let engine = engine4();
        let nets: Vec<Net> = patlabor_netgen::iccad_like_suite(0xba7c, 24, 4)
            .into_iter()
            .filter(|n| (3..=4).contains(&n.degree()))
            .collect();
        for net in &nets {
            engine.route(net).expect("warm route");
        }
        let mut seed = 0xfeed_u64;
        let jobs: Vec<DeltaJob> = nets
            .iter()
            .enumerate()
            .map(|(i, net)| DeltaJob {
                delta: NetDelta::new(net.clone(), random_kind(&mut seed, net.degree())),
                prior_edits: 0,
                session: Session::new(i as u64),
            })
            .collect();
        let serial: Vec<_> = jobs
            .iter()
            .map(|j| {
                engine
                    .reroute_with_staleness(&j.delta, j.prior_edits, &j.session)
                    .expect("serial reroute")
                    .frontier
            })
            .collect();
        for threads in [1usize, 4] {
            let (results, stats) = engine.route_batch_deltas(&jobs, threads);
            assert_eq!(results.len(), jobs.len());
            for (i, result) in results.into_iter().enumerate() {
                assert_eq!(
                    result.expect("batch reroute").frontier,
                    serial[i],
                    "threads = {threads}, job {i}"
                );
            }
            assert_eq!(
                stats.per_worker.iter().map(|w| w.nets).sum::<u64>() as usize,
                jobs.len()
            );
        }
    }

    /// An edit that pushes a pin past the coordinate bound is rejected
    /// with the structured error — serially and in a batch, at every
    /// thread count — before replay runs, not served, and not a panic
    /// caught as `Panicked`.
    #[test]
    fn out_of_range_edits_are_rejected_before_replay() {
        let engine = engine4();
        let net = base();
        let delta = NetDelta::new(
            net.clone(),
            DeltaKind::Translate {
                dx: i64::MAX,
                dy: 0,
            },
        );
        let rejected = Err(crate::RouteError::CoordinateOutOfRange {
            pin: 0,
            at: Point::new(i64::MAX, 0),
        });
        assert_eq!(
            engine.reroute_with_staleness(&delta, 0, &Session::default()),
            rejected
        );
        let ok = DeltaJob {
            delta: NetDelta::new(net, DeltaKind::Translate { dx: 3, dy: 1 }),
            prior_edits: 0,
            session: Session::default(),
        };
        let bad = DeltaJob {
            delta,
            ..ok.clone()
        };
        for threads in [1usize, 2] {
            let (results, _) = engine.route_batch_deltas(&[ok.clone(), bad.clone()], threads);
            assert!(results[0].is_ok(), "threads = {threads}");
            assert_eq!(results[1], rejected, "threads = {threads}");
        }
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let kinds = [
            DeltaKind::MovePin { index: 0, to: Point::new(0, 0) },
            DeltaKind::AddSink { at: Point::new(0, 0) },
            DeltaKind::RemoveSink { index: 0 },
            DeltaKind::Translate { dx: 0, dy: 0 },
            DeltaKind::BlockageMask { min: Point::new(0, 0), max: Point::new(1, 1) },
        ];
        let labels: std::collections::HashSet<&str> =
            kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
        assert!(labels.contains("move-pin"));
        assert!(labels.contains("blockage-mask"));
    }
}
