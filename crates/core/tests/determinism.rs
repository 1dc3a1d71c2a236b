//! Batch/cache determinism: `route_batch` must be bit-identical to
//! serial `route`, with the opt-in frontier cache enabled or disabled.
//!
//! Comparisons extract frontiers from the [`patlabor::RouteOutcome`]s:
//! the frontier is the bit-identical part, while provenance legitimately
//! differs between cache states (`ExactLut` on a cold cache, `CacheHit`
//! on a warm one) — that difference is itself asserted below.

use patlabor::{
    CacheConfig, Engine, Net, ParetoSet, Point, RouteResult, RouteSource, RouterConfig,
    RoutingTree,
};
use patlabor_netgen::uniform_net;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ≥ 100 seeded nets covering every degree in 3..=12 (tabulated nets,
/// the cache path and the local-search path alike).
fn workload() -> Vec<Net> {
    let mut rng = StdRng::seed_from_u64(0x0de7_ea11);
    let mut nets = Vec::new();
    for round in 0..11 {
        for degree in 3..=12 {
            // Small spans collapse Hanan grids onto few congruence
            // classes, exercising cache hits; large spans exercise misses.
            let span = [8, 40, 2_000][round % 3];
            nets.push(uniform_net(&mut rng, degree, span));
        }
    }
    assert!(nets.len() >= 100);
    nets
}

fn frontiers(results: Vec<RouteResult>) -> Vec<ParetoSet<RoutingTree>> {
    results
        .into_iter()
        .map(|r| r.expect("workload nets always route").frontier)
        .collect()
}

#[test]
fn batch_with_and_without_cache_matches_serial_route() {
    let cached = Engine::with_config(RouterConfig {
        lambda: 5,
        cache: CacheConfig::default(),
        ..RouterConfig::default()
    });
    let uncached = Engine::with_config(RouterConfig {
        lambda: 5,
        cache: CacheConfig::disabled(),
        ..RouterConfig::default()
    });
    assert!(cached.cache_stats().is_some());
    assert!(uncached.cache_stats().is_none());

    let nets = workload();
    // Ground truth: serial, cache-free routing.
    let serial: Vec<_> = nets
        .iter()
        .map(|n| uncached.route(n).expect("workload nets always route").frontier)
        .collect();

    assert_eq!(
        frontiers(uncached.route_batch(&nets, 8)),
        serial,
        "batch, no cache"
    );
    assert_eq!(
        frontiers(cached.route_batch(&nets, 8)),
        serial,
        "batch, cold cache"
    );
    // A warm cache (every class now resident) must replay identically.
    assert_eq!(
        frontiers(cached.route_batch(&nets, 8)),
        serial,
        "batch, warm cache"
    );
    let stats = cached.cache_stats().unwrap();
    assert!(stats.hits > 0, "repeated workload must hit: {stats:?}");
}

#[test]
fn congruent_nets_share_one_cache_entry() {
    let router = Engine::with_config(RouterConfig {
        lambda: 5,
        cache: CacheConfig::default(),
        ..RouterConfig::default()
    });
    let base = Net::new(vec![
        Point::new(0, 0),
        Point::new(7, 2),
        Point::new(3, 9),
        Point::new(10, 5),
    ])
    .unwrap();
    // The same net translated, mirrored about both axes, and rotated 90°
    // (x, y) → (y, −x): all congruent, so all one cache entry.
    let translated = base.map_points(|p| Point::new(p.x + 1000, p.y - 37));
    let mirrored = base.map_points(|p| Point::new(-p.x, -p.y));
    let rotated = base.map_points(|p| Point::new(p.y, -p.x));

    let outcome = router.route(&base).unwrap();
    assert_eq!(outcome.provenance.source, RouteSource::ExactLut);
    let stats = router.cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

    for (label, net) in [
        ("translated", &translated),
        ("mirrored", &mirrored),
        ("rotated", &rotated),
    ] {
        let sym = router.route(net).unwrap();
        assert_eq!(
            sym.frontier.cost_vec(),
            outcome.frontier.cost_vec(),
            "{label}"
        );
        assert_eq!(
            sym.provenance.source,
            RouteSource::CacheHit,
            "{label} must be served from the shared cache entry"
        );
    }
    let stats = router.cache_stats().unwrap();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (3, 1, 1),
        "every congruent net must hit the single shared entry"
    );
}
