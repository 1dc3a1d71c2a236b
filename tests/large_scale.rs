//! End-to-end behaviour on realistic workloads: an ICCAD-like suite runs
//! through the full router and every structural invariant holds.

use std::sync::OnceLock;

use patlabor::{Cost, Engine, Net, ParetoSet, RouterConfig, RoutingTree};

fn router() -> &'static Engine {
    static ROUTER: OnceLock<Engine> = OnceLock::new();
    ROUTER.get_or_init(|| {
        Engine::with_config(RouterConfig {
            lambda: 4,
            ..RouterConfig::default()
        })
    })
}

/// `net`'s frontier from the shared engine.
fn frontier_of(net: &Net) -> ParetoSet<RoutingTree> {
    router()
        .route(net)
        .expect("every armed rung failed")
        .frontier
}

#[test]
fn iccad_like_suite_routes_cleanly() {
    let nets = patlabor_netgen::iccad_like_suite(0x5ca1e, 40, 25);
    for net in &nets {
        let frontier = frontier_of(net);
        assert!(!frontier.is_empty(), "empty frontier on {net:?}");
        // Frontier invariants: sorted, strictly tradeoff-shaped, exact
        // witness costs, valid trees, physical lower bounds respected.
        let costs = frontier.cost_vec();
        for w in costs.windows(2) {
            assert!(w[0].wirelength < w[1].wirelength);
            assert!(w[0].delay > w[1].delay);
        }
        for (c, t) in frontier.iter() {
            t.validate(net).unwrap();
            assert_eq!((c.wirelength, c.delay), t.objectives());
            assert!(c.delay >= net.delay_lower_bound());
            assert!(c.wirelength >= net.hpwl());
        }
    }
}

#[test]
fn routing_is_deterministic() {
    let nets = patlabor_netgen::iccad_like_suite(0xdead, 10, 20);
    for net in &nets {
        let a = frontier_of(net).cost_vec();
        let b = frontier_of(net).cost_vec();
        assert_eq!(a, b, "non-deterministic routing on {net:?}");
    }
}

#[test]
fn budget_driven_selection_workflow() {
    // The global-routing workflow: pick per net the lightest tree within
    // a delay budget; the pick must be feasible whenever the budget is at
    // least the physical lower bound times the frontier's fast end.
    let nets = patlabor_netgen::iccad_like_suite(0xbead, 20, 20);
    for net in &nets {
        let frontier = frontier_of(net);
        let budget = frontier.min_delay().expect("non-empty").0.delay;
        let pick = frontier
            .iter()
            .find(|(c, _)| c.delay <= budget)
            .expect("the fast end always meets its own delay");
        // The pick is the lightest such tree: nothing cheaper qualifies.
        for (c, _) in frontier.iter() {
            if c.wirelength < pick.0.wirelength {
                assert!(c.delay > budget);
            }
        }
    }
}

#[test]
fn local_search_beats_single_solution_baselines_somewhere() {
    // On every large net the PatLabor set must contain a point at least
    // as good as the RSMT in wirelength AND a point at least as good as
    // PD(α=1) in delay.
    let nets: Vec<_> = patlabor_netgen::iccad_like_suite(0xfeed, 60, 30)
        .into_iter()
        .filter(|n| n.degree() > 8)
        .take(5)
        .collect();
    assert!(!nets.is_empty());
    for net in &nets {
        let frontier = frontier_of(net);
        let rsmt = patlabor_baselines::rsmt::rsmt_tree(net);
        let (w_end, _) = frontier.min_wirelength().unwrap();
        assert!(
            w_end.wirelength <= rsmt.wirelength(),
            "lost to the RSMT seed on {net:?}"
        );
        let dijkstra = patlabor_baselines::pd::pd_tree(net, 1.0);
        let (d_end, _) = frontier.min_delay().unwrap();
        assert!(
            d_end.delay <= dijkstra.delay() + dijkstra.delay() / 4,
            "delay end far behind Dijkstra on {net:?}"
        );
    }
}

#[test]
fn pareto_ks_and_local_search_are_both_usable() {
    let net = patlabor_netgen::iccad_like_suite(0xaaaa, 40, 30)
        .into_iter()
        .find(|n| n.degree() >= 12)
        .expect("suite contains a large net");
    let ls = frontier_of(&net);
    let ks = patlabor::ks::pareto_ks(&net, &router().table());
    assert!(!ls.is_empty() && !ks.is_empty());
    // Both are valid candidate sets; their union is still a frontier of
    // valid trees.
    let mut merged = ls.clone();
    merged.merge(ks);
    for (c, t) in merged.iter() {
        t.validate(&net).unwrap();
        assert_eq!((c.wirelength, c.delay), t.objectives());
    }
}

#[test]
fn degenerate_nets_route() {
    use patlabor::{Net, Point};
    // All pins on a line, duplicated pins, two-pin nets.
    let cases = vec![
        Net::new(vec![Point::new(0, 0), Point::new(5, 0), Point::new(9, 0)]).unwrap(),
        Net::new(vec![Point::new(3, 3), Point::new(3, 3), Point::new(3, 3)]).unwrap(),
        Net::new(vec![Point::new(0, 0), Point::new(0, 7)]).unwrap(),
        Net::new(vec![
            Point::new(2, 2),
            Point::new(2, 2),
            Point::new(8, 1),
            Point::new(8, 1),
        ])
        .unwrap(),
    ];
    for net in &cases {
        let frontier = frontier_of(net);
        assert!(!frontier.is_empty(), "degenerate net failed: {net:?}");
        for (c, t) in frontier.iter() {
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
    }
    // A fully degenerate net costs nothing.
    let zero = frontier_of(&cases[1]);
    assert_eq!(zero.cost_vec(), vec![Cost::new(0, 0)]);
}
