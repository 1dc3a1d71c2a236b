//! Cross-crate exactness: the brute-force oracle, the numeric Pareto-DW,
//! the lookup tables and the PatLabor router must all agree on small nets.

use std::sync::OnceLock;

use patlabor::{Engine, LutBuilder, Net, ParetoSet, Point, RoutingTree};
use patlabor_dw::{numeric, oracle, DwConfig};

fn router() -> &'static Engine {
    static ROUTER: OnceLock<Engine> = OnceLock::new();
    ROUTER.get_or_init(Engine::new)
}

/// `net`'s frontier from the shared engine.
fn frontier_of(net: &Net) -> ParetoSet<RoutingTree> {
    router().route(net).expect("every armed rung failed").frontier
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
fn oracle_dw_lut_router_agree_on_degree_4() {
    let mut seed = 0xa11ce;
    for _ in 0..8 {
        let net = random_net(&mut seed, 4, 24);
        let reference = oracle::exhaustive_frontier(&net);
        let dw = numeric::pareto_frontier(&net, &DwConfig::default());
        let routed = frontier_of(&net);
        assert_eq!(dw.cost_vec(), reference.cost_vec(), "DW vs oracle on {net:?}");
        assert_eq!(routed.cost_vec(), reference.cost_vec(), "router vs oracle");
    }
}

#[test]
fn dw_lut_router_agree_on_degree_5() {
    let mut seed = 0xb0b;
    for _ in 0..12 {
        let net = random_net(&mut seed, 5, 64);
        let dw = numeric::pareto_frontier(&net, &DwConfig::default());
        let routed = frontier_of(&net);
        assert_eq!(routed.cost_vec(), dw.cost_vec(), "router vs DW on {net:?}");
    }
}

#[test]
fn freshly_built_lambda6_table_agrees_with_dw() {
    let table = LutBuilder::new(6).build();
    let mut seed = 0xc0de;
    for _ in 0..6 {
        let net = random_net(&mut seed, 6, 100);
        let dw = numeric::pareto_frontier(&net, &DwConfig::default());
        let lut = table.query(&net).expect("degree 6 tabulated");
        assert_eq!(lut.cost_vec(), dw.cost_vec(), "lambda-6 LUT vs DW on {net:?}");
    }
}

#[test]
fn frontier_extremes_match_dedicated_algorithms() {
    // The w-end of the exact frontier is an RSMT; the d-end reaches the
    // arborescence delay bound.
    let mut seed = 0xd00d;
    for _ in 0..8 {
        let net = random_net(&mut seed, 5, 60);
        let frontier = frontier_of(&net);
        let rsmt = patlabor_baselines::rsmt::exact_rsmt(&net);
        assert_eq!(
            frontier.min_wirelength().unwrap().0.wirelength,
            rsmt.wirelength(),
            "w-end must be the RSMT on {net:?}"
        );
        // The heuristic FLUTE substitute may be slightly heavier but never
        // lighter.
        assert!(
            patlabor_baselines::rsmt::rsmt_tree(&net).wirelength() >= rsmt.wirelength()
        );
        assert_eq!(
            frontier.min_delay().unwrap().0.delay,
            net.delay_lower_bound(),
            "d-end must reach the SPT bound on {net:?}"
        );
    }
}

#[test]
fn every_baseline_solution_is_dominated_by_the_exact_frontier() {
    use patlabor_baselines::{pd, salt, weighted_sum};
    let mut seed = 0xe88;
    for _ in 0..6 {
        let net = random_net(&mut seed, 5, 80);
        let frontier = frontier_of(&net);
        let mut produced = Vec::new();
        produced.extend(salt::salt_pareto(&net, &salt::DEFAULT_EPSILONS).costs());
        produced.extend(pd::pd_pareto(&net, &pd::DEFAULT_ALPHAS).costs());
        produced.extend(
            weighted_sum::weighted_sum_pareto(&net, &weighted_sum::DEFAULT_BETAS).costs(),
        );
        for cost in produced {
            assert!(
                frontier.dominated(cost),
                "baseline produced {cost} not dominated by the exact frontier of {net:?}"
            );
        }
    }
}
