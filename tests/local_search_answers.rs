//! Local-search answers, pinned end to end.
//!
//! The above-λ nets of a fixed ICCAD-like corpus route through a λ = 5
//! engine, so every one of them is served by local search. Two kinds of
//! check run over the same answers:
//!
//! * a digest over every frontier's costs and every witness tree's points
//!   and parents, recorded from the search as it stands: a change to the
//!   RSMT seed, the refinement passes or the search loop that alters any
//!   answer, however slightly, fails here;
//! * certificates that do not use Pareto-DW: each frontier is a strict
//!   staircase of valid witnesses whose stored costs are their own, its
//!   delay end is the radius (the CL seed is a shortest-path
//!   arborescence), and it weakly dominates both of its seed trees.

use std::sync::OnceLock;

use patlabor::{Cost, Engine, Net, ParetoSet, RouteSource, RouterConfig, RoutingTree};
use patlabor_baselines::rsma::cl_arborescence;
use patlabor_baselines::rsmt::rsmt_tree;

const LAMBDA: usize = 5;

/// FNV-1a 64 over the answers of [`answers`], at the commit that recorded
/// it. Routing must not move it.
const ANSWER_DIGEST: u64 = 0xcc3e_15de_5bc6_fecd;

/// The corpus's above-λ nets with their local-search frontiers.
fn answers() -> &'static [(Net, ParetoSet<RoutingTree>)] {
    static ANSWERS: OnceLock<Vec<(Net, ParetoSet<RoutingTree>)>> = OnceLock::new();
    ANSWERS.get_or_init(|| {
        let engine = Engine::with_config(RouterConfig {
            lambda: LAMBDA as u8,
            ..RouterConfig::default()
        });
        patlabor_netgen::iccad_like_suite(0x1cad, 500, 32)
            .into_iter()
            .filter(|net| net.degree() > LAMBDA)
            .map(|net| {
                let outcome = engine.route(&net).expect("local search serves every net");
                assert_eq!(outcome.provenance.source, RouteSource::LocalSearch);
                (net, outcome.frontier)
            })
            .collect()
    })
}

struct Fnv(u64);

impl Fnv {
    fn push(&mut self, v: i64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn local_search_answers_match_the_recorded_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (_, frontier) in answers() {
        for (cost, tree) in frontier.iter() {
            h.push(cost.wirelength);
            h.push(cost.delay);
            for v in 0..tree.num_nodes() {
                let p = tree.point(v);
                h.push(p.x);
                h.push(p.y);
                h.push(tree.parent(v) as i64);
            }
            h.push(-1);
        }
        h.push(-2);
    }
    assert_eq!(answers().len(), 191, "the corpus changed");
    assert_eq!(
        h.0, ANSWER_DIGEST,
        "local-search answers changed: {:#018x}",
        h.0
    );
}

#[test]
fn local_search_frontiers_carry_dw_free_certificates() {
    for (net, frontier) in answers() {
        let costs = frontier.cost_vec();
        assert!(!costs.is_empty(), "empty frontier on {net:?}");
        for w in costs.windows(2) {
            assert!(
                w[0].wirelength < w[1].wirelength && w[0].delay > w[1].delay,
                "not a strict staircase: {costs:?}"
            );
        }
        for (cost, tree) in frontier.iter() {
            tree.validate(net).unwrap();
            assert_eq!((cost.wirelength, cost.delay), tree.objectives());
        }
        let (fastest, _) = frontier.min_delay().expect("non-empty");
        assert_eq!(
            fastest.delay,
            net.delay_lower_bound(),
            "delay end is not the radius"
        );
        for seed in [rsmt_tree(net), cl_arborescence(net)] {
            let (w, d) = seed.objectives();
            assert!(
                frontier.dominated(Cost::new(w, d)),
                "seed ({w}, {d}) escapes the frontier {costs:?}"
            );
        }
    }
}
