//! Property-based integration tests across the crates.

use std::sync::OnceLock;

use patlabor::cache::CacheKey;
use patlabor::{Engine, Net, ParetoSet, Point, RoutingTree};
use patlabor_dw::{numeric, DwConfig};
use patlabor_geom::{HananGrid, NetClass, Pattern, PatternKey, Transform, ALL_TRANSFORMS};
use patlabor_tree::{reconnect_pass, remove_redundant_steiner, RefineObjective};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn router() -> &'static Engine {
    static ROUTER: OnceLock<Engine> = OnceLock::new();
    ROUTER.get_or_init(Engine::new)
}

/// `net`'s frontier from the shared engine.
fn frontier_of(net: &Net) -> ParetoSet<RoutingTree> {
    router()
        .route(net)
        .expect("every armed rung failed")
        .frontier
}

fn arb_net(degree: usize, span: i64) -> impl Strategy<Value = Net> {
    proptest::collection::vec((0..span, 0..span), degree)
        .prop_map(|pts| Net::new(pts.into_iter().map(Point::from).collect()).unwrap())
}

/// A degree-5 net in general position: all x distinct, all y distinct.
///
/// Rank-pattern canonicalization breaks coordinate ties by pin order, so
/// a tied net and its mirror image can land in different rank patterns —
/// D4 invariance of the `NetClass` is only promised (and only needed: the
/// frontier itself stays symmetric either way, see
/// `objectives_are_symmetry_invariant`) for nets without ties.
fn arb_general_position_net(span: i64) -> impl Strategy<Value = Net> {
    proptest::collection::vec((0..span, 0..span), 5).prop_map(|pts| {
        let pins = pts
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| Point::new(x * 5 + i as i64, y * 5 + i as i64))
            .collect();
        Net::new(pins).unwrap()
    })
}

/// `NetClass::of` rebuilt from the public grid and pattern types: the
/// least orbit key over `ALL_TRANSFORMS`, then the lexicographically
/// least mapped gap vector among the transforms reaching it (the first
/// such transform wins a tie), and that transform's inverse.
fn grid_pattern_reference(net: &Net) -> (PatternKey, Vec<i64>, Transform) {
    let grid = HananGrid::new(net);
    let (pattern, _) = Pattern::from_grid(&grid);
    let key = ALL_TRANSFORMS
        .iter()
        .map(|&t| pattern.transformed(t).key())
        .min()
        .expect("eight transforms");
    let mut best: Option<(Vec<i64>, Transform)> = None;
    for t in ALL_TRANSFORMS {
        if pattern.transformed(t).key() != key {
            continue;
        }
        // The swap applies first, then the flips.
        let (mut h, mut v) = if t.swap {
            (grid.v_gaps(), grid.h_gaps())
        } else {
            (grid.h_gaps(), grid.v_gaps())
        };
        if t.flip_x {
            h.reverse();
        }
        if t.flip_y {
            v.reverse();
        }
        h.extend(v);
        if best.as_ref().is_none_or(|(gaps, _)| h < *gaps) {
            best = Some((h, t));
        }
    }
    let (gaps, t) = best.expect("some transform reaches the least key");
    (key, gaps, t.inverse())
}

/// The stack classifier gives the grid-and-pattern reference's key,
/// canonical gaps and inverse, and the grid's pin ranks, on nets of
/// every classifiable degree: at span 8 most coordinates tie, at span
/// 10,000 few do.
#[test]
fn netclass_matches_the_grid_pattern_reference() {
    let mut rng = StdRng::seed_from_u64(0xC1A55);
    for span in [8i64, 10_000] {
        for degree in 2..=NetClass::MAX_DEGREE {
            for _ in 0..40 {
                let pins = (0..degree)
                    .map(|_| Point::new(rng.gen_range(0..span), rng.gen_range(0..span)))
                    .collect();
                let net = Net::new(pins).expect("degree ≥ 2");
                let class = NetClass::of(&net).expect("degree ≤ 16 classifies");
                let (key, gaps, inverse) = grid_pattern_reference(&net);
                assert_eq!(class.key(), key, "{net:?}");
                assert_eq!(class.canonical_gaps(), gaps.as_slice(), "{net:?}");
                assert_eq!(class.inverse(), inverse, "{net:?}");
                let grid = HananGrid::new(&net);
                for pin in 0..degree {
                    let (node, cell) = (class.pin_node(pin), grid.pin_node(pin));
                    assert_eq!((node.col as u16, node.row as u16), (cell.col, cell.row));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The router's answer for degree ≤ 5 equals the exact DP, point for
    /// point, for arbitrary (possibly degenerate) pin placements.
    #[test]
    fn router_is_exact_up_to_lambda(net in arb_net(5, 40)) {
        let exact = numeric::pareto_frontier(&net, &DwConfig::default());
        let routed = frontier_of(&net);
        prop_assert_eq!(routed.cost_vec(), exact.cost_vec());
    }

    /// DW pruning lemmas never change the frontier (arbitrary degree-5
    /// instances, including coordinate ties).
    #[test]
    fn pruning_lemmas_are_exact(net in arb_net(5, 30)) {
        let pruned = numeric::pareto_frontier(&net, &DwConfig::default());
        let unpruned = numeric::pareto_frontier(&net, &DwConfig::unpruned());
        prop_assert_eq!(pruned.cost_vec(), unpruned.cost_vec());
    }

    /// Refinement passes never worsen either objective and preserve
    /// validity.
    #[test]
    fn refinement_is_safe(net in arb_net(8, 60)) {
        let tree = patlabor_baselines::rsmt::rsmt_tree(&net);
        let (w0, d0) = tree.objectives();
        for pass in [RefineObjective::Wirelength, RefineObjective::Delay] {
            let refined = reconnect_pass(&tree, pass);
            refined.validate(&net).unwrap();
            let (w, d) = refined.objectives();
            prop_assert!(w <= w0 && d <= d0, "pass {pass:?} worsened ({w0},{d0})→({w},{d})");
        }
        let slim = remove_redundant_steiner(&tree);
        let (w, d) = slim.objectives();
        prop_assert!(w <= w0 && d <= d0);
    }

    /// The arborescence always achieves the delay lower bound and never
    /// exceeds star wirelength; the MST never beats the exact RSMT.
    #[test]
    fn baseline_extremes_bracket_the_frontier(net in arb_net(6, 50)) {
        let frontier = numeric::pareto_frontier(&net, &DwConfig::default());
        let arb = patlabor_baselines::rsma::cl_arborescence(&net);
        prop_assert_eq!(arb.delay(), net.delay_lower_bound());
        let (w_end, _) = frontier.min_wirelength().unwrap();
        let mst = patlabor_baselines::rsmt::prim_mst(&net);
        prop_assert!(w_end.wirelength <= mst.wirelength());
        let (d_end, _) = frontier.min_delay().unwrap();
        prop_assert_eq!(d_end.delay, net.delay_lower_bound());
        prop_assert!(w_end.wirelength <= arb.wirelength());
    }

    /// Translating a net translates nothing observable: objectives are
    /// translation invariant.
    #[test]
    fn objectives_are_translation_invariant(net in arb_net(5, 40),
                                            dx in -500i64..500, dy in -500i64..500) {
        let moved = net.map_points(|p| Point::new(p.x + dx, p.y + dy));
        let a = frontier_of(&net).cost_vec();
        let b = frontier_of(&moved).cost_vec();
        prop_assert_eq!(a, b);
    }

    /// Mirror/transpose symmetry: transforming the plane transforms the
    /// trees but not the frontier.
    #[test]
    fn objectives_are_symmetry_invariant(net in arb_net(5, 40)) {
        let flipped = net.map_points(|p| Point::new(-p.x, p.y));
        let transposed = net.map_points(Point::transposed);
        let a = frontier_of(&net).cost_vec();
        prop_assert_eq!(&frontier_of(&flipped).cost_vec(), &a);
        prop_assert_eq!(&frontier_of(&transposed).cost_vec(), &a);
    }

    /// The standalone canonicalizer and the LUT's classification stage
    /// are the same function: identical canonical key, identical gap
    /// vector, and therefore identical cache keys — the invariant the
    /// frontier cache and the LUT replay both rest on.
    #[test]
    fn netclass_and_lut_classification_agree(net in arb_net(5, 40)) {
        let standalone = NetClass::of(&net).expect("degree ≤ 16 always classifies");
        let via_table = router().table().classify(&net).expect("degree ≤ λ");
        prop_assert_eq!(standalone.canonical_key(), via_table.canonical_key());
        prop_assert_eq!(standalone.canonical_gaps(), via_table.canonical_gaps());
        prop_assert_eq!(standalone.degree(), via_table.degree());
        // Cache keys derive from the class and only the class.
        prop_assert_eq!(
            CacheKey::from_class(&standalone),
            CacheKey::new(via_table.canonical_key(), via_table.canonical_gaps())
        );
    }

    /// All 8 D4 images of a net classify to one `NetClass` (same key,
    /// same gaps, same cache key), and each image's inverse transform
    /// maps the shared canonical pins back onto that image's own pins.
    #[test]
    fn netclass_is_d4_invariant_with_correct_inverse(net in arb_general_position_net(40)) {
        let base = NetClass::of(&net).expect("degree ≤ 16 always classifies");
        let images: [fn(Point) -> Point; 8] = [
            |p| p,
            |p| Point::new(-p.x, p.y),
            |p| Point::new(p.x, -p.y),
            |p| Point::new(-p.x, -p.y),
            |p| Point::new(p.y, p.x),
            |p| Point::new(-p.y, p.x),
            |p| Point::new(p.y, -p.x),
            |p| Point::new(-p.y, -p.x),
        ];
        for (i, f) in images.iter().enumerate() {
            let image = net.map_points(f);
            let class = NetClass::of(&image).expect("degree ≤ 16 always classifies");
            prop_assert_eq!(class.canonical_key(), base.canonical_key(), "image {}", i);
            prop_assert_eq!(class.canonical_gaps(), base.canonical_gaps(), "image {}", i);
            prop_assert_eq!(
                CacheKey::from_class(&class),
                CacheKey::from_class(&base),
                "image {}", i
            );
            // The inverse must land the canonical pins on this image's
            // own pins (the materialization correctness condition).
            let (pattern, _) = Pattern::from_net(&image);
            let (canonical, _) = pattern.canonical();
            let mut mapped: Vec<Point> = canonical
                .pin_nodes()
                .into_iter()
                .map(|nd| class.instance_point(nd))
                .collect();
            mapped.sort_unstable();
            let mut expected: Vec<Point> = image.pins().to_vec();
            expected.sort_unstable();
            prop_assert_eq!(mapped, expected, "image {}", i);
        }
    }

    /// Scaling all coordinates by a positive factor scales both
    /// objectives by the same factor.
    #[test]
    fn objectives_scale_linearly(net in arb_net(5, 40), k in 1i64..8) {
        let scaled = net.map_points(|p| Point::new(p.x * k, p.y * k));
        let a = frontier_of(&net).cost_vec();
        let b = frontier_of(&scaled).cost_vec();
        prop_assert_eq!(a.len(), b.len());
        for (ca, cb) in a.iter().zip(&b) {
            prop_assert_eq!(ca.wirelength * k, cb.wirelength);
            prop_assert_eq!(ca.delay * k, cb.delay);
        }
    }
}
