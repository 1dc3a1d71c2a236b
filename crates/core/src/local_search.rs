//! PatLabor's local search for large-degree nets (paper §V-B).
//!
//! The loop maintains a Pareto set `𝒯` of whole-net trees:
//!
//! 1. `𝒯 ← { RSMT }` (the FLUTE-substitute seed);
//! 2. pick the tree `T ∈ 𝒯` with the largest delay, choose `λ − 1` pins
//!    with the scoring policy π, and reroute the subnet `{r} ∪ pins`
//!    through the lookup table — every stored Pareto topology of the
//!    subnet yields a candidate whole-net tree;
//! 3. insert all candidates into `𝒯` and prune off-frontier trees;
//! 4. repeat at most `⌊n/λ⌋` times: the loop ends early once a round
//!    would start from the same tree as the round before, because that
//!    round, and every later one, could change nothing.
//!
//! Rerouted local topologies may interact badly with the other `n − λ`
//! pins, so candidates pass through the SALT-style post-processing of
//! [`patlabor_tree::reconnect_pass`] (the paper does the same).

use patlabor_baselines::rsmt::rsmt_tree;
use patlabor_dw::Cancelled;
use patlabor_geom::Net;
use patlabor_lut::LookupTable;
use patlabor_pareto::{Cost, ParetoSet};
use patlabor_tree::{
    extract_from_union, reconnect_pass, RefineObjective, RoutingTree,
};

use crate::policy::Policy;

/// Tuning knobs of the local search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSearchConfig {
    /// Number of reroute rounds; `None` uses the paper's `⌊n/λ⌋`.
    pub rounds: Option<usize>,
    /// Run the SALT-style refinement passes on each candidate.
    pub refine: bool,
    /// Additionally seed `𝒯` with the shortest-path arborescence.
    ///
    /// The paper seeds only the RSMT but reroutes through λ = 9 tables;
    /// with smaller tables the delay end needs this extra seed to match
    /// the paper's curve shape, so it defaults to `true` (disable for
    /// strict §V-B fidelity).
    pub seed_arborescence: bool,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            rounds: None,
            refine: true,
            seed_arborescence: true,
        }
    }
}

/// Work done by one local-search run, for route provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalSearchReport {
    /// Reroute rounds that ran: at most the schedule (`⌊n/λ⌋` or
    /// [`LocalSearchConfig::rounds`]), fewer once the max-delay tree
    /// repeats.
    pub rounds: usize,
    /// Candidate whole-net trees generated by the rounds that ran
    /// (reroute candidates, not counting refine variants).
    pub candidates: usize,
}

/// Runs the PatLabor local search on a net with degree `> λ`.
///
/// # Panics
///
/// Panics if the net degree is not larger than the table's λ (small nets
/// should be answered by [`LookupTable::query`] directly).
pub fn local_search(
    net: &Net,
    table: &LookupTable,
    policy: &Policy,
    config: &LocalSearchConfig,
) -> ParetoSet<RoutingTree> {
    match local_search_cancellable(net, table, policy, config, &|| false) {
        Ok((frontier, _)) => frontier,
        Err(Cancelled) => unreachable!("a never-true cancel hook cannot cancel"),
    }
}

/// [`local_search`] plus a [`LocalSearchReport`] of the work performed
/// (the router's LocalSearch-stage counters), with a cooperative
/// cancellation hook for deadline budgets: `cancel` is polled after each
/// seed and its refinement, and twice per reroute round that runs
/// (before the reroute and before its candidates are refined), so a
/// long-running search abandons within one round of its budget expiring.
///
/// The Pareto set accumulated before cancellation is discarded — a
/// deadline-expired rung yields to the ladder's next rung rather than
/// serving a half-searched frontier whose quality would silently depend
/// on wall-clock scheduling.
///
/// # Errors
///
/// Returns [`Cancelled`] when the hook fires.
///
/// # Panics
///
/// Panics if the net degree is not larger than the table's λ, like
/// [`local_search`].
pub fn local_search_cancellable(
    net: &Net,
    table: &LookupTable,
    policy: &Policy,
    config: &LocalSearchConfig,
    cancel: &dyn Fn() -> bool,
) -> Result<(ParetoSet<RoutingTree>, LocalSearchReport), Cancelled> {
    let n = net.degree();
    let lambda = table.lambda() as usize;
    assert!(
        n > lambda,
        "local search expects degree {n} > lambda {lambda}; query the table instead"
    );

    let mut frontier: ParetoSet<RoutingTree> = ParetoSet::new();
    let mut seeds = vec![rsmt_tree(net)];
    if config.seed_arborescence {
        seeds.push(patlabor_baselines::rsma::cl_arborescence(net));
    }
    for seed in seeds {
        if config.refine {
            // The paper applies its SALT-style post-processing throughout;
            // the seeds deserve it as much as the reroute candidates.
            for variant in refine_variants(&seed) {
                insert_tree(&mut frontier, variant);
            }
        }
        insert_tree(&mut frontier, seed);
        if cancel() {
            return Err(Cancelled);
        }
    }

    // A round is a pure function of its max-delay tree: `select_pins`,
    // `reroute_candidates` and `reconnect_pass` read nothing else that
    // changes. Once a tree has been inserted, the set weakly dominates its
    // cost for good (an insert evicts only entries it dominates), so
    // inserting it again leaves the set unchanged. A round that starts
    // from the previous round's tree therefore re-inserts only trees
    // already inserted: the set stays as it is, the next round starts from
    // the same tree again, and so on to the end of the schedule. Stopping
    // there returns the frontier the full schedule would.
    let rounds = config.rounds.unwrap_or_else(|| (n / lambda).max(1));
    let mut report = LocalSearchReport::default();
    let mut previous: Option<RoutingTree> = None;
    for _ in 0..rounds {
        // The max-delay tree is the min-wirelength end of the frontier.
        let Some((_, worst)) = frontier.min_wirelength() else {
            break;
        };
        if previous.as_ref() == Some(worst) {
            break;
        }
        let worst = worst.clone();
        if cancel() {
            return Err(Cancelled);
        }
        let selection = policy.select_pins(net, &worst, lambda - 1);
        let candidates = reroute_candidates(net, &worst, &selection, table);
        if cancel() {
            return Err(Cancelled);
        }
        report.rounds += 1;
        report.candidates += candidates.len();
        for cand in candidates {
            if config.refine {
                for variant in refine_variants(&cand) {
                    insert_tree(&mut frontier, variant);
                }
            }
            insert_tree(&mut frontier, cand);
        }
        previous = Some(worst);
    }
    Ok((frontier, report))
}

/// SALT-style post-processing: a delay-first and a wirelength-first
/// two-pass chain, keeping the intermediate trees (each is a legitimate
/// tradeoff candidate). Returns `[D, D→W, W, W→D]`.
///
/// A first pass that returns its input unchanged makes the other chain's
/// second pass a repeat of that chain's first pass (`D(t) = t` gives
/// `W(D(t)) = W(t)`), so that result is reused, not recomputed.
fn refine_variants(tree: &RoutingTree) -> Vec<RoutingTree> {
    let delay = reconnect_pass(tree, RefineObjective::Delay);
    let wire = reconnect_pass(tree, RefineObjective::Wirelength);
    let delay_wire = if delay == *tree {
        wire.clone()
    } else {
        reconnect_pass(&delay, RefineObjective::Wirelength)
    };
    let wire_delay = if wire == *tree {
        delay.clone()
    } else {
        reconnect_pass(&wire, RefineObjective::Delay)
    };
    vec![delay, delay_wire, wire, wire_delay]
}

fn insert_tree(frontier: &mut ParetoSet<RoutingTree>, tree: RoutingTree) {
    let (w, d) = tree.objectives();
    frontier.insert(Cost::new(w, d), tree);
}

/// One reroute step: splices the selected pins out of `tree`, reroutes the
/// subnet `{r} ∪ selection` through the lookup table, and returns one
/// candidate whole-net tree per stored Pareto topology.
///
/// Public because the policy trainer replays this step on random
/// selections.
pub fn reroute_candidates(
    net: &Net,
    tree: &RoutingTree,
    selection: &[usize],
    table: &LookupTable,
) -> Vec<RoutingTree> {
    // Subnet: the source plus the selected pins.
    let mut sub_pins = vec![net.source()];
    sub_pins.extend(selection.iter().map(|&pin| net.pins()[pin]));
    let Ok(subnet) = Net::new(sub_pins) else {
        return Vec::new();
    };
    let Some(local_frontier) = table.query(&subnet) else {
        return Vec::new();
    };

    // Residual edges: every non-selected node connects to its first
    // non-selected ancestor (selected pins are spliced out).
    let selected = {
        let mut mark = vec![false; tree.num_nodes()];
        for &pin in selection {
            mark[pin] = true;
        }
        mark
    };
    let mut rest_edges = Vec::new();
    for v in 1..tree.num_nodes() {
        if selected[v] {
            continue;
        }
        let mut a = tree.parent(v);
        while selected[a] {
            a = tree.parent(a);
        }
        rest_edges.push((tree.point(v), tree.point(a)));
    }

    let mut out = Vec::with_capacity(local_frontier.len());
    for (_, local_tree) in local_frontier.iter() {
        let mut edges = rest_edges.clone();
        edges.extend(local_tree.edge_points());
        if let Ok(candidate) = extract_from_union(net, &edges) {
            out.push(candidate);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor_geom::Point;
    use patlabor_lut::LutBuilder;

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
    fn reroute_candidates_cover_all_pins() {
        let table = LutBuilder::new(4).threads(2).build();
        let mut seed = 8u64;
        let net = random_net(&mut seed, 9, 80);
        let tree = rsmt_tree(&net);
        let selection = vec![2, 5, 7];
        let cands = reroute_candidates(&net, &tree, &selection, &table);
        assert!(!cands.is_empty());
        for c in &cands {
            c.validate(&net).unwrap();
        }
    }

    #[test]
    fn local_search_never_loses_to_the_seed() {
        let table = LutBuilder::new(4).threads(2).build();
        let policy = Policy::default();
        let mut seed = 15u64;
        for _ in 0..5 {
            let net = random_net(&mut seed, 12, 120);
            let seed_tree = rsmt_tree(&net);
            let (w0, d0) = seed_tree.objectives();
            let frontier =
                local_search(&net, &table, &policy, &LocalSearchConfig::default());
            assert!(!frontier.is_empty());
            // The seed (or something dominating it) must be in the set.
            assert!(frontier.dominated(Cost::new(w0, d0)));
            for (c, t) in frontier.iter() {
                t.validate(&net).unwrap();
                assert_eq!((c.wirelength, c.delay), t.objectives());
            }
        }
    }

    #[test]
    fn local_search_finds_delay_improvements() {
        // On clustered nets the RSMT has large delay; local search must
        // strictly improve the delay end.
        let table = LutBuilder::new(4).threads(2).build();
        let policy = Policy::default();
        let mut seed = 23u64;
        let mut improved = 0;
        for _ in 0..6 {
            let net = random_net(&mut seed, 14, 200);
            let seed_tree = rsmt_tree(&net);
            let frontier =
                local_search(&net, &table, &policy, &LocalSearchConfig::default());
            let (best_d, _) = frontier.min_delay().unwrap();
            if best_d.delay < seed_tree.delay() {
                improved += 1;
            }
        }
        assert!(improved >= 3, "local search improved delay on only {improved}/6 nets");
    }

    #[test]
    #[should_panic(expected = "local search expects")]
    fn rejects_small_nets() {
        let table = LutBuilder::new(4).threads(1).build();
        let net = Net::new(vec![Point::new(0, 0), Point::new(1, 1)]).unwrap();
        let _ = local_search(&net, &table, &Policy::default(), &LocalSearchConfig::default());
    }

    #[test]
    fn inert_cancel_hook_matches_plain_search_and_eager_hook_cancels() {
        let table = LutBuilder::new(4).threads(2).build();
        let policy = Policy::default();
        let config = LocalSearchConfig::default();
        let mut seed = 41u64;
        let net = random_net(&mut seed, 12, 100);
        let plain = local_search(&net, &table, &policy, &config);
        let (inert, inert_report) =
            local_search_cancellable(&net, &table, &policy, &config, &|| false).unwrap();
        assert_eq!(plain, inert);
        assert!(inert_report.rounds >= 1);
        let cancelled = local_search_cancellable(&net, &table, &policy, &config, &|| true);
        assert!(matches!(cancelled, Err(Cancelled)));
    }

    /// Refinement with no reuse: all four passes run explicitly.
    fn explicit_passes(tree: &RoutingTree) -> Vec<RoutingTree> {
        let delay = reconnect_pass(tree, RefineObjective::Delay);
        let delay_wire = reconnect_pass(&delay, RefineObjective::Wirelength);
        let wire = reconnect_pass(tree, RefineObjective::Wirelength);
        let wire_delay = reconnect_pass(&wire, RefineObjective::Delay);
        vec![delay, delay_wire, wire, wire_delay]
    }

    /// The search with neither shortcut: every scheduled round runs and
    /// every tree gets [`explicit_passes`]. Returns the frontier, the
    /// number of scheduled rounds and every tree that was refined.
    fn full_schedule_search(
        net: &Net,
        table: &LookupTable,
        policy: &Policy,
    ) -> (ParetoSet<RoutingTree>, usize, Vec<RoutingTree>) {
        let lambda = table.lambda() as usize;
        let mut frontier = ParetoSet::new();
        let mut refined = Vec::new();
        let mut add = |frontier: &mut ParetoSet<RoutingTree>, tree: RoutingTree| {
            for variant in explicit_passes(&tree) {
                insert_tree(frontier, variant);
            }
            refined.push(tree.clone());
            insert_tree(frontier, tree);
        };
        for seed in [
            rsmt_tree(net),
            patlabor_baselines::rsma::cl_arborescence(net),
        ] {
            add(&mut frontier, seed);
        }
        let rounds = (net.degree() / lambda).max(1);
        for _ in 0..rounds {
            let worst = frontier.min_wirelength().expect("seeded").1.clone();
            let selection = policy.select_pins(net, &worst, lambda - 1);
            for cand in reroute_candidates(net, &worst, &selection, table) {
                add(&mut frontier, cand);
            }
        }
        (frontier, rounds, refined)
    }

    #[test]
    fn early_stop_and_pass_reuse_keep_the_full_schedule_answers() {
        let policy = Policy::default();
        let config = LocalSearchConfig::default();
        let (mut nets, mut stopped_early, mut reused) = (0, 0, 0);
        for lambda in [4u8, 5] {
            let table = LutBuilder::new(lambda).threads(2).build();
            let corpus = patlabor_netgen::iccad_like_suite(0x1cad + u64::from(lambda), 300, 32);
            for net in corpus
                .iter()
                .filter(|net| net.degree() > usize::from(lambda))
            {
                let (frontier, report) =
                    local_search_cancellable(net, &table, &policy, &config, &|| false).unwrap();
                let (reference, scheduled, refined) = full_schedule_search(net, &table, &policy);
                assert_eq!(frontier, reference, "λ = {lambda}, degree {}", net.degree());
                assert!(report.rounds <= scheduled);
                nets += 1;
                stopped_early += usize::from(report.rounds < scheduled);
                for tree in &refined {
                    let explicit = explicit_passes(tree);
                    assert_eq!(refine_variants(tree), explicit);
                    reused += usize::from(explicit[0] == *tree || explicit[2] == *tree);
                }
            }
        }
        assert!(nets >= 200, "only {nets} nets above λ");
        assert!(stopped_early >= 1, "no net stopped before its schedule");
        assert!(reused >= 1, "no first pass returned its input");
    }

    #[test]
    fn arborescence_seed_tightens_delay_end() {
        let table = LutBuilder::new(4).threads(2).build();
        let policy = Policy::default();
        let mut seed = 37u64;
        let net = random_net(&mut seed, 16, 150);
        let plain = local_search(
            &net,
            &table,
            &policy,
            &LocalSearchConfig {
                seed_arborescence: false,
                ..LocalSearchConfig::default()
            },
        );
        let seeded = local_search(&net, &table, &policy, &LocalSearchConfig::default());
        let pd = plain.min_delay().unwrap().0.delay;
        let sd = seeded.min_delay().unwrap().0.delay;
        assert!(sd <= pd);
        assert_eq!(sd, net.delay_lower_bound());
    }
}
