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
//! 4. repeat `⌊n/λ⌋` times.
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
    /// Reroute rounds executed (may stop early on an empty frontier).
    pub rounds: usize,
    /// Candidate whole-net trees generated across all rounds (reroute
    /// candidates, not counting refine variants).
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
    local_search_with_report(net, table, policy, config).0
}

/// [`local_search`] plus a [`LocalSearchReport`] of the work performed
/// (the router's LocalSearch-stage counters).
pub fn local_search_with_report(
    net: &Net,
    table: &LookupTable,
    policy: &Policy,
    config: &LocalSearchConfig,
) -> (ParetoSet<RoutingTree>, LocalSearchReport) {
    match local_search_cancellable(net, table, policy, config, &|| false) {
        Ok(result) => result,
        Err(Cancelled) => unreachable!("a never-true cancel hook cannot cancel"),
    }
}

/// [`local_search_with_report`] with a cooperative cancellation hook for
/// deadline budgets: `cancel` is polled after each seed and its
/// refinement, and twice per reroute round (before the reroute and before
/// its candidates are refined), so a long-running search abandons within
/// one round of its budget expiring.
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

    let rounds = config.rounds.unwrap_or_else(|| (n / lambda).max(1));
    let mut report = LocalSearchReport::default();
    for _ in 0..rounds {
        if cancel() {
            return Err(Cancelled);
        }
        // The max-delay tree is the min-wirelength end of the frontier.
        let Some((_, worst)) = frontier.min_wirelength() else {
            break;
        };
        let worst = worst.clone();
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
    }
    Ok((frontier, report))
}

/// SALT-style post-processing: a delay-first and a wirelength-first
/// two-pass chain, keeping the intermediate trees (each is a legitimate
/// tradeoff candidate).
fn refine_variants(tree: &RoutingTree) -> Vec<RoutingTree> {
    let mut out = Vec::with_capacity(4);
    for first in [RefineObjective::Delay, RefineObjective::Wirelength] {
        let second = match first {
            RefineObjective::Delay => RefineObjective::Wirelength,
            RefineObjective::Wirelength => RefineObjective::Delay,
        };
        let a = reconnect_pass(tree, first);
        let b = reconnect_pass(&a, second);
        out.push(a);
        out.push(b);
    }
    out
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
        let (plain, plain_report) = local_search_with_report(&net, &table, &policy, &config);
        let (inert, inert_report) =
            local_search_cancellable(&net, &table, &policy, &config, &|| false).unwrap();
        assert_eq!(plain, inert);
        assert_eq!(plain_report, inert_report);
        let cancelled = local_search_cancellable(&net, &table, &policy, &config, &|| true);
        assert!(matches!(cancelled, Err(Cancelled)));
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
