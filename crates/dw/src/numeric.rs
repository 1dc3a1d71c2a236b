//! The per-instance Pareto-DW dynamic program (paper §IV-A).
//!
//! States `S_{v,Q}` (Hanan-grid node `v`, sink subset `Q`) hold Pareto sets
//! of `(w, d)` objective pairs, each carrying its partial topology for
//! reconstruction. Transitions follow Eq. (1):
//!
//! * **edge growth** — `S_{u,Q} + ‖u − v‖₁`: attach the subtree to a new
//!   root by one rectilinear edge. A single all-pairs pass suffices because
//!   `l₁` obeys the triangle inequality, so relayed growth is dominated;
//! * **subset merge** — `S_{v,Q₁} ⊕ S_{v,Q₂}`: glue two subtrees at their
//!   shared root (wirelengths add, delays max).
//!
//! Merged unions may overlap edges, making the bookkept objectives an
//! *upper bound*; the final answer re-extracts a genuine tree per frontier
//! candidate (see [`patlabor_tree::extract_from_union`]) and re-prunes, so
//! the returned frontier is exact and every point has a tree witness.

use patlabor_geom::{BoundingBox, HananGrid, Net};
use patlabor_pareto::{Cost, ParetoSet};
use patlabor_tree::{extract_from_union, RoutingTree};

use crate::boundary::{boundary_position, consecutive_splits};
use crate::{Cancelled, DwConfig};

/// Partial topology: edges between packed Hanan-grid node ids.
type Edges = Vec<(u16, u16)>;

/// The largest degree [`pareto_frontier`] accepts (the DP is exponential;
/// larger nets must go through the local-search path).
pub const MAX_DEGREE: usize = 13;

/// Computes the exact Pareto frontier of a net, with one witness tree per
/// frontier point.
///
/// Runs in `O*(3ⁿ · |S|²)` time; intended for small degrees (the paper's
/// lookup tables cover `n ≤ 9`; this routine is practical to roughly the
/// same range).
///
/// # Panics
///
/// Panics if the net degree exceeds [`MAX_DEGREE`] (13 is admitted only so
/// the Theorem-1 experiments can verify 4-gadget chains exactly).
pub fn pareto_frontier(net: &Net, config: &DwConfig) -> ParetoSet<RoutingTree> {
    match pareto_frontier_cancellable(net, config, &|| false) {
        Ok(frontier) => frontier,
        Err(Cancelled) => unreachable!("a never-true cancel hook cannot cancel"),
    }
}

/// [`pareto_frontier`] with a cooperative cancellation hook for deadline
/// budgets: `cancel` is polled once per subset-mask iteration (the DP's
/// outer loop, `2ⁿ⁻¹ − 1` checkpoints) and once more before witness
/// reconstruction; the first `true` abandons the enumeration.
///
/// The hook keeps the exponential kernel preemptible without threading a
/// clock through this crate — the router passes a closure reading its
/// [`Budget`](https://docs.rs/patlabor), tests pass a counter or a flag.
///
/// # Errors
///
/// Returns [`Cancelled`] when the hook fires; the partial DP state is
/// discarded (no partial frontier is ever observable).
///
/// # Panics
///
/// Panics if the net degree exceeds [`MAX_DEGREE`], like [`pareto_frontier`].
pub fn pareto_frontier_cancellable(
    net: &Net,
    config: &DwConfig,
    cancel: &dyn Fn() -> bool,
) -> Result<ParetoSet<RoutingTree>, Cancelled> {
    let n = net.degree();
    assert!(
        (2..=MAX_DEGREE).contains(&n),
        "numeric Pareto-DW supports degrees 2..={MAX_DEGREE}, got {n}"
    );
    let grid = HananGrid::new(net);
    let nn = grid.node_count();
    let num_sinks = n - 1;
    let full: u32 = (1u32 << num_sinks) - 1;

    // Plane coordinates per node id, for O(1) distances.
    let node_pt: Vec<_> = (0..nn).map(|id| grid.point(grid.node_from_id(id))).collect();
    let dist = |a: usize, b: usize| node_pt[a].l1(node_pt[b]);

    let sink_node: Vec<usize> = (1..n).map(|i| grid.node_id(grid.pin_node(i))).collect();
    let root_node = grid.node_id(grid.pin_node(0));

    // Lemma 2: corner nodes carry no states.
    let alive: Vec<bool> = (0..nn)
        .map(|id| !config.corner_pruning || !is_corner_node(net, node_pt[id]))
        .collect();
    debug_assert!(alive[root_node] && sink_node.iter().all(|&s| alive[s]));

    // Boundary positions for Lemma 4 (pattern grid boundary).
    let sink_boundary_pos: Vec<Option<usize>> = (1..n)
        .map(|i| {
            let node = grid.pin_node(i);
            boundary_position(node.col as usize, node.row as usize, grid.size())
        })
        .collect();

    let empty_state: Vec<ParetoSet<Edges>> = vec![ParetoSet::new(); nn];
    let mut states: Vec<Vec<ParetoSet<Edges>>> = vec![empty_state.clone(); (full as usize) + 1];

    for mask in 1..=full {
        if cancel() {
            return Err(Cancelled);
        }
        let members: Vec<usize> = (0..num_sinks).filter(|i| mask >> i & 1 == 1).collect();
        let mut pre: Vec<ParetoSet<Edges>> = vec![ParetoSet::new(); nn];

        if members.len() == 1 {
            // Base case: direct connection v → sink.
            let q = sink_node[members[0]];
            for v in 0..nn {
                if !alive[v] {
                    continue;
                }
                let d = dist(v, q);
                let edges: Edges = if v == q {
                    Vec::new()
                } else {
                    vec![(v as u16, q as u16)]
                };
                pre[v].insert(Cost::new(d, d), edges);
            }
        } else {
            let splits = enumerate_splits(mask, &members, &sink_boundary_pos, config);
            // Lemma 3: only merge at nodes inside the subset's pin bbox.
            let bbox = BoundingBox::of_points(
                members.iter().map(|&i| net.pins()[i + 1]),
            )
            .expect("non-empty member set");
            for v in 0..nn {
                if !alive[v] {
                    continue;
                }
                if config.bbox_shortcut && !bbox.contains(node_pt[v]) {
                    continue;
                }
                let mut acc: Vec<(Cost, Edges)> = Vec::new();
                for &(m1, m2) in &splits {
                    let s1 = &states[m1 as usize][v];
                    let s2 = &states[m2 as usize][v];
                    for (c1, e1) in s1.iter() {
                        for (c2, e2) in s2.iter() {
                            let mut edges = e1.clone();
                            edges.extend_from_slice(e2);
                            acc.push((c1.combine(c2), edges));
                        }
                    }
                }
                pre[v] = ParetoSet::from_unpruned(acc);
            }
        }

        // Edge-growth closure: one all-pairs pass.
        let mut fin: Vec<ParetoSet<Edges>> = vec![ParetoSet::new(); nn];
        for v in 0..nn {
            if !alive[v] {
                continue;
            }
            let mut acc: Vec<(Cost, Edges)> = Vec::new();
            for u in 0..nn {
                if !alive[u] || pre[u].is_empty() {
                    continue;
                }
                let step = dist(u, v);
                for (c, e) in pre[u].iter() {
                    let mut edges = e.clone();
                    if u != v {
                        edges.push((u as u16, v as u16));
                    }
                    acc.push((c.shift(step), edges));
                }
            }
            fin[v] = ParetoSet::from_unpruned(acc);
        }
        states[mask as usize] = fin;
    }

    // Reconstruct real trees from the final state's edge unions.
    if cancel() {
        return Err(Cancelled);
    }
    let final_state = &states[full as usize][root_node];
    let mut witnesses: Vec<(Cost, RoutingTree)> = Vec::with_capacity(final_state.len());
    for (_, edges) in final_state.iter() {
        let pts: Vec<_> = edges
            .iter()
            .map(|&(a, b)| (node_pt[a as usize], node_pt[b as usize]))
            .collect();
        let tree = extract_from_union(net, &pts)
            .expect("DP unions connect every pin by construction");
        let (w, d) = tree.objectives();
        witnesses.push((Cost::new(w, d), tree));
    }
    Ok(ParetoSet::from_unpruned(witnesses))
}

/// Lemma 2 test: `p` is a corner node when one of its four closed
/// quadrants contains no pin.
fn is_corner_node(net: &Net, p: patlabor_geom::Point) -> bool {
    let mut ll = true; // no pin with x ≤ p.x and y ≤ p.y
    let mut lr = true;
    let mut ul = true;
    let mut ur = true;
    for &q in net.pins() {
        if q.x <= p.x && q.y <= p.y {
            ll = false;
        }
        if q.x >= p.x && q.y <= p.y {
            lr = false;
        }
        if q.x <= p.x && q.y >= p.y {
            ul = false;
        }
        if q.x >= p.x && q.y >= p.y {
            ur = false;
        }
    }
    ll || lr || ul || ur
}

/// Enumerates unordered subset splits `(m1, m2)` of `mask` per the active
/// configuration.
fn enumerate_splits(
    mask: u32,
    members: &[usize],
    sink_boundary_pos: &[Option<usize>],
    config: &DwConfig,
) -> Vec<(u32, u32)> {
    if config.separator_split {
        let positions: Option<Vec<usize>> =
            members.iter().map(|&i| sink_boundary_pos[i]).collect();
        if let Some(positions) = positions {
            if let Some(local) = consecutive_splits(&positions) {
                return local
                    .into_iter()
                    .map(|(l1, l2)| (expand_mask(l1, members), expand_mask(l2, members)))
                    .collect();
            }
        }
    }
    // Full enumeration of unordered proper splits.
    let mut out = Vec::new();
    let mut m1 = (mask - 1) & mask;
    while m1 > 0 {
        let m2 = mask ^ m1;
        if m1 > m2 {
            out.push((m1, m2));
        }
        m1 = (m1 - 1) & mask;
    }
    out
}

/// Maps a mask over local member indices back to the global sink mask.
fn expand_mask(local: u32, members: &[usize]) -> u32 {
    let mut out = 0u32;
    for (i, &m) in members.iter().enumerate() {
        if local >> i & 1 == 1 {
            out |= 1 << m;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor_geom::Point;

    fn net(pts: &[(i64, i64)]) -> Net {
        Net::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn degree_two_is_a_single_direct_edge() {
        let f = pareto_frontier(&net(&[(0, 0), (7, 3)]), &DwConfig::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f.cost_vec(), vec![Cost::new(10, 10)]);
    }

    #[test]
    fn degree_three_l_shape() {
        // Collinear-ish pins: the RSMT is also the shortest-path tree, so
        // the frontier is a single point.
        let f = pareto_frontier(&net(&[(0, 0), (4, 0), (8, 0)]), &DwConfig::default());
        assert_eq!(f.cost_vec(), vec![Cost::new(8, 8)]);
    }

    #[test]
    fn degree_three_with_steiner_point() {
        let f = pareto_frontier(&net(&[(0, 0), (4, 2), (2, 4)]), &DwConfig::default());
        // RSMT via Steiner (2,2): w=8; every sink path is shortest (6), so
        // single frontier point (8, 6).
        assert_eq!(f.cost_vec(), vec![Cost::new(8, 6)]);
        for (c, t) in f.iter() {
            assert_eq!((c.wirelength, c.delay), t.objectives());
            t.validate(&net(&[(0, 0), (4, 2), (2, 4)])).unwrap();
        }
    }

    #[test]
    fn tradeoff_instance_has_multiple_points() {
        // Source left, two sinks arranged so minimizing w forces a detour.
        let n = net(&[(0, 0), (10, 1), (10, -1)]);
        let f = pareto_frontier(&n, &DwConfig::default());
        // w-optimal: trunk to (10,0)-ish then split: w=12, d=11.
        // d-optimal: star: w=22, d=11 — same delay! So actually single point.
        let (wopt, _) = f.min_wirelength().unwrap();
        assert_eq!(wopt.wirelength, 12);
        for (c, t) in f.iter() {
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
    }

    #[test]
    fn genuine_tradeoff_frontier() {
        // Degree-5 instance with a real w/d tradeoff (degree-3 nets never
        // have one — the median Steiner tree is distance-preserving — and
        // degree-4 tradeoffs are vanishingly rare, matching Table IV).
        let n = net(&[(19, 2), (8, 4), (4, 3), (5, 4), (13, 12)]);
        let f = pareto_frontier(&n, &DwConfig::default());
        assert_eq!(
            f.cost_vec(),
            vec![Cost::new(26, 18), Cost::new(27, 16)],
            "expected the known two-point frontier"
        );
        let (w_end, _) = f.min_wirelength().unwrap();
        let (d_end, _) = f.min_delay().unwrap();
        assert!(w_end.wirelength < d_end.wirelength);
        assert!(d_end.delay < w_end.delay);
    }

    #[test]
    fn pruning_lemmas_do_not_change_results() {
        let nets = [
            net(&[(0, 0), (6, 6), (7, 5)]),
            net(&[(0, 0), (10, 1), (10, -1)]),
            net(&[(3, 3), (0, 7), (7, 0), (9, 9)]),
            net(&[(5, 0), (0, 5), (9, 4), (4, 9)]),
            net(&[(0, 0), (2, 7), (5, 3), (8, 8), (7, 1)]),
        ];
        for n in &nets {
            let unpruned = pareto_frontier(n, &DwConfig::unpruned());
            let pruned = pareto_frontier(n, &DwConfig::default());
            assert_eq!(
                unpruned.cost_vec(),
                pruned.cost_vec(),
                "pruning changed the frontier on {:?}",
                n
            );
        }
    }

    #[test]
    fn duplicate_pin_positions_are_handled() {
        let n = net(&[(0, 0), (5, 5), (5, 5)]);
        let f = pareto_frontier(&n, &DwConfig::default());
        assert_eq!(f.cost_vec(), vec![Cost::new(10, 10)]);
    }

    #[test]
    fn witnesses_match_reported_costs() {
        let n = net(&[(1, 8), (0, 0), (8, 2), (9, 9), (4, 5)]);
        let f = pareto_frontier(&n, &DwConfig::default());
        assert!(!f.is_empty());
        for (c, t) in f.iter() {
            t.validate(&n).unwrap();
            assert_eq!((c.wirelength, c.delay), t.objectives());
        }
        // Frontier ends are bounded by the trivial bounds.
        let (d_end, _) = f.min_delay().unwrap();
        assert!(d_end.delay >= n.delay_lower_bound());
    }

    #[test]
    fn cancellable_with_inert_hook_matches_plain_enumeration() {
        use std::cell::Cell;
        let n = net(&[(19, 2), (8, 4), (4, 3), (5, 4), (13, 12)]);
        let checkpoints = Cell::new(0u32);
        let cancel = || {
            checkpoints.set(checkpoints.get() + 1);
            false
        };
        let cancellable =
            pareto_frontier_cancellable(&n, &DwConfig::default(), &cancel).expect("never cancels");
        assert_eq!(cancellable, pareto_frontier(&n, &DwConfig::default()));
        // One checkpoint per subset mask (2^4 − 1) plus the final one.
        assert_eq!(checkpoints.get(), 16);
    }

    #[test]
    fn cancellation_mid_enumeration_returns_cancelled() {
        use std::cell::Cell;
        let n = net(&[(0, 0), (2, 7), (5, 3), (8, 8), (7, 1)]);
        let budget = Cell::new(3u32);
        let cancel = || {
            let left = budget.get();
            budget.set(left.saturating_sub(1));
            left == 0
        };
        assert_eq!(
            pareto_frontier_cancellable(&n, &DwConfig::default(), &cancel),
            Err(Cancelled)
        );
    }

    #[test]
    fn immediate_cancellation_does_no_work() {
        let n = net(&[(0, 0), (4, 2), (2, 4)]);
        assert_eq!(
            pareto_frontier_cancellable(&n, &DwConfig::default(), &|| true),
            Err(Cancelled)
        );
    }
}
