//! Shared harness for the experiment binaries.
//!
//! One binary per paper table/figure lives in `src/bin/`; this library
//! provides the common machinery: running every routing method on a net,
//! normalizing Pareto curves by `w(FLUTE)` and `d(CL)` (the paper's
//! Fig. 7 convention), averaging curves across nets, and rendering
//! plain-text tables that mirror the paper's layout.
//!
//! Experiment sizes scale with the `PATLABOR_SCALE` environment variable
//! (a positive float, default 1.0): the defaults finish in minutes on a
//! laptop; the paper-scale runs need a beefier budget.

use std::time::{Duration, Instant};

use patlabor::{Engine, Net, ParetoSet, RoutingTree};
use patlabor_baselines::{pd, salt, weighted_sum};

/// Experiment scale factor from `PATLABOR_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("PATLABOR_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// `count` scaled by [`scale`], at least `min`.
pub fn scaled(count: usize, min: usize) -> usize {
    ((count as f64 * scale()) as usize).max(min)
}

/// The routing methods compared throughout the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// PatLabor (this work): exact tables below λ, local search above.
    PatLabor,
    /// SALT with the default ε sweep.
    Salt,
    /// Weighted-sum scalarization (YSD substitute) with the default β
    /// sweep.
    Ysd,
    /// Prim–Dijkstra (PD-II) with the default α sweep.
    Pd,
}

impl Method {
    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::PatLabor => "PatLabor",
            Method::Salt => "SALT",
            Method::Ysd => "YSD*",
            Method::Pd => "PD-II",
        }
    }

    /// All methods in display order.
    pub const ALL: [Method; 4] = [Method::PatLabor, Method::Salt, Method::Ysd, Method::Pd];
}

/// A method's output on one net, with wall time.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Which method ran.
    pub method: Method,
    /// The produced Pareto set.
    pub set: ParetoSet<RoutingTree>,
    /// Wall-clock time for this net.
    pub elapsed: Duration,
}

/// Runs one method on one net.
pub fn run_method(method: Method, net: &Net, router: &Engine) -> MethodRun {
    let start = Instant::now();
    let set = match method {
        Method::PatLabor => router.route(net).expect("every armed rung failed").frontier,
        Method::Salt => salt::salt_pareto(net, &salt::DEFAULT_EPSILONS),
        Method::Ysd => weighted_sum::weighted_sum_pareto(net, &weighted_sum::DEFAULT_BETAS),
        Method::Pd => pd::pd_pareto(net, &pd::DEFAULT_ALPHAS),
    };
    MethodRun {
        method,
        set,
        elapsed: start.elapsed(),
    }
}

/// The Fig. 7 normalization constants of a net: `w(FLUTE)` (RSMT
/// wirelength from the FLUTE substitute) and `d(CL)` (arborescence delay,
/// which equals the delay lower bound).
pub fn normalizers(net: &Net) -> (f64, f64) {
    let w = patlabor_baselines::rsmt::rsmt_tree(net).wirelength() as f64;
    let d = net.delay_lower_bound() as f64;
    (w.max(1.0), d.max(1.0))
}

/// An averaged, normalized Pareto curve: for each normalized-wirelength
/// budget on `grid`, the mean (over nets) of the best normalized delay
/// achievable within the budget.
///
/// Curves are staircase-interpolated; nets whose curve has no point within
/// a budget contribute their leftmost point's delay (clamping, so every
/// net contributes to every column and averages stay comparable).
pub fn average_curve(
    grid: &[f64],
    per_net: &[(ParetoSet<RoutingTree>, (f64, f64))],
) -> Vec<f64> {
    let mut sums = vec![0.0f64; grid.len()];
    for (set, (wn, dn)) in per_net {
        let points: Vec<(f64, f64)> = set
            .costs()
            .map(|c| (c.wirelength as f64 / wn, c.delay as f64 / dn))
            .collect();
        for (i, &budget) in grid.iter().enumerate() {
            let best = points
                .iter()
                .filter(|(w, _)| *w <= budget + 1e-9)
                .map(|(_, d)| *d)
                .fold(f64::INFINITY, f64::min);
            let value = if best.is_finite() {
                best
            } else {
                // Nothing within budget: contribute the cheapest point's
                // delay (the leftmost frontier point — the delay the
                // method would deliver at its smallest achievable budget).
                points.first().map(|&(_, d)| d).unwrap_or(1.0)
            };
            sums[i] += value;
        }
    }
    let n = per_net.len().max(1) as f64;
    sums.into_iter().map(|s| s / n).collect()
}

/// The normalized-wirelength grid used for Fig. 7 style curves.
pub fn default_grid() -> Vec<f64> {
    (0..=10).map(|i| 1.0 + i as f64 * 0.05).collect()
}

/// One method's per-net results: each routed frontier paired with the
/// net's `(wirelength, delay)` normalizers (see [`normalizers`]).
pub type MethodResults = Vec<(ParetoSet<RoutingTree>, (f64, f64))>;

/// Clamp-free quality summary: for each method, the average (over nets)
/// approximation factor of its set against the per-net **combined
/// frontier** (the Pareto union of every method's output) — `1.0` means
/// the method matches or dominates everything anyone found.
pub fn approximation_summary(per_method: &[MethodResults]) -> Vec<f64> {
    let nets = per_method[0].len();
    let mut sums = vec![0.0f64; per_method.len()];
    for net_idx in 0..nets {
        // Combined reference frontier for this net.
        let mut reference: ParetoSet<()> = ParetoSet::new();
        for m in per_method {
            for c in m[net_idx].0.costs() {
                reference.insert(c, ());
            }
        }
        for (mi, m) in per_method.iter().enumerate() {
            let produced = cost_set(&m[net_idx].0);
            sums[mi] +=
                patlabor_pareto::metrics::approximation_factor(&produced, &reference);
        }
    }
    sums.into_iter().map(|s| s / nets.max(1) as f64).collect()
}

/// Renders a plain-text table: header row + aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Least-squares fit `y = a·x + b`; returns `(a, b)`.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (0.0, sy / n.max(1.0));
    }
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    (a, b)
}

/// Exact frontier of a small net (degree ≤ λ of `router`'s table or ≤ 13
/// via the DP).
pub fn exact_frontier(net: &Net, router: &Engine) -> ParetoSet<RoutingTree> {
    if router.is_exact_for(net.degree()) {
        router.route(net).expect("every armed rung failed").frontier
    } else {
        patlabor_dw::numeric::pareto_frontier(net, &patlabor_dw::DwConfig::default())
    }
}

/// Pure-cost view of a tree set (drops the witnesses).
pub fn cost_set(set: &ParetoSet<RoutingTree>) -> ParetoSet<()> {
    set.costs().map(|c| (c, ())).collect()
}

/// Paper-vs-measured footer line used by every binary.
pub fn paper_note(line: &str) {
    println!("\n[paper] {line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_a_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let (a, b) = linear_fit(&xs, &ys);
        assert!((a - 2.0).abs() < 1e-9 && (b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_input() {
        let (a, b) = linear_fit(&[2.0, 2.0], &[5.0, 7.0]);
        assert_eq!(a, 0.0);
        assert_eq!(b, 6.0);
    }

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            &["x", "value"],
            &[
                vec!["1".into(), "10".into()],
                vec!["200".into(), "3".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("value"));
        assert!(lines[2].ends_with("10"));
    }

    #[test]
    fn average_curve_staircase_and_clamp() {
        use patlabor_pareto::{Cost, ParetoSet};
        use patlabor_tree::RoutingTree;
        let net = Net::new(vec![
            patlabor::Point::new(0, 0),
            patlabor::Point::new(10, 0),
        ])
        .unwrap();
        let tree = RoutingTree::direct(&net);
        // One net, frontier {(10,30), (20,20)}, normalizers (10, 10).
        let set: ParetoSet<RoutingTree> = [
            (Cost::new(10, 30), tree.clone()),
            (Cost::new(20, 20), tree),
        ]
        .into_iter()
        .collect();
        let per_net = vec![(set, (10.0, 10.0))];
        let grid = [0.5, 1.0, 1.5, 2.0];
        let avg = average_curve(&grid, &per_net);
        // Budget 0.5: nothing within → clamp to leftmost point's delay 3.0.
        assert_eq!(avg, vec![3.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn scaled_respects_minimum() {
        assert!(scaled(100, 10) >= 10);
    }

    #[test]
    fn methods_have_stable_names() {
        let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["PatLabor", "SALT", "YSD*", "PD-II"]);
    }
}

/// The mixed parallel-serving workload of the `scaling` gate, and the
/// `eco` gate's base nets.
///
/// Repeated cells and macros give real placements many congruent nets:
/// identical relative pin geometry at different offsets and
/// orientations. A third of the workload instantiates a small pool of
/// master patterns that way (cache hits after the first encounter); the
/// rest are fresh random nets of mixed degree 3–12 (mostly misses, and
/// above λ the local-search path, which bypasses the cache).
pub fn mixed_workload(count: usize, seed: u64) -> Vec<Net> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let masters: Vec<Net> = (0..64)
        .map(|_| {
            let degree = rng.gen_range(3..=5usize);
            patlabor_netgen::uniform_net(&mut rng, degree, 64)
        })
        .collect();
    (0..count)
        .map(|i| {
            if i % 3 == 0 {
                let master = &masters[rng.gen_range(0..masters.len())];
                let dx = rng.gen_range(0..100_000i64);
                let dy = rng.gen_range(0..100_000i64);
                let swap = rng.gen_bool(0.5);
                let flip_x = rng.gen_bool(0.5);
                let flip_y = rng.gen_bool(0.5);
                master.map_points(|p| {
                    let (mut x, mut y) = (p.x, p.y);
                    if swap {
                        std::mem::swap(&mut x, &mut y);
                    }
                    if flip_x {
                        x = -x;
                    }
                    if flip_y {
                        y = -y;
                    }
                    patlabor::Point::new(x + dx, y + dy)
                })
            } else {
                let degree = rng.gen_range(3..=12);
                let span = if i % 3 == 1 { 24 } else { 10_000 };
                patlabor_netgen::uniform_net(&mut rng, degree, span)
            }
        })
        .collect()
}

/// Per-degree statistics shared by Tables III and IV.
#[derive(Debug, Clone, Default)]
pub struct SmallDegreeStats {
    /// Nets evaluated at this degree.
    pub nets: usize,
    /// True frontier solutions across all nets.
    pub frontier_total: usize,
    /// Per method: nets on which the method found **no** frontier point.
    pub non_optimal: [usize; 4],
    /// Per method: frontier solutions found (exact cost matches).
    pub found: [usize; 4],
    /// Per method: accumulated wall time.
    pub time: [Duration; 4],
}

/// Runs the small-degree comparison once; Tables III and IV and Fig. 7(a)
/// are different projections of this data.
///
/// Also returns, per degree, the per-net curves (normalized) restricted to
/// nets where SALT or YSD was non-optimal — the Fig. 7(a) averaging rule.
#[allow(clippy::type_complexity)]
pub fn small_degree_comparison(
    router: &Engine,
    degrees: std::ops::RangeInclusive<usize>,
    nets_per_degree: usize,
    seed: u64,
) -> (
    Vec<(usize, SmallDegreeStats)>,
    Vec<[Vec<(ParetoSet<RoutingTree>, (f64, f64))>; 4]>,
) {
    use patlabor_pareto::metrics::{found_on_frontier, misses_frontier};
    let mut all_stats = Vec::new();
    let mut all_curves = Vec::new();
    let mut gen_seed = seed;
    for degree in degrees {
        let mut stats = SmallDegreeStats {
            nets: nets_per_degree,
            ..SmallDegreeStats::default()
        };
        let mut curves: [Vec<(ParetoSet<RoutingTree>, (f64, f64))>; 4] = Default::default();
        for net_idx in 0..nets_per_degree {
            gen_seed = gen_seed.wrapping_mul(6364136223846793005).wrapping_add(net_idx as u64 + 1);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(gen_seed);
            let net = patlabor_netgen::clustered_net(&mut rng, degree, 10_000, 1 + degree / 12);
            let frontier = exact_frontier(&net, router);
            stats.frontier_total += frontier.len();
            let norms = normalizers(&net);
            let mut runs = Vec::new();
            for (mi, method) in Method::ALL.iter().enumerate() {
                let run = run_method(*method, &net, router);
                stats.time[mi] += run.elapsed;
                if misses_frontier(&run.set, &frontier) {
                    stats.non_optimal[mi] += 1;
                }
                stats.found[mi] += found_on_frontier(&run.set, &frontier);
                runs.push(run);
            }
            // Fig. 7(a) averages only over nets where SALT or YSD missed.
            let salt_missed = misses_frontier(&runs[1].set, &frontier)
                || found_on_frontier(&runs[1].set, &frontier) < frontier.len();
            let ysd_missed = misses_frontier(&runs[2].set, &frontier)
                || found_on_frontier(&runs[2].set, &frontier) < frontier.len();
            if salt_missed || ysd_missed {
                for (mi, run) in runs.into_iter().enumerate() {
                    curves[mi].push((run.set, norms));
                }
            }
        }
        all_stats.push((degree, stats));
        all_curves.push(curves);
    }
    (all_stats, all_curves)
}
