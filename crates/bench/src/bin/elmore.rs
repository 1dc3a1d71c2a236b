//! Extension experiment: re-ranking PatLabor's Pareto set under the
//! Elmore (RC) delay model — the paper's future-work direction ("extend
//! our approach to other metrics of routing trees").
//!
//! The Pareto set is computed for the paper's (w, path-length) objectives;
//! per net we then pick the member with the smallest *Elmore* delay and
//! compare against single-solution flows and a SALT sweep evaluated the
//! same way.

use patlabor::{Engine, RouterConfig};
use patlabor_baselines::{rsma, rsmt, salt};
use patlabor_bench::{paper_note, render_table, scaled};
use patlabor_tree::{max_elmore, ElmoreModel};

fn main() {
    let net_count = scaled(80, 15);
    println!("Elmore re-ranking of PatLabor Pareto sets ({net_count} nets)\n");
    let router = Engine::with_config(RouterConfig {
        lambda: 5,
        ..RouterConfig::default()
    });
    let model = ElmoreModel::default();
    let nets: Vec<_> = patlabor_netgen::iccad_like_suite(0xe180, net_count, 30)
        .into_iter()
        .map(|n| n.dedup_pins())
        .filter(|n| n.degree() >= 4)
        .collect();

    let mut sums = [0.0f64; 4]; // pareto-best, rsmt, spt, salt-best
    let mut agree = 0usize;
    for net in &nets {
        let frontier = router.route(net).expect("every armed rung failed").frontier;
        let best_pareto = frontier
            .iter()
            .map(|(_, t)| max_elmore(t, &model))
            .fold(f64::INFINITY, f64::min);
        let min_path = frontier.min_delay().expect("non-empty").1;
        if (max_elmore(min_path, &model) - best_pareto).abs() < 1e-9 {
            agree += 1;
        }
        let rsmt_d = max_elmore(&rsmt::rsmt_tree(net), &model);
        let spt_d = max_elmore(&rsma::cl_arborescence(net), &model);
        let salt_best = salt::salt_pareto(net, &salt::DEFAULT_EPSILONS)
            .iter()
            .map(|(_, t)| max_elmore(t, &model))
            .fold(f64::INFINITY, f64::min);
        // Normalize by the net's Pareto-best so nets average fairly.
        sums[0] += 1.0;
        sums[1] += rsmt_d / best_pareto;
        sums[2] += spt_d / best_pareto;
        sums[3] += salt_best / best_pareto;
    }
    let n = nets.len() as f64;
    let rows = vec![
        vec!["PatLabor set, Elmore-best pick".into(), "1.000".into()],
        vec!["always RSMT".into(), format!("{:.3}", sums[1] / n)],
        vec!["always SPT (CL)".into(), format!("{:.3}", sums[2] / n)],
        vec!["SALT sweep, Elmore-best pick".into(), format!("{:.3}", sums[3] / n)],
    ];
    println!(
        "{}",
        render_table(&["strategy", "avg max-Elmore (normalized)"], &rows)
    );
    println!(
        "\npath-delay-optimal member is also Elmore-optimal on {agree}/{} nets",
        nets.len()
    );
    paper_note(
        "not in the paper (its conclusion proposes extending to other metrics). \
         Measured shape: the path-length Pareto pick clearly beats the RSMT flow \
         and nearly ties a SALT sweep, and the path-delay-optimal member is almost \
         always the Elmore-best member of the set; but a dedicated arborescence can \
         still win under Elmore because RC delay rewards load *isolation*, not just \
         short paths — evidence that a real Elmore extension needs Elmore inside \
         the optimization loop, exactly why the paper lists it as future work.",
    );
}
