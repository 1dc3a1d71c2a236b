//! Timing closure over a synthetic design: the global-routing use case
//! that motivates Pareto sets (paper §I — "selecting net topologies from a
//! candidate solution set may improve the performance of global routers").
//!
//! Routes an ICCAD-like suite of nets, then — per net — picks the lightest
//! frontier tree meeting that net's delay budget, and compares the result
//! against the two single-solution extremes (always-RSMT, always-SPT).
//!
//! ```sh
//! cargo run --release --example timing_closure
//! ```

use patlabor::{Engine, LutBuilder};
use patlabor_baselines::{rsma, rsmt};

fn main() {
    let nets = patlabor_netgen::iccad_like_suite(2025, 120, 30);
    let router = Engine::with_table(LutBuilder::new(5).build());

    let mut pareto_wire = 0i64;
    let mut pareto_violations = 0usize;
    let mut rsmt_wire = 0i64;
    let mut rsmt_violations = 0usize;
    let mut spt_wire = 0i64;
    let mut spt_violations = 0usize;

    for net in &nets {
        // Per-net delay budget: 10% slack over the physical lower bound.
        let budget = net.delay_lower_bound() + net.delay_lower_bound() / 10;

        let frontier = router.route(net).expect("every armed rung failed").frontier;
        // Lightest tree meeting the budget, else the fastest available.
        let choice = frontier
            .iter()
            .find(|(c, _)| c.delay <= budget)
            .or_else(|| frontier.min_delay())
            .expect("frontier is never empty");
        pareto_wire += choice.0.wirelength;
        if choice.0.delay > budget {
            pareto_violations += 1;
        }

        let light = rsmt::rsmt_tree(net);
        rsmt_wire += light.wirelength();
        if light.delay() > budget {
            rsmt_violations += 1;
        }

        let fast = rsma::cl_arborescence(net);
        spt_wire += fast.wirelength();
        if fast.delay() > budget {
            spt_violations += 1;
        }
    }

    println!("{} nets, 10% delay slack budgets\n", nets.len());
    println!("strategy                total wirelength   budget violations");
    println!("--------------------------------------------------------------");
    println!("always RSMT (FLUTE*)    {rsmt_wire:>16}   {rsmt_violations:>6}");
    println!("always SPT  (CL)        {spt_wire:>16}   {spt_violations:>6}");
    println!("PatLabor per-net pick   {pareto_wire:>16}   {pareto_violations:>6}");

    let saved = 100.0 * (spt_wire - pareto_wire) as f64 / spt_wire as f64;
    println!(
        "\nPatLabor meets (nearly) every budget like the SPT while saving \
         {saved:.1}% wirelength versus it."
    );
    assert!(pareto_violations <= rsmt_violations);
    assert!(pareto_wire <= spt_wire);
}
