//! The correctness gate. Every check runs outside the timed windows; any
//! failure makes the run report `"correct": false` and exit non-zero.

use patlabor::{Net, ParetoSet, RouteResult, RoutingTree};
use patlabor_dw::{numeric, DwConfig};

use crate::stats::Fnv;

/// Nets per workload checked against a fresh numeric Pareto-DW.
pub const DW_SAMPLE: usize = 1024;
/// Every this-many-th result has its witnesses validated.
pub const WITNESS_STRIDE: usize = 16;

/// Failures seen so far, the number of checks made, and the digest of
/// every frontier folded in.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
    failure_count: u64,
    pub checks: u64,
    digest: Fnv,
}

impl Gate {
    pub fn fail(&mut self, message: String) {
        self.failure_count += 1;
        if self.failures.len() < 8 {
            eprintln!("benchmark: check failed: {message}");
            self.failures.push(message);
        }
    }

    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.fail(message());
        }
    }

    pub fn passed(&self) -> bool {
        self.failure_count == 0
    }

    /// Folds one result into the frontier digest: every `(w, d)` in
    /// frontier order, with a marker between results.
    pub fn digest(&mut self, result: &RouteResult) {
        match result {
            Ok(outcome) => {
                self.digest_costs(outcome.frontier.costs().map(|c| (c.wirelength, c.delay)))
            }
            Err(_) => self.digest_costs([(i64::MIN, i64::MIN)]),
        }
    }

    /// [`Gate::digest`] for a frontier known only by its costs (a served
    /// reply).
    pub fn digest_costs(&mut self, costs: impl IntoIterator<Item = (i64, i64)>) {
        for (w, d) in costs {
            self.digest.push(w);
            self.digest.push(d);
        }
        self.digest.push(-1);
    }

    pub fn digest_value(&self) -> u64 {
        self.digest.finish()
    }

    /// The witness checks: every tree is a valid routing of `net`, its
    /// recomputed objectives equal its stored cost, and the frontier is
    /// a strict staircase (non-dominated, sorted).
    pub fn witnesses(&mut self, what: &str, net: &Net, frontier: &ParetoSet<RoutingTree>) {
        self.check(!frontier.is_empty(), || format!("{what}: empty frontier"));
        for (cost, tree) in frontier.iter() {
            if let Err(e) = tree.validate(net) {
                self.check(false, || format!("{what}: invalid witness: {e}"));
            }
            self.check((cost.wirelength, cost.delay) == tree.objectives(), || {
                format!(
                    "{what}: stored cost {cost:?} != witness objectives {:?}",
                    tree.objectives()
                )
            });
        }
        let costs = frontier.cost_vec();
        self.check(
            costs
                .windows(2)
                .all(|w| w[0].wirelength < w[1].wirelength && w[0].delay > w[1].delay),
            || format!("{what}: frontier is not a non-dominated staircase: {costs:?}"),
        );
    }

    /// The exactness check: a tabulated net's frontier costs equal a
    /// fresh numeric Pareto-DW's.
    pub fn matches_dw(&mut self, what: &str, net: &Net, frontier: &ParetoSet<RoutingTree>) {
        let exact = numeric::pareto_frontier(net, &DwConfig::default()).cost_vec();
        let got = frontier.cost_vec();
        self.check(got == exact, || {
            format!("{what}: frontier {got:?} != numeric DW {exact:?}")
        });
    }
}

/// Collects up to [`DW_SAMPLE`] tabulated `(net, frontier)` pairs as a
/// batch streams by, for [`Gate::matches_dw`] after the timed phase.
#[derive(Debug, Default)]
pub struct DwSample(pub Vec<(Net, ParetoSet<RoutingTree>)>);

impl DwSample {
    pub fn offer(&mut self, net: &Net, result: &RouteResult) {
        let tabulated = (3..=crate::workloads::LAMBDA as usize).contains(&net.degree());
        if let (true, true, Ok(outcome)) = (tabulated, self.0.len() < DW_SAMPLE, result) {
            self.0.push((net.clone(), outcome.frontier.clone()));
        }
    }

    /// Runs the DW comparisons over `threads` scoped threads.
    pub fn verify(self, gate: &mut Gate, threads: usize) {
        let chunk = self.0.len().div_ceil(threads.max(1)).max(1);
        let gates: Vec<Gate> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .0
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let mut g = Gate::default();
                        for (i, (net, frontier)) in part.iter().enumerate() {
                            g.matches_dw(&format!("dw sample {i}"), net, frontier);
                        }
                        g
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("DW check thread panicked"))
                .collect()
        });
        for g in gates {
            gate.checks += g.checks;
            gate.failure_count += g.failure_count;
            gate.failures.extend(g.failures);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patlabor::{Cost, Point};

    fn net() -> Net {
        Net::new(vec![Point::new(0, 0), Point::new(7, 2), Point::new(3, 9)]).unwrap()
    }

    #[test]
    fn gate_catches_a_cost_that_disagrees_with_its_witness() {
        let tree = RoutingTree::direct(&net());
        let (w, d) = tree.objectives();
        let mut good = ParetoSet::new();
        good.insert(Cost::new(w, d), tree.clone());
        let mut gate = Gate::default();
        gate.witnesses("good", &net(), &good);
        assert!(gate.passed());
        let mut bad = ParetoSet::new();
        bad.insert(Cost::new(w - 1, d), tree);
        gate.witnesses("bad", &net(), &bad);
        assert!(!gate.passed());
    }
}
