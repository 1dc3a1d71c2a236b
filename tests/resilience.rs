//! Fault-matrix integration test for the degradation ladder (DESIGN.md
//! §12): every fault kind the [`patlabor::FaultPlane`] can inject, fired
//! at the primary serving rung over a seeded mixed-degree corpus, must
//! leave the batch driver with zero process aborts — every affected net
//! either served by a lower rung with a verified frontier or failed with
//! a structured [`patlabor::RouteError`].
//!
//! Time is virtual throughout: the clock never moves, and an injected
//! stage delay is charged to the delayed net's own deadline budget, so
//! the deadline drills cannot flake on a loaded machine. The
//! `#[ignore]`d variant runs the acceptance-scale 500-net corpus (CI's
//! fault-matrix job covers the same scale through `patlabor verify`).

use std::sync::Arc;
use std::time::Duration;

use patlabor::{
    Engine, Fault, FaultKind, FaultPlane, FaultScope, LutBuilder, Net, ResilienceConfig,
    ResilienceReport, RouteError, RouterConfig, VirtualClock,
};

fn corpus(seed: u64, count: usize) -> Vec<Net> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    (0..count)
        // Degrees 3–6 against λ=4 tables: the matrix exercises both the
        // table rungs (3, 4) and the local-search/baseline path (5, 6).
        .map(|i| patlabor_netgen::uniform_net(&mut rng, 3 + i % 4, 32))
        .collect()
}

fn drill(nets: &[Net], fault: Fault, deadline: Option<Duration>) -> (Vec<patlabor::pipeline::RouteResult>, ResilienceReport) {
    let table = LutBuilder::new(4).build();
    let router = Engine::with_table_and_config(
        table,
        RouterConfig {
            resilience: ResilienceConfig { deadline, ..ResilienceConfig::default() },
            faults: FaultPlane::seeded(0x5eed).with_fault(fault),
            ..RouterConfig::default()
        },
    )
    .with_clock(Arc::new(VirtualClock::new()));
    let results = router.route_batch(nets, 4);
    let report = ResilienceReport::from_results(&results);
    (results, report)
}

/// Shared invariant check: a served net's frontier is non-empty, every
/// witness tree spans the net, and every advertised cost matches its
/// tree's recomputed objectives.
fn assert_served_invariants(net: &Net, outcome: &patlabor::pipeline::RouteOutcome) {
    assert!(!outcome.frontier.is_empty(), "served an empty frontier");
    for (cost, tree) in outcome.frontier.iter() {
        tree.validate(net).expect("served tree must span the net");
        assert_eq!(
            (cost.wirelength, cost.delay),
            tree.objectives(),
            "advertised cost must match the tree"
        );
    }
}

fn run_matrix(nets: &[Net]) {
    for kind in FaultKind::ALL {
        // Stage delays only matter under a deadline; the default 5ms
        // injected delay blows a 1ms budget on the first gated rung.
        let deadline = matches!(kind, FaultKind::StageDelay).then(|| Duration::from_millis(1));
        let fault = Fault { kind, scope: FaultScope::Primary, probability: 0.5 };
        let (results, report) = drill(nets, fault, deadline);

        assert_eq!(report.nets as usize, nets.len(), "{kind}: every net accounted for");
        assert_eq!(report.served + report.errors, report.nets, "{kind}: served + errors = nets");
        // A primary-rung fault always leaves a lower rung standing, so
        // the ladder must serve every net.
        assert_eq!(report.errors, 0, "{kind}: a primary-scope fault must be absorbed");
        assert!(
            report.degraded >= 1,
            "{kind}: p=0.5 over {} nets must degrade someone",
            nets.len()
        );
        for (net, result) in nets.iter().zip(&results) {
            let outcome = result.as_ref().expect("errors == 0");
            assert_served_invariants(net, outcome);
        }
    }
}

#[test]
fn fault_matrix_serves_every_net_from_a_lower_rung() {
    run_matrix(&corpus(0xfa17, 100));
}

/// Acceptance-scale variant: the full 500-net corpus, every fault kind.
/// Minutes-long under the dev profile — run with `--ignored --release`.
#[test]
#[ignore = "acceptance-scale corpus; run with --ignored --release"]
fn fault_matrix_at_acceptance_scale() {
    run_matrix(&corpus(0xfa17, 500));
}

#[test]
fn unabsorbable_panics_fail_slots_structurally_not_fatally() {
    let nets = corpus(0xfa18, 60);
    let fault = Fault { kind: FaultKind::StagePanic, scope: FaultScope::AllRungs, probability: 0.4 };
    let (results, report) = drill(&nets, fault, None);

    assert_eq!(report.errors, report.panicked, "panics are the only armed fault");
    assert!(report.panicked >= 1, "p=0.4 over 60 nets must hit someone");
    assert!(report.served >= 1, "degree-2-free corpus still has unhit nets");
    for (net, result) in nets.iter().zip(&results) {
        match result {
            Ok(outcome) => assert_served_invariants(net, outcome),
            Err(RouteError::Panicked { payload }) => {
                assert!(payload.contains("injected fault"), "payload was: {payload}")
            }
            Err(e) => panic!("expected a structured panic error, got: {e}"),
        }
    }
}

/// A stage delay spends only the delayed net's budget, so a batch's
/// answers cannot depend on how many workers share the engine clock:
/// every `RouteResult`, provenance and trace included, is the same at
/// 1, 2 and 8 threads. The engine has no cache (the default), so no
/// answer depends on which worker routed a congruent net first.
#[test]
fn stage_delays_charge_only_their_own_net_at_every_thread_count() {
    let nets = corpus(0xde1a, 600);
    let engine = Engine::with_table_and_config(
        LutBuilder::new(4).build(),
        RouterConfig {
            resilience: ResilienceConfig {
                deadline: Some(Duration::from_millis(1)),
                ..ResilienceConfig::default()
            },
            faults: FaultPlane::seeded(0x5eed).with_fault(Fault {
                kind: FaultKind::StageDelay,
                scope: FaultScope::Primary,
                probability: 0.3,
            }),
            ..RouterConfig::default()
        },
    )
    .with_clock(Arc::new(VirtualClock::new()));

    let serial = engine.route_batch(&nets, 1);
    let report = ResilienceReport::from_results(&serial);
    assert!(
        report.deadline_hits > 0 && report.deadline_hits < report.nets,
        "p=0.3 must delay some nets and spare others: {report}"
    );
    for threads in [2, 8] {
        let parallel = engine.route_batch(&nets, threads);
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a, b, "net {i} at {threads} threads differs from serial");
        }
    }
}
