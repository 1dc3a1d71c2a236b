//! Heavy cross-validation runs, ignored by default.
//!
//! ```sh
//! cargo test --release --test heavy -- --ignored
//! ```

use patlabor::{LutBuilder, Net, Point};
use patlabor_dw::{numeric, oracle, DwConfig};
use patlabor_verify::{mutation_smoke, verify, VerifyConfig};

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

/// Full-Steiner exhaustive oracle vs the DP at degree 5 (minutes).
#[test]
#[ignore = "minutes-long exhaustive enumeration"]
fn oracle_agrees_with_dw_on_degree_5() {
    let mut seed = 0x5eed5;
    for _ in 0..3 {
        let net = random_net(&mut seed, 5, 30);
        let reference = oracle::exhaustive_frontier(&net);
        let dw = numeric::pareto_frontier(&net, &DwConfig::default());
        assert_eq!(dw.cost_vec(), reference.cost_vec(), "mismatch on {net:?}");
    }
}

/// λ = 7 table generation + agreement with the DP on random degree-7 nets.
///
/// The table's v4 bytes are pinned like the smaller tables' in
/// `tests/lut_v3.rs`: their length and the header's payload checksum.
/// CI runs this test in release, where the build takes about 30 s on two
/// cores.
#[test]
#[ignore = "generates the lambda-7 tables (about 30 s in release on 2 cores)"]
fn lambda7_table_agrees_with_dw() {
    let table = LutBuilder::new(7).build();
    let mut bytes = Vec::new();
    table.write_to(&mut bytes).expect("in-memory write");
    let checksum = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte checksum"));
    assert_eq!(
        (bytes.len(), checksum),
        (29_822_808, 0xfca5_e71f_621d_8785),
        "lambda 7: (length, checksum) moved"
    );
    drop(bytes);
    let mut seed = 0x7ab1e;
    for _ in 0..10 {
        let net = random_net(&mut seed, 7, 200);
        let dw = numeric::pareto_frontier(&net, &DwConfig::default());
        let lut = table.query(&net).expect("degree 7 tabulated");
        assert_eq!(lut.cost_vec(), dw.cost_vec(), "mismatch on {net:?}");
    }
}

/// The differential harness at full scale: 600 nets, degrees 3–8 over
/// λ = 6 tables, every fast/slow pair, on two corpus seeds — followed by
/// the mutation self-check proving the oracle detects planted damage.
#[test]
#[ignore = "builds lambda-6 tables and re-enumerates hundreds of DW frontiers"]
fn differential_harness_clean_at_scale() {
    for seed in [0x5eed, 0xfee1_600d] {
        let config = VerifyConfig {
            seed,
            nets: 600,
            ..VerifyConfig::default()
        };
        let report = verify(&config);
        assert!(
            report.is_clean(),
            "divergence at scale (seed {seed:#x}):\n{}",
            report.summary()
        );
        for check in &report.checks {
            assert!(check.nets_checked > 0, "pair {} never ran", check.pair);
        }
        let smoke = mutation_smoke(&config);
        assert!(
            smoke.caught.is_some(),
            "harness missed a planted corruption ({})",
            smoke.mutation
        );
    }
}

/// Pruned vs unpruned DP on degree-8 instances (tens of seconds each).
#[test]
#[ignore = "large exact-DP instances"]
fn pruning_lemmas_hold_at_degree_8() {
    let mut seed = 0x8888;
    for _ in 0..3 {
        let net = random_net(&mut seed, 8, 500);
        let pruned = numeric::pareto_frontier(&net, &DwConfig::default());
        let unpruned = numeric::pareto_frontier(&net, &DwConfig::unpruned());
        assert_eq!(pruned.cost_vec(), unpruned.cost_vec(), "mismatch on {net:?}");
    }
}
