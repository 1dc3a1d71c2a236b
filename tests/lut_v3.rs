//! Integration tests for the lookup-table query kernel (dot-product
//! scoring over symbolic cost rows, introduced with format v3): scores
//! must reproduce numeric Pareto-DW exactly, trees must only be built for
//! frontier survivors, and a table saved and opened with `open_mmap` must
//! equal the one it was built as (the CI `lut-roundtrip` step runs the
//! `lut_roundtrip_` tests against a freshly built λ=5 file).

use std::sync::OnceLock;

use patlabor_dw::{numeric, DwConfig};
use patlabor_geom::{Net, Point};
use patlabor_lut::{LookupTable, LutBuilder};

fn table6() -> &'static LookupTable {
    static TABLE: OnceLock<LookupTable> = OnceLock::new();
    TABLE.get_or_init(|| LutBuilder::new(6).build())
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn random_net(rng: &mut impl FnMut() -> u64, degree: usize, span: u64) -> Net {
    loop {
        let pins: Vec<Point> = (0..degree)
            .map(|_| Point::new((rng() % span) as i64, (rng() % span) as i64))
            .collect();
        if let Ok(net) = Net::new(pins) {
            return net;
        }
    }
}

#[test]
fn v3_query_matches_numeric_dw_for_degrees_3_to_6() {
    let table = table6();
    let mut rng = xorshift(0x9e37_79b9_7f4a_7c15);
    for trial in 0..80 {
        let degree = 3 + trial % 4; // 3, 4, 5, 6
        let net = random_net(&mut rng, degree, 64);
        let expected = numeric::pareto_frontier(&net, &DwConfig::default());
        let got = table.query(&net).expect("degree within lambda");
        assert_eq!(
            got.cost_vec(),
            expected.cost_vec(),
            "dot-product frontier diverged from numeric DW on {:?}",
            net.pins()
        );
        for (c, t) in got.iter() {
            t.validate(&net).unwrap();
            assert_eq!(
                (c.wirelength, c.delay),
                t.objectives(),
                "witness tree must realize its advertised cost"
            );
        }
    }
}

#[test]
fn v3_query_matches_the_materialize_all_reference_path() {
    let table = table6();
    let mut rng = xorshift(0x0123_4567_89ab_cdef);
    for trial in 0..40 {
        let degree = 3 + trial % 4;
        let net = random_net(&mut rng, degree, 48);
        let class = table.classify(&net).unwrap();
        let fast = table.query(&net).unwrap();
        let reference = table.query_materialize_all(&net, &class).unwrap();
        assert_eq!(fast.cost_vec(), reference.cost_vec());
    }
}

#[test]
fn trees_are_materialized_only_for_frontier_survivors() {
    let table = table6();
    let mut rng = xorshift(0xfeed_f00d_dead_beef);
    let mut saw_pruning = false;
    for trial in 0..30 {
        let degree = 5 + trial % 2; // 5, 6 — degrees with big candidate pools
        let net = random_net(&mut rng, degree, 64);
        let class = table.classify(&net).unwrap();
        let candidates = table.candidate_ids(&class).unwrap().len();
        let before = LookupTable::thread_materializations();
        let frontier = table.query(&net).unwrap();
        let built = LookupTable::thread_materializations() - before;
        assert_eq!(
            built,
            frontier.len() as u64,
            "query must materialize exactly one tree per frontier point"
        );
        if candidates > frontier.len() {
            saw_pruning = true;
        }
    }
    assert!(
        saw_pruning,
        "test nets must exercise dominated candidates, else the assertion is vacuous"
    );
}

/// Table builds are deterministic, and their bytes are pinned: the v4
/// bytes of each λ keep their length and payload checksum (the header's
/// u64 at offset 24). A change that moves any table byte fails here,
/// whether it changes the symbolic DP's survivors, their order or their
/// edges, the pooling, or the writer. If a change moves them on purpose,
/// the new figures go in with the reason.
#[test]
fn lut_tables_are_byte_stable() {
    let pinned: [(u8, usize, u64); 4] = [
        (3, 656, 0x51b2_c041_a2d5_2bc9),
        (4, 2_920, 0xb0de_9433_fa13_e62c),
        (5, 38_940, 0x141d_e0b6_19e4_9015),
        (6, 933_232, 0x669c_ec09_d65e_f78c),
    ];
    for (lambda, len, checksum) in pinned {
        let built;
        let table = if lambda == 6 {
            table6()
        } else {
            built = LutBuilder::new(lambda).build();
            &built
        };
        let mut bytes = Vec::new();
        table.write_to(&mut bytes).expect("in-memory write");
        let stored = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte checksum"));
        assert_eq!(
            (bytes.len(), stored),
            (len, checksum),
            "lambda {lambda}: (length, checksum) moved"
        );
    }
}

#[test]
fn lut_roundtrip_mmap_backing_answers_like_the_owned_one() {
    let table = LutBuilder::new(5).build();
    let dir = std::env::temp_dir().join("patlabor_lut_v3_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip5_mmap.plut");
    table.save(&path).unwrap();
    let mapped = LookupTable::open_mmap(&path).unwrap();
    assert_eq!(mapped.backing(), patlabor_lut::Backing::Mapped);
    assert_eq!(mapped, table);

    // Full query parity — frontiers and witness trees — between the
    // zero-copy mapping and the in-memory build it came from.
    let mut rng = xorshift(0x5eed_cafe_f00d_1234);
    for trial in 0..30 {
        let degree = 3 + trial % 3; // 3, 4, 5
        let net = random_net(&mut rng, degree, 40);
        let owned = table.query(&net).expect("degree within lambda");
        let zero_copy = mapped.query(&net).expect("degree within lambda");
        assert_eq!(owned, zero_copy);
    }
    drop(mapped);
    std::fs::remove_file(&path).ok();
}

#[test]
fn lut_roundtrip_reload_preserves_table_and_answers() {
    let table = LutBuilder::new(5).build();
    let dir = std::env::temp_dir().join("patlabor_lut_v3_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip5.plut");
    table.save(&path).unwrap();
    let reloaded = LookupTable::open_mmap(&path).unwrap();
    assert_eq!(reloaded, table);

    // Reloaded tables answer queries identically to numeric DW — the
    // cost rows and CSR ids survived serialization intact.
    let mut rng = xorshift(0xabad_1dea_0c0f_fee5);
    for trial in 0..30 {
        let degree = 3 + trial % 3; // 3, 4, 5
        let net = random_net(&mut rng, degree, 40);
        let expected = numeric::pareto_frontier(&net, &DwConfig::default());
        let got = reloaded.query(&net).expect("degree within lambda");
        assert_eq!(got.cost_vec(), expected.cost_vec());
    }
    std::fs::remove_file(&path).ok();
}
