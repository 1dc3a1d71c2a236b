//! Multi-byte damage of v4 table files: the hostile-input corpus for
//! the table loader.
//!
//! Single-byte flips and truncations at every offset are covered by the
//! `patlabor-lut` unit tests. This corpus damages a saved λ = 4 file
//! several bytes at a time, seeded through `splitmix64`:
//!
//! * 2–8 byte flips at distinct offsets, half of the cases drawn from the
//!   whole file and half from its first 512 bytes (the header and the
//!   section table, where a flip can move the layout rather than break
//!   the checksum);
//! * truncations followed by 2–8 flips inside what is left.
//!
//! Every damaged file differs from the original, so `open_mmap`, the only
//! reader, must refuse each one with a `ReadTableError`, and
//! `TableInfo::read` (`lut info`) must describe or refuse it without
//! panicking.

use std::path::Path;

use patlabor::resilience::splitmix64;
use patlabor_lut::{LookupTable, LutBuilder, TableInfo};

/// Seeded cases per damage kind.
const CASES: u64 = 2_000;

/// The structural prefix of a λ = 4 file: the 64-byte header and its
/// twelve 32-byte section entries, rounded up.
const PREFIX: usize = 512;

/// `count` distinct offsets below `len`, drawn from `seed`.
fn distinct_offsets(seed: u64, count: usize, len: usize) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(count);
    let mut draw = seed;
    while offsets.len() < count.min(len) {
        draw = splitmix64(draw);
        let offset = (draw % len as u64) as usize;
        if !offsets.contains(&offset) {
            offsets.push(offset);
        }
    }
    offsets
}

/// Flips 2–8 distinct bytes of `bytes[..span]`, each by a nonzero mask.
fn flip(bytes: &mut [u8], seed: u64, span: usize) {
    let count = 2 + (splitmix64(seed) % 7) as usize;
    for (i, offset) in distinct_offsets(seed ^ 0xf11b, count, span).into_iter().enumerate() {
        let mask = 1 + (splitmix64(seed.wrapping_add(i as u64)) % 255) as u8;
        bytes[offset] ^= mask;
    }
}

/// Writes `damaged` and demands that the loader refuse it and that the
/// file-level report returns.
fn assert_refused(path: &Path, original: &[u8], damaged: &[u8], case: &str) {
    assert_ne!(damaged, original, "{case}: the damage changed nothing");
    std::fs::write(path, damaged).unwrap();
    assert!(
        LookupTable::open_mmap(path).is_err(),
        "{case}: a damaged file was opened"
    );
    let _ = TableInfo::read(path);
}

#[test]
fn multi_byte_damage_of_v4_files_is_refused() {
    let dir = std::env::temp_dir().join(format!("patlabor_v4_damage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("damaged.plut");
    LutBuilder::new(4).threads(2).build().save(&path).unwrap();
    let original = std::fs::read(&path).unwrap();
    assert!(LookupTable::open_mmap(&path).is_ok(), "the undamaged file opens");
    assert!(original.len() > PREFIX);

    for case in 0..CASES {
        let seed = splitmix64(0xda3a_9e00 ^ case);
        let span = if case % 2 == 0 { original.len() } else { PREFIX };
        let mut damaged = original.clone();
        flip(&mut damaged, seed, span);
        assert_refused(&path, &original, &damaged, &format!("flip case {case}"));
    }
    for case in 0..CASES {
        let seed = splitmix64(0x7c0b_a7e0 ^ case);
        let cut = (seed % original.len() as u64) as usize;
        let mut damaged = original[..cut].to_vec();
        if cut > 0 {
            flip(&mut damaged, seed, cut);
        }
        assert_refused(&path, &original, &damaged, &format!("truncation case {case} at {cut}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}
