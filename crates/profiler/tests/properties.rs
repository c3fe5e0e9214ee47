//! Property-based tests of the profile table: TSV and JSON round-trips
//! for arbitrary tables, and its vector accessors.
//!
//! Randomized inputs come from a seeded [`asgov_util::Rng`] so every
//! run exercises the same cases (the hermetic stand-in for proptest).

use asgov_profiler::{Config, ProfileEntry, ProfileTable};
use asgov_soc::{BwIndex, FreqIndex, GpuFreqIndex};
use asgov_util::Rng;

fn random_entry(rng: &mut Rng) -> ProfileEntry {
    let gpu = if rng.gen_bool(0.3) {
        Some(GpuFreqIndex(rng.gen_range_usize(0..5)))
    } else {
        None
    };
    ProfileEntry {
        config: Config {
            freq: FreqIndex(rng.gen_range_usize(0..18)),
            bw: BwIndex(rng.gen_range_usize(0..13)),
            gpu,
        },
        speedup: rng.gen_range(0.1..10.0),
        power_w: rng.gen_range(0.5..8.0),
        measured: rng.gen_bool(0.5),
    }
}

fn random_name(rng: &mut Rng) -> String {
    const HEAD: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const TAIL: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 _-";
    let len = rng.gen_range_usize(0..21);
    let mut s = String::new();
    s.push(HEAD[rng.gen_range_usize(0..HEAD.len())] as char);
    for _ in 0..len {
        s.push(TAIL[rng.gen_range_usize(0..TAIL.len())] as char);
    }
    s
}

fn random_table(rng: &mut Rng) -> ProfileTable {
    let n = rng.gen_range_usize(1..60);
    ProfileTable {
        app: random_name(rng),
        base_gips: rng.gen_range(0.01..5.0),
        entries: (0..n).map(|_| random_entry(rng)).collect(),
    }
}

/// Any table survives the TSV round-trip bit-exactly (floats are
/// printed with full precision).
#[test]
fn tsv_round_trip() {
    let mut rng = Rng::seed_from_u64(0xf0_0001);
    for case in 0..256 {
        let table = random_table(&mut rng);
        let tsv = table.to_tsv();
        let back = ProfileTable::from_tsv(&tsv).expect("own output must parse");
        assert_eq!(table, back, "case {case}");
    }
}

/// Any table also survives the JSON round-trip bit-exactly.
#[test]
fn json_round_trip() {
    let mut rng = Rng::seed_from_u64(0xf0_0002);
    for case in 0..256 {
        let table = random_table(&mut rng);
        let json = table.to_json();
        let back = ProfileTable::from_json(&json).expect("own output must parse");
        assert_eq!(table, back, "case {case}");
    }
}

/// Vector accessors agree with the entries.
#[test]
fn vectors_match_entries() {
    let mut rng = Rng::seed_from_u64(0xf0_0003);
    for case in 0..256 {
        let table = random_table(&mut rng);
        let speedups = table.speedups();
        let powers = table.powers();
        assert_eq!(speedups.len(), table.len(), "case {case}");
        for (i, e) in table.entries.iter().enumerate() {
            assert_eq!(speedups[i], e.speedup, "case {case}");
            assert_eq!(powers[i], e.power_w, "case {case}");
            assert_eq!(table.config(i), e.config, "case {case}");
        }
        assert!(table.min_speedup() <= table.max_speedup(), "case {case}");
    }
}
