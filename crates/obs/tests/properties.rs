//! Property tests for the observability primitives: ring wraparound
//! keeps exactly the newest N, and records survive a JSONL round trip
//! bit-for-bit. Randomized but seeded — failures replay exactly.

use asgov_obs::{
    parse_jsonl, CycleRecord, DegradationLevel, RingBuffer, RingSink, SocErrorKind, TraceSink,
};
use asgov_util::Rng;

fn random_record(rng: &mut Rng, cycle: u64) -> CycleRecord {
    let fault = if rng.gen_bool(0.3) {
        Some(SocErrorKind::ALL[rng.gen_range_usize(0..SocErrorKind::ALL.len())])
    } else {
        None
    };
    let level = DegradationLevel::ALL[rng.gen_range_usize(0..DegradationLevel::ALL.len())];
    let tau_lower_ms = (rng.gen_range_usize(0..11) * 200) as u64;
    CycleRecord {
        cycle,
        t_ms: 2_000 * (cycle + 1),
        target_gips: rng.gen_range(0.01..4.0),
        measured_gips: rng.gen_range(0.0..4.0),
        error: rng.gen_range(-2.0..2.0),
        base_estimate: rng.gen_range(0.01..2.0),
        innovation: rng.gen_range(-1.0..1.0),
        required_speedup: rng.gen_range(1.0..3.2),
        lower: (
            rng.gen_range_usize(0..20) as u32,
            rng.gen_range_usize(0..12) as u32,
        ),
        upper: (
            rng.gen_range_usize(0..20) as u32,
            rng.gen_range_usize(0..12) as u32,
        ),
        tau_lower_ms,
        tau_upper_ms: 2_000 - tau_lower_ms,
        solve_ns: rng.next_u64() % 1_000_000,
        actuation_ns: rng.next_u64() % 10_000_000,
        fault,
        level,
        restarts: rng.next_u64() % 4,
        snapshot_errors: rng.next_u64() % 3,
    }
}

#[test]
fn wraparound_preserves_newest_n() {
    let mut rng = Rng::seed_from_u64(0x0b5);
    for case in 0..200 {
        let capacity = rng.gen_range_usize(1..33);
        let pushes = rng.gen_range_usize(0..100);
        let mut ring = RingBuffer::new(capacity);
        for i in 0..pushes as u64 {
            ring.push(i);
        }
        let got: Vec<u64> = ring.iter().copied().collect();
        let expect: Vec<u64> = (pushes.saturating_sub(capacity) as u64..pushes as u64).collect();
        assert_eq!(got, expect, "case {case}: cap {capacity}, pushes {pushes}");
        assert_eq!(ring.pushed(), pushes as u64);
        assert_eq!(ring.dropped(), (pushes.saturating_sub(capacity)) as u64);
        assert_eq!(ring.last().copied(), expect.last().copied());
    }
}

#[test]
fn jsonl_round_trips_randomized_records() {
    // Every field — including the optional fault and the enum level —
    // must survive serialize → parse exactly (f64 Display in the
    // vendored JSON writer is shortest-round-trip).
    let mut rng = Rng::seed_from_u64(0x0b5 + 1);
    for case in 0..300 {
        let rec = random_record(&mut rng, case);
        let line = rec.to_jsonl_line();
        let back = CycleRecord::from_jsonl_line(&line)
            .unwrap_or_else(|e| panic!("case {case}: {e} in {line}"));
        assert_eq!(rec, back, "case {case}");
        assert_eq!(
            rec.target_gips.to_bits(),
            back.target_gips.to_bits(),
            "case {case}: floats must round-trip to the bit"
        );
    }
}

#[test]
fn sink_jsonl_round_trips_and_respects_capacity() {
    let mut rng = Rng::seed_from_u64(0x0b5 + 2);
    for case in 0..50 {
        let capacity = rng.gen_range_usize(1..17);
        let cycles = rng.gen_range_usize(0..40);
        let mut sink = RingSink::new(capacity);
        let mut all = Vec::new();
        for i in 0..cycles as u64 {
            let rec = random_record(&mut rng, i);
            sink.record_cycle(&rec);
            all.push(rec);
        }
        let parsed = parse_jsonl(&sink.to_jsonl()).unwrap();
        let expect: Vec<CycleRecord> = all.iter().rev().take(capacity).rev().copied().collect();
        assert_eq!(parsed, expect, "case {case}");
        assert_eq!(sink.metrics().cycles, cycles as u64);
    }
}

#[test]
fn metrics_level_and_fault_tallies_match_the_stream() {
    let mut rng = Rng::seed_from_u64(0x0b5 + 3);
    let mut sink = RingSink::new(8);
    let mut level_expect = [0u64; 3];
    let mut fault_expect = [0u64; 5];
    for i in 0..500 {
        let rec = random_record(&mut rng, i);
        level_expect[rec.level.index()] += 1;
        if let Some(f) = rec.fault {
            fault_expect[f.index()] += 1;
        }
        sink.record_cycle(&rec);
    }
    assert_eq!(sink.metrics().level_cycles, level_expect);
    assert_eq!(sink.metrics().faults, fault_expect);
    assert_eq!(sink.metrics().solve_ns.count(), 500);
}
