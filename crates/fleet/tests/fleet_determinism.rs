//! Differential determinism suite for the fleet (ROADMAP item 2): the
//! aggregate report must be **bit-identical** across thread counts,
//! between one `run` and an epoch-at-a-time `step` loop, and across a
//! mid-run shard checkpoint + warm restore; errors must be
//! deterministic; and damaged fleet snapshots must always decode to
//! `SnapshotError` — never panic.

use asgov_core::persist::crc32;
use asgov_fleet::{savings_agg, DeviceSpec, Fleet, FleetConfig, FleetError, PolicyStore};
use asgov_obs::FleetStats;
use asgov_soc::DeviceConfig;
use asgov_util::Rng;

fn small_cfg(threads: usize) -> FleetConfig {
    FleetConfig {
        devices: 48,
        shards: 8,
        epochs: 3,
        epoch_ms: 3_000,
        seed: 0xf1ee7,
        threads,
        offline_rate: 0.08,
        demand_quantum_ms: 1,
    }
}

/// Resolve the store once for every scenario in this file (it is
/// itself thread-count invariant, pinned by a store unit test).
fn store() -> PolicyStore {
    PolicyStore::resolve(&small_cfg(0), &DeviceConfig::nexus6())
}

fn final_report_json(store: &PolicyStore, threads: usize) -> String {
    let mut fleet = Fleet::new(small_cfg(threads)).expect("valid config");
    let report = fleet.run(store).expect("run completes");
    report.to_json().to_pretty()
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let store = store();
    let serial = final_report_json(&store, 1);
    for threads in [2, 4, 8] {
        let parallel = final_report_json(&store, threads);
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the aggregate report"
        );
    }
    // The report actually contains work, not a degenerate empty run.
    assert!(serial.contains("savings_per_app"));
    let fleet = {
        let mut f = Fleet::new(small_cfg(1)).expect("valid config");
        f.run(&store).expect("run completes");
        f
    };
    assert!(fleet.report().totals.online > 0, "devices simulated");
    assert!(
        fleet.report().totals.warm_migrations > 0,
        "controller state migrated across epochs"
    );
}

#[test]
fn one_run_is_bit_identical_to_a_step_loop() {
    let store = store();
    // Epoch-at-a-time reference: a `step` loop stops every shard at
    // each epoch boundary, where checkpoints are taken.
    let mut barriered = Fleet::new(small_cfg(1)).expect("valid config");
    while !barriered.done() {
        barriered.step(&store).expect("barriered epoch");
    }
    let reference = barriered.report().to_json().to_pretty();
    // One run at several worker counts: shards cross epoch boundaries
    // independently, yet the folded report must match the step loop's
    // bit for bit.
    for threads in [1, 2, 4, 8] {
        let mut pipelined = Fleet::new(small_cfg(threads)).expect("valid config");
        pipelined.run(&store).expect("pipelined run");
        assert_eq!(
            reference,
            pipelined.report().to_json().to_pretty(),
            "pipelined report diverged at {threads} threads"
        );
    }
}

#[test]
fn an_unknown_signature_fails_run_and_step_deterministically() {
    // An empty store knows no signature, so every shard fails in its
    // first epoch; the lowest shard's first device names the error.
    let store = PolicyStore::default();
    let expected =
        FleetError::UnknownSignature(DeviceSpec::derive(small_cfg(1).seed, 0).signature());
    for threads in [1, 2, 4] {
        let config = small_cfg(threads);
        let mut fleet = Fleet::new(config).expect("valid config");
        assert_eq!(
            fleet.run(&store).err(),
            Some(expected.clone()),
            "run at {threads} threads"
        );
        assert_eq!(fleet.shards().len() as u64, config.shards);
        assert_eq!(
            fleet.step(&store),
            Err(expected.clone()),
            "step at {threads} threads"
        );
    }
}

#[test]
fn coarse_quantum_tier_is_thread_invariant_and_warm_restorable() {
    // The bench-1m tier runs a coarse demand quantum; its determinism
    // guarantees are the same as the exact tier's.
    let cfg = |threads: usize| FleetConfig {
        demand_quantum_ms: 20,
        epochs: 2,
        threads,
        ..small_cfg(threads)
    };
    let store = PolicyStore::resolve(&cfg(0), &DeviceConfig::nexus6());

    let mut straight = Fleet::new(cfg(1)).expect("valid config");
    straight.run(&store).expect("straight coarse run");
    assert!(straight.report().totals.online > 0, "devices simulated");

    let mut interrupted = Fleet::new(cfg(4)).expect("valid config");
    interrupted.step(&store).expect("epoch 0");
    let frame = interrupted.checkpoint().expect("checkpoint encodes");
    let mut resumed = Fleet::restore(cfg(3), &frame).expect("checkpoint restores");
    resumed.run(&store).expect("resumed pipelined run");

    assert_eq!(
        straight.report().to_json().to_pretty(),
        resumed.report().to_json().to_pretty(),
        "coarse-quantum restore must reproduce the straight run"
    );
}

#[test]
fn fleet_stats_merge_is_associative_over_random_partitions() {
    // Partition a stream of savings samples into K partial aggregates
    // at random, then fold them left-to-right, as a pairwise tree and
    // in random orders: the columnar state must come out bit-identical
    // (the fixed-point moments make merge exactly associative and
    // commutative), which is what lets a run fold each shard-epoch in
    // completion order and still match a step loop.
    let mut rng = Rng::seed_from_u64(0xa55e7);
    for trial in 0..25 {
        let parts_n = 2 + rng.gen_range_usize(0..7);
        let mut parts: Vec<FleetStats> = (0..parts_n).map(|_| savings_agg()).collect();
        for _ in 0..400 {
            let p = rng.gen_range_usize(0..parts_n);
            let part = parts.get_mut(p).expect("partition in range");
            let stream = rng.gen_range_usize(0..part.streams());
            if rng.gen_bool(0.05) {
                part.record_excluded(stream);
            } else {
                part.record(stream, rng.gen_range(-150.0..150.0));
            }
        }

        let mut fold_left = savings_agg();
        for p in &parts {
            fold_left.merge(p).expect("same layout");
        }

        // Random permutations: the order jobs may finish in.
        for perm in 0..4 {
            let mut order: Vec<usize> = (0..parts_n).collect();
            for i in (1..parts_n).rev() {
                order.swap(i, rng.gen_range_usize(0..i + 1));
            }
            let mut shuffled = savings_agg();
            for &p in &order {
                let part = parts.get(p).expect("permutation of part indices");
                shuffled.merge(part).expect("same layout");
            }
            assert_eq!(
                fold_left.serialize_words(),
                shuffled.serialize_words(),
                "trial {trial} permutation {perm} ({order:?}): merge order changed the state"
            );
        }

        let mut layer = parts;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let mut m = pair.first().expect("chunk non-empty").clone();
                if let Some(right) = pair.get(1) {
                    m.merge(right).expect("same layout");
                }
                next.push(m);
            }
            layer = next;
        }
        let tree = layer.pop().expect("reduced to one");

        assert_eq!(
            fold_left.serialize_words(),
            tree.serialize_words(),
            "trial {trial}: fold-left and pairwise-tree merges diverged"
        );
    }
}

#[test]
fn mid_run_checkpoint_and_warm_restore_reproduce_the_straight_run() {
    let store = store();

    // Straight run: all 3 epochs in one fleet.
    let mut straight = Fleet::new(small_cfg(2)).expect("valid config");
    straight.run(&store).expect("straight run");

    // Interrupted run: one epoch, checkpoint, restore into a fresh
    // fleet (different thread count on purpose), finish there.
    let mut first = Fleet::new(small_cfg(2)).expect("valid config");
    first.step(&store).expect("epoch 0");
    let frame = first.checkpoint().expect("checkpoint encodes");
    drop(first);

    let mut resumed = Fleet::restore(small_cfg(7), &frame).expect("checkpoint restores");
    assert_eq!(resumed.epochs_run(), 1);
    resumed.run(&store).expect("resumed run");

    assert_eq!(
        straight.report().to_json().to_pretty(),
        resumed.report().to_json().to_pretty(),
        "a warm-restored fleet must finish with the identical report"
    );
}

#[test]
fn damaged_fleet_snapshots_error_and_never_panic() {
    let store = store();
    let cfg = small_cfg(2);
    let mut fleet = Fleet::new(cfg).expect("valid config");
    fleet.step(&store).expect("epoch 0");
    let frame = fleet.checkpoint().expect("checkpoint encodes");

    // The pristine frame restores.
    assert!(Fleet::restore(cfg, &frame).is_ok());

    let mut rng = Rng::seed_from_u64(0xdead);
    // Random truncations: every prefix length must decode to an error.
    for _ in 0..200 {
        let cut = rng.gen_range_usize(0..frame.len());
        let truncated = frame.get(..cut).unwrap_or(&[]);
        assert!(
            Fleet::restore(cfg, truncated).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
    // Random single-bit flips: the CRC (or a domain check) must catch
    // every one.
    for _ in 0..200 {
        let mut damaged = frame.clone();
        let byte = rng.gen_range_usize(0..damaged.len());
        let bit = rng.gen_range_usize(0..8) as u8;
        if let Some(b) = damaged.get_mut(byte) {
            *b ^= 1 << bit;
        }
        assert!(
            Fleet::restore(cfg, &damaged).is_err(),
            "bit flip at byte {byte} bit {bit} must be rejected"
        );
    }
}

/// Golden pin on the fleet frame's bytes: the length and CRC-32 of the
/// `FleetConfig::smoke()` checkpoint after one epoch, in snapshot
/// format version 4 (varint integers), cross-checked against zlib's
/// `crc32` of the same bytes. A change to the checksum, the frame
/// layout or any simulated state moves them; the restored-state digest
/// below separates a layout change from a state change.
#[test]
fn smoke_checkpoint_frame_is_pinned() {
    let cfg = FleetConfig::smoke();
    let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
    let mut fleet = Fleet::new(cfg).expect("valid config");
    fleet.step(&store).expect("epoch 0");
    let frame = fleet.checkpoint().expect("checkpoint encodes");
    assert_eq!(frame.len(), 115_074, "smoke checkpoint length moved");
    assert_eq!(crc32(&frame), 0xD6B8_5329, "smoke checkpoint bytes moved");
}

/// The q20 tier's checkpoint frame after one epoch, pinned like the
/// q1 smoke frame above: the 20 ms demand windows (spans of up to 20
/// ms, frames booked at their window's start) must keep every byte of
/// device state they had when the pin was taken.
#[test]
fn smoke_q20_checkpoint_frame_is_pinned() {
    let cfg = FleetConfig {
        demand_quantum_ms: 20,
        ..FleetConfig::smoke()
    };
    let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
    let mut fleet = Fleet::new(cfg).expect("valid config");
    fleet.step(&store).expect("epoch 0");
    let frame = fleet.checkpoint().expect("checkpoint encodes");
    assert_eq!(frame.len(), 115_086, "q20 checkpoint length moved");
    assert_eq!(crc32(&frame), 0x5BF7_E3BD, "q20 checkpoint bytes moved");
}

/// FNV-1a over formatted text, fed as it is written so no large
/// string is ever built.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Restore every device snapshot of `cfg`'s checkpoint after one epoch
/// into a controller built with a fixed seed, and digest the restored
/// controllers' `Debug` text (floats print round-trip exact). The
/// digest depends only on the state the snapshots carry, not on how
/// the wire format lays it out.
fn restored_state_digest(cfg: FleetConfig) -> (u64, usize) {
    use asgov_core::{ControllerBuilder, Restartable};
    use std::fmt::Write;
    let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
    let mut fleet = Fleet::new(cfg).expect("valid config");
    fleet.step(&store).expect("epoch 0");
    let frame = fleet.checkpoint().expect("checkpoint encodes");
    let restored = Fleet::restore(cfg, &frame).expect("checkpoint restores");
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut count = 0;
    for shard in restored.shards() {
        let (start, _) = cfg.shard_range(shard.shard);
        for (i, snap) in shard.snapshots.iter().enumerate() {
            let id = start + i as u64;
            write!(digest, "device {id}: ").expect("infallible");
            let Some(snap) = snap else {
                writeln!(digest, "none").expect("infallible");
                continue;
            };
            let sig = DeviceSpec::derive(cfg.seed, id).signature();
            let policy = store.get(&sig).expect("roster signature");
            let mut ctl = ControllerBuilder::new(policy.profile.clone())
                .target_gips(policy.target_gips)
                .seed(0x5eed)
                .build();
            ctl.restore_bytes(snap, cfg.epoch_ms + 250)
                .expect("device snapshot restores");
            writeln!(digest, "{ctl:?}").expect("infallible");
            count += 1;
        }
    }
    (digest.0, count)
}

/// The controller state the q1 and q20 smoke checkpoints carry after
/// one epoch, pinned independently of the snapshot wire format: a
/// format change must leave this digest where it is. Version 4 dropped
/// `Config`'s GPU field, so these are version 3's digests taken over
/// the same `Debug` text with every `, gpu: None` removed.
#[test]
fn smoke_restored_controller_state_is_pinned() {
    let q1 = restored_state_digest(FleetConfig::smoke());
    let q20 = restored_state_digest(FleetConfig {
        demand_quantum_ms: 20,
        ..FleetConfig::smoke()
    });
    assert_eq!(
        q1,
        (0xF4B6_1D12_8969_9739, 952),
        "q1 restored controller state moved"
    );
    assert_eq!(
        q20,
        (0x3E9F_1FAA_3390_0128, 952),
        "q20 restored controller state moved"
    );
}

/// FNV-1a digest of the `FleetConfig::smoke()` report's pretty JSON
/// (the `report{}` the `fleet` binary files) after the full run, with
/// the byte count, at demand quantum `quantum_ms`.
fn smoke_report_digest(quantum_ms: u64) -> (u64, usize) {
    use std::fmt::Write;
    let cfg = FleetConfig {
        demand_quantum_ms: quantum_ms,
        ..FleetConfig::smoke()
    };
    let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
    let mut fleet = Fleet::new(cfg).expect("valid config");
    let report = fleet.run(&store).expect("run completes");
    let json = report.to_json().to_pretty();
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    write!(digest, "{json}").expect("infallible");
    (digest.0, json.len())
}

/// The whole smoke report at quanta 1 and 20, pinned bit for bit: every
/// savings quantile, count and energy total of both tiers.
#[test]
fn smoke_report_json_is_pinned() {
    assert_eq!(
        smoke_report_digest(1),
        (0xA014_3D8A_5F7D_5DE0, 12_603),
        "q1 smoke report moved"
    );
    assert_eq!(
        smoke_report_digest(20),
        (0x2285_9742_E3DC_B53E, 13_192),
        "q20 smoke report moved"
    );
}
