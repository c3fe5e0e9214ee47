//! # asgov-fleet — fleet-scale controller simulation
//!
//! Spawns N simulated devices with distinct apps, seeds and fault
//! plans drawn deterministically from a fleet seed, and runs
//! supervised controllers over them in sharded epochs (ROADMAP
//! item 2, DESIGN.md §11–§12).
//!
//! Structure:
//! - [`FleetConfig`] / [`DeviceSpec`] — run description and the pure
//!   derivation of per-device identity ([`spec`]).
//! - [`PolicyStore`] — profiles and baselines resolved once per
//!   `(app, load)` signature and shared by every device ([`store`]).
//! - [`ShardState`] / [`shard::run_epoch_into`] — the per-shard epoch
//!   engine with warm controller migration ([`shard`]).
//! - [`FleetReport`] — per-app / per-fault-class savings
//!   distributions over a columnar `FleetStats` aggregator
//!   ([`report`]).
//! - [`Fleet`] — the epoch engine. [`Fleet::run`] is one
//!   `ordered_map` batch on a persistent `asgov_util::par::WorkerPool`:
//!   job `s` advances shard `s` through every remaining epoch — no
//!   global barrier. Each shard-epoch's counters and savings fold into
//!   one accumulator as it ends; only per-epoch energies wait for the
//!   batch to end.
//!   [`Fleet::step`] is the same engine bounded to one epoch.
//!
//! Determinism contract: the aggregate report is **bit-identical**
//! for any thread count, across any split of the run into `step`s,
//! and across a mid-run checkpoint/restore — every random draw
//! derives from `(seed, device_id, epoch)`, the counters and savings
//! columns merge exactly (integers and integer fixed-point), and the
//! one floating-point total folds in a fixed (epoch-major,
//! shard-minor) order. The differential suite in
//! `tests/fleet_determinism.rs` pins all three properties.

pub mod report;
pub mod shard;
pub mod spec;
pub mod store;

pub use report::{app_stream, fault_stream, savings_agg, EpochStats, FleetReport};
pub use shard::ShardState;
pub use spec::{DeviceSpec, FaultClass, FleetConfig, FleetError};
pub use store::{PolicyStore, StoredPolicy};

use asgov_util::par::WorkerPool;
use std::sync::{Mutex, PoisonError};

/// A fleet run in progress: shard states, the accumulated report, and
/// the persistent worker pool the epoch engine fans out over.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    shards: Vec<ShardState>,
    report: FleetReport,
    pool: WorkerPool,
}

impl Fleet {
    /// Set up a fleet run (epoch 0, no controller state yet). Spawns
    /// the worker pool once; every `run` and `step` reuses it.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadConfig`] when `config` violates an invariant.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        config.validate()?;
        let shards: Vec<ShardState> = (0..config.shards)
            .map(|s| ShardState::new(&config, s))
            .collect();
        let threads = store::resolve_threads(config.threads, shards.len());
        Ok(Self {
            config,
            shards,
            report: FleetReport::new(config),
            pool: WorkerPool::new(threads),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Epochs completed so far.
    pub fn epochs_run(&self) -> u64 {
        self.report.epochs_run
    }

    /// `true` once every configured epoch has run.
    pub fn done(&self) -> bool {
        self.report.epochs_run >= self.config.epochs
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &FleetReport {
        &self.report
    }

    /// Run one epoch (a no-op once every epoch has run): [`Fleet::run`]
    /// bounded to the next epoch boundary, so the report is
    /// bit-identical to running the same epochs in one [`Fleet::run`]
    /// call.
    ///
    /// # Errors
    ///
    /// As [`Fleet::run`]: the earliest `(epoch, shard)` error. A failed
    /// step does not roll back — errors are deterministic, so a retry
    /// would fail identically, and the fleet must be discarded.
    pub fn step(&mut self, store: &PolicyStore) -> Result<(), FleetError> {
        self.run_until(store, self.report.epochs_run + 1)
    }

    /// Run all remaining epochs and return the final report. One pool
    /// batch covers the whole run: job `s` advances shard `s` through
    /// every remaining epoch, so workers never idle at a global epoch
    /// barrier. The exact counters and savings fold in completion
    /// order and the energies epoch-major/shard-minor afterward, so the
    /// report is bit-identical to running [`Fleet::step`] in a loop.
    ///
    /// # Errors
    ///
    /// The earliest `(epoch, shard)` error, ties going to the lowest
    /// shard. The fleet is left partially advanced and must be
    /// discarded (errors are deterministic, so a retry would fail
    /// identically).
    pub fn run(&mut self, store: &PolicyStore) -> Result<&FleetReport, FleetError> {
        self.run_until(store, self.config.epochs)?;
        Ok(&self.report)
    }

    /// The engine behind [`Fleet::run`] and [`Fleet::step`]: advance
    /// every shard from the current epoch up to (excluding)
    /// `end_epoch`, capped at the configured epoch count.
    fn run_until(&mut self, store: &PolicyStore, end_epoch: u64) -> Result<(), FleetError> {
        let config = self.config;
        let end_epoch = end_epoch.min(config.epochs);
        let start_epoch = self.report.epochs_run;
        if start_epoch >= end_epoch {
            return Ok(());
        }
        if self.shards.iter().any(|s| s.next_epoch != start_epoch) {
            return Err(FleetError::BadConfig(
                "shard epochs out of alignment".into(),
            ));
        }

        // Job `s` runs shard `s` to `end_epoch` (or its first error),
        // writing each epoch's energy into its own row of `energy` for
        // the epoch-major fold below. The exact counters and savings
        // columns fold into one accumulator as each epoch ends, so the
        // batch holds O(workers) statistics however many shards it has;
        // their merge is exact in any order, so completion order cannot
        // change a bit.
        let epochs = (end_epoch - start_epoch) as usize;
        let mut energy = vec![0.0; self.shards.len() * epochs];
        let acc = Mutex::new(EpochStats::default());
        let slots: Vec<Mutex<(&mut ShardState, &mut [f64])>> = self
            .shards
            .iter_mut()
            .zip(energy.chunks_mut(epochs))
            .map(Mutex::new)
            .collect();
        let runs = self.pool.ordered_map(slots.len(), |s| {
            // asgov-analyze: allow(hot-path-index): ordered_map runs jobs `0..slots.len()` only
            let mut slot = slots[s].lock().unwrap_or_else(PoisonError::into_inner);
            let (state, row) = &mut *slot;
            for epoch_j in row.iter_mut() {
                let epoch = state.next_epoch;
                let mut stats =
                    shard::run_epoch_into(&config, store, state).map_err(|e| (epoch, e))?;
                *epoch_j = std::mem::take(&mut stats.energy_j);
                acc.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .merge(&stats)
                    .map_err(|_| (epoch, FleetError::StatsLayout))?;
            }
            Ok(())
        });
        drop(slots);

        // The earliest `(epoch, shard)` error wins; runs arrive in
        // shard order, so a strict `<` keeps the lowest shard on ties.
        // On error the accumulator is dropped and the report untouched.
        let mut first_error: Option<(u64, FleetError)> = None;
        for (epoch, e) in runs.into_iter().filter_map(Result::err) {
            if first_error.as_ref().is_none_or(|(first, _)| epoch < *first) {
                first_error = Some((epoch, e));
            }
        }
        if let Some((_, e)) = first_error {
            return Err(e);
        }

        // Per epoch, sum the shards' energy in shard order, then add
        // that to the total: the same f64 add sequence as a `step`
        // loop, however the run is split into steps.
        let totals = &mut self.report.totals;
        for i in 0..epochs {
            let mut epoch_j = 0.0;
            for row in energy.chunks(epochs) {
                epoch_j += row.get(i).copied().unwrap_or(0.0);
            }
            totals.energy_j += epoch_j;
        }
        let acc = acc.into_inner().unwrap_or_else(PoisonError::into_inner);
        totals.merge(&acc).map_err(|_| FleetError::StatsLayout)?;
        self.report.epochs_run = end_epoch;
        Ok(())
    }

    asgov_core::snapshot_fields! {
        /// Encode the whole run — shard states *and* the report so far —
        /// as one framed snapshot, suitable for warm-migrating a mid-run
        /// fleet to another process.
        ///
        /// # Errors
        ///
        /// [`SnapshotError::TooLarge`](asgov_core::SnapshotError::TooLarge)
        /// if any component is 4 GiB or longer.
        pub fn checkpoint(&self) -> frame;
        fn restore_frame(&mut self, bytes) -> frame;

        // An intact checkpoint taken under another run configuration
        // names the field the operator changed, not "corrupt".
        #[pin] devices: u64 = self.config.devices,
        #[pin] shards: u64 = self.config.shards,
        #[pin] epochs: u64 = self.config.epochs,
        #[pin] epoch_ms: u64 = self.config.epoch_ms,
        #[pin] seed: u64 = self.config.seed,
        #[pin] demand_quantum_ms: u64 = self.config.demand_quantum_ms,
        #[check(epochs_run <= self.config.epochs)]
        epochs_run: u64 = self.report.epochs_run => self.report.epochs_run = epochs_run,
        #[nested] totals: EpochStats = self.report.totals => self.report.totals = totals,
        // One frame per shard, each at the resume epoch (checkpoints
        // are taken at epoch boundaries, and `run` needs them aligned).
        #[frames(ShardState, self.config.shards, &self.config)]
        #[check(shards.iter().all(|s| s.next_epoch == epochs_run))]
        shards: Vec<ShardState>,
    }

    /// Restore a fleet from a [`Fleet::checkpoint`] frame, resuming at
    /// the epoch the checkpoint was taken at. The frame must match
    /// `config`'s identity fields (devices, shards, epochs, epoch_ms,
    /// seed, demand_quantum_ms); `threads` is free to differ — it
    /// cannot change results.
    ///
    /// # Errors
    ///
    /// [`FleetError::Snapshot`] on damage or a config mismatch,
    /// [`FleetError::BadConfig`] when `config` itself is invalid.
    pub fn restore(config: FleetConfig, bytes: &[u8]) -> Result<Self, FleetError> {
        let mut fleet = Self::new(config)?;
        fleet.restore_frame(bytes)?;
        Ok(fleet)
    }

    /// Borrow the shard states (diagnostics, tests).
    pub fn shards(&self) -> &[ShardState] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_core::{SnapshotError, SnapshotReader, SnapshotWriter};

    #[test]
    fn new_rejects_invalid_configs() {
        let bad = FleetConfig {
            devices: 0,
            ..FleetConfig::smoke()
        };
        assert!(matches!(Fleet::new(bad), Err(FleetError::BadConfig(_))));
    }

    #[test]
    fn fresh_checkpoint_round_trips() {
        let cfg = FleetConfig {
            devices: 12,
            shards: 4,
            ..FleetConfig::smoke()
        };
        let fleet = Fleet::new(cfg).expect("valid config");
        let bytes = fleet.checkpoint().expect("small frame");
        let back = Fleet::restore(cfg, &bytes).expect("clean frame");
        assert_eq!(back.epochs_run(), 0);
        assert_eq!(back.shards(), fleet.shards());
    }

    #[test]
    fn random_checkpoints_round_trip() {
        let cfg = FleetConfig {
            devices: 12,
            shards: 4,
            ..FleetConfig::smoke()
        };
        let mut rng = asgov_util::Rng::seed_from_u64(0xf1ee_7001);
        for case in 0..50 {
            let mut fleet = Fleet::new(cfg).expect("valid config");
            let epochs_run = rng.gen_range_usize(0..cfg.epochs as usize + 1) as u64;
            fleet.report.epochs_run = epochs_run;
            fleet.report.totals = report::tests::random_stats(&mut rng);
            for shard in &mut fleet.shards {
                shard.next_epoch = epochs_run;
                for slot in &mut shard.snapshots {
                    *slot = rng
                        .gen_bool(0.5)
                        .then(|| report::tests::wide(&mut rng).to_le_bytes().to_vec());
                }
            }
            let bytes = fleet.checkpoint().expect("small frame");
            let back = Fleet::restore(cfg, &bytes).expect("clean frame");
            assert_eq!(back.shards(), fleet.shards(), "case {case}");
            assert_eq!(
                format!("{:?}", back.report()),
                format!("{:?}", fleet.report()),
                "case {case}"
            );
            assert_eq!(back.checkpoint(), Ok(bytes), "case {case}: re-encoded");
        }
    }

    #[test]
    fn stats_word_count_past_the_frame_is_corrupt() {
        // A valid stats header declaring 2^22 savings words with none
        // present: rejected before the 32 MiB reservation, as Corrupt.
        let mut w = SnapshotWriter::new();
        w.put_uvar(1); // online
        w.put_uvar(1); // offline
        w.put_f64(1.0); // energy_j
        for _ in 0..5 {
            w.put_uvar(0); // restarts .. downtime_ms
        }
        w.put_uvar(1 << 22); // savings word count
        let frame = w.finish().expect("small frame");
        let mut r = SnapshotReader::new(&frame).expect("intact frame");
        assert_eq!(
            EpochStats::default().read_fields(&mut r),
            Err(SnapshotError::Corrupt)
        );
    }

    #[test]
    fn restore_rejects_mismatched_identity() {
        let cfg = FleetConfig {
            devices: 12,
            shards: 4,
            ..FleetConfig::smoke()
        };
        let fleet = Fleet::new(cfg).expect("valid config");
        let bytes = fleet.checkpoint().expect("small frame");
        // An intact frame restored under a changed parameter must name
        // the mismatching field — not claim the checkpoint is damaged.
        let field_of = |cfg: FleetConfig| match Fleet::restore(cfg, &bytes) {
            Err(FleetError::Snapshot(SnapshotError::ConfigMismatch { field })) => field,
            other => panic!("expected ConfigMismatch, got {other:?}"),
        };
        assert_eq!(field_of(FleetConfig { seed: 99, ..cfg }), "seed");
        assert_eq!(
            field_of(FleetConfig {
                demand_quantum_ms: 5,
                ..cfg
            }),
            "demand_quantum_ms"
        );
        // Actual damage still reads as corruption, not a config drift.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            Fleet::restore(cfg, &bad),
            Err(FleetError::Snapshot(
                SnapshotError::Corrupt | SnapshotError::Truncated
            ))
        ));
    }
}
