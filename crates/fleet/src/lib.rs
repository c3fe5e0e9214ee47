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
//! - [`Fleet`] — the epoch engine. [`Fleet::run`] pipelines shard
//!   epochs over a persistent `asgov_util::par::WorkerPool`: each
//!   shard enters epoch `e + 1` as soon as its *own* epoch `e` lands —
//!   no global barrier — and completed `(epoch, shard)` statistics are
//!   buffered and folded epoch-major/shard-minor afterward.
//!   [`Fleet::step`] is the same engine bounded to one epoch.
//!
//! Determinism contract: the aggregate report is **bit-identical**
//! for any thread count, across any split of the run into `step`s,
//! and across a mid-run checkpoint/restore — every random draw
//! derives from `(seed, device_id, epoch)`, the savings columns merge
//! exactly (integer fixed-point), and the one floating-point total
//! folds in a fixed (epoch-major, shard-minor) order. The
//! differential suite in `tests/fleet_determinism.rs` pins all three
//! properties.

pub mod report;
pub mod shard;
pub mod spec;
pub mod store;

pub use report::{app_stream, fault_stream, savings_agg, EpochStats, FleetReport};
pub use shard::ShardState;
pub use spec::{DeviceSpec, FaultClass, FleetConfig, FleetError};
pub use store::{PolicyStore, StoredPolicy};

use asgov_core::persist::{ensure, ensure_config, require};
use asgov_core::{SnapshotError, SnapshotReader, SnapshotWriter};
use asgov_obs::FleetStats;
use asgov_util::par::WorkerPool;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

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

    /// Run all remaining epochs **pipelined** and return the final
    /// report: one pool broadcast covers every remaining shard-epoch,
    /// and a shard re-enters the ready queue for epoch `e + 1` the
    /// moment its own epoch `e` lands — workers never idle at a
    /// global epoch barrier. Completed `(epoch, shard)` statistics
    /// are buffered and folded epoch-major/shard-minor afterward, so
    /// the report is bit-identical to running [`Fleet::step`] in a
    /// loop.
    ///
    /// # Errors
    ///
    /// The earliest `(epoch, shard)` error any worker hit. The fleet
    /// is left partially advanced and must be discarded (errors are
    /// deterministic, so a retry would fail identically).
    pub fn run(&mut self, store: &PolicyStore) -> Result<&FleetReport, FleetError> {
        self.run_until(store, self.config.epochs)?;
        Ok(&self.report)
    }

    /// The pipelined engine behind [`Fleet::run`] and [`Fleet::step`]:
    /// advance every shard from the current epoch up to (excluding)
    /// `end_epoch`, capped at the configured epoch count.
    fn run_until(&mut self, store: &PolicyStore, end_epoch: u64) -> Result<(), FleetError> {
        let config = self.config;
        let end_epoch = end_epoch.min(config.epochs);
        let start_epoch = self.report.epochs_run;
        if start_epoch >= end_epoch {
            return Ok(());
        }
        let nshards = self.shards.len() as u64;
        for shard in &self.shards {
            if shard.next_epoch != start_epoch {
                return Err(FleetError::BadConfig(
                    "shard epochs out of alignment; cannot pipeline".into(),
                ));
            }
        }

        let slots: Vec<Mutex<Option<ShardState>>> =
            self.shards.drain(..).map(|s| Mutex::new(Some(s))).collect();
        let queue = Mutex::new(PipelineQueue {
            ready: (0..nshards).collect(),
            remaining: nshards * (end_epoch - start_epoch),
            abort: false,
        });
        let work_ready = Condvar::new();
        let results: Mutex<BTreeMap<(u64, u64), EpochStats>> = Mutex::new(BTreeMap::new());
        let first_error: Mutex<Option<((u64, u64), FleetError)>> = Mutex::new(None);

        let fail = |at: (u64, u64), e: FleetError| {
            let mut slot = lock(&first_error);
            let replace = match &*slot {
                None => true,
                Some((prev_at, _)) => at < *prev_at,
            };
            if replace {
                *slot = Some((at, e));
            }
            lock(&queue).abort = true;
            work_ready.notify_all();
        };

        self.pool.broadcast(&|_worker| loop {
            let shard = {
                let mut q = lock(&queue);
                loop {
                    if q.abort || q.remaining == 0 {
                        return;
                    }
                    if let Some(s) = q.ready.pop_front() {
                        break s;
                    }
                    q = wait(&work_ready, q);
                }
            };
            let Some(slot) = slots.get(shard as usize) else {
                fail((start_epoch, shard), internal_error("shard slot missing"));
                return;
            };
            let Some(mut state) = lock(slot).take() else {
                fail((start_epoch, shard), internal_error("shard slot empty"));
                return;
            };
            let epoch = state.next_epoch;
            match shard::run_epoch_into(&config, store, &mut state) {
                Ok(stats) => {
                    let more = state.next_epoch < end_epoch;
                    *lock(slot) = Some(state);
                    lock(&results).insert((epoch, shard), stats);
                    let finished = {
                        let mut q = lock(&queue);
                        q.remaining = q.remaining.saturating_sub(1);
                        if more {
                            q.ready.push_back(shard);
                        }
                        q.remaining == 0
                    };
                    if finished {
                        work_ready.notify_all();
                    } else if more {
                        work_ready.notify_one();
                    }
                }
                Err(e) => {
                    *lock(slot) = Some(state);
                    fail((epoch, shard), e);
                    return;
                }
            }
        });

        // Reassemble shard states (every worker put its state back
        // before returning, on both the success and error paths).
        let mut shards = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                Some(state) => shards.push(state),
                None => return Err(internal_error("shard state lost in pipeline")),
            }
        }
        self.shards = shards;

        if let Some((_, e)) = lock(&first_error).take() {
            return Err(e);
        }

        // Fold the buffered statistics epoch-major, shard-minor: per
        // epoch, merge shards in shard order into a fresh accumulator,
        // then fold that into the totals — the f64 energy sum sees the
        // same grouping however the run is split into steps.
        let results = results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for epoch in start_epoch..end_epoch {
            let mut merged = EpochStats::default();
            for shard in 0..nshards {
                let Some(stats) = results.get(&(epoch, shard)) else {
                    return Err(internal_error("missing shard-epoch result"));
                };
                merged.merge(stats).map_err(|_| FleetError::StatsLayout)?;
            }
            self.report
                .totals
                .merge(&merged)
                .map_err(|_| FleetError::StatsLayout)?;
            self.report.epochs_run += 1;
        }
        Ok(())
    }

    /// Encode the whole run — shard states *and* the report so far —
    /// as one framed snapshot, suitable for warm-migrating a mid-run
    /// fleet to another process.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] if any component overflows the u32
    /// length prefix.
    pub fn checkpoint(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.config.devices);
        w.put_u64(self.config.shards);
        w.put_u64(self.config.epochs);
        w.put_u64(self.config.epoch_ms);
        w.put_u64(self.config.seed);
        w.put_u64(self.config.demand_quantum_ms);
        w.put_u64(self.report.epochs_run);
        encode_stats(&mut w, &self.report.totals)?;
        for shard in &self.shards {
            w.put_bytes(&shard.snapshot_bytes()?)?;
        }
        w.finish()
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
        config.validate()?;
        let mut r = SnapshotReader::new(bytes)?;
        // Per-field identity checks: an intact checkpoint taken under a
        // different run configuration reports *which* field the operator
        // changed (`ConfigMismatch`), not "corrupt".
        ensure_config(r.take_u64()? == config.devices, "devices")?;
        ensure_config(r.take_u64()? == config.shards, "shards")?;
        ensure_config(r.take_u64()? == config.epochs, "epochs")?;
        ensure_config(r.take_u64()? == config.epoch_ms, "epoch_ms")?;
        ensure_config(r.take_u64()? == config.seed, "seed")?;
        ensure_config(
            r.take_u64()? == config.demand_quantum_ms,
            "demand_quantum_ms",
        )?;
        let epochs_run = r.take_u64()?;
        ensure(epochs_run <= config.epochs)?;
        let totals = decode_stats(&mut r)?;
        let mut shards = Vec::with_capacity(config.shards as usize);
        for _ in 0..config.shards {
            let frame = r.take_bytes()?;
            let state = ShardState::restore_bytes(&config, frame)?;
            // Checkpoints are taken at epoch boundaries: every shard
            // must sit at exactly the fleet's resume epoch, or the
            // pipelined engine could not schedule it.
            ensure(state.next_epoch == epochs_run)?;
            shards.push(state);
        }
        r.finish()?;
        let mut report = FleetReport::new(config);
        report.epochs_run = epochs_run;
        report.totals = totals;
        let threads = store::resolve_threads(config.threads, shards.len());
        Ok(Self {
            config,
            shards,
            report,
            pool: WorkerPool::new(threads),
        })
    }

    /// Borrow the shard states (diagnostics, tests).
    pub fn shards(&self) -> &[ShardState] {
        &self.shards
    }
}

/// Scheduling state of the pipelined engine, all under one mutex so
/// ready-queue pushes, the remaining-work counter and the abort flag
/// change atomically with respect to waiting workers.
struct PipelineQueue {
    ready: VecDeque<u64>,
    remaining: u64,
    abort: bool,
}

/// Lock that ignores poisoning: a panicking worker (itself a bug the
/// pool propagates) must not cascade into opaque poison panics here.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Condvar wait with the same poison policy as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An invariant the pipeline itself maintains was violated — always a
/// bug in this crate, surfaced as an error instead of a panic.
fn internal_error(what: &str) -> FleetError {
    FleetError::BadConfig(format!("internal pipeline invariant broken: {what}"))
}

fn encode_stats(w: &mut SnapshotWriter, s: &EpochStats) -> Result<(), SnapshotError> {
    w.put_u64(s.online);
    w.put_u64(s.offline);
    w.put_f64(s.energy_j);
    w.put_u64(s.restarts);
    w.put_u64(s.warm_restarts);
    w.put_u64(s.warm_migrations);
    w.put_u64(s.snapshot_errors);
    w.put_u64(s.downtime_ms);
    let words = s.savings.serialize_words();
    w.put_u64(words.len() as u64);
    for word in words {
        w.put_u64(word);
    }
    Ok(())
}

fn decode_stats(r: &mut SnapshotReader) -> Result<EpochStats, SnapshotError> {
    let mut s = EpochStats {
        online: r.take_u64()?,
        offline: r.take_u64()?,
        energy_j: r.take_f64()?,
        restarts: r.take_u64()?,
        warm_restarts: r.take_u64()?,
        warm_migrations: r.take_u64()?,
        snapshot_errors: r.take_u64()?,
        downtime_ms: r.take_u64()?,
        ..EpochStats::default()
    };
    ensure(s.energy_j.is_finite())?;
    let nwords = r.take_u64()?;
    ensure(nwords <= 1 << 22)?;
    let mut words = Vec::with_capacity(nwords as usize);
    for _ in 0..nwords {
        words.push(r.take_u64()?);
    }
    let savings = require(FleetStats::deserialize_words(&words))?;
    // The decoded aggregator must carry the fleet's fixed stream
    // layout, or later merges would fail far from the codec.
    let mut probe = report::savings_agg();
    ensure(probe.merge(&savings).is_ok())?;
    s.savings = savings;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

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
