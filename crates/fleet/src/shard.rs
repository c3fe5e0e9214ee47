//! Shard execution: one shard-epoch runs every online device in the
//! shard's id range for `epoch_ms`, warm-migrating controller state
//! from the previous epoch through [`Supervisor::migrate_in`] /
//! [`Supervisor::migrate_out`].
//!
//! A shard's state is struct-of-arrays and `Send`-only: serialized
//! controller snapshots, never live `Device`s (a `Device` holds
//! non-`Send` observability handles, so devices are constructed fresh
//! inside each shard-epoch job).

use crate::report::{app_stream, fault_stream, EpochStats};
use crate::spec::{DeviceSpec, FleetConfig, FleetError};
use crate::store::PolicyStore;
use asgov_core::{SnapshotError, SnapshotReader, SnapshotWriter, Supervisor, SupervisorConfig};
use asgov_governors::AdrenoTz;
use asgov_soc::{event, Device, DeviceConfig, Policy, Workload as _};
use asgov_util::Rng;
use asgov_workloads::BackgroundLoad;
use std::sync::Arc;

/// Supervision tuning for fleet devices: checkpoints on the control
/// cycle, quick restarts (an epoch is only seconds long).
fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        max_restarts: 8,
        backoff_base_ms: 50,
        backoff_max_ms: 400,
        checkpoint_period_ms: 2_000,
        warm: true,
    }
}

/// A shard's persistent state between epochs: the controller snapshot
/// of every device in the shard (struct-of-arrays — ids are implicit
/// in the position within the shard's contiguous range).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Shard index (`0..cfg.shards`).
    pub shard: u64,
    /// The next epoch this shard will run.
    pub next_epoch: u64,
    /// Per-device controller snapshot carried to the next epoch
    /// (`None` until the device's first online epoch completes).
    pub snapshots: Vec<Option<Vec<u8>>>,
}

impl ShardState {
    /// Fresh state for `shard` under `cfg` (no snapshots yet).
    pub fn new(cfg: &FleetConfig, shard: u64) -> Self {
        let (_, count) = cfg.shard_range(shard);
        Self {
            shard,
            next_epoch: 0,
            snapshots: vec![None; count as usize],
        }
    }

    /// Encode the shard state as a framed snapshot (CRC-protected, so
    /// truncation and bit-flips decode to [`SnapshotError`], never
    /// panic).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] if a device snapshot or the frame
    /// is 4 GiB or longer.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        w.put_uvar(self.shard);
        w.put_uvar(self.next_epoch);
        w.put_uvar(self.snapshots.len() as u64);
        for snap in &self.snapshots {
            w.put_opt_bytes(snap.as_deref())?;
        }
        w.finish()
    }

    /// Decode a shard state previously encoded by
    /// [`ShardState::snapshot_bytes`], validating it against `cfg`
    /// (shard index in range, device count matching the partition).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on damage, truncation, or a frame that
    /// does not match `cfg`'s partition.
    pub fn restore_bytes(cfg: &FleetConfig, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let shard = r.take_uvar()?;
        let next_epoch = r.take_uvar()?;
        let count = r.take_uvar()?;
        asgov_core::persist::ensure(shard < cfg.shards)?;
        asgov_core::persist::ensure(next_epoch <= cfg.epochs)?;
        let (_, expected) = cfg.shard_range(shard);
        asgov_core::persist::ensure(count == expected)?;
        let mut snapshots = Vec::with_capacity(count as usize);
        for _ in 0..count {
            snapshots.push(r.take_opt_bytes()?.map(<[u8]>::to_vec));
        }
        r.finish()?;
        Ok(Self {
            shard,
            next_epoch,
            snapshots,
        })
    }
}

/// Run one epoch of `state`'s shard in place: simulate every online
/// device for `cfg.epoch_ms`, moving each carried controller snapshot
/// out of its slot and the successor snapshot back in (no per-device
/// clones), then advance `state.next_epoch`.
///
/// Pure per shard: every draw derives from
/// `(cfg.seed, device_id, epoch)`, so the result is independent of
/// which worker thread runs it.
///
/// # Errors
///
/// [`FleetError::UnknownSignature`] if a device's `(app, load)` pair
/// is missing from `store`. On error `state` is left partially
/// advanced (some snapshots replaced, `next_epoch` unchanged) and
/// must be discarded.
pub fn run_epoch_into(
    cfg: &FleetConfig,
    store: &PolicyStore,
    state: &mut ShardState,
) -> Result<EpochStats, FleetError> {
    let (start, count) = cfg.shard_range(state.shard);
    let epoch = state.next_epoch;
    let mut stats = EpochStats::default();

    for i in 0..count {
        let device_id = start + i;
        let spec = DeviceSpec::derive(cfg.seed, device_id);
        let epoch_seed = spec.epoch_seed(cfg.seed, epoch);
        let mut rng = Rng::seed_from_u64(epoch_seed);

        // Offline churn: the device misses this epoch entirely; its
        // controller snapshot stays in its slot unchanged.
        if rng.gen_bool(cfg.offline_rate) {
            stats.offline += 1;
            continue;
        }

        let policy = store
            .get_indexed(spec.app_idx, spec.load)
            .ok_or_else(|| FleetError::UnknownSignature(spec.signature()))?;

        let Some(mut app) = crate::spec::build_app(
            spec.app,
            BackgroundLoad::with_level(spec.load, rng.next_u64()),
            cfg.demand_quantum_ms,
        ) else {
            return Err(FleetError::UnknownSignature(spec.signature()));
        };

        let mut device = Device::new(DeviceConfig::nexus6().with_seed(rng.next_u64()));
        if let Some(injector) = spec.fault_injector(cfg.epoch_ms, rng.next_u64()) {
            device.install_faults(injector);
        }

        let factory_policy = Arc::clone(policy);
        let mut supervisor = Supervisor::new(
            move || factory_policy.controller(epoch_seed),
            supervisor_config(),
        );
        // Move the carried snapshot out of its slot — the successor
        // snapshot is written back below, so nothing is cloned.
        let carried = state.snapshots.get_mut(i as usize).and_then(Option::take);
        if let Some(snapshot) = carried {
            supervisor.migrate_in(snapshot);
        }

        let mut gpu_gov = AdrenoTz::default();
        app.reset();
        let energy_j = {
            let mut policies: [&mut dyn Policy; 2] = [&mut gpu_gov, &mut supervisor];
            event::run_energy_j(&mut device, &mut app, &mut policies, cfg.epoch_ms)
        };
        if let Some(slot) = state.snapshots.get_mut(i as usize) {
            *slot = supervisor.migrate_out(device.now_ms());
        }

        stats.online += 1;
        stats.energy_j += energy_j;
        stats.restarts += supervisor.restarts();
        stats.warm_restarts += supervisor.warm_restarts();
        stats.warm_migrations += supervisor.warm_migrations();
        stats.snapshot_errors += supervisor.snapshot_errors();
        stats.downtime_ms += supervisor.downtime_ms();

        let base = policy.baseline_energy_j;
        if base.is_finite() && base > 0.0 {
            let savings = (base - energy_j) / base * 100.0;
            stats.savings.record(app_stream(spec.app_idx), savings);
            stats
                .savings
                .record(fault_stream(spec.fault_class), savings);
        } else {
            stats.savings.record_excluded(app_stream(spec.app_idx));
            stats
                .savings
                .record_excluded(fault_stream(spec.fault_class));
        }
    }

    state.next_epoch = epoch + 1;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_state_round_trips_through_the_codec() {
        let cfg = FleetConfig {
            devices: 10,
            shards: 3,
            ..FleetConfig::smoke()
        };
        let mut state = ShardState::new(&cfg, 1);
        state.next_epoch = 2;
        state.snapshots = vec![Some(vec![1, 2, 3]), None, Some(vec![9; 40]), None];
        let bytes = state.snapshot_bytes().expect("small frame");
        let back = ShardState::restore_bytes(&cfg, &bytes).expect("clean frame");
        assert_eq!(back, state);
    }

    #[test]
    fn restore_rejects_mismatched_partitions() {
        let cfg = FleetConfig {
            devices: 10,
            shards: 3,
            ..FleetConfig::smoke()
        };
        let state = ShardState::new(&cfg, 0);
        let bytes = state.snapshot_bytes().expect("small frame");
        // A config with a different partition must refuse the frame.
        let other = FleetConfig {
            devices: 100,
            shards: 3,
            ..FleetConfig::smoke()
        };
        assert!(ShardState::restore_bytes(&other, &bytes).is_err());
    }
}
