//! Fleet configuration and the deterministic derivation of per-device
//! identity: which app a device runs, under what background load, and
//! which fault class its epochs draw from.
//!
//! Everything a device does derives from `(fleet_seed, device_id)` (its
//! stable identity) and `(fleet_seed, device_id, epoch)` (its per-epoch
//! randomness). No draw depends on shard iteration state or thread
//! scheduling, which is what makes the fleet bit-identical at any
//! thread count and restartable from a mid-run checkpoint.

use asgov_soc::{FaultInjector, FaultKind, FaultPlan};
use asgov_util::Rng;
use asgov_workloads::apps::{AppCtor, PAPER_APPS};
use asgov_workloads::{BackgroundLoad, LoadLevel, PhasedApp};

/// A fleet run description. All fields are part of the deterministic
/// identity of the run except `threads`, which must not change any
/// result (the differential suite pins this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated devices.
    pub devices: u64,
    /// Number of shards the devices are partitioned into. The partition
    /// is fixed by this field alone — never by the worker count.
    pub shards: u64,
    /// Serving epochs to run. Each epoch simulates every online device
    /// for `epoch_ms` and warm-migrates controller state to the next.
    pub epochs: u64,
    /// Simulated milliseconds per epoch.
    pub epoch_ms: u64,
    /// Master seed all per-device and per-epoch randomness derives
    /// from.
    pub seed: u64,
    /// Worker threads for the shard fan-out (`0` = machine default).
    /// Results are identical for every value.
    pub threads: usize,
    /// Per-epoch probability that a device is offline (powered down,
    /// out of coverage) and skips the epoch entirely.
    pub offline_rate: f64,
    /// Demand quantum for device workloads, simulated ms: every app
    /// books its demand once per window of this many ms (`1` = the
    /// exact per-ms model; see `PhasedApp::with_quantum`).
    /// Part of the run's deterministic identity: it changes simulated
    /// trajectories, so checkpoints pin it like the seed.
    pub demand_quantum_ms: u64,
}

impl FleetConfig {
    /// The CI smoke configuration: 1 000 devices, quick to run.
    pub fn smoke() -> Self {
        Self {
            devices: 1_000,
            shards: 16,
            epochs: 2,
            epoch_ms: 4_000,
            seed: 0xf1ee7,
            threads: 0,
            offline_rate: 0.05,
            demand_quantum_ms: 1,
        }
    }

    /// The benchmark configuration: 100 000 devices.
    pub fn bench() -> Self {
        Self {
            devices: 100_000,
            shards: 256,
            ..Self::smoke()
        }
    }

    /// The million-device tier: 10⁶ devices over 1 024 shards with a
    /// 20 ms demand quantum (20 ms demand windows are what make this
    /// tier tractable; smoke/bench keep 1 ms windows, the exact model).
    pub fn bench_1m() -> Self {
        Self {
            devices: 1_000_000,
            shards: 1_024,
            demand_quantum_ms: 20,
            ..Self::smoke()
        }
    }

    /// Check the configuration invariants.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadConfig`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.devices == 0 {
            return Err(FleetError::BadConfig("devices must be positive".into()));
        }
        if self.shards == 0 || self.shards > self.devices {
            return Err(FleetError::BadConfig(
                "shards must be in 1..=devices".into(),
            ));
        }
        if self.epochs == 0 {
            return Err(FleetError::BadConfig("epochs must be positive".into()));
        }
        if self.epoch_ms == 0 {
            return Err(FleetError::BadConfig("epoch_ms must be positive".into()));
        }
        if !(self.offline_rate.is_finite() && (0.0..1.0).contains(&self.offline_rate)) {
            return Err(FleetError::BadConfig(
                "offline_rate must be finite and in [0, 1)".into(),
            ));
        }
        if self.demand_quantum_ms == 0 {
            return Err(FleetError::BadConfig(
                "demand_quantum_ms must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Devices per shard (the last shard may hold fewer).
    pub fn devices_per_shard(&self) -> u64 {
        self.devices.div_ceil(self.shards)
    }

    /// The contiguous `[start, start + count)` device-id range owned by
    /// `shard`. Empty (`count == 0`) for trailing shards when the ceil
    /// partition over-covers.
    pub fn shard_range(&self, shard: u64) -> (u64, u64) {
        let per = self.devices_per_shard();
        let start = shard.saturating_mul(per).min(self.devices);
        let count = per.min(self.devices - start);
        (start, count)
    }
}

/// Errors surfaced by fleet construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The configuration violates an invariant (message names it).
    BadConfig(String),
    /// A device referenced a `(app, load)` signature absent from the
    /// policy store — the store was resolved for a different roster.
    UnknownSignature(String),
    /// A snapshot frame failed to encode or decode.
    Snapshot(asgov_core::SnapshotError),
    /// Columnar savings aggregates disagreed on stream layout while
    /// merging — only possible when a checkpoint from an incompatible
    /// version survives frame validation.
    StatsLayout,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::BadConfig(msg) => write!(f, "bad fleet config: {msg}"),
            FleetError::UnknownSignature(sig) => {
                write!(f, "no stored policy for signature {sig:?}")
            }
            FleetError::Snapshot(e) => write!(f, "fleet snapshot: {e}"),
            FleetError::StatsLayout => write!(f, "savings aggregator layout mismatch"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<asgov_core::SnapshotError> for FleetError {
    fn from(e: asgov_core::SnapshotError) -> Self {
        FleetError::Snapshot(e)
    }
}

/// splitmix64 finalizer: a cheap, well-mixed hash for deriving
/// independent seed streams from `(seed, id, salt)` tuples.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive an independent 64-bit seed from three components.
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(a) ^ b) ^ c)
}

/// Salt separating the stable device-identity stream from per-epoch
/// streams.
const SALT_IDENTITY: u64 = 0x1d;
/// Salt for the per-epoch device stream (sim noise, churn, faults).
const SALT_EPOCH: u64 = 0xe7;

/// The applications fleet devices run: the six paper applications of
/// the workloads registry. Batch apps (VidCon, MobileBench) complete
/// early within an epoch; the rest run the full epoch window.
pub(crate) const ROSTER: &[(&str, AppCtor); 6] = PAPER_APPS;

/// Roster application names, in roster order. This order defines the
/// per-app stream indices of the columnar savings aggregator.
pub fn roster_names() -> [&'static str; 6] {
    ROSTER.map(|(name, _)| name)
}

/// Every `(app, load)` signature a fleet device can draw, in roster
/// order. The policy store must resolve exactly this set.
pub fn roster_signatures() -> Vec<(String, &'static str, LoadLevel)> {
    let mut out = Vec::new();
    for &(name, _) in ROSTER {
        for load in LoadLevel::ALL {
            out.push((signature(name, load), name, load));
        }
    }
    out
}

/// The store key for an `(app, load)` pair, e.g. `"WeChat/BL"`.
pub fn signature(app: &str, load: LoadLevel) -> String {
    format!("{app}/{}", load.label())
}

/// Position of roster app `app_idx` under `load` in
/// [`roster_signatures`] (`None` for an index outside the roster).
pub(crate) fn signature_index(app_idx: usize, load: LoadLevel) -> Option<usize> {
    let load_idx = LoadLevel::ALL.iter().position(|&l| l == load)?;
    (app_idx < ROSTER.len()).then_some(app_idx * LoadLevel::ALL.len() + load_idx)
}

/// Construct the roster app named `app` with the given background
/// load and demand quantum. `None` for names outside the roster.
/// Every app, batch apps included, books its demand once per window of
/// `quantum_ms`; `quantum_ms == 1` is the exact per-ms model (see
/// `PhasedApp::with_quantum`).
pub fn build_app(app: &str, load: BackgroundLoad, quantum_ms: u64) -> Option<PhasedApp> {
    ROSTER
        .iter()
        .find(|(name, _)| *name == app)
        .map(|(_, ctor)| ctor(load).with_quantum(quantum_ms))
}

/// The fault environment a device lives in, fixed for its lifetime.
/// Every epoch draws that class's fault windows afresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// No injected faults.
    Healthy,
    /// The controller daemon is killed mid-epoch (LMK/OOM).
    ControllerKill,
    /// Kills plus corrupted checkpoint images (torn flash writes).
    CheckpointCorrupt,
    /// Perf readings are lost for a stretch of the epoch.
    PerfDropout,
    /// Transient `-EBUSY` on sysfs writes.
    SysfsBusy,
    /// msm-thermal clamps the CPU frequency mid-epoch.
    ThermalClamp,
    /// An external agent resets `scaling_governor`.
    GovernorReset,
}

impl FaultClass {
    /// Machine-readable label used as the report's distribution key.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Healthy => "healthy",
            FaultClass::ControllerKill => "controller-kill",
            FaultClass::CheckpointCorrupt => "checkpoint-corrupt",
            FaultClass::PerfDropout => "perf-dropout",
            FaultClass::SysfsBusy => "sysfs-busy",
            FaultClass::ThermalClamp => "thermal-clamp",
            FaultClass::GovernorReset => "governor-reset",
        }
    }

    /// This class's position in [`FaultClass::all`] — the per-fault
    /// stream offset of the columnar savings aggregator.
    pub fn index(self) -> usize {
        match self {
            FaultClass::Healthy => 0,
            FaultClass::ControllerKill => 1,
            FaultClass::CheckpointCorrupt => 2,
            FaultClass::PerfDropout => 3,
            FaultClass::SysfsBusy => 4,
            FaultClass::ThermalClamp => 5,
            FaultClass::GovernorReset => 6,
        }
    }

    /// All classes, in report order.
    pub fn all() -> [FaultClass; 7] {
        [
            FaultClass::Healthy,
            FaultClass::ControllerKill,
            FaultClass::CheckpointCorrupt,
            FaultClass::PerfDropout,
            FaultClass::SysfsBusy,
            FaultClass::ThermalClamp,
            FaultClass::GovernorReset,
        ]
    }

    /// Weighted draw: healthy devices dominate (40 %), the fault
    /// classes split the rest.
    fn draw(rng: &mut Rng) -> Self {
        match rng.gen_range_usize(0..100) {
            0..=39 => FaultClass::Healthy,
            40..=54 => FaultClass::ControllerKill,
            55..=64 => FaultClass::CheckpointCorrupt,
            65..=74 => FaultClass::PerfDropout,
            75..=84 => FaultClass::SysfsBusy,
            85..=92 => FaultClass::ThermalClamp,
            _ => FaultClass::GovernorReset,
        }
    }
}

/// A device's stable identity: derived once from
/// `(fleet_seed, device_id)`, identical in every epoch and on every
/// thread.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Fleet-wide device id (`0..devices`).
    pub device_id: u64,
    /// Roster application name.
    pub app: &'static str,
    /// Roster index of `app` (the aggregator's per-app stream).
    pub app_idx: usize,
    /// Background-load scenario.
    pub load: LoadLevel,
    /// Fault environment.
    pub fault_class: FaultClass,
}

impl DeviceSpec {
    /// Derive device `device_id`'s identity under `fleet_seed`.
    pub fn derive(fleet_seed: u64, device_id: u64) -> Self {
        let mut rng = Rng::seed_from_u64(mix3(fleet_seed, device_id, SALT_IDENTITY));
        let app_idx = rng.gen_range_usize(0..ROSTER.len());
        let app = ROSTER.get(app_idx).map_or("WeChat", |(name, _)| *name);
        let load = match rng.gen_range_usize(0..3) {
            0 => LoadLevel::Baseline,
            1 => LoadLevel::None,
            _ => LoadLevel::Heavy,
        };
        let fault_class = FaultClass::draw(&mut rng);
        Self {
            device_id,
            app,
            app_idx,
            load,
            fault_class,
        }
    }

    /// The policy-store key for this device.
    pub fn signature(&self) -> String {
        signature(self.app, self.load)
    }

    /// The seed for everything this device does in `epoch`: simulator
    /// noise, background-load wander, fault firing, churn.
    pub fn epoch_seed(&self, fleet_seed: u64, epoch: u64) -> u64 {
        mix3(fleet_seed, self.device_id, SALT_EPOCH ^ mix(epoch))
    }

    /// Build the epoch's fault injector (`None` for fault-free epochs).
    /// The plan depends only on the fault class and `epoch_ms`; the
    /// injector's own randomness comes from `seed`.
    pub fn fault_injector(&self, epoch_ms: u64, seed: u64) -> Option<FaultInjector> {
        let e = epoch_ms;
        let plan = match self.fault_class {
            FaultClass::Healthy => return None,
            FaultClass::ControllerKill => FaultPlan::new()
                .window(e / 4, e / 4 + 200, FaultKind::ControllerKill)
                .ok()?
                .window(5 * e / 8, 5 * e / 8 + 200, FaultKind::ControllerKill)
                .ok()?,
            FaultClass::CheckpointCorrupt => FaultPlan::new()
                .window_p(1, e, 0.5, FaultKind::CheckpointCorrupt)
                .ok()?
                .window(5 * e / 8, 5 * e / 8 + 200, FaultKind::ControllerKill)
                .ok()?,
            FaultClass::PerfDropout => FaultPlan::new()
                .window_p(e / 4, 3 * e / 4, 0.3, FaultKind::PerfDropout)
                .ok()?,
            FaultClass::SysfsBusy => FaultPlan::new()
                .window_p(1, e, 0.2, FaultKind::SysfsBusy)
                .ok()?,
            FaultClass::ThermalClamp => FaultPlan::new()
                .window(e / 3, 2 * e / 3, FaultKind::ThermalClamp(6))
                .ok()?,
            FaultClass::GovernorReset => FaultPlan::new()
                .window(
                    e / 2,
                    e / 2 + 100,
                    FaultKind::GovernorReset("interactive".to_string()),
                )
                .ok()?,
        };
        Some(FaultInjector::new(plan, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_each_bad_field() {
        let ok = FleetConfig::smoke();
        assert!(ok.validate().is_ok());
        for bad in [
            FleetConfig { devices: 0, ..ok },
            FleetConfig { shards: 0, ..ok },
            FleetConfig {
                shards: ok.devices + 1,
                ..ok
            },
            FleetConfig { epochs: 0, ..ok },
            FleetConfig { epoch_ms: 0, ..ok },
            FleetConfig {
                offline_rate: 1.0,
                ..ok
            },
            FleetConfig {
                offline_rate: f64::NAN,
                ..ok
            },
            FleetConfig {
                demand_quantum_ms: 0,
                ..ok
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn presets_validate_and_tier_sizes_are_ordered() {
        for cfg in [
            FleetConfig::smoke(),
            FleetConfig::bench(),
            FleetConfig::bench_1m(),
        ] {
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
        assert!(FleetConfig::smoke().devices < FleetConfig::bench().devices);
        assert!(FleetConfig::bench().devices < FleetConfig::bench_1m().devices);
        assert_eq!(FleetConfig::bench_1m().devices, 1_000_000);
        // Smoke and bench stay on the exact per-ms model so their
        // committed results remain comparable across versions.
        assert_eq!(FleetConfig::smoke().demand_quantum_ms, 1);
        assert_eq!(FleetConfig::bench().demand_quantum_ms, 1);
        assert!(FleetConfig::bench_1m().demand_quantum_ms > 1);
    }

    #[test]
    fn fault_index_matches_all_order() {
        for (i, class) in FaultClass::all().into_iter().enumerate() {
            assert_eq!(class.index(), i, "{}", class.label());
        }
    }

    #[test]
    fn shard_ranges_partition_the_devices_exactly() {
        for (devices, shards) in [(10u64, 3u64), (1000, 16), (7, 7), (5, 1), (100, 13)] {
            let cfg = FleetConfig {
                devices,
                shards,
                ..FleetConfig::smoke()
            };
            let mut covered = 0;
            let mut next = 0;
            for s in 0..shards {
                let (start, count) = cfg.shard_range(s);
                assert_eq!(start, next.min(devices));
                next = start + count;
                covered += count;
            }
            assert_eq!(covered, devices, "{devices} devices over {shards} shards");
        }
    }

    #[test]
    fn device_specs_are_stable_and_cover_the_roster() {
        let seed = 0xf1ee7;
        let mut apps_seen = std::collections::BTreeSet::new();
        let mut faults_seen = std::collections::BTreeSet::new();
        for id in 0..500 {
            let a = DeviceSpec::derive(seed, id);
            let b = DeviceSpec::derive(seed, id);
            assert_eq!(a, b, "identity must be a pure function of (seed, id)");
            apps_seen.insert(a.app);
            faults_seen.insert(a.fault_class.label());
        }
        assert_eq!(apps_seen.len(), ROSTER.len(), "all roster apps drawn");
        assert_eq!(
            faults_seen.len(),
            FaultClass::all().len(),
            "all fault classes drawn"
        );
    }

    #[test]
    fn epoch_seeds_differ_across_devices_and_epochs() {
        let spec0 = DeviceSpec::derive(1, 0);
        let spec1 = DeviceSpec::derive(1, 1);
        assert_ne!(spec0.epoch_seed(1, 0), spec0.epoch_seed(1, 1));
        assert_ne!(spec0.epoch_seed(1, 0), spec1.epoch_seed(1, 0));
        assert_ne!(spec0.epoch_seed(1, 0), spec0.epoch_seed(2, 0));
    }

    #[test]
    fn fault_plans_build_for_every_class() {
        for (i, class) in FaultClass::all().into_iter().enumerate() {
            let spec = DeviceSpec {
                device_id: i as u64,
                app: "WeChat",
                app_idx: 3,
                load: LoadLevel::Baseline,
                fault_class: class,
            };
            let inj = spec.fault_injector(4_000, 7);
            assert_eq!(
                inj.is_some(),
                class != FaultClass::Healthy,
                "{} plan presence",
                class.label()
            );
        }
    }

    #[test]
    fn signatures_enumerate_apps_times_loads() {
        // The roster is the registry's head, in order: this pins the
        // aggregator's per-app stream indices.
        let registry = asgov_workloads::apps::REGISTRY.map(|(name, _)| name);
        assert_eq!(roster_names(), registry[..6]);
        let sigs = roster_signatures();
        assert_eq!(sigs.len(), ROSTER.len() * 3);
        let unique: std::collections::BTreeSet<_> =
            sigs.iter().map(|(s, _, _)| s.clone()).collect();
        assert_eq!(unique.len(), sigs.len(), "signatures must be unique");
    }
}
