//! The central policy store: offline profiles and baseline
//! measurements resolved **once per `(app, load)` signature** and
//! shared (via `Arc`) by every device carrying that signature, instead
//! of re-profiling per device (10⁵ devices, 18 signatures).

use crate::spec::{signature, signature_index, FleetConfig, ROSTER};
use asgov_core::{ControllerBuilder, EnergyController, EnergyOptimizer};
use asgov_profiler::{measure_default, profile_app_serial, ProfileOptions, ProfileTable};
use asgov_soc::DeviceConfig;
use asgov_util::par::ordered_map;
use asgov_workloads::apps::AppCtor;
use asgov_workloads::{BackgroundLoad, LoadLevel};
use std::sync::Arc;

/// Everything a device needs to run its controller, resolved once per
/// signature: the offline profile, the performance target, and the
/// default-governor baseline the savings are measured against.
#[derive(Debug, Clone)]
pub struct StoredPolicy {
    /// The `(app, load)` signature this policy serves.
    pub signature: String,
    /// Offline `(frequency, bandwidth)` profile. The fleet's
    /// controllers are built around the optimizer derived from it at
    /// resolution, so a policy whose profile (or target) is edited
    /// must be resolved again, not patched in place.
    pub profile: ProfileTable,
    /// Controller performance target, GIPS (the default governor's
    /// delivered performance, as in the paper's methodology).
    pub target_gips: f64,
    /// Default-governor energy over one `epoch_ms` window, joules.
    pub baseline_energy_j: f64,
    /// `EnergyOptimizer::new(&profile)`, built once at resolution.
    optimizer: EnergyOptimizer,
}

impl StoredPolicy {
    /// A fresh controller for this signature, seeded with `seed`: the
    /// fleet's device-epoch controller, and every supervised restart's.
    /// It is built around a clone of the stored optimizer (shared
    /// tables) and the profile's base speed, so no device rebuilds the
    /// signature's hull or copies its profile; the controller is
    /// identical to one from `ControllerBuilder::new(profile).build()`.
    pub(crate) fn controller(&self, seed: u64) -> EnergyController {
        ControllerBuilder::with_optimizer(self.profile.base_gips, self.optimizer.clone())
            .target_gips(self.target_gips)
            .seed(seed)
            .build()
    }
}

/// The resolved store: signature → shared policy.
#[derive(Debug, Clone, Default)]
pub struct PolicyStore {
    /// One policy per signature, in roster order
    /// ([`roster_signatures`](crate::spec::roster_signatures)), so a
    /// device finds its policy by index ([`PolicyStore::get_indexed`])
    /// without formatting its signature.
    policies: Vec<Arc<StoredPolicy>>,
}

impl PolicyStore {
    /// Profile and baseline every roster signature for the given
    /// device model, fanning the signatures out over `cfg.threads`
    /// workers. Each signature's app is built by the roster constructor
    /// it names, in [`roster_signatures`](crate::spec::roster_signatures)
    /// order. Resolution is deterministic: every profiling seed derives
    /// from the signature's position, never from scheduling.
    pub fn resolve(cfg: &FleetConfig, dev_cfg: &DeviceConfig) -> Self {
        let sigs: Vec<(&str, AppCtor, LoadLevel)> = ROSTER
            .iter()
            .flat_map(|&(name, ctor)| LoadLevel::ALL.map(|load| (name, ctor, load)))
            .collect();
        let threads = resolve_threads(cfg.threads, sigs.len());
        let resolved = ordered_map(sigs.len(), threads, |i| {
            sigs.get(i)
                .map(|&(name, ctor, load)| resolve_one(cfg, dev_cfg, name, ctor, load))
        });
        Self {
            policies: resolved.into_iter().flatten().map(Arc::new).collect(),
        }
    }

    /// Look up the shared policy for a signature.
    pub fn get(&self, sig: &str) -> Option<&Arc<StoredPolicy>> {
        self.policies.iter().find(|p| p.signature == sig)
    }

    /// Look up the shared policy of roster app `app_idx` (a
    /// [`DeviceSpec::app_idx`](crate::DeviceSpec::app_idx)) under
    /// `load`: the policy [`PolicyStore::get`] returns for that pair's
    /// signature, found without building the signature string.
    pub fn get_indexed(&self, app_idx: usize, load: LoadLevel) -> Option<&Arc<StoredPolicy>> {
        self.policies.get(signature_index(app_idx, load)?)
    }

    /// Number of resolved signatures.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the store holds no policies.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

/// Resolve the worker count: `0` means the machine default.
pub(crate) fn resolve_threads(requested: usize, jobs: usize) -> usize {
    if requested == 0 {
        asgov_util::par::default_threads(jobs)
    } else {
        requested.clamp(1, jobs.max(1))
    }
}

/// The quick profiling options the fleet uses (a full paper-grade
/// sweep per signature would dwarf the fleet run itself).
fn profile_options() -> ProfileOptions {
    ProfileOptions {
        runs_per_config: 1,
        run_ms: 3_000,
        freq_stride: 4,
        interpolate: true,
    }
}

fn resolve_one(
    cfg: &FleetConfig,
    dev_cfg: &DeviceConfig,
    app_name: &str,
    ctor: AppCtor,
    load: LoadLevel,
) -> StoredPolicy {
    // The canonical profiling seed is the fleet seed: profiles are
    // shared state, not per-device state. Profiling runs the same
    // demand quantum as the epochs so baselines match the model the
    // devices actually execute.
    let mut app =
        ctor(BackgroundLoad::with_level(load, cfg.seed)).with_quantum(cfg.demand_quantum_ms);
    // Serial per-signature profiling: the signature fan-out above is
    // already parallel, and `profile_app_serial` is bit-identical to
    // the threaded sweep by the `ordered_map` contract.
    let profile = profile_app_serial(
        &dev_cfg.clone().with_seed(cfg.seed),
        &mut app,
        &profile_options(),
    );
    let baseline = measure_default(
        &dev_cfg.clone().with_seed(cfg.seed),
        &mut app,
        1,
        cfg.epoch_ms,
    );
    StoredPolicy {
        signature: signature(app_name, load),
        optimizer: EnergyOptimizer::new(&profile),
        profile,
        target_gips: baseline.gips,
        baseline_energy_j: baseline.energy_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{build_app, roster_signatures};

    fn tiny_cfg() -> FleetConfig {
        FleetConfig {
            devices: 8,
            shards: 2,
            epochs: 1,
            epoch_ms: 2_000,
            ..FleetConfig::smoke()
        }
    }

    #[test]
    fn store_resolves_every_roster_signature_with_usable_baselines() {
        let store = PolicyStore::resolve(&tiny_cfg(), &DeviceConfig::nexus6());
        assert_eq!(store.len(), roster_signatures().len());
        for (sig, _, _) in roster_signatures() {
            let p = store.get(&sig).expect("signature resolved");
            assert!(p.baseline_energy_j > 0.0, "{sig}: baseline energy");
            assert!(p.target_gips > 0.0, "{sig}: target");
            assert!(!p.profile.entries.is_empty(), "{sig}: profile");
        }
    }

    /// A controller built around the stored optimizer runs exactly as
    /// one from `ControllerBuilder::build`: the same `RunReport` and the
    /// same snapshot bytes over six control cycles, through two
    /// supervised restarts.
    #[test]
    fn shared_optimizer_controller_matches_build() {
        use asgov_core::{Restartable, Supervisor, SupervisorConfig};
        use asgov_governors::AdrenoTz;
        use asgov_soc::faults::{FaultInjector, FaultKind, FaultPlan};
        use asgov_soc::{event, Device, Policy, Workload as _};

        let cfg = FleetConfig {
            demand_quantum_ms: 20,
            ..tiny_cfg()
        };
        let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
        let (sig, app, load) = roster_signatures()
            .into_iter()
            .next()
            .expect("a roster signature");
        let policy = Arc::clone(store.get(&sig).expect("resolved"));
        let run = |shared: bool| {
            let seed = 0x5eed;
            let policy = Arc::clone(&policy);
            let factory = move || {
                if shared {
                    policy.controller(seed)
                } else {
                    ControllerBuilder::new(policy.profile.clone())
                        .target_gips(policy.target_gips)
                        .seed(seed)
                        .build()
                }
            };
            let mut supervisor = Supervisor::new(
                factory,
                SupervisorConfig {
                    max_restarts: 8,
                    backoff_base_ms: 50,
                    backoff_max_ms: 400,
                    checkpoint_period_ms: 2_000,
                    warm: true,
                },
            );
            let plan = FaultPlan::new()
                .window(3_000, 3_200, FaultKind::ControllerKill)
                .and_then(|p| p.window(7_500, 7_700, FaultKind::ControllerKill))
                .expect("valid windows");
            let mut device = Device::new(DeviceConfig::nexus6().with_seed(3));
            device.install_faults(FaultInjector::new(plan, 4));
            let mut app = build_app(app, BackgroundLoad::with_level(load, 5), 20).expect("app");
            app.reset();
            let mut gpu_gov = AdrenoTz::default();
            let report = {
                let mut policies: [&mut dyn Policy; 2] = [&mut gpu_gov, &mut supervisor];
                event::run(&mut device, &mut app, &mut policies, 12_000)
            };
            let snapshot = supervisor
                .inner()
                .snapshot_bytes(device.now_ms())
                .expect("snapshot encodes");
            (report, snapshot, supervisor.restarts())
        };
        let (built, shared) = (run(false), run(true));
        assert_eq!(built.2, 2, "both kills restart the controller");
        assert_eq!(shared, built);
    }

    #[test]
    fn indexed_lookup_matches_the_signature_lookup() {
        let store = PolicyStore::resolve(&tiny_cfg(), &DeviceConfig::nexus6());
        for (app_idx, name) in crate::spec::roster_names().into_iter().enumerate() {
            for load in LoadLevel::ALL {
                let by_name = store.get(&crate::spec::signature(name, load));
                let by_index = store.get_indexed(app_idx, load);
                assert!(by_name.is_some(), "{name}/{load}");
                assert!(by_name
                    .zip(by_index)
                    .is_some_and(|(a, b)| Arc::ptr_eq(a, b)));
            }
        }
        assert!(store.get_indexed(6, LoadLevel::Baseline).is_none());
        assert!(PolicyStore::default()
            .get_indexed(0, LoadLevel::Baseline)
            .is_none());
    }

    #[test]
    fn resolution_is_thread_count_invariant() {
        let dev_cfg = DeviceConfig::nexus6();
        let cfg1 = FleetConfig {
            threads: 1,
            ..tiny_cfg()
        };
        let cfg4 = FleetConfig {
            threads: 4,
            ..tiny_cfg()
        };
        let a = PolicyStore::resolve(&cfg1, &dev_cfg);
        let b = PolicyStore::resolve(&cfg4, &dev_cfg);
        for (sig, _, _) in roster_signatures() {
            let (pa, pb) = (a.get(&sig), b.get(&sig));
            let pa = pa.expect("resolved at 1 thread");
            let pb = pb.expect("resolved at 4 threads");
            assert!(pa.baseline_energy_j.to_bits() == pb.baseline_energy_j.to_bits());
            assert!(pa.target_gips.to_bits() == pb.target_gips.to_bits());
        }
    }
}
