//! # asgov — application-specific performance-aware energy optimization
//!
//! A full Rust reproduction of *"Application-Specific Performance-Aware
//! Energy Optimization on Android Mobile Devices"* (HPCA 2017): an
//! offline-profiling + online-control energy manager that minimizes
//! whole-device energy while holding a user-specified performance
//! target, by **coordinated** DVFS of CPU frequency and memory
//! bandwidth — plus every substrate the paper's evaluation needs
//! (a Nexus 6-like SoC simulator, the stock Android governors, the six
//! evaluation applications and the background-load scenarios).
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `asgov-core` | the controller: regulator, Kalman estimator, LP optimizer, scheduler |
//! | [`control`] | `asgov-control` | adaptive integrator, Kalman filter, phase detector |
//! | [`linprog`] | `asgov-linprog` | convex-hull solver (runtime path), O(N²) two-configuration oracle |
//! | [`soc`] | `asgov-soc` | simulated device: DVFS, power model, PMU, perf, Monsoon, sysfs |
//! | [`governors`] | `asgov-governors` | interactive, ondemand, conservative, userspace, performance, powersave, cpubw_hwmon |
//! | [`workloads`] | `asgov-workloads` | the six paper applications + eBook, BL/NL/HL background loads |
//! | [`profiler`] | `asgov-profiler` | offline profiling with bandwidth interpolation, default-run baseline |
//! | [`obs`] | `asgov-obs` | observability: per-cycle trace records, ring-buffer sink, metrics |
//!
//! # Quickstart
//!
//! ```no_run
//! use asgov::prelude::*;
//!
//! // The simulated Nexus 6 and a target application.
//! let dev_cfg = DeviceConfig::nexus6();
//! let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
//!
//! // Stage 1 (offline): profile speedup & power per configuration and
//! // measure the default-governor baseline that provides the target.
//! let profile = profile_app(&dev_cfg, &mut app, &ProfileOptions::default());
//! let baseline = measure_default(&dev_cfg, &mut app, 3, 60_000);
//!
//! // Stage 2 (online): run the application under the controller.
//! let mut controller = ControllerBuilder::new(profile)
//!     .target_gips(baseline.gips)
//!     .build();
//! let mut device = Device::new(dev_cfg);
//! let report = sim::run(&mut device, &mut app, &mut [&mut controller], 60_000);
//!
//! println!(
//!     "energy: {:.1} J (default {:.1} J) — {:.1}% saved",
//!     report.energy_j,
//!     baseline.energy_j,
//!     (baseline.energy_j - report.energy_j) / baseline.energy_j * 100.0
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and the `asgov-experiments`
//! binaries for the regeneration of every table and figure of the paper.

pub use asgov_control as control;
pub use asgov_core as core;
pub use asgov_governors as governors;
pub use asgov_linprog as linprog;
pub use asgov_obs as obs;
pub use asgov_profiler as profiler;
pub use asgov_soc as soc;
pub use asgov_util as util;
pub use asgov_workloads as workloads;

/// Convenient single-import surface for applications of the library.
pub mod prelude {
    pub use asgov_core::{with_controller_stack, ControlMode, ControllerBuilder, EnergyController};
    pub use asgov_governors::{android_defaults, CpubwHwmon, Interactive};
    pub use asgov_profiler::{
        measure_default, measure_fixed, profile_app, profile_app_cpu_only, ProfileOptions,
        ProfileTable,
    };
    pub use asgov_soc::{sim, Device, DeviceConfig, DvfsTable, Policy, Workload};
    pub use asgov_workloads::{
        apps, paper_apps, AppKind, AppSpec, BackgroundLoad, EventSpec, LoadLevel, PhaseSpec,
        PhasedApp, TouchSpec,
    };
}
