//! # asgov-core — the application-specific performance-aware energy
//! controller (the paper's contribution)
//!
//! Implements Stage 2 of the HPCA'17 solution: the online feedback
//! controller of paper Fig. 2, which minimizes device energy while
//! holding a user-specified performance target, by coordinated control
//! of CPU frequency and memory bandwidth:
//!
//! ```text
//!        r ──►(+)── e_n ──► K: regulator ➜ optimizer ── u_n ──► S ──► plant
//!              ▲                                                      │
//!              └────────────────── y_n (GIPS via PMU) ◄───────────────┘
//! ```
//!
//! Per control cycle (𝕋 = 2 s):
//!
//! 1. **Measure** `y_n` — GIPS from the PMU through the modeled `perf`
//!    reader ([`asgov_soc::PerfReader`], 1 s sampling).
//! 2. **Regulate** — [`PerformanceRegulator`]: the adaptive-gain
//!    integrator `s_n = s_{n-1} + e_{n-1}/b_{n-1}` (paper Eqn. 3) with a
//!    Kalman filter continuously estimating the base speed `b_n`.
//! 3. **Optimize** — [`EnergyOptimizer`]: the linear program of Eqns.
//!    4–7 over the offline [`asgov_profiler::ProfileTable`], solved in
//!    `O(log N)` on its precomputed convex hull
//!    ([`asgov_linprog::HullSolver`]).
//! 4. **Schedule** — [`ConfigScheduler`]: apply `c_l` for `τ_l` then
//!    `c_h` for `τ_h` through sysfs under the `userspace` governors,
//!    with the paper's 200 ms minimum dwell.
//!
//! [`EnergyController`] wires the four together as an
//! [`asgov_soc::Policy`]. [`ControlMode::CpuOnly`] reproduces the
//! paper's §V-D ablation (memory bandwidth left to `cpubw_hwmon`).
//! [`with_controller_stack`] runs the controller beside the stock
//! governors the paper keeps in each mode.
//!
//! # Example
//!
//! ```no_run
//! use asgov_core::{with_controller_stack, ControllerBuilder, ControlMode};
//! use asgov_profiler::{profile_app, measure_default, ProfileOptions};
//! use asgov_soc::{sim, Device, DeviceConfig};
//! use asgov_workloads::{apps, BackgroundLoad};
//!
//! let dev_cfg = DeviceConfig::nexus6();
//! let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
//!
//! // Stage 1: offline profile + default-governor target.
//! let profile = profile_app(&dev_cfg, &mut app, &ProfileOptions::default());
//! let default = measure_default(&dev_cfg, &mut app, 3, 60_000);
//!
//! // Stage 2: run under the controller.
//! let mut controller = ControllerBuilder::new(profile)
//!     .target_gips(default.gips)
//!     .build();
//! let mut device = Device::new(dev_cfg);
//! let report = with_controller_stack(ControlMode::Coordinated, &mut controller, |policies| {
//!     sim::run(&mut device, &mut app, policies, 60_000)
//! });
//! println!("energy: {:.1} J vs default {:.1} J", report.energy_j, default.energy_j);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod optimizer;
pub mod persist;
mod regulator;
pub mod resilience;
mod scheduler;
mod stack;
mod supervisor;

pub use controller::{ControlMode, ControllerBuilder, EnergyController, OptimizerStrategy};
pub use optimizer::EnergyOptimizer;
pub use persist::{Restartable, SnapshotError, SnapshotReader, SnapshotWriter};
pub use regulator::PerformanceRegulator;
pub use resilience::{DegradationLadder, DivergenceGuard, LadderEvent, PerfGate};
pub use scheduler::{ConfigScheduler, CycleOutcome};
pub use stack::with_controller_stack;
pub use supervisor::{Supervisor, SupervisorConfig};
