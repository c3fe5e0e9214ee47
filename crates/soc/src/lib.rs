//! # asgov-soc — simulated mobile SoC substrate
//!
//! This crate models the hardware/OS substrate that the HPCA'17 paper
//! *"Application-Specific Performance-Aware Energy Optimization on Android
//! Mobile Devices"* ran on: a Nexus 6 smartphone with a Qualcomm
//! Snapdragon 805 SoC (quad-core Krait 450 CPU with 18 DVFS frequencies,
//! a memory bus with 13 bandwidth settings), a Monsoon power monitor and
//! the Linux `cpufreq`/`devfreq` sysfs interface.
//!
//! Everything the online controller and the baseline governors observe or
//! actuate goes through this crate:
//!
//! - [`DvfsTable`] — the exact frequency/bandwidth ladders of Table II of
//!   the paper, plus a Krait-like voltage ladder.
//! - [`Device`] — a discrete-time (1 ms tick) whole-device simulator with
//!   a roofline performance model and a component-wise power model,
//!   advanced in spans of ticks by the event engine in [`event`].
//! - [`Pmu`] — per-core retired-instruction counters, read through
//!   [`PerfReader`] which models the `perf` tool's sampling period,
//!   computational overhead and measurement noise.
//! - [`PowerMonitor`] — a Monsoon-style whole-device power sampler.
//! - [`sysfs`] — a virtual `/sys` tree with the same write-to-actuate
//!   semantics as Linux (`scaling_setspeed` only works under the
//!   `userspace` governor).
//! - [`Workload`] — the trait through which application models (see the
//!   `asgov-workloads` crate) present per-tick instruction demand.
//! - [`Policy`] — the trait through which governors and controllers
//!   (see `asgov-governors` / `asgov-core`) are stepped by the
//!   simulation harness in [`sim`].
//!
//! # Example
//!
//! ```
//! use asgov_soc::{Device, DeviceConfig, ConstantWorkload, sim};
//!
//! let mut device = Device::new(DeviceConfig::nexus6());
//! // A synthetic workload that always wants 1.5 GIPS of compute-heavy work.
//! let mut app = ConstantWorkload::new("toy", 1.5, 1.4, 4.0);
//! let report = sim::run(&mut device, &mut app, &mut [], 2_000);
//! assert!(report.energy_j > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod dvfs;
mod error;
pub mod event;
pub mod faults;
pub mod gpu;
mod health;
mod monitor;
mod perf;
mod pmu;
mod power;
pub mod sim;
pub mod sysfs;
mod workload;

pub use device::{Device, DeviceConfig, DeviceStats, TickOutcome};
pub use dvfs::{
    BwIndex, CpuFreq, DvfsTable, FreqIndex, MemBw, NEXUS6_CPU_FREQS_GHZ, NEXUS6_MEM_BWS_MBPS,
};
pub use error::{SocError, SocErrorKind};
pub use faults::{
    FaultInjector, FaultKind, FaultPlan, FaultPlanError, FaultStats, FaultWindow, PerfFault,
};
pub use gpu::{Gpu, GpuFreqIndex};
pub use health::{DegradationLevel, HealthReport};
pub use monitor::PowerMonitor;
pub use perf::{PerfReader, PerfReading};
pub use pmu::Pmu;
pub use power::{PowerBreakdown, PowerModel, PowerModelParams};
pub use workload::{BackgroundDemand, ConstantWorkload, Demand, Executed, Workload};

/// Trait implemented by DVFS governors and by the online controller.
///
/// A policy is stepped *after* the device has executed each tick —
/// once per simulated millisecond, except that the event engine skips
/// the ticks a policy declares no-ops ([`Policy::next_event_ms`]) and
/// steps it once after the whole span. Policies keep their own notion
/// of sampling cadence by inspecting [`Device::now_ms`]. Policies actuate either
/// through the internal driver interface ([`Device::set_cpu_freq`],
/// [`Device::set_mem_bw`]) — as in-kernel governors do — or through the
/// virtual sysfs tree ([`Device::sysfs_write`]) as user-space controllers
/// do.
///
/// No policy may read the measured power ([`Device::monitor`], the
/// replica monitors, or the energy and power of [`Device::stats`])
/// during a run: the measured energy is the run's output, never an
/// input. The paper's controller decides on profiled power, not
/// measured power. Replica monitors ([`Device::add_replica_monitor`])
/// rely on this, since one trajectory can stand for every monitor seed
/// only while no decision depends on the monitor's noise.
pub trait Policy {
    /// Short human-readable policy name (e.g. `"interactive"`).
    fn name(&self) -> &str;

    /// Called once before the simulation starts.
    fn start(&mut self, _device: &mut Device) {}

    /// Called after the device tick: once per simulated millisecond, or
    /// once per span the engine coalesced (see [`Policy::next_event_ms`]).
    fn tick(&mut self, device: &mut Device);

    /// Called once after the simulation ends.
    fn finish(&mut self, _device: &mut Device) {}

    /// Health summary for hardened policies (see [`HealthReport`]).
    /// Plain governors return `None`; resilient controllers report their
    /// fault counters and degradation state so the harness can attach
    /// them to the [`sim::RunReport`].
    fn health(&self) -> Option<HealthReport> {
        None
    }

    /// Earliest simulated millisecond at which the next [`Policy::tick`]
    /// may do anything other than return immediately. The event engine
    /// ([`event::run`]) skips straight to this time; the contract is that
    /// every `tick` strictly before it must be a pure no-op (no device
    /// writes, no internal state change, no RNG draws). The conservative
    /// default — the very next millisecond — keeps every existing policy
    /// correct; sampling governors override it with their next sampling
    /// deadline. Return [`u64::MAX`] for policies whose `tick` never does
    /// anything.
    fn next_event_ms(&self, device: &Device) -> u64 {
        device.now_ms().saturating_add(1)
    }
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn start(&mut self, device: &mut Device) {
        (**self).start(device);
    }
    fn tick(&mut self, device: &mut Device) {
        (**self).tick(device);
    }
    fn finish(&mut self, device: &mut Device) {
        (**self).finish(device);
    }
    fn health(&self) -> Option<HealthReport> {
        (**self).health()
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        (**self).next_event_ms(device)
    }
}

impl<P: Policy + ?Sized> Policy for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn start(&mut self, device: &mut Device) {
        (**self).start(device);
    }
    fn tick(&mut self, device: &mut Device) {
        (**self).tick(device);
    }
    fn finish(&mut self, device: &mut Device) {
        (**self).finish(device);
    }
    fn health(&self) -> Option<HealthReport> {
        (**self).health()
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        (**self).next_event_ms(device)
    }
}
