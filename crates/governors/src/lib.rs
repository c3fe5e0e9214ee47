//! # asgov-governors — Linux/Android DVFS governor re-implementations
//!
//! The paper's baselines are the stock Android power managers: the
//! `cpufreq` subsystem's governors for CPU frequency and the `devfreq`
//! subsystem's governors for memory-bus bandwidth. These run
//! *independently of each other* — the central deficiency the paper's
//! coordinated controller exploits.
//!
//! CPU-frequency governors ([`cpufreq`]):
//!
//! - [`Interactive`] — the Android default: 20 ms load sampling, jumps
//!   to `hispeed_freq` (frequency №10 on the Nexus 6) when load crosses
//!   `go_hispeed_load`, scales to hold a target load otherwise, with a
//!   minimum dwell before lowering. Explains the paper's Fig. 1/4
//!   histograms (mass at f10 and f18).
//! - [`Ondemand`] — the classic Linux default: jump to max frequency
//!   above `up_threshold`, proportional decrease below it.
//! - [`Conservative`] — steps one frequency at a time.
//! - [`PerformanceCpu`] / [`PowersaveCpu`].
//!
//! Memory-bandwidth governors ([`devfreq`]):
//!
//! - [`CpubwHwmon`] — monitors bus traffic from the L2 hardware
//!   counters, votes bandwidth up immediately and decays it with an
//!   exponential back-off (the behaviour visible in the paper's Fig. 5).
//! - [`PerformanceBw`] / [`PowersaveBw`].
//!
//! All governors implement [`asgov_soc::Policy`] and act only while
//! their name matches the device's selected governor, mirroring how the
//! kernel activates exactly one governor per subsystem.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpufreq;
pub mod devfreq;
pub mod gpufreq;
pub mod hotplug;
pub mod marcse;

pub use cpufreq::{Conservative, Interactive, Ondemand, PerformanceCpu, PowersaveCpu, Schedutil};
pub use devfreq::{CpubwHwmon, PerformanceBw, PowersaveBw};
pub use gpufreq::AdrenoTz;
pub use hotplug::MpDecision;
pub use marcse::{MarCse, MarCseModel};
