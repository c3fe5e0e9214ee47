//! # asgov-profiler — offline profiling (Stage 1)
//!
//! The application-specific aspect of the paper's solution rests on an
//! offline profile: for a target application, the *speedup* (performance
//! normalized to the lowest system configuration) and *average device
//! power* at a subset of (CPU frequency, memory bandwidth) operating
//! points (paper §III-A, Table I).
//!
//! To tame the 18 × 13 = 234-point configuration space, the paper
//! profiles **every alternate CPU frequency at only the lowest and
//! highest memory bandwidth** (≤ 9 × 2 = 18 runs, three repetitions
//! each) and **linearly interpolates** along the bandwidth axis for the
//! remaining 11 settings. Per-application frequency exclusions (WeChat's
//! camera fails below f3, MX Player stutters below f5, …) come from
//! [`asgov_workloads::AppSpec::profile_freq_range`].
//!
//! This crate also measures the *default run* — performance
//! `R_def`, power `P_def`, time `T_def` and energy `E_def` under the
//! stock `interactive` + `cpubw_hwmon` + `msm-adreno-tz` governors —
//! which provides both the controller's performance target and the
//! energy baseline every table of the paper compares against.
//!
//! A profile holds for the background load it was taken under. To
//! control under another load, profile under that load: Table IV's
//! §V-C follow-up does exactly that, since the paper leaves
//! load-parameterized profiles as future work.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod default_run;
mod profile;
mod table;

pub use default_run::{measure_default, measure_fixed, measure_runs, DefaultMeasurement};
pub use profile::{
    fit_mar_cse, profile_app, profile_app_cpu_only, profile_app_serial, profile_app_threads,
    ProfileOptions,
};
pub use table::{Config, ProfileEntry, ProfileTable, TableParseError};
