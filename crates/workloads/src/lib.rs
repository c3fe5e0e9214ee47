//! # asgov-workloads — application and background-load models
//!
//! Synthetic but behaviourally faithful models of the workloads the
//! HPCA'17 paper evaluates on a real Nexus 6 (§IV-C):
//!
//! | model | paper application | defining characteristics |
//! |-------|------------------|--------------------------|
//! | [`apps::vidcon`] | VidCon (FFmpeg video converter) | fixed-work batch job, compute-heavy, uniform profile, scales to f18 |
//! | [`apps::mobilebench`] | MobileBench browser benchmark | rapidly varying page-load/read phases, scroll/zoom touches |
//! | [`apps::angrybirds`] | AngryBirds | 60 fps frame work, GIPS saturates ≈ f5, periodic advertisements (+0.5 W, heavy traffic) |
//! | [`apps::wechat`] | WeChat video call | steady 30 fps encode, camera power floor, unusable below f3 |
//! | [`apps::mxplayer`] | MX Player | hardware-decoder GIPS cap, low CPU, needs ≥ f5 for smooth playback |
//! | [`apps::spotify`] | Spotify | tiny audio decode, song-change bursts every 20 s |
//! | [`apps::ebook`] | e-book reader (paper Fig. 1) | near-idle reading, rare page-turn bursts |
//!
//! [`apps::REGISTRY`] maps each model's name to its constructor
//! ([`apps::by_name`] looks one up).
//!
//! Applications are built from [`AppSpec`]s — cyclic phase machines with
//! frame-granular work arrival, Poisson touch events and periodic
//! power/work events — executed by [`PhasedApp`], which implements
//! [`asgov_soc::Workload`]. Every model here is a `PhasedApp`; any other
//! [`asgov_soc::Workload`] drives the device just as well.
//!
//! Background load scenarios (paper §V-C):
//! [`BackgroundLoad::baseline`] (BL — WiFi on, e-mail sync, Spotify
//! minimized), [`BackgroundLoad::none`] (NL) and
//! [`BackgroundLoad::heavy`] (HL — seven apps minimized, 134 MB free).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
pub mod apps;
mod background;

pub use app::{AppKind, AppSpec, EventSpec, PhaseSpec, PhasedApp, TouchSpec};
pub use background::{BackgroundLoad, LoadLevel};

/// All six paper applications (Table III order), under a given
/// background load.
pub fn paper_apps(load: BackgroundLoad) -> Vec<PhasedApp> {
    apps::PAPER_APPS
        .iter()
        .map(|(_, ctor)| ctor(load.clone()))
        .collect()
}
