//! Robustness tests (paper §III-A and §V-C): the controller must cope
//! with measurement noise, stale profiles and background loads that
//! differ from the profiling environment.

use asgov::governors::AdrenoTz;
use asgov::prelude::*;

fn quick_profile() -> ProfileOptions {
    ProfileOptions {
        runs_per_config: 1,
        run_ms: 8_000,
        freq_stride: 2,
        interpolate: true,
    }
}

fn controller_run(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    profile: asgov::profiler::ProfileTable,
    target: f64,
    noise: f64,
    duration_ms: u64,
) -> asgov::soc::sim::RunReport {
    let mut controller = ControllerBuilder::new(profile)
        .target_gips(target)
        .perf_noise_rel(noise)
        .build();
    let mut gpu = AdrenoTz::default();
    let mut device = Device::new(dev_cfg.clone());
    app.reset();
    sim::run(
        &mut device,
        app,
        &mut [&mut gpu, &mut controller],
        duration_ms,
    )
}

#[test]
fn bl_profile_still_saves_under_no_load() {
    // Paper Table IV, NL column: profile at BL, run at NL.
    let dev_cfg = DeviceConfig::nexus6();
    let mut bl_app = apps::wechat(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut bl_app, &quick_profile());
    let target = measure_default(&dev_cfg, &mut bl_app, 1, 60_000).gips;

    let mut nl_app = apps::wechat(BackgroundLoad::none(1));
    let nl_default = measure_default(&dev_cfg, &mut nl_app, 1, 60_000);
    let report = controller_run(&dev_cfg, &mut nl_app, profile, target, 0.02, 60_000);

    let savings = (nl_default.energy_j - report.energy_j) / nl_default.energy_j;
    assert!(
        savings > 0.0,
        "stale BL profile should still save energy under NL, got {:.1}%",
        savings * 100.0
    );
}

#[test]
fn bl_profile_still_saves_under_heavy_load() {
    // Paper Table IV, HL column.
    let dev_cfg = DeviceConfig::nexus6();
    let mut bl_app = apps::wechat(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut bl_app, &quick_profile());
    let target = measure_default(&dev_cfg, &mut bl_app, 1, 60_000).gips;

    let mut hl_app = apps::wechat(BackgroundLoad::heavy(1));
    let hl_default = measure_default(&dev_cfg, &mut hl_app, 1, 60_000);
    let report = controller_run(&dev_cfg, &mut hl_app, profile, target, 0.02, 60_000);

    let savings = (hl_default.energy_j - report.energy_j) / hl_default.energy_j;
    assert!(
        savings > -0.02,
        "stale BL profile must not backfire badly under HL, got {:.1}%",
        savings * 100.0
    );
}

#[test]
fn heavy_measurement_noise_does_not_destabilize() {
    // 10% PMU noise (the paper reports high variation for short phases).
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut app, &quick_profile());
    let default = measure_default(&dev_cfg, &mut app, 1, 60_000);

    let clean = controller_run(
        &dev_cfg,
        &mut app,
        profile.clone(),
        default.gips,
        0.0,
        60_000,
    );
    let noisy = controller_run(&dev_cfg, &mut app, profile, default.gips, 0.10, 60_000);

    let perf_drop = (clean.avg_gips - noisy.avg_gips) / clean.avg_gips;
    assert!(
        perf_drop < 0.05,
        "10% measurement noise cost {:.1}% performance",
        perf_drop * 100.0
    );
    assert!(
        noisy.energy_j < default.energy_j * 1.05,
        "noisy controller must not burn more than the default"
    );
}

#[test]
fn absurd_target_clamps_gracefully() {
    // A target far beyond the device's ability must pin the controller
    // at the profile maximum, not break it.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::spotify(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut app, &quick_profile());
    let report = controller_run(&dev_cfg, &mut app, profile, 50.0, 0.02, 30_000);
    assert!(report.avg_gips > 0.05, "app still runs");

    // And a zero target parks it at the cheapest configuration.
    let mut app = apps::spotify(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut app, &quick_profile());
    let report = controller_run(&dev_cfg, &mut app, profile, 0.0, 0.02, 30_000);
    let hist = report.stats.freq_histogram();
    assert!(
        hist[0] > 0.9,
        "zero target should park at the lowest profiled frequency"
    );
}

#[test]
fn controller_survives_empty_measurement_cycles() {
    // A perf period longer than the control cycle means some cycles see
    // no reading; the controller must reuse the last measurement rather
    // than panic or act on garbage.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::spotify(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut app, &quick_profile());
    let mut controller = ControllerBuilder::new(profile)
        .target_gips(0.1)
        .period_ms(400) // shorter cycle than the 1 s measurement period
        .build();
    let mut gpu = AdrenoTz::default();
    let mut device = Device::new(dev_cfg);
    app.reset();
    let report = sim::run(
        &mut device,
        &mut app,
        &mut [&mut gpu, &mut controller],
        20_000,
    );
    assert!(report.avg_gips > 0.05);
    assert_eq!(controller.actuation_failures(), 0);
}
