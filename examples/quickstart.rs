//! Quickstart: profile an application offline, then run it under the
//! energy controller and compare with the stock Android governors.
//!
//! Run with: `cargo run --release --example quickstart`

use asgov::prelude::*;

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));

    // --- Stage 1: offline profiling (paper §III-A).
    println!(
        "profiling {} (alternate frequencies × lowest/highest bandwidth)...",
        app.spec().name
    );
    let profile = profile_app(
        &dev_cfg,
        &mut app,
        &ProfileOptions {
            runs_per_config: 1,
            run_ms: 20_000,
            freq_stride: 2,
            interpolate: true,
        },
    );
    println!(
        "profiled {} configurations, base speed {:.3} GIPS\n",
        profile.len(),
        profile.base_gips
    );

    // --- Baseline: the default interactive + cpubw_hwmon governors.
    let baseline = measure_default(&dev_cfg, &mut app, 1, 60_000);
    println!(
        "default governors: {:.3} GIPS at {:.2} W -> {:.1} J over 60 s",
        baseline.gips, baseline.power_w, baseline.energy_j
    );

    // --- Stage 2: online control at the default's performance.
    let mut controller = ControllerBuilder::new(profile)
        .target_gips(baseline.gips)
        .build();
    // The stack keeps the GPU with its stock governor, as the paper does.
    let mut device = Device::new(dev_cfg);
    app.reset();
    let report = with_controller_stack(ControlMode::Coordinated, &mut controller, |policies| {
        sim::run(&mut device, &mut app, policies, 60_000)
    });
    println!(
        "energy controller:  {:.3} GIPS at {:.2} W -> {:.1} J",
        report.avg_gips, report.avg_power_w, report.energy_j
    );

    let savings = (baseline.energy_j - report.energy_j) / baseline.energy_j * 100.0;
    let perf = (report.avg_gips - baseline.gips) / baseline.gips * 100.0;
    println!("\n=> {savings:.1}% energy saved at {perf:+.1}% performance");
}
