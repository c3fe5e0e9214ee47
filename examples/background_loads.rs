//! The paper's §V-C robustness experiment: profile under baseline load,
//! then run the controller under no-load and heavier-load conditions.
//!
//! Run with: `cargo run --release --example background_loads`

use asgov::prelude::*;

fn main() {
    let dev_cfg = DeviceConfig::nexus6();

    // Profile WeChat under the baseline load (BL) — the only profile the
    // controller will ever see.
    let mut bl_app = apps::wechat(BackgroundLoad::baseline(1));
    let profile = profile_app(
        &dev_cfg,
        &mut bl_app,
        &ProfileOptions {
            runs_per_config: 1,
            run_ms: 20_000,
            freq_stride: 2,
            interpolate: true,
        },
    );
    let target = measure_default(&dev_cfg, &mut bl_app, 1, 60_000).gips;
    println!("profiled under BL; target {target:.3} GIPS\n");
    println!(
        "{:<6} {:>12} {:>12} {:>10}",
        "load", "perf delta", "energy save", "base est"
    );

    for level in [LoadLevel::Baseline, LoadLevel::None, LoadLevel::Heavy] {
        let mut app = apps::wechat(BackgroundLoad::with_level(level, 1));
        let default = measure_default(&dev_cfg, &mut app, 1, 60_000);

        let mut controller = ControllerBuilder::new(profile.clone())
            .target_gips(target)
            .build();
        let mut device = Device::new(dev_cfg.clone());
        app.reset();
        let report = with_controller_stack(ControlMode::Coordinated, &mut controller, |policies| {
            sim::run(&mut device, &mut app, policies, 60_000)
        });

        println!(
            "{:<6} {:>11.1}% {:>11.1}% {:>10.3}",
            level.label(),
            (report.avg_gips - default.gips) / default.gips * 100.0,
            (default.energy_j - report.energy_j) / default.energy_j * 100.0,
            controller.base_estimate(),
        );
    }
    println!("\nThe Kalman filter re-estimates the base speed under each load,");
    println!("so a BL profile still yields savings under NL and HL (paper Table IV).");
}
