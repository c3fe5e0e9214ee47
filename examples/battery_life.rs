//! Translate the controller's energy savings into what end users feel:
//! battery life. Simulates continuous Spotify playback and projects how
//! long the Nexus 6's 44 kJ pack lasts under each power manager.
//!
//! Run with: `cargo run --release --example battery_life`

use asgov::prelude::*;

/// The Nexus 6's pack: 3220 mAh at 3.8 V nominal, joules.
const NEXUS6_BATTERY_J: f64 = 3.220 * 3.8 * 3600.0;

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::spotify(BackgroundLoad::baseline(1));

    let default = measure_default(&dev_cfg, &mut app, 1, 120_000);

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
    let mut controller = ControllerBuilder::new(profile)
        .target_gips(default.gips)
        .build();
    let mut device = Device::new(dev_cfg.clone());
    app.reset();
    let report = with_controller_stack(ControlMode::Coordinated, &mut controller, |policies| {
        sim::run(&mut device, &mut app, policies, 120_000)
    });

    let capacity = NEXUS6_BATTERY_J;
    let hours = |power_w: f64| capacity / power_w / 3600.0;
    println!("Nexus 6 battery: {:.0} kJ", capacity / 1000.0);
    println!(
        "default governors: {:.2} W -> {:.1} h of playback",
        default.power_w,
        hours(default.power_w)
    );
    println!(
        "asgov controller:  {:.2} W -> {:.1} h of playback",
        report.avg_power_w,
        hours(report.avg_power_w)
    );
    println!(
        "\n=> {:+.1} h of extra playback at equal audio quality",
        hours(report.avg_power_w) - hours(default.power_w)
    );
}
