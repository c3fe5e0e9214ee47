//! The paper's §VII extension: add the GPU frequency as a third
//! controlled axis. Profiles AngryBirds over (CPU frequency, memory
//! bandwidth, GPU frequency) and compares two-axis vs three-axis
//! control against the stock governors.
//!
//! Run with: `cargo run --release --example gpu_axis`

use asgov::prelude::*;
use asgov::profiler::profile_app_with_gpu;

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 15_000,
        freq_stride: 2,
        interpolate: true,
    };

    let default = measure_default(&dev_cfg, &mut app, 1, 90_000);
    println!(
        "default (interactive + cpubw_hwmon + msm-adreno-tz): {:.1} J at {:.3} GIPS",
        default.energy_j, default.gips
    );

    // Two-axis control: the GPU stays with its stock governor.
    let profile2 = profile_app(&dev_cfg, &mut app, &opts);
    let mut controller2 = ControllerBuilder::new(profile2)
        .target_gips(default.gips)
        .build();
    let mut device = Device::new(dev_cfg.clone());
    app.reset();
    let two_axis = with_controller_stack(ControlMode::Coordinated, &mut controller2, |policies| {
        sim::run(&mut device, &mut app, policies, 90_000)
    });

    // Three-axis control: the controller pins the GPU too.
    let profile3 = profile_app_with_gpu(&dev_cfg, &mut app, &opts);
    println!(
        "three-axis profile: {} configurations (freq × bw × gpu)",
        profile3.len()
    );
    let mut controller3 = ControllerBuilder::new(profile3)
        .target_gips(default.gips)
        .build();
    let mut device = Device::new(dev_cfg);
    app.reset();
    let three_axis = sim::run(&mut device, &mut app, &mut [&mut controller3], 90_000);

    let pct = |e: f64| (default.energy_j - e) / default.energy_j * 100.0;
    println!(
        "two-axis   (cpu+bw):     {:.1} J ({:+.1}%) at {:.3} GIPS",
        two_axis.energy_j,
        pct(two_axis.energy_j),
        two_axis.avg_gips
    );
    println!(
        "three-axis (cpu+bw+gpu): {:.1} J ({:+.1}%) at {:.3} GIPS",
        three_axis.energy_j,
        pct(three_axis.energy_j),
        three_axis.avg_gips
    );
    println!(
        "\nGPU residency (three-axis run): {:?}",
        device.gpu().time_in_freq_ms()
    );
}
