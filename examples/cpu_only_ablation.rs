//! The paper's §V-D ablation: coordinated CPU + memory-bandwidth control
//! vs CPU-only control (bandwidth left to the default `cpubw_hwmon`).
//!
//! Run with: `cargo run --release --example cpu_only_ablation`

use asgov::prelude::*;

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 20_000,
        freq_stride: 2,
        interpolate: true,
    };

    let default = measure_default(&dev_cfg, &mut app, 1, 120_000);
    println!(
        "default: {:.1} J at {:.3} GIPS",
        default.energy_j, default.gips
    );

    // Coordinated: the paper's controller.
    let coord_profile = profile_app(&dev_cfg, &mut app, &opts);
    let mut coordinated = ControllerBuilder::new(coord_profile)
        .target_gips(default.gips)
        .build();
    let mut device = Device::new(dev_cfg.clone());
    app.reset();
    let coord = with_controller_stack(ControlMode::Coordinated, &mut coordinated, |policies| {
        sim::run(&mut device, &mut app, policies, 120_000)
    });

    // CPU-only: re-profiled with the bandwidth under cpubw_hwmon.
    let cpu_profile = profile_app_cpu_only(&dev_cfg, &mut app, &opts);
    let mut cpu_only = ControllerBuilder::new(cpu_profile)
        .target_gips(default.gips)
        .mode(ControlMode::CpuOnly)
        .build();
    // The stack keeps cpubw_hwmon beside a CPU-only controller.
    let mut device = Device::new(dev_cfg);
    app.reset();
    let cpuonly = with_controller_stack(ControlMode::CpuOnly, &mut cpu_only, |policies| {
        sim::run(&mut device, &mut app, policies, 120_000)
    });

    let s_coord = (default.energy_j - coord.energy_j) / default.energy_j * 100.0;
    let s_cpu = (default.energy_j - cpuonly.energy_j) / default.energy_j * 100.0;
    println!(
        "coordinated: {:.1} J ({s_coord:+.1}%) at {:.3} GIPS",
        coord.energy_j, coord.avg_gips
    );
    println!(
        "cpu-only:    {:.1} J ({s_cpu:+.1}%) at {:.3} GIPS",
        cpuonly.energy_j, cpuonly.avg_gips
    );
    println!("\ncoordinated control saves more: the bandwidth axis matters (paper Table V).");
}
