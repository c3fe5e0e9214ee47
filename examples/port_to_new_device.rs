//! The paper claims its strategy "can be implemented on any mobile
//! device capable of DVFS" (§I contribution 5). This example ports the
//! whole pipeline to a different SoC: a big-core flagship with 8 CPU
//! frequencies, 6 bandwidth settings and a different power envelope —
//! nothing in the profiler or controller changes.
//!
//! Run with: `cargo run --release --example port_to_new_device`

use asgov::prelude::*;
use asgov::soc::{DvfsTable, PowerModelParams};

fn flagship_device() -> DeviceConfig {
    // An 8-point big-core ladder and a 6-point LPDDR4X-like bus.
    let table = DvfsTable::new(
        &[0.5, 0.8, 1.1, 1.4, 1.8, 2.2, 2.6, 3.0],
        &[1866.0, 2933.0, 4266.0, 5500.0, 6400.0, 8533.0],
    );
    let power = PowerModelParams {
        screen_w: 0.55, // bigger OLED panel
        wifi_w: 0.08,
        rest_w: 0.25,
        soc_static_w: 0.18,
        cpu_leak_w_per_v: 0.06, // leakier high-performance process
        cpu_dyn_w_per_v2ghz: 0.55,
        cpu_uncore_w_per_v2ghz: 0.22,
        mem_static_w: 0.06,
        mem_bw_w_per_mbps: 5.0e-5,
        mem_traffic_w_per_mbps: 5.0e-5,
    };
    DeviceConfig {
        table,
        power,
        monitor_noise_w: 0.004,
        online_cores: 4.0,
        seed: 0xf1a9,
        mem_overlap: 0.7,
        cpuidle_leak_reduction: 0.0,
    }
}

fn main() {
    let dev_cfg = flagship_device();
    let mut app = apps::wechat(BackgroundLoad::baseline(1));

    println!(
        "flagship SoC: {} CPU frequencies x {} bandwidths",
        dev_cfg.table.num_freqs(),
        dev_cfg.table.num_bws()
    );

    // Stage 1 works unchanged: the profiler discovers this device's
    // ladders from its DvfsTable.
    let profile = profile_app(
        &dev_cfg,
        &mut app,
        &ProfileOptions {
            runs_per_config: 1,
            run_ms: 15_000,
            freq_stride: 1, // few enough points to profile exhaustively
            interpolate: true,
        },
    );
    println!("{}", profile.render(&dev_cfg.table));

    // Stage 2 works unchanged too.
    let baseline = measure_default(&dev_cfg, &mut app, 1, 60_000);
    let mut controller = ControllerBuilder::new(profile)
        .target_gips(baseline.gips)
        .build();
    let mut device = Device::new(dev_cfg);
    app.reset();
    let report = with_controller_stack(ControlMode::Coordinated, &mut controller, |policies| {
        sim::run(&mut device, &mut app, policies, 60_000)
    });

    println!(
        "default:    {:.3} GIPS at {:.2} W -> {:.1} J",
        baseline.gips, baseline.power_w, baseline.energy_j
    );
    println!(
        "controller: {:.3} GIPS at {:.2} W -> {:.1} J",
        report.avg_gips, report.avg_power_w, report.energy_j
    );
    println!(
        "=> {:+.1}% energy at {:+.1}% performance, on hardware the\n   controller had never seen at compile time",
        (baseline.energy_j - report.energy_j) / baseline.energy_j * 100.0,
        (report.avg_gips - baseline.gips) / baseline.gips * 100.0
    );
}
