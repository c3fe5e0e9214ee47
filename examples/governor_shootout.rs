//! Compare every stock governor pair and the controller on one
//! application: energy, performance, and frequency residency.
//!
//! Run with: `cargo run --release --example governor_shootout`

use asgov::governors::{
    Conservative, CpubwHwmon, Interactive, MpDecision, Ondemand, PerformanceBw, PerformanceCpu,
    PowersaveBw, PowersaveCpu, Schedutil,
};
use asgov::prelude::*;

fn run_stack(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    label: &str,
    policies: &mut [&mut dyn Policy],
) -> (String, f64, f64) {
    let mut device = Device::new(dev_cfg.clone());
    app.reset();
    let report = sim::run(&mut device, app, policies, 60_000);
    (label.to_string(), report.avg_gips, report.energy_j)
}

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::wechat(BackgroundLoad::baseline(1));
    let mut rows = Vec::new();

    let (mut i, mut h) = (Interactive::default(), CpubwHwmon::default());
    rows.push(run_stack(
        &dev_cfg,
        &mut app,
        "interactive + cpubw_hwmon",
        &mut [&mut i, &mut h],
    ));

    let (mut o, mut h) = (Ondemand::default(), CpubwHwmon::default());
    rows.push(run_stack(
        &dev_cfg,
        &mut app,
        "ondemand + cpubw_hwmon",
        &mut [&mut o, &mut h],
    ));

    let (mut c, mut h) = (Conservative::default(), CpubwHwmon::default());
    rows.push(run_stack(
        &dev_cfg,
        &mut app,
        "conservative + cpubw_hwmon",
        &mut [&mut c, &mut h],
    ));

    let (mut p, mut pb) = (PerformanceCpu, PerformanceBw);
    rows.push(run_stack(
        &dev_cfg,
        &mut app,
        "performance + performance",
        &mut [&mut p, &mut pb],
    ));

    let (mut s, mut sb) = (PowersaveCpu, PowersaveBw);
    rows.push(run_stack(
        &dev_cfg,
        &mut app,
        "powersave + powersave",
        &mut [&mut s, &mut sb],
    ));

    let (mut su, mut h) = (Schedutil::default(), CpubwHwmon::default());
    rows.push(run_stack(
        &dev_cfg,
        &mut app,
        "schedutil + cpubw_hwmon",
        &mut [&mut su, &mut h],
    ));

    let (mut i2, mut h2, mut mp) = (
        Interactive::default(),
        CpubwHwmon::default(),
        MpDecision::default(),
    );
    rows.push(run_stack(
        &dev_cfg,
        &mut app,
        "interactive + hwmon + mpdecision",
        &mut [&mut i2, &mut h2, &mut mp],
    ));

    // The controller, targeted at the interactive baseline.
    let profile = profile_app(
        &dev_cfg,
        &mut app,
        &ProfileOptions {
            runs_per_config: 1,
            run_ms: 15_000,
            freq_stride: 2,
            interpolate: true,
        },
    );
    let target = rows[0].1;
    let mut controller = ControllerBuilder::new(profile).target_gips(target).build();
    rows.push(with_controller_stack(
        ControlMode::Coordinated,
        &mut controller,
        |policies| run_stack(&dev_cfg, &mut app, "asgov controller", policies),
    ));

    println!("{:<28} {:>10} {:>12}", "policy stack", "GIPS", "energy (J)");
    for (label, gips, energy) in rows {
        println!("{label:<28} {gips:>10.3} {energy:>12.1}");
    }
    println!("\npowersave is cheap but misses the performance target;");
    println!("performance meets it at maximum energy; the controller holds");
    println!("the target at minimum energy — the paper's core claim.");
}
