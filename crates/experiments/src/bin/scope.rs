//! §V-B application scope: the two application types the paper says are
//! *not* suited to the controller — near-idle apps (nothing left to
//! save via CPU DVFS) and flat-out compute apps (nothing to save
//! without losing performance).

use asgov_experiments::harness::{compare, ExperimentOptions};
use asgov_experiments::render::{energy_cell, perf_cell};
use asgov_soc::DeviceConfig;
use asgov_workloads::{apps, BackgroundLoad};

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let opts = ExperimentOptions::default();
    println!("=== §V-B application scope: where the controller cannot help ===\n");
    println!(
        "{:<12} {:>12} {:>9}",
        "Application", "Performance", "Energy"
    );
    for mut app in [
        apps::idler(BackgroundLoad::baseline(1)),
        apps::cruncher(BackgroundLoad::baseline(1)),
    ] {
        let c = compare(&dev_cfg, &mut app, &opts);
        println!("{:<12} {:>12} {:>9}", c.app, perf_cell(&c), energy_cell(&c));
    }
    println!("\nA reference point from Table III (controller in scope):");
    let mut ab = apps::angrybirds(BackgroundLoad::baseline(1));
    let c = compare(&dev_cfg, &mut ab, &opts);
    println!("{:<12} {:>12} {:>9}", c.app, perf_cell(&c), energy_cell(&c));
    println!("\nThe paper (\u{00a7}V-B): for the idle type \"it is hard to obtain additional");
    println!("energy savings through CPU DVFS\"; for the compute type \"it is hard to");
    println!("save more energy without performance degradation\".");
}
