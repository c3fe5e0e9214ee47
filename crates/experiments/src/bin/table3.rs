//! Table III — energy savings and performance of the coordinated
//! controller vs the default governors, six applications.

use asgov_experiments::harness::{compare_all, ExperimentOptions};
use asgov_experiments::render::{energy_cell, perf_cell};
use asgov_experiments::stats::Summary;
use asgov_soc::DeviceConfig;
use asgov_workloads::{paper_apps, BackgroundLoad};

fn main() {
    asgov_util::args::none();
    let dev_cfg = DeviceConfig::nexus6();
    let opts = ExperimentOptions::default();
    println!("=== Table III: controller vs default governors (baseline load) ===\n");
    println!(
        "{:<18} {:>12} {:>8} {:>16}   (paper: perf, energy)",
        "Application", "Performance", "Energy", "ctrl W (mean±std)"
    );
    let paper = [
        ("-0.4%", "25.3%"),
        ("+4.1%", "15.3%"),
        ("+0.6%", "14.9%"),
        ("-0.4%", "27.2%"),
        ("0.0%", "4.2%"),
        ("+9.3%", "31.6%"),
    ];
    // All six apps run concurrently; the rows come back in app order.
    let apps = paper_apps(BackgroundLoad::baseline(1));
    let mut failures = Vec::new();
    for (i, c) in compare_all(&dev_cfg, &apps, &opts).into_iter().enumerate() {
        let powers: Vec<f64> = c.controller.reports.iter().map(|r| r.avg_power_w).collect();
        println!(
            "{:<18} {:>12} {:>8} {:>16}   ({:>6}, {:>6})",
            c.app,
            perf_cell(&c),
            energy_cell(&c),
            Summary::of(&powers).display(3),
            paper[i].0,
            paper[i].1,
        );
        failures.extend(c.failure_summary());
    }
    if failures.is_empty() {
        println!("\nall controller runs healthy: no actuation or measurement faults");
    } else {
        println!("\ncontroller failure summary:");
        for f in &failures {
            println!("  {f}");
        }
    }
}
