//! Table V — the CPU-only DVFS ablation: the controller actuates only
//! the CPU frequency while `cpubw_hwmon` keeps the bandwidth.

use asgov_core::ControlMode;
use asgov_experiments::harness::{compare_all, ExperimentOptions};
use asgov_experiments::render::{energy_cell, perf_cell};
use asgov_soc::DeviceConfig;
use asgov_workloads::{paper_apps, BackgroundLoad};

fn main() {
    asgov_util::args::none();
    let dev_cfg = DeviceConfig::nexus6();
    let mut opts = ExperimentOptions::default();

    println!("=== Table V: CPU-only DVFS controller vs default (paper §V-D) ===\n");
    println!(
        "{:<18} {:>12} {:>10} {:>14}   (paper: perf, energy)",
        "Application", "Performance", "Energy", "coord. energy"
    );
    let paper = [
        ("+2.8%", "13.1%"),
        ("-2.9%", "7.6%"),
        ("-2.6%", "9.6%"),
        ("+4.7%", "22.3%"),
        ("0.0%", "0.4%"),
        ("+3.3%", "33.3%"),
    ];
    let mut cpu_only_sum = 0.0;
    let mut coord_sum = 0.0;
    let mut counted = 0;
    // Both modes fan out across all six apps; rows stay in app order.
    let apps = paper_apps(BackgroundLoad::baseline(1));
    opts.mode = ControlMode::CpuOnly;
    let cpu_only_rows = compare_all(&dev_cfg, &apps, &opts);
    opts.mode = ControlMode::Coordinated;
    let coord_rows = compare_all(&dev_cfg, &apps, &opts);
    for (i, (cpu_only, coord)) in cpu_only_rows.into_iter().zip(coord_rows).enumerate() {
        println!(
            "{:<18} {:>12} {:>10} {:>14}   ({:>6}, {:>6})",
            cpu_only.app,
            perf_cell(&cpu_only),
            energy_cell(&cpu_only),
            energy_cell(&coord),
            paper[i].0,
            paper[i].1,
        );
        // The paper excludes MX Player ("practically does not save
        // energy") from the average; degenerate baselines would drag
        // the mean toward 0 with rows that measured nothing.
        if cpu_only.app != "MXPlayer"
            && !cpu_only.baseline_degenerate()
            && !coord.baseline_degenerate()
        {
            cpu_only_sum += cpu_only.energy_savings_pct();
            coord_sum += coord.energy_savings_pct();
            counted += 1;
        }
    }
    if counted == 0 {
        println!("\nAverage savings: n/a (no usable baselines)");
        return;
    }
    let (c, k) = (coord_sum / counted as f64, cpu_only_sum / counted as f64);
    println!("\nAverage savings (excl. MXPlayer): coordinated {c:.1}%, cpu-only {k:.1}%");
    if k > 0.0 {
        println!(
            "Energy-consumption increase of CPU-only vs coordinated: {:.0}% (paper: 53%)",
            (c - k) / k.max(1e-9) * 100.0
        );
    }
}
