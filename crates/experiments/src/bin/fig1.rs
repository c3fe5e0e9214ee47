//! Fig. 1 — histogram of CPU frequencies chosen by the default governor
//! for the e-book reader (the paper's motivating observation).

use asgov_experiments::render::histogram;
use asgov_profiler::measure_default;
use asgov_soc::DeviceConfig;
use asgov_workloads::{apps, BackgroundLoad};

fn main() {
    asgov_util::args::none();
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::ebook(BackgroundLoad::baseline(1));
    let measured = measure_default(&dev_cfg, &mut app, 1, 120_000);
    let report = measured.reports.first().expect("one run requested");
    println!("=== Fig. 1: eBook reading, default governor ===\n");
    println!(
        "{}",
        histogram(
            "CPU frequency residency",
            &report.stats.freq_histogram(),
            "f"
        )
    );
    let h = report.stats.freq_histogram();
    let at_f10 = h[9] * 100.0;
    let high: f64 = h[13..].iter().sum::<f64>() * 100.0;
    println!("time at f10: {at_f10:.1}% (paper: ~15%); time at f14+: {high:.1}% (paper: >10% at the highest)");
}
