//! Fig. 4 — CPU-frequency histograms, controller vs default, 6 apps.

use asgov_experiments::harness::{compare, ExperimentOptions};
use asgov_experiments::render::paired_histogram;
use asgov_soc::DeviceConfig;
use asgov_workloads::{paper_apps, BackgroundLoad};

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let opts = ExperimentOptions::default();
    println!("=== Fig. 4: CPU frequency residency, controller vs default ===\n");
    for mut app in paper_apps(BackgroundLoad::baseline(1)) {
        let c = compare(&dev_cfg, &mut app, &opts);
        println!(
            "{}",
            paired_histogram(
                &format!("--- {} ---", c.app),
                &c.controller.reports[0].stats.freq_histogram(),
                &c.default.reports[0].stats.freq_histogram(),
                "f",
            )
        );
    }
}
