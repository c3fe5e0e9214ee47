//! Fig. 5 — memory-bandwidth histograms, controller vs default, 6 apps.

use asgov_experiments::harness::{compare, ExperimentOptions};
use asgov_experiments::render::paired_histogram;
use asgov_soc::DeviceConfig;
use asgov_workloads::{paper_apps, BackgroundLoad};

fn main() {
    asgov_util::args::none();
    let dev_cfg = DeviceConfig::nexus6();
    let opts = ExperimentOptions::default();
    println!("=== Fig. 5: memory bandwidth residency, controller vs default ===\n");
    let mut bw1_fracs = Vec::new();
    for mut app in paper_apps(BackgroundLoad::baseline(1)) {
        let c = compare(&dev_cfg, &mut app, &opts);
        let ctrl_hist = c.controller.reports[0].stats.bw_histogram();
        bw1_fracs.push((c.app.clone(), ctrl_hist[0]));
        println!(
            "{}",
            paired_histogram(
                &format!("--- {} ---", c.app),
                &ctrl_hist,
                &c.default.reports[0].stats.bw_histogram(),
                "bw",
            )
        );
    }
    println!("Controller time at bw1 (paper: >60% in all six cases):");
    for (app, f) in bw1_fracs {
        println!("  {:<14} {:.1}%", app, f * 100.0);
    }
}
