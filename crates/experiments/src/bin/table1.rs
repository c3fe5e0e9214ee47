//! Table I — sample offline profile table for AngryBirds.

use asgov_profiler::{profile_app, ProfileOptions};
use asgov_soc::DeviceConfig;
use asgov_workloads::{apps, BackgroundLoad};

fn main() {
    asgov_util::args::none();
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let table = profile_app(&dev_cfg, &mut app, &ProfileOptions::default());
    println!("=== Table I: profile table for AngryBirds (paper §III-A) ===\n");
    println!("{}", table.render(&dev_cfg.table));
    println!(
        "Paper reference points: speedup 1.0 / ~1624 mW at (0.3 GHz, 762 MBps); \
         speedup 1.837 / ~2219 mW at (0.8832 GHz, 762 MBps); base speed 0.129 GIPS."
    );
}
