//! Fig. 3 — the two-configuration optimization, worked example.

use asgov_core::EnergyOptimizer;
use asgov_profiler::{profile_app, ProfileOptions};
use asgov_soc::DeviceConfig;
use asgov_workloads::{apps, BackgroundLoad};

fn main() {
    asgov_util::args::none();
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let table = profile_app(&dev_cfg, &mut app, &ProfileOptions::default());
    let opt = EnergyOptimizer::new(&table);
    println!("=== Fig. 3: energy optimizer selecting c_l and c_h ===\n");
    println!(
        "profile: N = {} configurations, speedups {:.2}..{:.2}\n",
        opt.len(),
        opt.min_speedup(),
        opt.max_speedup()
    );
    for frac in [0.2, 0.4, 0.6, 0.8] {
        let s = opt.min_speedup() + frac * (opt.max_speedup() - opt.min_speedup());
        let plan = opt.solve(s, 2.0).expect("finite target");
        println!(
            "target speedup {s:.3}: c_l = ({}, {}) for {:.2}s, c_h = ({}, {}) for {:.2}s, energy {:.3} J",
            plan.lower.freq, plan.lower.bw, plan.tau_lower,
            plan.upper.freq, plan.upper.bw, plan.tau_upper,
            plan.energy_j,
        );
    }
    println!(
        "\nAt most two configurations are ever selected, bracketing the target (paper Fig. 3)."
    );
}
