//! Related-work comparison (paper §VI): the same application under the
//! stock default, the modern `schedutil`, the model-based MAR-CSE
//! governor (Liang & Lai), a CoScale-style gradient-search controller,
//! and the paper's LP controller.
//!
//! The point the paper makes: MAR-CSE optimizes energy with *no
//! performance constraint* (it can sacrifice throughput), CoScale's
//! heuristic search is inexact, and only the LP controller holds the
//! target at minimum energy.

use asgov_core::{ControlMode, ControllerBuilder, OptimizerStrategy};
use asgov_experiments::harness::{measure_with_controller, ExperimentOptions};
use asgov_governors::{AdrenoTz, CpubwHwmon, MarCse, Schedutil};
use asgov_profiler::{fit_mar_cse, measure_default, measure_fixed, profile_app};
use asgov_soc::{DeviceConfig, Policy};
use asgov_workloads::{apps, BackgroundLoad};

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let opts = ExperimentOptions::default();
    let duration = opts.duration_ms.unwrap_or(120_000);
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));

    let default = measure_default(&dev_cfg, &mut app, opts.runs, duration);
    let profile = profile_app(&dev_cfg, &mut app, &opts.profile);
    eprintln!("fitting the MAR-CSE model on VidCon + MXPlayer...");
    let mut training = [
        apps::vidcon(BackgroundLoad::baseline(2)),
        apps::mxplayer(BackgroundLoad::baseline(2)),
    ];
    let mar_model = fit_mar_cse(&dev_cfg, &mut training, &opts.profile);

    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    rows.push((
        "interactive + cpubw_hwmon".into(),
        default.gips,
        default.energy_j,
    ));

    let m = measure_fixed(&dev_cfg, &mut app, opts.runs, duration, || {
        vec![
            Box::new(Schedutil::default()) as Box<dyn Policy>,
            Box::new(CpubwHwmon::default()),
            Box::new(AdrenoTz::default()),
        ]
    });
    rows.push(("schedutil + cpubw_hwmon".into(), m.gips, m.energy_j));

    let model = mar_model.clone();
    let m = measure_fixed(&dev_cfg, &mut app, opts.runs, duration, || {
        vec![
            Box::new(MarCse::new(model.clone())) as Box<dyn Policy>,
            Box::new(CpubwHwmon::default()),
            Box::new(AdrenoTz::default()),
        ]
    });
    rows.push(("MAR-CSE + cpubw_hwmon".into(), m.gips, m.energy_j));

    for (label, strategy) in [
        ("asgov (CoScale-style search)", OptimizerStrategy::Gradient),
        ("asgov (LP, the paper)", OptimizerStrategy::LinearProgram),
    ] {
        let m = measure_with_controller(
            &dev_cfg,
            &mut app,
            opts.runs,
            duration,
            ControlMode::Coordinated,
            |_| {
                ControllerBuilder::new(profile.clone())
                    .target_gips(default.gips)
                    .optimizer_strategy(strategy)
                    .build()
            },
        );
        rows.push((label.into(), m.gips, m.energy_j));
    }

    println!(
        "\n=== Related work on AngryBirds ({} s) ===\n",
        duration / 1000
    );
    println!(
        "{:<30} {:>8} {:>10} {:>11} {:>9}",
        "policy", "GIPS", "perf", "energy (J)", "savings"
    );
    let base_gips = default.gips;
    let base_e = default.energy_j;
    for (label, gips, energy) in rows {
        println!(
            "{:<30} {:>8.3} {:>9.1}% {:>11.1} {:>8.1}%",
            label,
            gips,
            (gips - base_gips) / base_gips * 100.0,
            energy,
            (base_e - energy) / base_e * 100.0,
        );
    }
}
