//! Table IV — controller performance and energy under baseline (BL),
//! no-load (NL) and heavier-load (HL) conditions, profiling done at BL.
//!
//! Every leg runs the controller stack of `harness::compare` (the stock
//! GPU governor beside the controller, per-run seeds), so the BL column
//! is Table III's row for each app.

use asgov_experiments::harness::{
    compare, measure_controller, profile_app_for_mode, Comparison, ExperimentOptions,
};
use asgov_experiments::render::{energy_cell, perf_cell};
use asgov_profiler::measure_default;
use asgov_soc::DeviceConfig;
use asgov_workloads::{AppKind, BackgroundLoad, LoadLevel, PhasedApp};

fn apps_under(load: &BackgroundLoad) -> Vec<PhasedApp> {
    asgov_workloads::paper_apps(load.clone())
}

fn main() {
    asgov_util::args::none();
    let dev_cfg = DeviceConfig::nexus6();
    let opts = ExperimentOptions::default();

    println!("=== Table IV: background-load sensitivity (profile taken at BL) ===\n");
    println!(
        "{:<14} {:>9} {:>9} {:>9}   {:>9} {:>9} {:>9}",
        "Application", "perf BL", "perf NL", "perf HL", "en BL", "en NL", "en HL"
    );

    // Profile & target once, under baseline load (the paper's setup).
    // The per-app rows are independent, so they fan out across workers
    // and print in app order once all are in.
    let bl_apps = apps_under(&BackgroundLoad::baseline(1));
    let rows = asgov_util::par::ordered_map(
        bl_apps.len(),
        asgov_util::par::default_threads(bl_apps.len()),
        |idx| {
            let mut bl_app = bl_apps[idx].clone();
            let duration = opts.duration_ms_for(&bl_app);
            let profile = profile_app_for_mode(&dev_cfg, &mut bl_app, &opts);
            let target = measure_default(&dev_cfg, &mut bl_app, opts.runs, duration).gips;
            let cells: Vec<Comparison> = LoadLevel::ALL
                .into_iter()
                .map(|level| {
                    let load = BackgroundLoad::with_level(level, 1);
                    let mut app = apps_under(&load).remove(idx);
                    let default = measure_default(&dev_cfg, &mut app, opts.runs, duration);
                    let controller =
                        measure_controller(&dev_cfg, &mut app, &profile, target, &opts);
                    Comparison {
                        app: app.spec().name.to_string(),
                        profile: profile.clone(),
                        default,
                        controller,
                        deadline_based: matches!(app.spec().kind, AppKind::Batch { .. }),
                    }
                })
                .collect();
            (bl_app.spec().name, cells)
        },
    );
    for (name, cells) in rows {
        println!(
            "{:<14} {:>9} {:>9} {:>9}   {:>9} {:>9} {:>9}",
            name,
            perf_cell(&cells[0]),
            perf_cell(&cells[1]),
            perf_cell(&cells[2]),
            energy_cell(&cells[0]),
            energy_cell(&cells[1]),
            energy_cell(&cells[2]),
        );
    }
    // The paper's §V-C re-profiling follow-up: MobileBench re-profiled
    // for the NL case recovers to 11.1% savings with no perf loss. That
    // is Table III's procedure run at NL.
    println!("\n-- §V-C follow-up: re-profiling for the runtime load --");
    let nl = BackgroundLoad::with_level(LoadLevel::None, 1);
    let mut app = apps_under(&nl).remove(1); // MobileBench
    let c = compare(&dev_cfg, &mut app, &opts);
    println!(
        "MobileBench re-profiled at NL: perf {}, energy {}   (paper: 0%, 11.1%)",
        perf_cell(&c),
        energy_cell(&c)
    );

    println!("\nPaper (perf BL/NL/HL, energy BL/NL/HL):");
    println!("VidCon +0.8/+0.2/-8.0, 25.3/28.0/11.4 | MobileBench +4.0/-3.5/-2.0, 15.3/-4.9/4.6");
    println!("AngryBirds +0.6/+1.0/-2.0, 14.9/12.8/10.0 | WeChat -0.4/+2.0/+3.6, 27.2/19.4/27.0");
    println!("MXPlayer 0/0/0, 5.0/2.9/5.0 | Spotify +9.3/-1.7/-1.3, 31.6/7.2/6.0");
}
