//! Time-series exporter: per-second power/GIPS series and the DVFS
//! transition trace for a default-vs-controller pair, as CSV — the raw
//! material for plotting any of the paper's figures.
//!
//! Run: `cargo run --release -p asgov-experiments --bin traces [--app NAME]`
//! Writes `results/<app>_{default,controller}_{series,events}.csv`.
//! `NAME` is any registry application (default AngryBirds); an unknown
//! name exits with status 2 and lists the valid ones.

use asgov_core::ControllerBuilder;
use asgov_experiments::render::csv;
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive};
use asgov_profiler::{measure_default, profile_app, ProfileOptions};
use asgov_soc::{event, Device, DeviceConfig, Policy, Workload};
use asgov_workloads::{apps, BackgroundLoad};

fn series_and_events(
    dev_cfg: &DeviceConfig,
    app: &mut dyn Workload,
    policies: &mut [&mut dyn Policy],
    duration_ms: u64,
) -> (String, String) {
    let mut device = Device::new(dev_cfg.clone());
    device.trace_mut().set_enabled(true);
    device.monitor_mut().set_keep_trace(true);
    app.reset();
    let _ = event::run(&mut device, app, policies, duration_ms);

    // Down-sample the 1 ms power trace to 100 ms rows with mean power.
    let trace = device.monitor().trace();
    let mut rows = Vec::new();
    for chunk in trace.chunks(100) {
        let t = chunk[0].t_ms;
        let mean: f64 = chunk.iter().map(|s| s.power_w).sum::<f64>() / chunk.len() as f64;
        rows.push(vec![t.to_string(), format!("{mean:.4}")]);
    }
    let series = csv(&["t_ms", "power_w"], &rows);
    let events = device.trace().to_csv();
    (series, events)
}

fn main() {
    let app_name = std::env::args()
        .skip_while(|a| a != "--app")
        .nth(1)
        .unwrap_or_else(|| "AngryBirds".into());
    let Some(mut app) = apps::by_name(&app_name, BackgroundLoad::baseline(1)) else {
        let names = apps::REGISTRY.map(|(name, _)| name).join(", ");
        eprintln!("traces: unknown app {app_name:?}; valid names: {names}");
        std::process::exit(2);
    };
    let dev_cfg = DeviceConfig::nexus6();
    let duration = 60_000;
    std::fs::create_dir_all("results").expect("create results dir");

    // Default governors.
    let mut cpu = Interactive::default();
    let mut bw = CpubwHwmon::default();
    let mut gpu = AdrenoTz::default();
    let (series, events) = series_and_events(
        &dev_cfg,
        &mut app,
        &mut [&mut cpu, &mut bw, &mut gpu],
        duration,
    );
    std::fs::write(format!("results/{app_name}_default_series.csv"), series).unwrap();
    std::fs::write(format!("results/{app_name}_default_events.csv"), events).unwrap();

    // Controller.
    let opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 20_000,
        freq_stride: 2,
        interpolate: true,
    };
    let profile = profile_app(&dev_cfg, &mut app, &opts);
    let target = measure_default(&dev_cfg, &mut app, 1, duration).gips;
    let mut controller = ControllerBuilder::new(profile).target_gips(target).build();
    let mut gpu = AdrenoTz::default();
    let (series, events) = series_and_events(
        &dev_cfg,
        &mut app,
        &mut [&mut gpu, &mut controller],
        duration,
    );
    std::fs::write(format!("results/{app_name}_controller_series.csv"), series).unwrap();
    std::fs::write(format!("results/{app_name}_controller_events.csv"), events).unwrap();

    println!("wrote results/{app_name}_{{default,controller}}_{{series,events}}.csv");
}
