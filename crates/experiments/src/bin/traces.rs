//! Time-series exporter: per-second power/GIPS series and the DVFS
//! transition trace for a default-vs-controller pair, as CSV — the raw
//! material for plotting any of the paper's figures.
//!
//! Run: `cargo run --release -p asgov-experiments --bin traces [--app NAME]`
//! Writes `results/<app>_{default,controller}_{series,events}.csv`.
//! `NAME` is any registry application (default AngryBirds); an unknown
//! name exits with status 2 and lists the valid ones.

use asgov_core::{with_controller_stack, ControlMode, ControllerBuilder};
use asgov_experiments::render::csv;
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive};
use asgov_obs::{CycleRecord, DeviceEvent, TraceSink};
use asgov_profiler::{measure_default, profile_app, ProfileOptions};
use asgov_soc::{event, Device, DeviceConfig, Policy, Workload};
use asgov_workloads::{apps, BackgroundLoad};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Records a run as the two CSVs: one row per device event, and the
/// power monitor's 1 ms samples.
#[derive(Debug, Default)]
struct CsvSink {
    /// `t_ms,kind,from,to` rows.
    events: String,
    /// `(t_ms, watts)` of every sample, in time order.
    power: Vec<(u64, f64)>,
}

impl TraceSink for CsvSink {
    fn record_cycle(&mut self, _rec: &CycleRecord) {}

    fn device_event(&mut self, t_ms: u64, event: DeviceEvent<'_>) {
        writeln!(self.events, "{t_ms},{event}").expect("writing to a String cannot fail");
    }

    fn power_span(&mut self, t_ms: u64, first_w: f64, rest_w: f64, span_ms: u64) {
        self.power.push((t_ms, first_w));
        self.power
            .extend((1..span_ms).map(|offset_ms| (t_ms + offset_ms, rest_w)));
    }
}

fn series_and_events(
    dev_cfg: &DeviceConfig,
    app: &mut dyn Workload,
    policies: &mut [&mut dyn Policy],
    duration_ms: u64,
) -> (String, String) {
    let mut device = Device::new(dev_cfg.clone());
    let sink = Rc::new(RefCell::new(CsvSink::default()));
    device.install_obs_sink(sink.clone());
    app.reset();
    let _ = event::run(&mut device, app, policies, duration_ms);
    let sink = sink.take();

    // Down-sample the 1 ms power samples to 100 ms rows with mean power.
    let rows: Vec<Vec<String>> = sink
        .power
        .chunks(100)
        .map(|chunk| {
            let mean: f64 = chunk.iter().map(|&(_, w)| w).sum::<f64>() / chunk.len() as f64;
            vec![chunk[0].0.to_string(), format!("{mean:.4}")]
        })
        .collect();
    let events = format!("t_ms,kind,from,to\n{}", sink.events);
    (csv(&["t_ms", "power_w"], &rows), events)
}

fn main() {
    let app_name = asgov_util::args::parse_env("", |f| {
        Ok(f.value("--app")?.unwrap_or("AngryBirds").to_string())
    });
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
    let (series, events) =
        with_controller_stack(ControlMode::Coordinated, &mut controller, |policies| {
            series_and_events(&dev_cfg, &mut app, policies, duration)
        });
    std::fs::write(format!("results/{app_name}_controller_series.csv"), series).unwrap();
    std::fs::write(format!("results/{app_name}_controller_events.csv"), events).unwrap();

    println!("wrote results/{app_name}_{{default,controller}}_{{series,events}}.csv");
}
