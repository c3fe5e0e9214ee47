//! Measuring the default-governor baseline (`R_def`, `P_def`, `T_def`,
//! `E_def` — paper §III-A) and arbitrary fixed-configuration runs.

use crate::profile::{run_pinned, Pin};
use asgov_soc::sim::RunReport;
use asgov_soc::Workload as _;
use asgov_soc::{sim, Device, DeviceConfig, Policy};
use asgov_workloads::PhasedApp;

/// Aggregate of one or more baseline runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DefaultMeasurement {
    /// Average performance `R_def`, GIPS — the controller's target.
    pub gips: f64,
    /// Average device power `P_def`, watts.
    pub power_w: f64,
    /// Average wall-clock time `T_def`, ms (run-to-completion for batch
    /// applications, the measurement window otherwise).
    pub duration_ms: f64,
    /// Average energy `E_def = P_def × T_def`, joules.
    pub energy_j: f64,
    /// The individual run reports (histograms for Figs. 1/4/5).
    pub reports: Vec<RunReport>,
}

impl DefaultMeasurement {
    fn from_reports(reports: Vec<RunReport>) -> Self {
        let n = reports.len() as f64;
        Self {
            gips: reports.iter().map(|r| r.avg_gips).sum::<f64>() / n,
            power_w: reports.iter().map(|r| r.avg_power_w).sum::<f64>() / n,
            duration_ms: reports.iter().map(|r| r.duration_ms as f64).sum::<f64>() / n,
            energy_j: reports.iter().map(|r| r.energy_j).sum::<f64>() / n,
            reports,
        }
    }
}

/// Run the application under the stock Android governors
/// (`interactive` + `cpubw_hwmon` + the GPU's `msm-adreno-tz`), `runs`
/// times, for at most `max_ms`
/// each (batch applications stop at completion). `perf` runs here too:
/// paper §III-A measures `R_def` with the same tooling as the online
/// controller.
pub fn measure_default(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    runs: usize,
    max_ms: u64,
) -> DefaultMeasurement {
    assert!(runs > 0, "need at least one run");
    let seeds = (0..runs as u64).map(|run| dev_cfg.seed ^ (run + 0xd0));
    let reports = seeds.map(|seed| run_pinned(dev_cfg, app, Pin::default(), seed, max_ms).0);
    DefaultMeasurement::from_reports(reports.collect())
}

/// Run the application under an arbitrary policy stack (e.g. the online
/// controller), `runs` times. The `make_policies` closure builds a fresh
/// policy stack per run.
pub fn measure_fixed<F>(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    runs: usize,
    max_ms: u64,
    mut make_policies: F,
) -> DefaultMeasurement
where
    F: FnMut() -> Vec<Box<dyn Policy>>,
{
    measure_runs(dev_cfg, app, runs, |_, device, app| {
        let mut policies = make_policies();
        let mut refs: Vec<&mut dyn Policy> =
            policies.iter_mut().map(|p| p as &mut dyn Policy).collect();
        sim::run(device, app, &mut refs, max_ms)
    })
}

/// Run the application `runs` times, each on a fresh device (run `i`
/// seeded `dev_cfg.seed ^ (0xf0 + i)`) with the application reset, and
/// aggregate the reports. `run_one(i, device, app)` drives run `i`:
/// it builds the policies and makes the engine call.
pub fn measure_runs<F>(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    runs: usize,
    mut run_one: F,
) -> DefaultMeasurement
where
    F: FnMut(usize, &mut Device, &mut PhasedApp) -> RunReport,
{
    assert!(runs > 0, "need at least one run");
    let mut reports = Vec::with_capacity(runs);
    for run in 0..runs {
        let mut device = Device::new(
            dev_cfg
                .clone()
                .with_seed(dev_cfg.seed ^ (0xf0 + run as u64)),
        );
        app.reset();
        reports.push(run_one(run, &mut device, app));
    }
    DefaultMeasurement::from_reports(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_workloads::{apps, BackgroundLoad};

    #[test]
    fn default_measurement_aggregates_runs() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let m = measure_default(&dev_cfg, &mut app, 2, 10_000);
        assert_eq!(m.reports.len(), 2);
        assert!(m.gips > 0.0);
        assert!(m.power_w > 0.8, "device draws at least base power");
        assert!((m.duration_ms - 10_000.0).abs() < 1.0);
        assert!((m.energy_j - m.power_w * 10.0).abs() < 0.5);
    }

    #[test]
    fn interactive_governor_visits_high_frequencies_for_spotify() {
        // The motivating observation: the default governor burns time at
        // f10+ even for an audio player.
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let m = measure_default(&dev_cfg, &mut app, 1, 60_000);
        let hist = m.reports[0].stats.freq_histogram();
        let high_mass: f64 = hist[9..].iter().sum();
        assert!(
            high_mass > 0.05,
            "default should spend real time at f10+, got {high_mass}"
        );
    }

    #[test]
    fn measure_fixed_runs_custom_policies() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let m = measure_fixed(&dev_cfg, &mut app, 1, 5_000, || {
            vec![
                Box::new(asgov_governors::PowersaveCpu) as Box<dyn Policy>,
                Box::new(asgov_governors::PowersaveBw) as Box<dyn Policy>,
            ]
        });
        let hist = m.reports[0].stats.freq_histogram();
        assert!((hist[0] - 1.0).abs() < 1e-9, "pinned to lowest frequency");
    }
}
