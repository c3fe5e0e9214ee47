//! Shared experiment harness: profile an app, measure the default
//! baseline, run the controller, and compare — the procedure behind
//! Tables III, IV and V.

use asgov_core::{with_controller_stack, ControlMode, ControllerBuilder, EnergyController};
use asgov_profiler::{
    measure_default, measure_runs, profile_app, DefaultMeasurement, ProfileOptions, ProfileTable,
};
use asgov_soc::sim::{self, RunReport};
use asgov_soc::DeviceConfig;
use asgov_workloads::{AppKind, PhasedApp};

/// Outcome of one app's default-vs-controller comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Application name.
    pub app: String,
    /// The offline profile used.
    pub profile: ProfileTable,
    /// Default-governor baseline (averaged runs).
    pub default: DefaultMeasurement,
    /// Controller runs (averaged).
    pub controller: DefaultMeasurement,
    /// Whether the figure of merit is execution time (batch) or GIPS.
    pub deadline_based: bool,
}

impl Comparison {
    /// `true` when the default-governor baseline cannot anchor a
    /// percent comparison: zero or non-finite energy, GIPS (rate-based
    /// apps) or duration (deadline-based apps). A whole-run perf
    /// dropout or a zero-length measurement window produces such legs;
    /// dividing by them used to leak NaN/inf into experiment JSON.
    /// Reports must flag or exclude rows where this is set.
    pub fn baseline_degenerate(&self) -> bool {
        let perf_base = if self.deadline_based {
            self.default.duration_ms
        } else {
            self.default.gips
        };
        !usable_baseline(self.default.energy_j) || !usable_baseline(perf_base)
    }

    /// Performance difference in percent, positive = controller better.
    /// Deadline-critical apps (VidCon, MobileBench, MX Player in the
    /// paper) compare execution time; the rest compare GIPS.
    ///
    /// A degenerate baseline (see [`Comparison::baseline_degenerate`])
    /// yields a defined `0.0` instead of NaN/inf.
    pub fn performance_delta_pct(&self) -> f64 {
        if self.deadline_based {
            // Shorter is better.
            percent_delta(
                self.default.duration_ms - self.controller.duration_ms,
                self.default.duration_ms,
            )
        } else {
            percent_delta(self.controller.gips - self.default.gips, self.default.gips)
        }
    }

    /// Energy savings in percent, positive = controller saves energy.
    ///
    /// A degenerate baseline (see [`Comparison::baseline_degenerate`])
    /// yields a defined `0.0` instead of NaN/inf.
    pub fn energy_savings_pct(&self) -> f64 {
        percent_delta(
            self.default.energy_j - self.controller.energy_j,
            self.default.energy_j,
        )
    }

    /// Health counters aggregated over the controller runs (`None`
    /// when no run reported health).
    pub fn health(&self) -> Option<asgov_soc::HealthReport> {
        self.controller
            .reports
            .iter()
            .filter_map(|r| r.health)
            .reduce(|a, b| a.merge(&b))
    }

    /// One-line failure summary for report footers; `None` when every
    /// controller run was fault-free.
    pub fn failure_summary(&self) -> Option<String> {
        self.health()
            .filter(|h| !h.is_clean())
            .map(|h| format!("{}: {}", self.app, h.summary()))
    }
}

/// A baseline denominator is usable when it is finite and positive
/// (energies, GIPS and durations are all non-negative quantities).
fn usable_baseline(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

/// `delta / base * 100`, with a defined `0.0` when `base` is zero or
/// non-finite so degenerate baselines never propagate NaN/inf into
/// report output.
fn percent_delta(delta: f64, base: f64) -> f64 {
    if usable_baseline(base) {
        delta / base * 100.0
    } else {
        0.0
    }
}

/// Experiment-wide options.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Offline profiling options.
    pub profile: ProfileOptions,
    /// Runs averaged per measurement (paper: 3).
    pub runs: usize,
    /// Override of the app's test duration, ms.
    pub duration_ms: Option<u64>,
    /// Controller mode.
    pub mode: ControlMode,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            profile: ProfileOptions::default(),
            runs: 3,
            duration_ms: None,
            mode: ControlMode::Coordinated,
        }
    }
}

impl ExperimentOptions {
    /// A faster variant for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            profile: ProfileOptions {
                runs_per_config: 1,
                run_ms: 5_000,
                freq_stride: 2,
                interpolate: true,
            },
            runs: 1,
            duration_ms: Some(60_000),
            mode: ControlMode::Coordinated,
        }
    }
}

/// Profile `app`, measure the default baseline and the controller, and
/// return the comparison. This is one row of Table III (or V with
/// `mode = CpuOnly`).
pub fn compare(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ExperimentOptions,
) -> Comparison {
    let duration = opts.duration_ms.unwrap_or(app.spec().test_duration_ms);
    let deadline_based = matches!(app.spec().kind, AppKind::Batch { .. });

    let profile = profile_app_for_mode(dev_cfg, app, opts);
    let default = measure_default(dev_cfg, app, opts.runs, duration);
    let controller = measure_controller(dev_cfg, app, &profile, default.gips, opts);

    Comparison {
        app: app.spec().name.to_string(),
        profile,
        default,
        controller,
        deadline_based,
    }
}

/// The controller leg of [`compare`]: `opts.runs` runs of `app` under
/// the controller stack ([`with_controller_stack`] in `opts.mode`) with
/// a controller built around `profile` and aimed at `target_gips`, run
/// `i` seeded `0xc0de + i + 1`. Deadline-critical (batch) applications
/// get a zero target margin: for them the figure of merit is
/// completion time, and any slack directly lengthens the run. Table IV
/// calls it directly to run a profile and target taken under one
/// background load against an app under another.
pub fn measure_controller(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    profile: &ProfileTable,
    target_gips: f64,
    opts: &ExperimentOptions,
) -> DefaultMeasurement {
    let duration = opts.duration_ms.unwrap_or(app.spec().test_duration_ms);
    let deadline_based = matches!(app.spec().kind, AppKind::Batch { .. });
    measure_with_controller(dev_cfg, app, opts.runs, duration, opts.mode, |run| {
        ControllerBuilder::new(profile.clone())
            .target_gips(target_gips)
            .target_margin(if deadline_based { 0.0 } else { 0.01 })
            .mode(opts.mode)
            .seed(0xc0de + run as u64 + 1)
            .build()
    })
}

/// `runs` runs of `app`, at most `duration_ms` each, under the
/// controller stack in `mode` ([`with_controller_stack`]), with run
/// `i`'s controller built by `build(i)`; devices and seeds as in
/// [`measure_runs`].
pub fn measure_with_controller(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    runs: usize,
    duration_ms: u64,
    mode: ControlMode,
    mut build: impl FnMut(usize) -> EnergyController,
) -> DefaultMeasurement {
    measure_runs(dev_cfg, app, runs, |run, device, app| {
        let mut controller = build(run);
        with_controller_stack(mode, &mut controller, |policies| {
            sim::run(device, app, policies, duration_ms)
        })
    })
}

/// Run [`compare`] for every app, fanning the apps out across the
/// worker pool ([`asgov_util::par::ordered_map`]), and return the
/// comparisons in input order.
///
/// Results are identical to calling [`compare`] serially per app: every
/// simulation seed derives from the device seed and the run index, never
/// from scheduling, and each worker owns a private clone of its app.
pub fn compare_all(
    dev_cfg: &DeviceConfig,
    apps: &[PhasedApp],
    opts: &ExperimentOptions,
) -> Vec<Comparison> {
    asgov_util::par::ordered_map(
        apps.len(),
        asgov_util::par::default_threads(apps.len()),
        |i| {
            let mut app = apps[i].clone();
            compare(dev_cfg, &mut app, opts)
        },
    )
}

/// Profile the app as appropriate for the controller mode: coordinated
/// control profiles the (frequency, bandwidth) grid; CPU-only control
/// re-profiles with the bandwidth under `cpubw_hwmon` (paper §V-D).
pub fn profile_app_for_mode(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ExperimentOptions,
) -> ProfileTable {
    match opts.mode {
        ControlMode::Coordinated => profile_app(dev_cfg, app, &opts.profile),
        ControlMode::CpuOnly => asgov_profiler::profile_app_cpu_only(dev_cfg, app, &opts.profile),
    }
}

/// Run an app under the default governors only, returning the report
/// (for histogram figures).
pub fn default_run(dev_cfg: &DeviceConfig, app: &mut PhasedApp, duration_ms: u64) -> RunReport {
    let m = measure_default(dev_cfg, app, 1, duration_ms);
    m.reports.into_iter().next().expect("one run requested")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_workloads::{apps, BackgroundLoad};

    /// Regression: a baseline leg that measured nothing (the outcome of
    /// a whole-run perf dropout, reproduced here by a zero-length
    /// measurement window through the real measurement pipeline) used
    /// to make both percentage methods return NaN or inf, which leaked
    /// into experiment JSON. They must now return a defined 0.0 and the
    /// comparison must self-identify as degenerate so reports can flag
    /// the row.
    #[test]
    fn zero_baseline_yields_defined_flagged_percentages() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let degenerate = measure_default(&dev_cfg, &mut app, 1, 0);
        assert!(
            degenerate.energy_j <= 0.0 || degenerate.gips <= 0.0,
            "a zero-length window must produce an unusable baseline"
        );
        let healthy = measure_default(&dev_cfg, &mut app, 1, 2_000);

        for deadline_based in [false, true] {
            let c = Comparison {
                app: "Spotify".to_string(),
                profile: ProfileTable {
                    app: "Spotify".to_string(),
                    base_gips: 0.1,
                    entries: Vec::new(),
                },
                default: degenerate.clone(),
                controller: healthy.clone(),
                deadline_based,
            };
            assert!(c.baseline_degenerate());
            let perf = c.performance_delta_pct();
            let energy = c.energy_savings_pct();
            assert!(perf.is_finite(), "perf delta must be defined, got {perf}");
            assert!(energy.is_finite(), "savings must be defined, got {energy}");
            assert_eq!(perf, 0.0);
            assert_eq!(energy, 0.0);
        }

        // A healthy baseline is not flagged and keeps real percentages.
        let c = Comparison {
            app: "Spotify".to_string(),
            profile: ProfileTable {
                app: "Spotify".to_string(),
                base_gips: 0.1,
                entries: Vec::new(),
            },
            default: healthy.clone(),
            controller: healthy,
            deadline_based: false,
        };
        assert!(!c.baseline_degenerate());
        assert!(c.performance_delta_pct().is_finite());
    }
}
