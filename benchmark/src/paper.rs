//! The `paper` workload: Table III regenerated at full fidelity.
//!
//! A round runs the six paper apps' comparisons — offline profiling,
//! default-governor legs, controller legs — fanned out over the apps
//! with `ordered_map` at [`THREADS`] threads, each app profiled
//! serially inside its job. Round `i` uses device seed
//! `seed + i mod K`; the fidelity metrics average the first `K` rounds,
//! so they depend on the seed alone, not on how many rounds fit.

use crate::stats::{median, tail};
use crate::trace::{
    ns_since, Calls, Cycle, CycleSink, CycleTimer, LayerCosts, RunSample, Span, TimedPolicy,
    TimedWorkload, TimerCost,
};
use crate::{
    hull_build_us, median_of, peak_rss_mib, secs_since, Budget, Rounds, RunOptions, RunResult,
    SetupTimer, Size, THREADS,
};
use asgov_core::{ControlMode, ControllerBuilder, EnergyController};
use asgov_experiments::harness::{compare_all, Comparison, ExperimentOptions};
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive};
use asgov_obs::TraceSink;
use asgov_profiler::{
    measure_default, measure_fixed, profile_app_threads, DefaultMeasurement, ProfileOptions,
    ProfileTable,
};
use asgov_soc::sim::{self, RunReport};
use asgov_soc::{Device, DeviceConfig, Policy, Workload as _};
use asgov_util::par::ordered_map;
use asgov_workloads::{paper_apps, AppKind, BackgroundLoad, PhasedApp};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Table III as published, `(performance %, energy savings %)` per app
/// in `paper_apps` order.
const PUBLISHED: [(f64, f64); 6] = [
    (-0.4, 25.3),
    (4.1, 15.3),
    (0.6, 14.9),
    (-0.4, 27.2),
    (0.0, 4.2),
    (9.3, 31.6),
];

/// Whether a traced round wraps every trait call of a leg: only the
/// first default leg of even-indexed apps and the first controller leg
/// of odd-indexed ones, one leg per app, because the wrappers double a
/// leg's cost. The other legs get call-level spans only.
fn wrapped(app_index: usize, controller_leg: bool, run: usize) -> bool {
    run == 0 && (app_index % 2 == 1) == controller_leg
}

/// What the rounds need: the apps, the experiment options, and one
/// device model per distinct-seed round (round `i` uses model
/// `i mod K`; the fidelity metrics average the first `K` rounds).
struct SetUp {
    apps: Vec<PhasedApp>,
    opts: ExperimentOptions,
    devices: Vec<DeviceConfig>,
}

fn set_up(size: Size, seed: u64) -> SetUp {
    let (opts, fidelity_rounds) = match size {
        Size::Full => (ExperimentOptions::default(), 6),
        Size::Tiny => (
            ExperimentOptions {
                profile: ProfileOptions {
                    runs_per_config: 1,
                    run_ms: 1_000,
                    freq_stride: 6,
                    interpolate: true,
                },
                runs: 2,
                duration_ms: Some(6_000),
                mode: ControlMode::Coordinated,
            },
            1,
        ),
    };
    SetUp {
        apps: paper_apps(BackgroundLoad::baseline(1)),
        opts,
        devices: (0..fidelity_rounds as u64)
            .map(|i| DeviceConfig::nexus6().with_seed(seed.wrapping_add(i)))
            .collect(),
    }
}

impl SetUp {
    /// The device model of round `round`.
    fn device(&self, round: usize) -> &DeviceConfig {
        &self.devices[round % self.devices.len()]
    }
}

/// Run the `paper` workload.
pub fn run(opts: &RunOptions) -> RunResult {
    let mut out = RunResult::default();
    let (timer, setup) = SetupTimer::new(|| set_up(opts.size, opts.seed));
    if opts.trace {
        traced(opts, &setup, &mut out);
    } else {
        untraced(opts, &setup, timer, &mut out);
    }
    out
}

/// The controller stack's controller, as `harness::compare` builds it
/// for the coordinated mode.
fn controller(
    profile: &ProfileTable,
    target_gips: f64,
    deadline_based: bool,
    run: usize,
) -> EnergyController {
    ControllerBuilder::new(profile.clone())
        .target_gips(target_gips)
        .target_margin(if deadline_based { 0.0 } else { 0.01 })
        .mode(ControlMode::Coordinated)
        .seed(0xc0de + run as u64)
        .build()
}

/// `harness::compare` for one app, with the profiling sweep serial and
/// the controller's cycles timed into `cycles_ns`.
fn compare_legs(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ExperimentOptions,
    cycles_ns: &Rc<RefCell<Vec<u64>>>,
) -> Comparison {
    let duration = opts.duration_ms.unwrap_or(app.spec().test_duration_ms);
    let deadline_based = matches!(app.spec().kind, AppKind::Batch { .. });
    let profile = profile_app_threads(dev_cfg, app, &opts.profile, 1);
    let default = measure_default(dev_cfg, app, opts.runs, duration);
    let target = default.gips;
    let mut run = 0;
    let controller = measure_fixed(dev_cfg, app, opts.runs, duration, || {
        run += 1;
        vec![
            Box::new(AdrenoTz::default()) as Box<dyn Policy>,
            Box::new(CycleTimer::new(
                controller(&profile, target, deadline_based, run),
                cycles_ns.clone(),
            )),
        ]
    });
    Comparison {
        app: app.spec().name.to_string(),
        profile,
        default,
        controller,
        deadline_based,
    }
}

/// One untraced round: every app's comparison and its cycle times, ns.
fn round(dev_cfg: &DeviceConfig, setup: &SetUp) -> Vec<(Comparison, Vec<u64>)> {
    ordered_map(setup.apps.len(), THREADS, |i| {
        let mut app = setup.apps[i].clone();
        let cycles_ns = Rc::new(RefCell::new(Vec::new()));
        let row = compare_legs(dev_cfg, &mut app, &setup.opts, &cycles_ns);
        (row, cycles_ns.take())
    })
}

/// Simulated seconds of a round's measured legs.
fn legs_sim_s(rows: &[Comparison]) -> f64 {
    let ms: u64 = rows
        .iter()
        .flat_map(|c| c.default.reports.iter().chain(&c.controller.reports))
        .map(|r| r.duration_ms)
        .sum();
    ms as f64 * 1e-3
}

/// A row that failed: degenerate baseline, non-finite percentages, or
/// an unhealthy controller run.
fn row_failed(c: &Comparison) -> bool {
    c.baseline_degenerate()
        || !c.energy_savings_pct().is_finite()
        || !c.performance_delta_pct().is_finite()
        || c.failure_summary().is_some()
}

fn same_rows(a: &[Comparison], b: &[Comparison]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.profile == y.profile
                && x.default.reports == y.default.reports
                && x.controller.reports == y.controller.reports
        })
}

fn untraced<F: FnMut() -> SetUp + Send>(
    opts: &RunOptions,
    setup: &SetUp,
    mut timer: SetupTimer<F>,
    out: &mut RunResult,
) {
    let k = setup.devices.len();
    let budget = Budget::start(opts.seconds, k);
    let mut rounds = Rounds::start();
    let mut legs_s = Vec::new();
    let mut cycles_us = Vec::new();
    // Only the first `k` rounds are kept (for the fidelity metrics);
    // each later round is compared with the kept round of its seed, so
    // memory does not grow with the number of rounds that fit.
    let mut kept: Vec<Vec<Comparison>> = Vec::new();
    let mut repeat = true;
    while budget.more(rounds.len()) {
        let i = rounds.len();
        let t = Instant::now();
        let rows = round(setup.device(i), setup);
        rounds.push(secs_since(t));
        drop(timer.sample());
        let (rows, cycles): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        legs_s.push(legs_sim_s(&rows));
        cycles_us.extend(cycles.iter().flatten().map(|&ns| ns as f64 * 1e-3));
        out.attempted += rows.len() as u64;
        out.failed += rows.iter().filter(|c| row_failed(c)).count() as u64;
        match kept.get(i % k) {
            Some(same_seed) => repeat &= same_rows(&rows, same_seed),
            None => kept.push(rows),
        }
    }
    let peak_mib = peak_rss_mib();

    let reference = compare_all(setup.device(0), &setup.apps, &setup.opts);
    out.check(
        "per-app legs equal harness::compare in energy and GIPS bit for bit",
        reference.len() == kept[0].len()
            && reference.iter().zip(&kept[0]).all(|(r, c)| {
                [
                    (r.default.energy_j, c.default.energy_j),
                    (r.default.gips, c.default.gips),
                    (r.controller.energy_j, c.controller.energy_j),
                    (r.controller.gips, c.controller.gips),
                ]
                .iter()
                .all(|(a, b)| a.to_bits() == b.to_bits())
            }),
    );
    out.check("rounds on one seed are bit-identical", repeat);

    let mean_over = |f: &dyn Fn(&[Comparison]) -> f64| mean(kept.iter().map(|rows| f(rows)));
    let savings = mean_over(&|rows| mean(rows.iter().map(Comparison::energy_savings_pct)));
    let perf = mean_over(&|rows| mean(rows.iter().map(Comparison::performance_delta_pct)));
    let err = mean_over(&|rows| {
        mean(rows.iter().zip(PUBLISHED).flat_map(|(c, (p, e))| {
            [
                (c.performance_delta_pct() - p).abs(),
                (c.energy_savings_pct() - e).abs(),
            ]
        }))
    });

    out.metric("setup_s", timer.median_s(), "s");
    let (per_host_s, per_ref) = rounds.throughput(legs_s.iter().copied());
    out.metric("sim_s_per_ref", per_ref, "s/ref");
    out.metric("peak_rss_mib", peak_mib, "MiB");
    out.metric("energy_savings_pct", savings, "%");
    out.extra("sim_s_per_host_s", per_host_s, "s/s");
    out.extra("reference_ms", rounds.reference_unit_s() * 1e3, "ms");
    out.extra("regen_s", median(&rounds.wall_s), "s");
    out.extra("rounds", rounds.len() as f64, "count");
    out.extra("cycle_p50_us", median(&cycles_us), "us");
    if let Some((label, value)) = tail(&cycles_us) {
        out.extra(&format!("cycle_{label}_us"), value, "us");
    }
    out.extra("cycles", cycles_us.len() as f64, "count");
    out.extra("perf_delta_pct", perf, "%");
    out.extra("table3_err_pp", err, "pp");
    out.extra(
        "failed_pct",
        100.0 * out.failed as f64 / out.attempted as f64,
        "%",
    );
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

/// Host time of one simulated leg, ns.
#[derive(Debug, Clone)]
struct Leg {
    controller: bool,
    /// `Device::new` (+ the perf tool's overhead for default legs).
    new_ns: u64,
    /// The controller stack (controller legs only).
    build_ns: u64,
    /// `sim::run`.
    run_ns: u64,
    /// Simulated ms, one tick-core step each.
    sim_ms: u64,
    /// Per-call times, in wrapped legs only.
    calls: Option<Calls>,
}

impl Leg {
    fn spans_ns(&self) -> u64 {
        self.new_ns + self.build_ns + self.run_ns
    }
}

/// One app's traced comparison.
#[derive(Debug)]
struct TracedApp {
    comparison: Comparison,
    profile_ns: u64,
    legs: Vec<Leg>,
    cycles: Vec<Cycle>,
    job_ns: u64,
}

/// `DefaultMeasurement` over `reports`, averaged as the profiler does.
fn measurement(reports: Vec<RunReport>) -> DefaultMeasurement {
    let n = reports.len() as f64;
    DefaultMeasurement {
        gips: reports.iter().map(|r| r.avg_gips).sum::<f64>() / n,
        power_w: reports.iter().map(|r| r.avg_power_w).sum::<f64>() / n,
        duration_ms: reports.iter().map(|r| r.duration_ms as f64).sum::<f64>() / n,
        energy_j: reports.iter().map(|r| r.energy_j).sum::<f64>() / n,
        reports,
    }
}

/// One leg of `measure_default`, rebuilt with spans.
fn default_leg(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    run: usize,
    max_ms: u64,
    wrap: bool,
) -> (RunReport, Leg) {
    let t = Instant::now();
    let mut device = Device::new(
        dev_cfg
            .clone()
            .with_seed(dev_cfg.seed ^ (0xd0 + run as u64)),
    );
    device.set_tool_overhead(0.04, 0.015);
    let new_ns = ns_since(t);
    let (mut cpu, mut bw, mut gpu) = (
        Interactive::default(),
        CpubwHwmon::default(),
        AdrenoTz::default(),
    );
    app.reset();
    let (report, run_ns, calls) = if wrap {
        let mut w_app = TimedWorkload::new(app);
        let mut w_cpu = TimedPolicy::new(&mut cpu);
        let mut w_bw = TimedPolicy::new(&mut bw);
        let mut w_gpu = TimedPolicy::new(&mut gpu);
        let t = Instant::now();
        let report = sim::run(
            &mut device,
            &mut w_app,
            &mut [&mut w_cpu, &mut w_bw, &mut w_gpu],
            max_ms,
        );
        let run_ns = ns_since(t);
        let gov = Span::default();
        for s in [&w_cpu.span, &w_bw.span, &w_gpu.span] {
            gov.add(s);
        }
        let calls = Calls {
            app: w_app.span,
            gov,
            ..Calls::default()
        };
        (report, run_ns, Some(calls))
    } else {
        let t = Instant::now();
        let report = sim::run(&mut device, app, &mut [&mut cpu, &mut bw, &mut gpu], max_ms);
        (report, ns_since(t), None)
    };
    let leg = Leg {
        controller: false,
        new_ns,
        build_ns: 0,
        run_ns,
        sim_ms: report.duration_ms,
        calls,
    };
    (report, leg)
}

/// One leg of `measure_fixed` under the controller stack, rebuilt with
/// spans; wrapped legs also collect the controller's cycle records.
#[allow(clippy::too_many_arguments)]
fn controller_leg(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    profile: &ProfileTable,
    target_gips: f64,
    deadline_based: bool,
    run: usize,
    max_ms: u64,
    wrap: bool,
    cycles: &mut Vec<Cycle>,
) -> (RunReport, Leg) {
    let t = Instant::now();
    let mut device = Device::new(
        dev_cfg
            .clone()
            .with_seed(dev_cfg.seed ^ (0xf0 + run as u64)),
    );
    let new_ns = ns_since(t);
    let t = Instant::now();
    let mut gpu = AdrenoTz::default();
    let mut ctrl = controller(profile, target_gips, deadline_based, run + 1);
    let build_ns = ns_since(t);
    app.reset();
    let (report, run_ns, calls) = if wrap {
        let sink = Rc::new(RefCell::new(CycleSink::default()));
        device.install_obs_sink(sink.clone() as Rc<RefCell<dyn TraceSink>>);
        let mut w_app = TimedWorkload::new(app);
        let mut w_gpu = TimedPolicy::new(&mut gpu);
        let mut w_ctrl = TimedPolicy::with_cycles(&mut ctrl, sink.clone());
        let t = Instant::now();
        let report = sim::run(
            &mut device,
            &mut w_app,
            &mut [&mut w_gpu, &mut w_ctrl],
            max_ms,
        );
        let run_ns = ns_since(t);
        cycles.extend(sink.borrow().cycles.iter().copied());
        let calls = Calls {
            app: w_app.span,
            gov: w_gpu.span,
            ctrl: w_ctrl.span,
            ctrl_start_ns: w_ctrl.start_ns,
        };
        (report, run_ns, Some(calls))
    } else {
        let t = Instant::now();
        let report = sim::run(&mut device, app, &mut [&mut gpu, &mut ctrl], max_ms);
        (report, ns_since(t), None)
    };
    let leg = Leg {
        controller: true,
        new_ns,
        build_ns,
        run_ns,
        sim_ms: report.duration_ms,
        calls,
    };
    (report, leg)
}

/// `compare_legs` for app `index`, rebuilt from the legs above.
fn traced_app(dev_cfg: &DeviceConfig, setup: &SetUp, index: usize) -> TracedApp {
    let start = Instant::now();
    let opts = &setup.opts;
    let mut app = setup.apps[index].clone();
    let duration = opts.duration_ms.unwrap_or(app.spec().test_duration_ms);
    let deadline_based = matches!(app.spec().kind, AppKind::Batch { .. });
    let t = Instant::now();
    let profile = profile_app_threads(dev_cfg, &mut app, &opts.profile, 1);
    let profile_ns = ns_since(t);
    let mut legs = Vec::new();
    let mut cycles = Vec::new();
    let mut reports = Vec::new();
    for run in 0..opts.runs {
        let wrap = wrapped(index, false, run);
        let (report, leg) = default_leg(dev_cfg, &mut app, run, duration, wrap);
        reports.push(report);
        legs.push(leg);
    }
    let default = measurement(reports);
    let mut reports = Vec::new();
    for run in 0..opts.runs {
        let (report, leg) = controller_leg(
            dev_cfg,
            &mut app,
            &profile,
            default.gips,
            deadline_based,
            run,
            duration,
            wrapped(index, true, run),
            &mut cycles,
        );
        reports.push(report);
        legs.push(leg);
    }
    let comparison = Comparison {
        app: app.spec().name.to_string(),
        profile,
        default,
        controller: measurement(reports),
        deadline_based,
    };
    TracedApp {
        comparison,
        profile_ns,
        legs,
        cycles,
        job_ns: ns_since(start),
    }
}

/// One traced round.
#[derive(Debug)]
struct TracedRound {
    threads: usize,
    wall_ns: u64,
    map_ns: u64,
    apps: Vec<TracedApp>,
}

impl TracedRound {
    fn pool_wait_ns(&self) -> u64 {
        let job_ns: u64 = self.apps.iter().map(|a| a.job_ns).sum();
        (self.threads as u64 * self.map_ns).saturating_sub(job_ns)
    }

    fn sum_legs(&self, controller: bool) -> u64 {
        self.apps
            .iter()
            .flat_map(|a| &a.legs)
            .filter(|l| l.controller == controller)
            .map(Leg::spans_ns)
            .sum()
    }

    /// Share of the round's thread time covered by layer spans.
    fn coverage_pct(&self) -> f64 {
        let covered = self
            .apps
            .iter()
            .map(|a| a.profile_ns + a.legs.iter().map(Leg::spans_ns).sum::<u64>())
            .sum::<u64>()
            + self.pool_wait_ns();
        let thread_ns =
            self.threads as u64 * self.map_ns + self.wall_ns.saturating_sub(self.map_ns);
        100.0 * covered as f64 / thread_ns as f64
    }
}

fn traced_round(dev_cfg: &DeviceConfig, setup: &SetUp) -> TracedRound {
    let start = Instant::now();
    let jobs = setup.apps.len();
    let t = Instant::now();
    let apps = ordered_map(jobs, THREADS, |i| traced_app(dev_cfg, setup, i));
    let map_ns = ns_since(t);
    TracedRound {
        threads: THREADS.min(jobs),
        wall_ns: ns_since(start),
        map_ns,
        apps,
    }
}

fn traced(opts: &RunOptions, setup: &SetUp, out: &mut RunResult) {
    let budget = Budget::start(opts.seconds, 1);
    let mut plain_s = Vec::new();
    let mut rounds: Vec<TracedRound> = Vec::new();
    let mut replicas_match = true;
    while budget.more(rounds.len()) {
        let dev_cfg = setup.device(rounds.len());
        let t = Instant::now();
        let rows = round(dev_cfg, setup);
        plain_s.push(secs_since(t));
        let traced = traced_round(dev_cfg, setup);
        let rows: Vec<Comparison> = rows.into_iter().map(|(c, _)| c).collect();
        let replica: Vec<Comparison> = traced.apps.iter().map(|a| a.comparison.clone()).collect();
        replicas_match &= same_rows(&rows, &replica);
        out.attempted += rows.len() as u64;
        out.failed += rows.iter().filter(|c| row_failed(c)).count() as u64;
        rounds.push(traced);
    }
    out.check(
        "replica legs equal measure_default / measure_fixed bit for bit",
        replicas_match,
    );

    let cost = TimerCost::measure();
    let legs: Vec<&Leg> = rounds
        .iter()
        .flat_map(|r| &r.apps)
        .flat_map(|a| &a.legs)
        .collect();
    let layers = LayerCosts::split(
        legs.iter().map(|l| RunSample {
            run_ns: l.run_ns,
            sim_ms: l.sim_ms,
            calls: l.calls.as_ref(),
        }),
        cost,
    );
    let per_round = |f: &dyn Fn(&TracedRound) -> f64| median_of(rounds.iter().map(f));
    let cycles: Vec<Cycle> = rounds
        .iter()
        .flat_map(|r| &r.apps)
        .flat_map(|a| a.cycles.iter().copied())
        .collect();
    let profiles: Vec<ProfileTable> = rounds[0]
        .apps
        .iter()
        .map(|a| a.comparison.profile.clone())
        .collect();
    let plain = median(&plain_s);
    let traced = per_round(&|r| r.wall_ns as f64 * 1e-9);
    let us = |ns: u64| ns as f64 * 1e-3;
    let s = |ns: u64| ns as f64 * 1e-9;

    out.metric(
        "soc.device.new_us",
        median_of(legs.iter().map(|l| us(l.new_ns))),
        "us",
    );
    out.metric(
        "core.controller.build_us",
        median_of(legs.iter().filter(|l| l.controller).map(|l| us(l.build_ns))),
        "us",
    );
    out.metric("linprog.hull.build_us", hull_build_us(&profiles), "us");
    out.metric("soc.us_per_sim_s", layers.soc, "us/s");
    out.metric("workloads.us_per_sim_s", layers.app, "us/s");
    out.metric("governors.us_per_sim_s", layers.gov, "us/s");
    out.metric("core.controller.us_per_sim_s", layers.ctrl, "us/s");
    out.metric(
        "soc.steps",
        rounds[0]
            .apps
            .iter()
            .flat_map(|a| &a.legs)
            .map(|l| l.sim_ms)
            .sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "profiler.profile_s",
        per_round(&|r| s(r.apps.iter().map(|a| a.profile_ns).sum())),
        "s",
    );
    out.metric(
        "profiler.default_s",
        per_round(&|r| s(r.sum_legs(false))),
        "s",
    );
    out.metric(
        "util.pool.busy_pct",
        per_round(&|r| {
            let job_ns: u64 = r.apps.iter().map(|a| a.job_ns).sum();
            100.0 * job_ns as f64 / (r.threads as u64 * r.map_ns) as f64
        }),
        "%",
    );
    out.metric("util.pool.wait_s", per_round(&|r| s(r.pool_wait_ns())), "s");
    out.metric(
        "core.controller.solve_ns",
        median_of(cycles.iter().map(|c| c.solve_ns as f64)),
        "ns",
    );
    out.metric(
        "core.controller.actuation_ns",
        median_of(cycles.iter().map(|c| c.actuation_ns as f64)),
        "ns",
    );
    out.metric(
        "core.controller.rest_ns",
        median_of(cycles.iter().map(|c| c.rest_ns(cost))),
        "ns",
    );
    out.metric("trace.overhead_pct", 100.0 * (traced - plain) / plain, "%");
    out.metric(
        "trace.coverage_pct",
        per_round(&TracedRound::coverage_pct),
        "%",
    );

    out.extra(
        "profiler.controller_s",
        per_round(&|r| s(r.sum_legs(true))),
        "s",
    );
    out.extra("trace.wrapped_slowdown", layers.wrapped_slowdown, "x");
    out.extra("trace.timer_ns", cost.total_ns, "ns");
    out.extra("trace.rounds", rounds.len() as f64, "count");
}
