//! Differential tests for the event-driven simulator core: for every
//! supported application, policy stack, fault plan and seed, the
//! next-event engine in `asgov::soc::event` must produce a `RunReport`
//! bit-identical to a forced-1 ms run of the same engine (the "tick"
//! side, see [`PerMs`]) — same energy bits, same instruction count,
//! same residency histograms, same health summary. The golden-pin test
//! additionally anchors both sides to values captured from the original
//! 1 ms tick loop, so neither can drift from its semantics unnoticed.
//! Every [`FaultKind`] is covered, at probability 1 and below, under
//! the governor stacks and under the supervised controller.

use asgov::core::{Supervisor, SupervisorConfig};
use asgov::governors::{AdrenoTz, CpubwHwmon, Interactive, Ondemand};
use asgov::prelude::*;
use asgov::soc::faults::FaultStats;
use asgov::soc::sim::RunReport;
use asgov::soc::{event, Demand, Executed, FaultInjector, FaultKind, FaultPlan};
use asgov::workloads::{AppKind, AppSpec, PhaseSpec, PhasedApp, TouchSpec};
use asgov_fleet::spec::build_app;
use asgov_fleet::{DeviceSpec, FaultClass};

/// The forced-1 ms oracle: forwards every call to the wrapped workload
/// but keeps the default `next_event_ms`/`deliver_span` hooks, so
/// `event::run` takes 1 ms spans — exactly the call sequence of the
/// original 1 ms tick loop.
struct PerMs<'a>(&'a mut dyn Workload);

impl Workload for PerMs<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn demand(&mut self, now_ms: u64) -> Demand {
        self.0.demand(now_ms)
    }
    fn deliver(&mut self, now_ms: u64, executed: Executed) {
        self.0.deliver(now_ms, executed);
    }
    fn finished(&self) -> bool {
        self.0.finished()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Run through the requested side: `"tick"` is the forced-1 ms oracle,
/// anything else the engine's own coalesced spans.
fn run_on(
    core: &str,
    device: &mut Device,
    app: &mut dyn Workload,
    policies: &mut [&mut dyn Policy],
    max_ms: u64,
) -> RunReport {
    if core == "tick" {
        event::run(device, &mut PerMs(app), policies, max_ms)
    } else {
        event::run(device, app, policies, max_ms)
    }
}

/// Constructor signature shared by every packaged application.
type AppCtor = fn(BackgroundLoad) -> PhasedApp;

/// Every packaged application, by constructor.
fn all_apps() -> Vec<(&'static str, AppCtor)> {
    vec![
        ("vidcon", apps::vidcon as AppCtor),
        ("mobilebench", apps::mobilebench),
        ("angrybirds", apps::angrybirds),
        ("wechat", apps::wechat),
        ("mxplayer", apps::mxplayer),
        ("spotify", apps::spotify),
        ("ebook", apps::ebook),
    ]
}

/// Every fault kind the other plans lack, in one 3 s plan: perf
/// faults at p = 1 and p < 1, overlapping thermal clamps with different
/// ceilings, back-to-back hotplug windows, kills at p = 1 and p < 1, and
/// the checkpoint and restore faults around them.
fn every_kind_plan() -> FaultPlan {
    FaultPlan::new()
        .window(200, 1_600, FaultKind::PerfNan)
        .and_then(|p| p.window(300, 1_400, FaultKind::ThermalClamp(8)))
        .and_then(|p| p.window_p(400, 2_600, 0.5, FaultKind::PerfDropout))
        .and_then(|p| p.window(500, 700, FaultKind::ControllerKill))
        .and_then(|p| p.window(500, 1_000, FaultKind::ClockJump))
        .and_then(|p| p.window(800, 1_100, FaultKind::ThermalClamp(3)))
        .and_then(|p| p.window_p(900, 2_900, 0.5, FaultKind::CheckpointCorrupt))
        .and_then(|p| p.window(1_200, 2_800, FaultKind::PerfZero))
        .and_then(|p| p.window(1_500, 1_900, FaultKind::Hotplug(2.0)))
        .and_then(|p| p.window(1_900, 2_300, FaultKind::Hotplug(3.0)))
        .and_then(|p| p.window_p(2_100, 2_300, 0.5, FaultKind::ControllerKill))
        .and_then(|p| p.window_p(2_100, 2_600, 0.5, FaultKind::ClockJump))
        .expect("valid windows")
}

/// The four fault plans of the differential matrix: no faults, DVFS
/// interference (thermal clamp + governor reset), noisy telemetry
/// (hotplug + perf spikes + sysfs busy), and every other kind.
fn fault_plans() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("none", None),
        (
            "dvfs-interference",
            Some(
                FaultPlan::new()
                    .window(500, 1_500, FaultKind::ThermalClamp(4))
                    .and_then(|p| {
                        p.window(1_800, 1_801, FaultKind::GovernorReset("interactive".into()))
                    })
                    .expect("valid windows"),
            ),
        ),
        (
            "noisy-telemetry",
            Some(
                FaultPlan::new()
                    .window(400, 1_200, FaultKind::Hotplug(2.0))
                    .and_then(|p| p.window(1_000, 2_000, FaultKind::PerfSpike(40.0)))
                    .and_then(|p| p.window(2_200, 2_800, FaultKind::SysfsBusy))
                    .expect("valid windows"),
            ),
        ),
        ("every-kind", Some(every_kind_plan())),
    ]
}

/// Run one configuration through the requested core.
fn run_config(
    core: &str,
    app_fn: fn(BackgroundLoad) -> PhasedApp,
    policy: &str,
    profile: &ProfileTable,
    plan: &Option<FaultPlan>,
    seed: u64,
    max_ms: u64,
) -> RunReport {
    let cfg = DeviceConfig::nexus6().with_seed(seed);
    let mut device = Device::new(cfg);
    if let Some(plan) = plan {
        device.install_faults(FaultInjector::new(plan.clone(), 0x5eed ^ seed));
    }
    let mut app = app_fn(BackgroundLoad::baseline(seed));

    let mut ondemand = Ondemand::default();
    let mut interactive = Interactive::default();
    let mut bw = CpubwHwmon::default();
    let mut gpu = AdrenoTz::default();
    let mut controller = ControllerBuilder::new(profile.clone())
        .target_gips(0.5)
        .build();
    let mut policies: Vec<&mut dyn Policy> = match policy {
        "ondemand" => vec![&mut ondemand, &mut bw, &mut gpu],
        "interactive" => vec![&mut interactive, &mut bw, &mut gpu],
        "controller" => vec![&mut controller],
        other => panic!("unknown policy tag {other}"),
    };
    run_on(core, &mut device, &mut app, &mut policies, max_ms)
}

/// The full differential matrix: every app x {ondemand, interactive,
/// hardened controller} x 4 fault plans x 3 seeds, forced-1 ms oracle
/// vs event engine, whole-report equality (covers residency histograms
/// and the health summary via `RunReport: PartialEq`) plus explicit bit
/// checks on the energy integrator.
#[test]
fn event_core_is_bit_identical_to_tick_core() {
    let profile_opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 2_000,
        freq_stride: 4,
        interpolate: true,
    };
    let dev_cfg = DeviceConfig::nexus6();
    for (app_name, app_fn) in all_apps() {
        let mut profile_src = app_fn(BackgroundLoad::baseline(1));
        let profile = profile_app(&dev_cfg, &mut profile_src, &profile_opts);
        for policy in ["ondemand", "interactive", "controller"] {
            for (plan_name, plan) in fault_plans() {
                for seed in 1..=3u64 {
                    let tick = run_config("tick", app_fn, policy, &profile, &plan, seed, 3_000);
                    let event = run_config("event", app_fn, policy, &profile, &plan, seed, 3_000);
                    let label = format!("{app_name}/{policy}/{plan_name}/seed{seed}");
                    assert_eq!(
                        tick.energy_j.to_bits(),
                        event.energy_j.to_bits(),
                        "{label}: energy bits diverged"
                    );
                    assert_eq!(
                        tick.instructions.to_bits(),
                        event.instructions.to_bits(),
                        "{label}: instruction bits diverged"
                    );
                    assert_eq!(
                        tick.stats.time_in_freq_ms, event.stats.time_in_freq_ms,
                        "{label}: frequency residency histogram diverged"
                    );
                    assert_eq!(
                        tick.stats.time_in_bw_ms, event.stats.time_in_bw_ms,
                        "{label}: bandwidth residency histogram diverged"
                    );
                    assert_eq!(tick.health, event.health, "{label}: health diverged");
                    assert_eq!(tick, event, "{label}: reports diverged");
                }
            }
        }
    }
}

/// Bit-exact values captured from the original 1 ms tick loop *before*
/// the event engine existed. Both sides must keep reproducing them: the
/// forced-1 ms oracle so the per-ms model provably changed nothing, the
/// engine so its span integration provably matches the original per-ms
/// semantics.
#[test]
fn golden_pins_from_pre_refactor_tick_core() {
    let cfg = DeviceConfig::nexus6();
    for core in ["tick", "event"] {
        // Bare run: spotify + baseline background, monitor noise on.
        let mut device = Device::new(cfg.clone());
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let r = run_on(core, &mut device, &mut app, &mut [], 5_000);
        assert_eq!(
            r.energy_j.to_bits(),
            0x401fc7c1be611bb2,
            "{core} bare energy"
        );
        assert_eq!(
            r.instructions.to_bits(),
            0x41c3e86f80000002,
            "{core} bare instr"
        );
        assert_eq!(r.avg_gips.to_bits(), 0x3fc119ce075f6fd4, "{core} bare gips");

        // Android-default governor stack.
        let mut device = Device::new(cfg.clone());
        let mut app = apps::wechat(BackgroundLoad::baseline(2));
        let mut cpu = Ondemand::default();
        let mut bw = CpubwHwmon::default();
        let mut gpu = AdrenoTz::default();
        let mut policies: [&mut dyn Policy; 3] = [&mut cpu, &mut bw, &mut gpu];
        let r = run_on(core, &mut device, &mut app, &mut policies, 5_000);
        assert_eq!(
            r.energy_j.to_bits(),
            0x402f0bef4bbc4466,
            "{core} govs energy"
        );
        assert_eq!(
            r.instructions.to_bits(),
            0x41ed28c1a56f025b,
            "{core} govs instr"
        );
        assert_eq!(r.stats.freq_transitions, 44, "{core} govs transitions");

        // Fault injection: hotplug + thermal clamp windows.
        let mut device = Device::new(cfg.clone());
        let plan = FaultPlan::new()
            .window(1_000, 2_500, FaultKind::Hotplug(2.0))
            .and_then(|p| p.window(3_000, 4_500, FaultKind::ThermalClamp(4)))
            .expect("valid windows");
        device.install_faults(FaultInjector::new(plan, 0x5eed));
        let mut app = apps::angrybirds(BackgroundLoad::heavy(3));
        let mut cpu = Interactive::default();
        let mut policies: [&mut dyn Policy; 1] = [&mut cpu];
        let r = run_on(core, &mut device, &mut app, &mut policies, 6_000);
        assert_eq!(
            r.energy_j.to_bits(),
            0x40368c941011ee92,
            "{core} fault energy"
        );
        assert_eq!(
            r.instructions.to_bits(),
            0x41dd46e8c3352d53,
            "{core} fault instr"
        );
        assert_eq!(
            r.avg_power_w.to_bits(),
            0x400e10c56ac2936d,
            "{core} fault power"
        );
    }
}

/// A supervised controller killed mid-run (twice) must restart and
/// produce bit-identical reports on both sides, in both warm and
/// cold restart modes: a kill latches on a 1 ms span at its window's
/// start, so the supervisor sees it one millisecond later,
/// checkpoints land on supervisor-advertised event times, and restarts
/// wake the engine at exactly the backoff deadline.
#[test]
fn supervised_kill_restart_is_bit_identical_across_cores() {
    use asgov::core::{Supervisor, SupervisorConfig};
    let profile_opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 2_000,
        freq_stride: 4,
        interpolate: true,
    };
    let dev_cfg = DeviceConfig::nexus6();
    let mut profile_src = apps::wechat(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut profile_src, &profile_opts);

    let run = |core: &str, warm: bool| {
        let mut device = Device::new(dev_cfg.clone().with_seed(4));
        let plan = FaultPlan::new()
            .window(2_500, 3_000, FaultKind::ControllerKill)
            .and_then(|p| p.window(6_200, 6_700, FaultKind::ControllerKill))
            .expect("valid windows");
        device.install_faults(FaultInjector::new(plan, 0x5eed));
        let mut app = apps::wechat(BackgroundLoad::baseline(4));
        let mut gpu = AdrenoTz::default();
        let p = profile.clone();
        let mut supervisor = Supervisor::new(
            move || ControllerBuilder::new(p.clone()).target_gips(0.5).build(),
            SupervisorConfig {
                warm,
                ..SupervisorConfig::default()
            },
        );
        let mut policies: [&mut dyn Policy; 2] = [&mut gpu, &mut supervisor];
        run_on(core, &mut device, &mut app, &mut policies, 10_000)
    };

    for warm in [true, false] {
        let tick = run("tick", warm);
        let event = run("event", warm);
        let label = if warm { "warm" } else { "cold" };
        let health = tick.health.expect("supervisor reports health");
        assert_eq!(health.restarts, 2, "{label}: both kills must restart");
        if warm {
            assert_eq!(health.warm_restarts, 2, "warm restarts must restore");
        } else {
            assert_eq!(health.warm_restarts, 0, "cold mode never restores");
        }
        assert!(health.downtime_ms > 0, "{label}: downtime accounted");
        assert_eq!(
            tick.energy_j.to_bits(),
            event.energy_j.to_bits(),
            "{label}: energy bits diverged"
        );
        assert_eq!(
            tick.instructions.to_bits(),
            event.instructions.to_bits(),
            "{label}: instruction bits diverged"
        );
        assert_eq!(tick, event, "{label}: reports diverged");
    }
}

/// With no kills injected, wrapping the controller in a supervisor must
/// change nothing: same report, bit for bit, as the unsupervised stack,
/// on both sides. (Checkpoints still happen — they must be pure
/// reads.)
#[test]
fn supervisor_without_kills_is_transparent() {
    use asgov::core::{Supervisor, SupervisorConfig};
    let profile_opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 2_000,
        freq_stride: 4,
        interpolate: true,
    };
    let dev_cfg = DeviceConfig::nexus6();
    let mut profile_src = apps::spotify(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut profile_src, &profile_opts);

    let run = |core: &str, supervised: bool| {
        let mut device = Device::new(dev_cfg.clone().with_seed(2));
        let mut app = apps::spotify(BackgroundLoad::baseline(2));
        let mut gpu = AdrenoTz::default();
        let p = profile.clone();
        let build = move || ControllerBuilder::new(p.clone()).target_gips(0.5).build();
        let mut controller = build();
        let mut supervisor = Supervisor::new(build, SupervisorConfig::default());
        let mut policies: [&mut dyn Policy; 2] = if supervised {
            [&mut gpu, &mut supervisor]
        } else {
            [&mut gpu, &mut controller]
        };
        run_on(core, &mut device, &mut app, &mut policies, 8_000)
    };

    for core in ["tick", "event"] {
        let bare = run(core, false);
        let supervised = run(core, true);
        let health = supervised.health.expect("health present");
        assert_eq!(health.restarts, 0, "{core}: no kills, no restarts");
        assert_eq!(health.downtime_ms, 0, "{core}: no downtime");
        assert_eq!(bare, supervised, "{core}: supervision must be free");
    }
}

/// A policy that wakes only while the CPU frequency, online core count
/// or cpufreq governor differs from what it last saw, and logs each
/// change with the millisecond at which it saw it. It keeps the engine
/// contract (it advertises `now + 1` exactly while a change is unseen),
/// so its log pins *when* policies observe a fault's state change: a
/// clamp, a hotplug set or restore, a governor reset.
#[derive(Default)]
struct Watcher {
    seen: Option<(usize, u64, String)>,
    log: Vec<Sighting>,
}

/// One [`Watcher`] log entry: when, then frequency index, online core
/// count (as bits) and cpufreq governor.
type Sighting = (u64, usize, u64, String);

impl Watcher {
    fn state(device: &Device) -> (usize, u64, String) {
        (
            device.freq().0,
            device.online_cores().to_bits(),
            device.cpu_governor().to_string(),
        )
    }
}

impl Policy for Watcher {
    fn name(&self) -> &str {
        "watcher"
    }
    fn tick(&mut self, device: &mut Device) {
        let state = Self::state(device);
        if self.seen.as_ref() != Some(&state) {
            let (freq, cores, governor) = state.clone();
            self.log.push((device.now_ms(), freq, cores, governor));
            self.seen = Some(state);
        }
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        if self.seen.as_ref() == Some(&Self::state(device)) {
            u64::MAX
        } else {
            device.now_ms() + 1
        }
    }
}

/// A roster app on a coarse demand quantum, delivered one millisecond
/// at a time: it forwards the app's quantum-boundary horizons and its
/// remaining work but keeps the default `deliver_span`. The app's own
/// `deliver_span` books a span's work in one add, so above quantum 1 its
/// low-order bits depend on where the engine cuts spans, and no
/// schedule-independent oracle exists for it. Per-ms delivery keeps the
/// engine contract exactly, so a run still takes quantum-long spans
/// (cut short where a batch app's work runs out) and the comparison
/// isolates the fault, policy and work-bound clock domains.
struct QuantumApp(PhasedApp);

impl Workload for QuantumApp {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn demand(&mut self, now_ms: u64) -> Demand {
        self.0.demand(now_ms)
    }
    fn deliver(&mut self, now_ms: u64, executed: Executed) {
        self.0.deliver(now_ms, executed);
    }
    fn finished(&self) -> bool {
        self.0.finished()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn next_event_ms(&self, now_ms: u64) -> u64 {
        self.0.next_event_ms(now_ms)
    }
    fn work_left_gi(&self) -> Option<f64> {
        self.0.work_left_gi()
    }
}

/// One supervised device-epoch as a fleet shard runs it (roster app at
/// demand quantum 20, Adreno GPU governor, supervised controller with
/// the fleet's restart policy), plus a [`Watcher`]. Checkpoints every
/// 500 ms rather than the fleet's 2 s, so kills find a checkpoint to
/// restore and the checkpoint and clock-jump faults get drawn. The
/// monitor is noiseless: coalesced spans draw noise once per span, so
/// only σ = 0 has a bit-exact forced-1 ms oracle.
fn run_supervised(
    core: &str,
    app: &str,
    profile: &ProfileTable,
    plan: Option<FaultInjector>,
    seed: u64,
) -> (RunReport, FaultStats, Vec<Sighting>) {
    let mut cfg = DeviceConfig::nexus6().with_seed(seed);
    cfg.monitor_noise_w = 0.0;
    let mut device = Device::new(cfg);
    if let Some(injector) = plan {
        device.install_faults(injector);
    }
    let mut app =
        QuantumApp(build_app(app, BackgroundLoad::baseline(seed), 20).expect("roster app"));
    let mut watcher = Watcher::default();
    let mut gpu = AdrenoTz::default();
    let p = profile.clone();
    let mut supervisor = Supervisor::new(
        move || ControllerBuilder::new(p.clone()).target_gips(0.5).build(),
        SupervisorConfig {
            max_restarts: 8,
            backoff_base_ms: 50,
            backoff_max_ms: 400,
            checkpoint_period_ms: 500,
            warm: true,
        },
    );
    let mut policies: [&mut dyn Policy; 3] = [&mut watcher, &mut gpu, &mut supervisor];
    let report = run_on(core, &mut device, &mut app, &mut policies, 4_000);
    let stats = device.faults().map(|f| *f.stats()).unwrap_or_default();
    (report, stats, watcher.log)
}

/// Every fleet fault class's plan (`DeviceSpec::fault_injector` over a
/// 4 s epoch), and the every-kind plan, on every roster app at demand
/// quantum 20 under the supervised controller: the coalesced engine
/// must match the forced-1 ms oracle bit for bit, in the report, in
/// what the injector did, and in when the watcher saw each change.
#[test]
fn every_fault_class_is_bit_identical_under_supervision() {
    let profile_opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 2_000,
        freq_stride: 4,
        interpolate: true,
    };
    let dev_cfg = DeviceConfig::nexus6();
    let mut injected = Vec::new();
    for (app_idx, app) in asgov_fleet::spec::roster_names().into_iter().enumerate() {
        let mut profile_src = build_app(app, BackgroundLoad::baseline(1), 1).expect("roster app");
        let profile = profile_app(&dev_cfg, &mut profile_src, &profile_opts);
        for seed in 1..=3u64 {
            // Per app and seed, so the probabilistic windows draw afresh.
            let fault_seed = 0x5eed ^ (seed << 8) ^ app_idx as u64;
            let mut plans: Vec<(&str, Option<FaultInjector>)> = FaultClass::all()
                .into_iter()
                .map(|fault_class| {
                    let spec = DeviceSpec {
                        device_id: 0,
                        app,
                        app_idx,
                        load: LoadLevel::Baseline,
                        fault_class,
                    };
                    (fault_class.label(), spec.fault_injector(4_000, fault_seed))
                })
                .collect();
            plans.push((
                "every-kind",
                Some(FaultInjector::new(every_kind_plan(), fault_seed)),
            ));
            for (plan_name, injector) in plans {
                let label = format!("{app}/{plan_name}/seed{seed}");
                let (tick, tick_stats, tick_log) =
                    run_supervised("tick", app, &profile, injector.clone(), seed);
                let (event, event_stats, event_log) =
                    run_supervised("event", app, &profile, injector, seed);
                assert_eq!(
                    tick.energy_j.to_bits(),
                    event.energy_j.to_bits(),
                    "{label}: energy bits diverged"
                );
                assert_eq!(tick.health, event.health, "{label}: health diverged");
                assert_eq!(tick, event, "{label}: reports diverged");
                assert_eq!(tick_stats, event_stats, "{label}: injections diverged");
                assert_eq!(tick_log, event_log, "{label}: observed changes diverged");
                injected.push(tick_stats);
            }
        }
    }
    // Every kind actually fired somewhere, so each was compared live.
    let total = |count: fn(&FaultStats) -> u64| injected.iter().map(count).sum::<u64>();
    for (what, n) in [
        ("kills", total(|s| s.controller_kills)),
        ("corrupt checkpoints", total(|s| s.checkpoint_corruptions)),
        ("clock jumps", total(|s| s.clock_jumps)),
        ("perf dropouts", total(|s| s.perf_dropouts)),
        ("perf corruptions", total(|s| s.perf_corrupted)),
        ("thermal clamps", total(|s| s.thermal_clamps)),
        ("hotplug changes", total(|s| s.hotplug_changes)),
        ("governor resets", total(|s| s.governor_resets)),
        ("sysfs busy", total(|s| s.sysfs_busy)),
    ] {
        assert!(n > 0, "no {what} fired");
    }
}

/// A workload that finishes before the time limit must stop both sides
/// at the same millisecond with the same report.
#[test]
fn early_completion_is_identical() {
    let cfg = DeviceConfig::nexus6();
    let run = |core: &str| {
        let mut device = Device::new(cfg.clone());
        let mut app = apps::vidcon(BackgroundLoad::baseline(1));
        let mut cpu = Ondemand::default();
        let mut policies: [&mut dyn Policy; 1] = [&mut cpu];
        run_on(core, &mut device, &mut app, &mut policies, 300_000)
    };
    let tick = run("tick");
    let event = run("event");
    assert!(tick.completed, "vidcon must finish inside the limit");
    assert!(tick.duration_ms < 300_000);
    assert_eq!(tick, event);
}

/// A batch app on 20 ms demand windows (demand quantum 20) stops at the
/// same millisecond, with the same report, as the forced-1 ms oracle:
/// the engine cuts its span where the work runs out, mid-window too.
/// Monitor noise is off, the only setting with a bit-exact oracle for
/// coalesced spans.
#[test]
fn coarse_batch_completion_is_identical() {
    let small = || {
        let spec = AppSpec {
            name: "small-batch",
            kind: AppKind::Batch { total_gi: 0.7 },
            phases: vec![
                PhaseSpec {
                    name: "crunch",
                    duration_ms: 300,
                    ipc0: 1.6,
                    bytes_per_instr: 0.2,
                    active_cores: 2.5,
                    ..PhaseSpec::default()
                },
                PhaseSpec {
                    name: "render",
                    duration_ms: 140,
                    gips_cap: Some(1.0),
                    gpu_work_ghz: 0.3,
                    ..PhaseSpec::default()
                },
            ],
            touch: Some(TouchSpec {
                rate_per_s: 2.0,
                work_gi: 0.01,
            }),
            events: vec![],
            profile_freq_range: (0, 17),
            max_backlog_frames: None,
            test_duration_ms: 60_000,
        };
        PhasedApp::new(spec, BackgroundLoad::baseline(1), 7).with_quantum(20)
    };
    let vidcon = || apps::vidcon(BackgroundLoad::baseline(1)).with_quantum(20);
    let cases: [(&str, &dyn Fn() -> PhasedApp, &str, u64); 3] = [
        ("small-batch", &small, "none", 60_000),
        ("small-batch", &small, "ondemand", 60_000),
        ("vidcon", &vidcon, "ondemand", 300_000),
    ];
    for (name, app, policy, max_ms) in cases {
        let label = format!("{name}/{policy}");
        let run = |per_ms: bool| {
            let mut cfg = DeviceConfig::nexus6();
            cfg.monitor_noise_w = 0.0;
            let mut device = Device::new(cfg);
            let mut app = QuantumApp(app());
            let mut cpu = Ondemand::default();
            let mut policies: Vec<&mut dyn Policy> = match policy {
                "ondemand" => vec![&mut cpu],
                _ => vec![],
            };
            if per_ms {
                event::run_counted(&mut device, &mut PerMs(&mut app), &mut policies, max_ms)
            } else {
                event::run_counted(&mut device, &mut app, &mut policies, max_ms)
            }
        };
        let (tick, _) = run(true);
        let (event, engine) = run(false);
        assert!(tick.completed, "{label}: must finish inside the limit");
        assert_eq!(tick.duration_ms, event.duration_ms, "{label}: duration");
        assert_eq!(tick.completed, event.completed, "{label}: completion");
        assert_eq!(
            tick.energy_j.to_bits(),
            event.energy_j.to_bits(),
            "{label}: energy bits diverged"
        );
        assert_eq!(
            tick.instructions.to_bits(),
            event.instructions.to_bits(),
            "{label}: instruction bits diverged"
        );
        assert_eq!(tick, event, "{label}: reports diverged");
        assert!(
            engine.events * 4 < event.duration_ms,
            "{label}: {} events over {} ms, spans must coalesce",
            engine.events,
            event.duration_ms
        );
        if name == "small-batch" {
            assert_ne!(event.duration_ms % 20, 0, "{label}: finish mid-window");
        }
    }
}

/// Batch apps at demand quantum 20 take one span per window: with no
/// policies and no faults, a 4 s run is exactly 200 engine events (it
/// was 4 000 while batch apps stayed on the exact 1 ms model).
#[test]
fn coarse_batch_apps_take_one_span_per_window() {
    for app_fn in [apps::vidcon as AppCtor, apps::mobilebench] {
        let mut device = Device::new(DeviceConfig::nexus6());
        let mut app = app_fn(BackgroundLoad::baseline(1)).with_quantum(20);
        let (report, engine) = event::run_counted(&mut device, &mut app, &mut [], 4_000);
        assert!(!report.completed, "{}: still running", report.app);
        assert_eq!(engine.events, 200, "{}: one event per window", report.app);
        assert_eq!(engine.simulated_ms, 4_000);
    }
}

/// The engine is generic over the workload: a concrete `&mut PhasedApp`
/// (statically dispatched) and the same app behind `&mut dyn Workload`
/// run one loop and give equal reports, energy and instruction bits
/// included — for the six paper apps on the exact per-ms model (monitor
/// noise on) and at demand quantum 20, under the stock governors.
#[test]
fn static_and_dynamic_dispatch_give_identical_reports() {
    for quantum in [1, 20] {
        let apps = asgov::workloads::paper_apps(BackgroundLoad::baseline(1));
        for app in apps {
            let app = app.with_quantum(quantum);
            let run = |dynamic: bool| {
                let mut device = Device::new(DeviceConfig::nexus6().with_seed(11));
                let mut app = app.clone();
                let mut gpu = AdrenoTz::default();
                let mut cpu = Interactive::default();
                let mut bw = CpubwHwmon::default();
                let mut policies: [&mut dyn Policy; 3] = [&mut gpu, &mut cpu, &mut bw];
                if dynamic {
                    let app: &mut dyn Workload = &mut app;
                    event::run_counted(&mut device, app, &mut policies, 3_000)
                } else {
                    event::run_counted(&mut device, &mut app, &mut policies, 3_000)
                }
            };
            let (concrete, concrete_engine) = run(false);
            let (dynamic, dynamic_engine) = run(true);
            let label = format!("{}/q{quantum}", concrete.app);
            assert_eq!(
                concrete.energy_j.to_bits(),
                dynamic.energy_j.to_bits(),
                "{label}: energy bits"
            );
            assert_eq!(
                concrete.instructions.to_bits(),
                dynamic.instructions.to_bits(),
                "{label}: instruction bits"
            );
            assert_eq!(concrete, dynamic, "{label}: reports");
            assert_eq!(concrete_engine, dynamic_engine, "{label}: engine counters");
        }
    }
}

/// A run's report names its policy stack, `+`-joined in order, and
/// keeps the requested time limit next to the elapsed time.
#[test]
fn report_names_the_policy_stack_and_time_limit() {
    let cfg = DeviceConfig::nexus6();
    let mut device = Device::new(cfg);
    let mut app = apps::spotify(BackgroundLoad::baseline(1));
    let mut cpu = Ondemand::default();
    let mut bw = CpubwHwmon::default();
    let mut policies: [&mut dyn Policy; 2] = [&mut cpu, &mut bw];
    let r = event::run(&mut device, &mut app, &mut policies, 2_000);

    assert_eq!(r.policy, "ondemand+cpubw_hwmon");
    assert_eq!(r.max_ms, 2_000);
    assert_eq!(r.duration_ms, 2_000);
    assert!(!r.completed);

    // A policy-free run reports "none".
    let mut device = Device::new(DeviceConfig::nexus6());
    let mut app = apps::spotify(BackgroundLoad::baseline(1));
    let bare = event::run(&mut device, &mut app, &mut [], 1_000);
    assert_eq!(bare.policy, "none");
}
