//! Differential tests for the event-driven simulator core: for every
//! supported application, policy stack, fault plan and seed, the
//! next-event engine in `asgov::soc::event` must produce a `RunReport`
//! bit-identical to a forced-1 ms run of the same engine (the "tick"
//! side, see [`PerMs`]) — same energy bits, same instruction count,
//! same residency histograms, same health summary. The golden-pin test
//! additionally anchors both sides to values captured from the original
//! 1 ms tick loop, so neither can drift from its semantics unnoticed.

use asgov::governors::{AdrenoTz, CpubwHwmon, Interactive, Ondemand};
use asgov::prelude::*;
use asgov::soc::sim::RunReport;
use asgov::soc::{event, Demand, Executed, FaultInjector, FaultKind, FaultPlan};
use asgov::util::Json;
use asgov::workloads::PhasedApp;

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

/// The three fault plans of the differential matrix: no faults, DVFS
/// interference (thermal clamp + governor reset), and noisy telemetry
/// (hotplug + perf spikes + sysfs busy).
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
/// hardened controller} x 3 fault plans x 3 seeds, forced-1 ms oracle
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
/// cold restart modes: kills latch inside forced-tick fault windows,
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

/// `RunReport::to_json` carries the run-summary contract downstream
/// tooling parses: policy name, elapsed vs requested time, and the
/// scalar measurements.
#[test]
fn report_json_shape() {
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

    let doc = r.to_json();
    assert_eq!(doc.get("app").and_then(|v| v.as_str()), Some("Spotify"));
    assert_eq!(
        doc.get("policy").and_then(|v| v.as_str()),
        Some("ondemand+cpubw_hwmon")
    );
    assert_eq!(doc.get("elapsed_ms").and_then(Json::as_f64), Some(2_000.0));
    assert_eq!(doc.get("max_ms").and_then(Json::as_f64), Some(2_000.0));
    // `duration_ms` is kept for backward compatibility with existing
    // result files and must equal `elapsed_ms`.
    assert_eq!(
        doc.get("duration_ms").and_then(Json::as_f64),
        doc.get("elapsed_ms").and_then(Json::as_f64)
    );
    for key in ["energy_j", "avg_power_w", "instructions", "avg_gips"] {
        assert!(
            doc.get(key).and_then(Json::as_f64).is_some(),
            "missing scalar {key}"
        );
    }
    assert_eq!(doc.get("completed").and_then(Json::as_bool), Some(false));

    // A policy-free run reports "none".
    let mut device = Device::new(DeviceConfig::nexus6());
    let mut app = apps::spotify(BackgroundLoad::baseline(1));
    let bare = event::run(&mut device, &mut app, &mut [], 1_000);
    assert_eq!(bare.policy, "none");
}
