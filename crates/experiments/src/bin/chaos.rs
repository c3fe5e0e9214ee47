//! Chaos study — the hardened controller under the deterministic fault
//! injector, one row per fault class.
//!
//! For each fault class a seeded [`FaultPlan`] fires mid-run; the table
//! reports what the controller observed, how far it degraded, and how
//! fast it recovered, next to the clean-run baseline, over 120 s runs
//! with faults in the middle third. The same matrix is written as
//! `CHAOS_faultmatrix.json` in the working directory (uploaded as a CI
//! artifact alongside the bench reports).
//!
//! Run: `cargo run --release -p asgov-experiments --bin chaos [-- --trace] [-- --kill-matrix]`
//!
//! With `--trace` the sysfs-busy scenario is re-run with the
//! observability sink installed, and the per-cycle JSONL trace is
//! written to `CHAOS_trace.jsonl` in the working directory (uploaded as
//! a CI artifact alongside the fault matrix).
//!
//! With `--kill-matrix` the supervised controller additionally runs
//! under injected controller kills — apps × kill counts × seeds, once
//! with cold restarts and once with warm (checkpoint) restarts — and
//! the comparison lands in the same JSON under `"kill_matrix"`.

use asgov_core::{
    with_controller_stack, ControlMode, ControllerBuilder, Supervisor, SupervisorConfig,
};
use asgov_obs::RingSink;
use asgov_profiler::{measure_default, profile_app, ProfileOptions};
use asgov_soc::sim::RunReport;
use asgov_soc::{
    event, Device, DeviceConfig, FaultInjector, FaultKind, FaultPlan, Policy, Workload as _,
};
use asgov_util::Json;
use asgov_workloads::{apps, BackgroundLoad, PhasedApp};
use std::cell::RefCell;
use std::rc::Rc;

/// The fault-matrix report, in the working directory.
const MATRIX_FILE: &str = "CHAOS_faultmatrix.json";
/// The per-cycle trace of `--trace`, in the working directory.
const TRACE_FILE: &str = "CHAOS_trace.jsonl";

/// Run `app` from reset on `device` under the coordinated controller
/// stack around `controller` (a controller or its supervisor).
fn coordinated_run(
    device: &mut Device,
    app: &mut PhasedApp,
    controller: &mut impl Policy,
    duration_ms: u64,
) -> RunReport {
    app.reset();
    with_controller_stack(ControlMode::Coordinated, controller, |policies| {
        event::run(device, app, policies, duration_ms)
    })
}

/// One row of the fault matrix: a named plan and its injection window.
fn fault_matrix(start: u64, end: u64) -> Vec<(&'static str, FaultPlan)> {
    let w = |p: f64, kind: FaultKind| {
        FaultPlan::new()
            .window_p(start, end, p, kind)
            .expect("valid window")
    };
    vec![
        ("none", FaultPlan::new()),
        ("sysfs-busy", w(0.8, FaultKind::SysfsBusy)),
        (
            "governor-reset",
            w(1.0, FaultKind::GovernorReset("interactive".into())),
        ),
        ("perf-dropout", w(1.0, FaultKind::PerfDropout)),
        ("perf-nan", w(1.0, FaultKind::PerfNan)),
        ("perf-spike", w(0.5, FaultKind::PerfSpike(40.0))),
        ("thermal-clamp", w(1.0, FaultKind::ThermalClamp(4))),
        ("hotplug", w(1.0, FaultKind::Hotplug(2.0))),
    ]
}

/// A fault plan with `kills` controller-kill windows spread evenly
/// across `[start, end)`.
fn kill_plan(start: u64, end: u64, kills: u64) -> FaultPlan {
    let span = (end - start) / kills.max(1);
    let mut plan = FaultPlan::new();
    for i in 0..kills {
        let w_start = start + i * span;
        plan = plan
            .window(w_start, w_start + 500, FaultKind::ControllerKill)
            .expect("valid kill window");
    }
    plan
}

/// Supervised cold-vs-warm restart comparison under injected controller
/// kills: apps × kill counts × seeds × {cold, warm}, one JSON row each
/// (cold, then warm).
fn run_kill_matrix(
    dev_cfg: &DeviceConfig,
    opts: &ProfileOptions,
    duration_ms: u64,
    f_start: u64,
    f_end: u64,
    seeds: &[u64],
) -> Vec<Json> {
    let mut rows = Vec::new();
    println!("\n=== Kill matrix: supervised cold vs warm restarts ===\n");
    println!(
        "{:<12} {:>5} {:>8} {:>6} {:>9} {:>9} {:>9} {:>12} {:>10} {:>12}",
        "App",
        "kills",
        "seed",
        "mode",
        "GIPS",
        "Energy J",
        "restarts",
        "downtime ms",
        "warm/err",
        "rec ms"
    );
    type AppCtor = fn() -> asgov_workloads::PhasedApp;
    let app_ctors: [(&'static str, AppCtor); 2] = [
        ("wechat", || apps::wechat(BackgroundLoad::baseline(1))),
        ("angrybirds", || {
            apps::angrybirds(BackgroundLoad::baseline(1))
        }),
    ];
    for (app_name, ctor) in app_ctors {
        let mut app = ctor();
        let profile = profile_app(dev_cfg, &mut app, opts);
        let default = measure_default(dev_cfg, &mut app, 1, duration_ms);
        for kills in [1u64, 3] {
            for &seed in seeds {
                for (mode, warm) in [("cold", false), ("warm", true)] {
                    let plan = kill_plan(f_start, f_end, kills);
                    let (profile, target) = (profile.clone(), default.gips);
                    let mut supervisor = Supervisor::new(
                        move || {
                            ControllerBuilder::new(profile.clone())
                                .target_gips(target)
                                .build()
                        },
                        SupervisorConfig {
                            warm,
                            ..SupervisorConfig::default()
                        },
                    );
                    let mut device = Device::new(dev_cfg.clone());
                    device.install_faults(FaultInjector::new(plan, seed));
                    let report =
                        coordinated_run(&mut device, &mut app, &mut supervisor, duration_ms);
                    let health = report.health.expect("supervisor reports health");
                    assert!(
                        report.energy_j.is_finite() && report.avg_gips.is_finite(),
                        "{app_name}: supervised run must stay finite under kills"
                    );
                    let rec = health
                        .restart_recovery_ms
                        .map_or_else(|| "-".into(), |ms| ms.to_string());
                    println!(
                        "{:<12} {:>5} {:>8x} {:>6} {:>9.4} {:>9.1} {:>9} {:>12} {:>6}/{:>3} {:>12}",
                        app_name,
                        kills,
                        seed,
                        mode,
                        report.avg_gips,
                        report.energy_j,
                        health.restarts,
                        health.downtime_ms,
                        health.warm_restarts,
                        health.snapshot_errors,
                        rec,
                    );
                    let mut row = Json::object();
                    row.set("app", app_name);
                    row.set("kills", kills as f64);
                    row.set("seed", seed as f64);
                    row.set("mode", mode);
                    row.set("energy_j", report.energy_j);
                    row.set("avg_gips", report.avg_gips);
                    row.set("restarts", health.restarts as f64);
                    row.set("warm_restarts", health.warm_restarts as f64);
                    row.set("snapshot_errors", health.snapshot_errors as f64);
                    row.set("downtime_ms", health.downtime_ms as f64);
                    match health.restart_recovery_ms {
                        Some(ms) => row.set("recovery_ms", ms as f64),
                        None => row.set("recovery_ms", Json::Null),
                    }
                    row.set("level", health.level.to_string().as_str());
                    rows.push(row);
                }
            }
        }
    }
    rows
}

fn main() {
    let trace = std::env::args().any(|a| a == "--trace");
    let kill_matrix = std::env::args().any(|a| a == "--kill-matrix");
    let dev_cfg = DeviceConfig::nexus6();
    let duration_ms: u64 = 120_000;
    // Faults fire in the middle third of the run: the controller has
    // settled before, and has time to recover after.
    let (f_start, f_end) = (duration_ms / 3, 2 * duration_ms / 3);
    let opts = ProfileOptions {
        runs_per_config: 1,
        run_ms: 10_000,
        freq_stride: 2,
        interpolate: true,
    };

    let mut app = apps::wechat(BackgroundLoad::baseline(1));
    eprintln!("profiling...");
    let profile = profile_app(&dev_cfg, &mut app, &opts);
    let default = measure_default(&dev_cfg, &mut app, 1, duration_ms);

    println!("=== Chaos: hardened controller under injected faults ===\n");
    println!(
        "{:<16} {:>9} {:>9} {:>7} {:>8} {:>8} {:>9} {:>18} {:>9}",
        "Fault",
        "GIPS",
        "Energy J",
        "writes",
        "retries",
        "rejects",
        "degraded",
        "final level",
        "rec (cyc)"
    );

    let mut matrix = Vec::new();
    for (name, plan) in fault_matrix(f_start, f_end) {
        let mut device = Device::new(dev_cfg.clone());
        device.install_faults(FaultInjector::new(plan, 0x5eed));
        let mut controller = ControllerBuilder::new(profile.clone())
            .target_gips(default.gips)
            .build();
        let report = coordinated_run(&mut device, &mut app, &mut controller, duration_ms);
        let health = report.health.expect("controller reports health");
        assert!(
            report.energy_j.is_finite() && report.avg_gips.is_finite(),
            "{name}: run must stay finite under faults"
        );
        let latency = health
            .recovery_latency_cycles
            .map_or_else(|| "-".into(), |c| c.to_string());
        println!(
            "{:<16} {:>9.4} {:>9.1} {:>7} {:>8} {:>8} {:>9} {:>18} {:>9}",
            name,
            report.avg_gips,
            report.energy_j,
            health.write_failures(),
            health.retries,
            health.perf_rejected,
            health.degradations,
            health.level.to_string(),
            latency,
        );
        let mut row = Json::object();
        row.set("fault", name);
        row.set("energy_j", report.energy_j);
        row.set("avg_gips", report.avg_gips);
        row.set("health", health.to_json());
        matrix.push(row);
    }

    let energy_j = |row: &Json| {
        row.get("energy_j")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let clean_energy = energy_j(&matrix[0]);
    println!(
        "\nbaseline (default governors): {:.4} GIPS, {:.1} J; clean controller run: {:.1} J",
        default.gips, default.energy_j, clean_energy
    );

    let mut doc = Json::object();
    doc.set("app", "WeChat");
    doc.set("duration_ms", duration_ms as f64);
    doc.set("fault_window_ms", format!("{f_start}..{f_end}").as_str());
    doc.set("default_gips", default.gips);
    doc.set("default_energy_j", default.energy_j);
    doc.set("matrix", Json::Arr(matrix));

    if kill_matrix {
        let seeds = [0x5eed, 0x5eee];
        let kill_rows = run_kill_matrix(&dev_cfg, &opts, duration_ms, f_start, f_end, &seeds);
        // Warm-vs-cold energy delta, paired per (app, kills, seed).
        let mut deltas = Vec::new();
        for pair in kill_rows.chunks(2) {
            if let [cold, warm] = pair {
                deltas.push(energy_j(cold) - energy_j(warm));
            }
        }
        let mean_delta = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
        println!(
            "\nwarm restarts saved {mean_delta:.2} J on average over cold (paired across {} scenarios)",
            deltas.len()
        );
        doc.set("kill_matrix", Json::Arr(kill_rows));
        doc.set("warm_vs_cold_energy_delta_j_mean", mean_delta);
    }

    std::fs::write(MATRIX_FILE, doc.to_pretty()).expect("write fault-matrix report");
    println!("wrote {MATRIX_FILE}");

    if trace {
        // Re-run the sysfs-busy scenario with the observability sink
        // installed and keep the per-cycle JSONL trace as an artifact.
        let plan = FaultPlan::new()
            .window_p(f_start, f_end, 0.8, FaultKind::SysfsBusy)
            .expect("valid window");
        let mut device = Device::new(dev_cfg.clone());
        device.install_faults(FaultInjector::new(plan, 0x5eed));
        let sink = Rc::new(RefCell::new(RingSink::new(4096)));
        device.install_obs_sink(sink.clone());
        let mut controller = ControllerBuilder::new(profile.clone())
            .target_gips(default.gips)
            .build();
        let report = coordinated_run(&mut device, &mut app, &mut controller, duration_ms);
        let sink = sink.borrow();
        std::fs::write(TRACE_FILE, sink.to_jsonl()).expect("write chaos trace");
        println!(
            "traced sysfs-busy: {:.4} GIPS, {:.1} J, {} cycle records ({} faulted), wrote {TRACE_FILE}",
            report.avg_gips,
            report.energy_j,
            sink.ring().len(),
            sink.metrics().total_faults(),
        );
    }
}
