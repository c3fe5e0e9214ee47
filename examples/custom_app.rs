//! Bring your own application: define a workload model with the
//! `AppSpec` builder-style types, profile it, and control it.
//!
//! The scenario: a turn-based puzzle game — bursty render work each
//! move, near-idle thinking time, a hint animation every 30 s.
//!
//! Run with: `cargo run --release --example custom_app`

use asgov::prelude::*;

fn puzzle_game(background: BackgroundLoad) -> PhasedApp {
    let spec = AppSpec {
        name: "PuzzleGame",
        kind: AppKind::Interactive,
        phases: vec![
            PhaseSpec {
                name: "moving",
                duration_ms: 1_200,
                rate_gips: 0.25,
                frame_period_ms: 17,
                rate_jitter: 0.3,
                ipc0: 1.1,
                bytes_per_instr: 0.9,
                gips_cap: None,
                active_cores: 0.6,
                extra_power_w: 0.05,
                cap_busy: false,
                extra_traffic_mbps: 0.0,
                gpu_work_ghz: 0.1,
            },
            PhaseSpec {
                name: "thinking",
                duration_ms: 900,
                rate_gips: 0.06,
                frame_period_ms: 17,
                rate_jitter: 0.1,
                ipc0: 1.1,
                bytes_per_instr: 0.9,
                gips_cap: None,
                active_cores: 0.6,
                extra_power_w: 0.05,
                cap_busy: false,
                extra_traffic_mbps: 0.0,
                gpu_work_ghz: 0.02,
            },
        ],
        touch: Some(TouchSpec {
            rate_per_s: 0.7,
            work_gi: 0.004,
        }),
        events: vec![EventSpec {
            name: "hint-animation",
            period_ms: 30_000,
            duration_ms: 2_000,
            power_w: 0.2,
            work_gi: 0.08,
            extra_traffic_mbps: 50.0,
        }],
        profile_freq_range: (0, 9),
        max_backlog_frames: Some(3.0),
        test_duration_ms: 90_000,
    };
    PhasedApp::new(spec, background, 0x9a3e)
}

fn main() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = puzzle_game(BackgroundLoad::baseline(7));

    let profile = profile_app(
        &dev_cfg,
        &mut app,
        &ProfileOptions {
            runs_per_config: 1,
            run_ms: 15_000,
            freq_stride: 2,
            interpolate: true,
        },
    );
    println!("{}", profile.render(&dev_cfg.table));

    let baseline = measure_default(&dev_cfg, &mut app, 1, 90_000);
    let mut controller = ControllerBuilder::new(profile)
        .target_gips(baseline.gips)
        .build();
    let mut device = Device::new(dev_cfg);
    app.reset();
    let report = with_controller_stack(ControlMode::Coordinated, &mut controller, |policies| {
        sim::run(&mut device, &mut app, policies, 90_000)
    });

    println!(
        "default: {:.3} GIPS / {:.1} J   controller: {:.3} GIPS / {:.1} J   ({:.1}% saved)",
        baseline.gips,
        baseline.energy_j,
        report.avg_gips,
        report.energy_j,
        (baseline.energy_j - report.energy_j) / baseline.energy_j * 100.0
    );
}
