//! Property-based tests of the workload machinery: work conservation,
//! determinism per seed, and bounded demand.
//!
//! Randomized inputs come from a seeded [`asgov_util::Rng`] so every
//! run exercises the same cases (the hermetic stand-in for proptest).

use asgov_soc::{Executed, Workload};
use asgov_util::Rng;
use asgov_workloads::{AppKind, AppSpec, BackgroundLoad, PhaseSpec, PhasedApp, TouchSpec};

fn spec(rate: f64, frame_ms: u64, jitter: f64, backlog: Option<f64>) -> AppSpec {
    AppSpec {
        name: "prop",
        kind: AppKind::Interactive,
        phases: vec![PhaseSpec {
            rate_gips: rate,
            frame_period_ms: frame_ms,
            rate_jitter: jitter,
            duration_ms: 1_000,
            ..PhaseSpec::default()
        }],
        touch: None,
        events: vec![],
        profile_freq_range: (0, 17),
        max_backlog_frames: backlog,
        test_duration_ms: 10_000,
    }
}

/// Work conservation: executed + backlog never exceeds what arrived
/// (within one frame of slack for the in-flight frame).
#[test]
fn work_conserved() {
    let mut rng = Rng::seed_from_u64(0xa0_0001);
    for case in 0..64 {
        let rate = rng.gen_range(0.01..2.0);
        let frame_ms = rng.gen_range_usize(1..100) as u64;
        let drain_gips = rng.gen_range(0.0..3.0);
        let seed = rng.gen_range_usize(0..100) as u64;
        let mut app = PhasedApp::new(
            spec(rate, frame_ms, 0.0, None),
            BackgroundLoad::none(seed),
            seed,
        );
        let horizon = 5_000u64;
        let mut executed = 0.0;
        for now in 0..horizon {
            let d = app.demand(now);
            let want = d.desired_gips.unwrap_or(f64::INFINITY);
            let run = want.min(drain_gips) * 1e-3; // Gi this tick
            app.deliver(
                now,
                Executed {
                    instructions: run * 1e9,
                    gips: run * 1e3,
                    busy_frac: 0.5,
                },
            );
            executed += run;
        }
        let arrived = rate * horizon as f64 * 1e-3 + rate * frame_ms as f64 * 1e-3;
        assert!(
            executed + app.backlog_gi() <= arrived + 1e-9,
            "case {case}: executed {executed} + backlog {} exceeds arrivals {arrived}",
            app.backlog_gi()
        );
    }
}

/// Frame dropping bounds the backlog.
#[test]
fn backlog_bounded_with_cap() {
    let mut rng = Rng::seed_from_u64(0xa0_0002);
    for case in 0..64 {
        let rate = rng.gen_range(0.1..3.0);
        let frames = rng.gen_range(1.0..8.0);
        let seed = rng.gen_range_usize(0..50) as u64;
        let mut app = PhasedApp::new(
            spec(rate, 17, 0.0, Some(frames)),
            BackgroundLoad::none(seed),
            seed,
        );
        // Never execute anything: backlog must still stay bounded.
        for now in 0..10_000u64 {
            app.demand(now);
            app.deliver(now, Executed::default());
            assert!(
                app.backlog_gi() <= rate * 0.017 * frames + rate * 0.017 + 1e-9,
                "case {case}: backlog {} blew past the cap",
                app.backlog_gi()
            );
        }
    }
}

/// Same seed ⇒ identical demand sequence; reset replays it.
#[test]
fn deterministic_and_replayable() {
    let run = |app: &mut PhasedApp| {
        let mut v = Vec::new();
        for now in 0..500u64 {
            let d = app.demand(now);
            v.push((d.desired_gips.unwrap_or(-1.0), app.backlog_gi()));
            app.deliver(now, Executed::default());
        }
        v
    };
    for seed in 0u64..200 {
        // The backlog records the touch draws as well as the jitter.
        let touchy = AppSpec {
            touch: Some(TouchSpec {
                rate_per_s: 4.0,
                work_gi: 0.01,
            }),
            ..spec(0.5, 17, 0.5, Some(3.0))
        };
        let mut a = PhasedApp::new(touchy, BackgroundLoad::baseline(seed), seed);
        let first = run(&mut a);
        a.reset();
        let replay = run(&mut a);
        assert_eq!(first, replay, "seed {seed}");
        // A clone behaves exactly like the original after reset (the
        // parallel profiling sweep relies on this).
        let mut b = a.clone();
        b.reset();
        assert_eq!(first, run(&mut b), "seed {seed} (clone)");
    }
}

/// Demand fields are always well-formed.
#[test]
fn demand_well_formed() {
    let mut rng = Rng::seed_from_u64(0xa0_0003);
    for case in 0..64 {
        let rate = rng.gen_range(0.0..5.0);
        let jitter = rng.gen_range(0.0..0.9);
        let seed = rng.gen_range_usize(0..50) as u64;
        let mut app = PhasedApp::new(
            spec(rate, 17, jitter, Some(4.0)),
            BackgroundLoad::heavy(seed),
            seed,
        );
        for now in 0..2_000u64 {
            let d = app.demand(now);
            assert!(d.ipc0 > 0.0, "case {case}");
            assert!(d.bytes_per_instr >= 0.0, "case {case}");
            assert!(d.active_cores > 0.0 && d.active_cores <= 4.0, "case {case}");
            assert!(d.desired_gips.unwrap_or(0.0) >= 0.0, "case {case}");
            assert!(d.extra_power_w >= 0.0, "case {case}");
            assert!(d.bg.cpu_util >= 0.0 && d.bg.cpu_util <= 0.9, "case {case}");
            app.deliver(now, Executed::default());
        }
    }
}
