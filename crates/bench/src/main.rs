//! Benchmark runner: three suites (`optimizer`, `controller`,
//! `simulator`), each written as `BENCH_<suite>.json` in the working
//! directory. `--quick` shrinks the sampling plan for CI smoke runs.

use asgov_bench::{bench, suite_report, synthetic_profile, synthetic_table, BenchConfig};
use asgov_control::{AdaptiveIntegrator, KalmanFilter};
use asgov_core::persist::crc32;
use asgov_core::{
    with_controller_stack, ControlMode, ControllerBuilder, EnergyController, EnergyOptimizer,
    Restartable,
};
use asgov_governors::{AdrenoTz, CpubwHwmon};
use asgov_linprog::{two_point, HullSolver};
use asgov_obs::{CycleRecord, RingSink, TraceSink as _};
use asgov_profiler::{measure_default, profile_app_serial, ProfileOptions};
use asgov_soc::{event, sim, ConstantWorkload, Device, DeviceConfig, Policy};
use asgov_util::{Json, Rng};
use asgov_workloads::{apps, BackgroundLoad};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Alternating untraced/traced pairs the tracing budget is judged on
/// (odd, so the median is one pair's value).
const OVERHEAD_PAIRS: usize = 41;

/// Untraced/traced run pairs timed, interleaved, per overhead pair, and
/// the simulated length of each run, ms: 120 s per side and pair, about
/// 12 ms of host time. Pairs of single 20 s runs (2 ms) read single-pair
/// overheads from −34 % to +47 % on a loaded 2-vCPU VM.
const OVERHEAD_LEGS: usize = 6;
const OVERHEAD_SIM_MS: u64 = 20_000;

/// A deterministic sweep of solve targets spanning the synthetic
/// profile's speedup range (1.0 ..= 3.2), plus out-of-range extremes.
fn targets(count: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(0xbe9c);
    (0..count).map(|_| rng.gen_range(0.8..3.4)).collect()
}

fn optimizer_suite(quick: bool) -> Json {
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::full()
    };
    let sweep = targets(256);
    let mut results = Vec::new();
    let mut hull_median_234 = f64::NAN;
    let mut two_point_median_234 = f64::NAN;

    for &n in &[18usize, 64, 234] {
        let (s, p) = synthetic_profile(n);
        let hull = HullSolver::new(&s, &p).expect("finite synthetic profile");

        results.push(bench(&format!("hull_build/{n}"), &cfg, || {
            black_box(HullSolver::new(black_box(&s), black_box(&p)));
        }));

        let mut k = 0usize;
        let r = bench(&format!("hull_solve/{n}"), &cfg, || {
            let t = sweep[k % sweep.len()];
            k += 1;
            black_box(hull.solve(black_box(t), 2.0));
        });
        if n == 234 {
            hull_median_234 = r.median_ns;
        }
        results.push(r);

        let mut k = 0usize;
        let r = bench(&format!("two_point/{n}"), &cfg, || {
            let t = sweep[k % sweep.len()];
            k += 1;
            black_box(two_point::optimize(black_box(&s), black_box(&p), t, 2.0));
        });
        if n == 234 {
            two_point_median_234 = r.median_ns;
        }
        results.push(r);
    }

    // Energy parity of the two solvers at the full table size: the
    // hull is an exact reformulation, so over a dense target sweep the
    // cheapest-schedule energies must agree to 1e-9 J.
    let (s, p) = synthetic_profile(234);
    let hull = HullSolver::new(&s, &p).expect("finite synthetic profile");
    let mut max_diff = 0.0f64;
    let mut disagreements = 0usize;
    let parity_sweep = targets(1000);
    for &t in &parity_sweep {
        match (hull.solve(t, 2.0), two_point::optimize(&s, &p, t, 2.0)) {
            (Some(a), Some(b)) => max_diff = max_diff.max((a.energy_j - b.energy_j).abs()),
            (None, None) => {}
            _ => disagreements += 1,
        }
    }

    let mut derived = Json::object();
    derived.set(
        "hull_speedup_at_234",
        two_point_median_234 / hull_median_234,
    );
    derived.set("hull_median_ns_at_234", hull_median_234);
    derived.set("two_point_median_ns_at_234", two_point_median_234);
    derived.set("energy_parity_targets", parity_sweep.len());
    derived.set("max_abs_energy_diff_at_234", max_diff);
    derived.set("solver_disagreements", disagreements);
    suite_report("optimizer", quick, &results, derived)
}

fn controller_suite(quick: bool) -> Json {
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::full()
    };
    let sweep = targets(256);
    let mut results = Vec::new();

    let mut kalman = KalmanFilter::new(0.2, 1.0, 1e-4, 1e-2);
    let mut k = 0usize;
    results.push(bench(
        "kalman_update",
        &cfg.with_inner(cfg.inner * 50),
        || {
            let y = sweep[k % sweep.len()];
            k += 1;
            black_box(kalman.update(black_box(y), 1.0));
        },
    ));

    let mut reg = AdaptiveIntegrator::new(1.0, 1.0, 3.2);
    let mut k = 0usize;
    results.push(bench(
        "regulator_step",
        &cfg.with_inner(cfg.inner * 50),
        || {
            let m = sweep[k % sweep.len()];
            k += 1;
            black_box(reg.step(2.0, black_box(m), 0.2));
        },
    ));

    // The optimizer exactly as the controller invokes it per cycle.
    let table = synthetic_table();
    let opt = EnergyOptimizer::new(&table);
    let mut k = 0usize;
    results.push(bench("optimizer_solve/234", &cfg, || {
        let t = sweep[k % sweep.len()];
        k += 1;
        black_box(opt.solve(black_box(t), 2.0));
    }));

    // A full closed-loop run: device + app + controller stack for
    // `sim_ms` simulated milliseconds (control cycle = 2 s).
    let sim_ms: u64 = if quick { 4_000 } else { 20_000 };
    let run_cfg = BenchConfig {
        warmup_iters: 1,
        samples: if quick { 5 } else { 15 },
        inner: 1,
    };
    // One closed-loop run, with or without the observability sink
    // installed; the traced run's delta is the tracing overhead budget
    // (acceptance: < 5 % per cycle).
    let closed_loop = |traced: bool, sim_ms: u64| {
        let mut device = Device::new(DeviceConfig::nexus6());
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let mut ctrl: EnergyController = ControllerBuilder::new(table.clone())
            .target_gips(0.5)
            .seed(0xc0de)
            .build();
        let sink = traced.then(|| Rc::new(RefCell::new(RingSink::new(4096))));
        if let Some(sink) = &sink {
            device.install_obs_sink(sink.clone());
        }
        black_box(with_controller_stack(
            ControlMode::Coordinated,
            &mut ctrl,
            |policies| sim::run(&mut device, &mut app, policies, sim_ms),
        ));
        if let Some(sink) = sink {
            black_box(sink.borrow().ring().len());
        }
    };
    let r = bench(&format!("controller_run/{sim_ms}ms"), &run_cfg, || {
        closed_loop(false, sim_ms);
    });
    let ns_per_sim_ms = r.median_ns / sim_ms as f64;
    let untraced_median_ns = r.median_ns;
    results.push(r);
    let r = bench(
        &format!("controller_run_traced/{sim_ms}ms"),
        &run_cfg,
        || closed_loop(true, sim_ms),
    );
    let traced_median_ns = r.median_ns;
    results.push(r);

    // The budget is judged on back-to-back pairs, not on the two rows
    // above: rows timed seconds apart see different machine load, and
    // the ratio of their medians swung by tens of percent between
    // invocations. Each pair times `OVERHEAD_LEGS` untraced and as many
    // traced runs, interleaved (the order flips from leg to leg and from
    // pair to pair), so load that drifts over milliseconds falls on both
    // sides; the verdict is the median pair.
    let time_ns = |traced: bool| {
        let t0 = Instant::now();
        closed_loop(traced, OVERHEAD_SIM_MS);
        t0.elapsed().as_nanos() as f64
    };
    let mut pair_pct: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|i| {
            let (mut untraced, mut traced) = (0.0, 0.0);
            for k in 0..OVERHEAD_LEGS {
                if (i + k) % 2 == 0 {
                    untraced += time_ns(false);
                    traced += time_ns(true);
                } else {
                    traced += time_ns(true);
                    untraced += time_ns(false);
                }
            }
            (traced - untraced) / untraced * 100.0
        })
        .collect();
    let pairs_json = Json::Arr(pair_pct.iter().map(|&p| Json::from(p)).collect());
    pair_pct.sort_by(f64::total_cmp);
    let trace_overhead_pct = pair_pct[OVERHEAD_PAIRS / 2];

    // The sink's record path in isolation.
    let mut sink = RingSink::new(4096);
    let rec = CycleRecord {
        cycle: 7,
        t_ms: 16_000,
        innovation: -0.02,
        solve_ns: 1_800,
        actuation_ns: 9_400,
        ..CycleRecord::default()
    };
    results.push(bench(
        "trace_record_cycle",
        &cfg.with_inner(cfg.inner * 50),
        || {
            sink.record_cycle(black_box(&rec));
        },
    ));

    // The snapshot codec every checkpoint and migration goes through:
    // the frame checksum alone, then a warmed controller's full
    // snapshot -> restore round trip.
    const CRC_BYTES: usize = 64 << 10;
    let mut rng = Rng::seed_from_u64(0xc3c3);
    let payload: Vec<u8> = (0..CRC_BYTES).map(|_| rng.next_u64() as u8).collect();
    let r = bench("persist_crc32/64KiB", &cfg, || {
        black_box(crc32(black_box(&payload)));
    });
    let crc32_ns_per_byte = r.median_ns / CRC_BYTES as f64;
    results.push(r);

    let warm_ms: u64 = 4_000;
    let mut ctrl: EnergyController = ControllerBuilder::new(table.clone())
        .target_gips(0.5)
        .seed(0xc0de)
        .build();
    {
        let mut device = Device::new(DeviceConfig::nexus6());
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        with_controller_stack(ControlMode::Coordinated, &mut ctrl, |policies| {
            sim::run(&mut device, &mut app, policies, warm_ms)
        });
    }
    let snapshot_len = ctrl.snapshot_bytes(warm_ms).map_or(0, |b| b.len());
    results.push(bench("controller_snapshot_roundtrip", &cfg, || {
        let bytes = ctrl.snapshot_bytes(black_box(warm_ms));
        let restored = bytes.map(|b| ctrl.restore_bytes(&b, warm_ms));
        assert!(matches!(restored, Ok(Ok(()))), "snapshot round trip");
    }));

    let mut derived = Json::object();
    derived.set("controller_run_ns_per_sim_ms", ns_per_sim_ms);
    derived.set("persist_crc32_ns_per_byte", crc32_ns_per_byte);
    derived.set("controller_snapshot_bytes", snapshot_len);
    // Signed: a traced run faster than the untraced one reads as a
    // negative overhead, which shows how large the run-to-run noise is.
    derived.set("trace_overhead_pct", trace_overhead_pct);
    derived.set("trace_overhead_pair_pct", pairs_json);
    derived.set("controller_run_traced_median_ns", traced_median_ns);
    derived.set("controller_run_untraced_median_ns", untraced_median_ns);
    suite_report("controller", quick, &results, derived)
}

fn simulator_suite(quick: bool) -> Json {
    let sim_ms: u64 = if quick { 4_000 } else { 20_000 };
    let run_cfg = BenchConfig {
        warmup_iters: 1,
        samples: if quick { 5 } else { 15 },
        inner: 1,
    };
    let mut results = Vec::new();

    let r = bench(&format!("sim_bare/{sim_ms}ms"), &run_cfg, || {
        let mut device = Device::new(DeviceConfig::nexus6());
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        black_box(sim::run(&mut device, &mut app, &mut [], sim_ms));
    });
    let bare_ns_per_tick = r.median_ns / sim_ms as f64;
    results.push(r);

    let r = bench(&format!("sim_governors/{sim_ms}ms"), &run_cfg, || {
        let mut device = Device::new(DeviceConfig::nexus6());
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let mut bw = CpubwHwmon::default();
        let mut gpu = AdrenoTz::default();
        let mut policies: [&mut dyn Policy; 2] = [&mut bw, &mut gpu];
        black_box(sim::run(&mut device, &mut app, &mut policies, sim_ms));
    });
    let gov_ns_per_tick = r.median_ns / sim_ms as f64;
    results.push(r);

    // Span-friendly rows: a steady scenario (constant demand, no
    // monitor noise) the engine coalesces into long spans. The spotify
    // rows above are per-millisecond by construction (the app and
    // background load draw randomness every millisecond) and cannot
    // coalesce without changing results — see DESIGN.md §9.
    let steady_cfg = || {
        let mut c = DeviceConfig::nexus6();
        c.monitor_noise_w = 0.0;
        c
    };
    let steady_app = || ConstantWorkload::new("steady", 0.5, 1.5, 1.0);

    let events = Cell::new(0u64);
    let r = bench(&format!("sim_event_bare/{sim_ms}ms"), &run_cfg, || {
        let mut device = Device::new(steady_cfg());
        let mut app = steady_app();
        let (report, engine) = event::run_counted(&mut device, &mut app, &mut [], sim_ms);
        events.set(engine.events);
        black_box(report);
    });
    let event_bare_ns = r.median_ns;
    let bare_events = events.get();
    results.push(r);

    let r = bench(&format!("sim_event_governors/{sim_ms}ms"), &run_cfg, || {
        let mut device = Device::new(steady_cfg());
        let mut app = steady_app();
        let mut bw = CpubwHwmon::default();
        let mut gpu = AdrenoTz::default();
        let mut policies: [&mut dyn Policy; 2] = [&mut bw, &mut gpu];
        let (report, engine) = event::run_counted(&mut device, &mut app, &mut policies, sim_ms);
        events.set(engine.events);
        black_box(report);
    });
    let event_gov_ns = r.median_ns;
    let gov_events = events.get();
    results.push(r);

    // The profiler's repeated runs: one paper-grade sweep (three runs
    // per configuration), and the default-governor baseline at one and
    // three runs, whose ratio is the cost of the extra runs.
    let r = bench("profile_sweep/Spotify", &run_cfg, || {
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        black_box(profile_app_serial(
            &DeviceConfig::nexus6(),
            &mut app,
            &ProfileOptions::default(),
        ));
    });
    results.push(r);
    let mut default_ns = [0.0; 2];
    for (ns, runs) in default_ns.iter_mut().zip([1, 3]) {
        let r = bench(
            &format!("measure_default/{runs}x{sim_ms}ms"),
            &run_cfg,
            || {
                let mut app = apps::spotify(BackgroundLoad::baseline(1));
                black_box(measure_default(
                    &DeviceConfig::nexus6(),
                    &mut app,
                    runs,
                    sim_ms,
                ));
            },
        );
        *ns = r.median_ns;
        results.push(r);
    }

    let mut derived = Json::object();
    derived.set("repeat_run_cost_ratio", default_ns[1] / default_ns[0]);
    derived.set("bare_ns_per_tick", bare_ns_per_tick);
    derived.set("governors_ns_per_tick", gov_ns_per_tick);
    derived.set("bare_ticks_per_sec", 1e9 / bare_ns_per_tick);
    derived.set("event_bare_events", bare_events as f64);
    derived.set("event_governors_events", gov_events as f64);
    derived.set("events_per_sec", gov_events as f64 / (event_gov_ns * 1e-9));
    derived.set("sim_ms_per_wall_ms", sim_ms as f64 / (event_bare_ns * 1e-6));
    suite_report("simulator", quick, &results, derived)
}

fn main() {
    let quick = asgov_util::args::parse_env("", |f| f.flag("--quick"));
    let mut overhead = (f64::NAN, f64::NAN, f64::NAN);
    for (suite, report) in [
        ("optimizer", optimizer_suite(quick)),
        ("controller", controller_suite(quick)),
        ("simulator", simulator_suite(quick)),
    ] {
        let file = format!("BENCH_{suite}.json");
        std::fs::write(&file, report.to_pretty()).expect("write benchmark report");
        println!("wrote {file}");
        if suite == "optimizer" {
            let speedup = derived(&report, "hull_speedup_at_234");
            println!("  hull vs two-point at N=234: {speedup:.1}x");
        }
        if suite == "controller" {
            overhead = (
                derived(&report, "trace_overhead_pct"),
                derived(&report, "controller_run_untraced_median_ns"),
                derived(&report, "controller_run_traced_median_ns"),
            );
        }
    }
    // Judged after every report is written, so a failing run still
    // leaves its numbers behind. Fail loudly only on a genuine budget
    // violation (§V-A1 acceptance: tracing must stay under 5 % of the
    // untraced loop).
    let (trace_overhead_pct, untraced_median_ns, traced_median_ns) = overhead;
    assert!(
        trace_overhead_pct <= 5.0,
        "tracing overhead {trace_overhead_pct:.2}% exceeds the 5% budget \
         (untraced {untraced_median_ns:.0} ns, traced {traced_median_ns:.0} ns)"
    );
}

/// A number from a suite report's `derived` object (NaN when absent).
fn derived(report: &Json, key: &str) -> f64 {
    report
        .get("derived")
        .and_then(|d| d.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}
