//! Fig. 2 — the feedback-controller block diagram, realized in code.
//!
//! This binary exists so every figure of the paper has a regenerating
//! binary: it prints the loop structure and demonstrates, on one live
//! control cycle, which component produced which quantity.

use asgov_core::{ControllerBuilder, EnergyOptimizer};
use asgov_governors::AdrenoTz;
use asgov_obs::RingSink;
use asgov_profiler::{measure_default, profile_app, ProfileOptions};
use asgov_soc::{event, Device, DeviceConfig, Workload as _};
use asgov_workloads::{apps, BackgroundLoad};
use std::cell::RefCell;
use std::rc::Rc;

const DIAGRAM: &str = r#"
            r (target GIPS)
                 │
                 ▼        e_n = r − y_n
           ┌──────────┐        ┌──────────────────────── K ───────────────────────┐
  y_n ────►│  Σ (−)   ├───────►│ regulator: s_n = s_{n−1} + e_{n−1}/b_{n−1}        │
   ▲       └──────────┘        │ (Kalman filter estimates b_n from y_n = s·b)      │
   │                           │ optimizer:  min uᵀℙ  s.t. 𝕊ᵀu = s_n·T, 𝟙ᵀu = T    │
   │                           └──────────────┬────────────────────────────────────┘
   │                                          │ u_n = (c_l, τ_l), (c_h, τ_h)
   │       ┌──────────┐        ┌──────────────▼───┐
   └───────┤ PMU/perf │◄───────┤ S: sysfs writes  ├──► plant (CPU freq, mem bw)
           └──────────┘        └──────────────────┘
"#;

fn main() {
    println!("=== Fig. 2: the online feedback controller ===");
    println!("{DIAGRAM}");

    // One live cycle, narrated.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let profile = profile_app(
        &dev_cfg,
        &mut app,
        &ProfileOptions {
            runs_per_config: 1,
            run_ms: 10_000,
            freq_stride: 2,
            interpolate: true,
        },
    );
    let target = measure_default(&dev_cfg, &mut app, 1, 20_000).gips;
    // The cycle records carry the dwell rounded to whole ms; the
    // unrounded u_n is the optimizer's plan for the recorded s_n over
    // the controller's 2 s period.
    let optimizer = EnergyOptimizer::new(&profile);
    let period_s = 2_000.0 * 1e-3;
    // The stock GPU governor runs beside the controller, as in every
    // other controller leg (the GPU is outside the controlled
    // configuration).
    let mut gpu_gov = AdrenoTz::default();
    let mut controller = ControllerBuilder::new(profile).target_gips(target).build();
    let mut device = Device::new(dev_cfg);
    let sink = Rc::new(RefCell::new(RingSink::new(16)));
    device.install_obs_sink(sink.clone());
    app.reset();
    event::run(
        &mut device,
        &mut app,
        &mut [&mut gpu_gov, &mut controller],
        10_000,
    );

    println!("one live run, r = {target:.4} GIPS; per-cycle quantities:");
    for rec in sink.borrow().records() {
        let plan = optimizer
            .solve(rec.required_speedup, period_s)
            .expect("the controller planned this speedup");
        println!(
            "  t={:>5} ms  y_n={:.4}  b_n={:.4}  s_n={:.3}  u_n=({} for {:.2}s, {} for {:.2}s)",
            rec.t_ms,
            rec.measured_gips,
            rec.base_estimate,
            rec.required_speedup,
            plan.lower,
            plan.tau_lower,
            plan.upper,
            2.0 - plan.tau_lower,
        );
    }
}
