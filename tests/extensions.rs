//! End-to-end tests of the related-work baselines (§VI) and control of
//! a workload that is not a `PhasedApp`.

use asgov::governors::{AdrenoTz, CpubwHwmon, Interactive, MarCse};
use asgov::prelude::*;
use asgov::soc::{ConstantWorkload, Demand, Executed};

#[test]
fn mar_cse_saves_energy_but_gives_no_performance_guarantee() {
    // The §VI contrast: the model-based governor can save energy, but
    // nothing bounds its performance loss — the paper's controller has
    // the explicit target instead.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let default = measure_default(&dev_cfg, &mut app, 1, 40_000);

    let mut mar = MarCse::default();
    let mut bw = CpubwHwmon::default();
    let mut gpu = AdrenoTz::default();
    let mut device = Device::new(dev_cfg);
    app.reset();
    let report = sim::run(
        &mut device,
        &mut app,
        &mut [&mut mar, &mut bw, &mut gpu],
        40_000,
    );
    assert!(
        report.energy_j < default.energy_j,
        "the critical-speed governor should save energy on a game"
    );
    // No assertion that performance is held — that is the point.
}

/// A workload that is not a `PhasedApp`: two constant rates that take
/// turns every `period_ms`, so the demand the controller must serve
/// changes mid-run.
struct Alternating {
    low: ConstantWorkload,
    high: ConstantWorkload,
    period_ms: u64,
}

impl Workload for Alternating {
    fn name(&self) -> &str {
        "Alternating"
    }

    fn demand(&mut self, now_ms: u64) -> Demand {
        if (now_ms / self.period_ms) % 2 == 1 {
            self.high.demand(now_ms)
        } else {
            self.low.demand(now_ms)
        }
    }

    fn deliver(&mut self, _now_ms: u64, _executed: Executed) {}

    fn reset(&mut self) {}

    fn next_event_ms(&self, now_ms: u64) -> u64 {
        (now_ms / self.period_ms + 1) * self.period_ms
    }
}

#[test]
fn controller_holds_target_on_a_switching_non_phased_workload() {
    // Hand-made profile -> controller on a workload whose rate switches
    // every 2 s: the controller needs only the table, not a PhasedApp.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = Alternating {
        low: ConstantWorkload::new("low", 0.5, 1.3, 0.6),
        high: ConstantWorkload::new("high", 2.0, 1.3, 0.6),
        period_ms: 2_000,
    };

    // Measure the default governors on the switching demand.
    let mut device = Device::new(dev_cfg.clone());
    let mut cpu = Interactive::default();
    let mut bw = CpubwHwmon::default();
    let default = sim::run(&mut device, &mut app, &mut [&mut cpu, &mut bw], 30_000);

    // Hand-profile at a handful of pinned points via the generic
    // device interface (the high-level profiler helpers take a
    // PhasedApp; the controller only needs the table).
    let mut entries = Vec::new();
    let mut base = 0.0;
    for (i, f) in [0usize, 6, 12, 17].into_iter().enumerate() {
        let mut d = Device::new(dev_cfg.clone());
        d.set_cpu_governor("userspace");
        d.set_bw_governor("userspace");
        d.set_cpu_freq(asgov::soc::FreqIndex(f));
        let r = sim::run(&mut d, &mut app, &mut [], 12_000);
        if i == 0 {
            base = r.avg_gips;
        }
        entries.push(asgov::profiler::ProfileEntry {
            config: asgov::profiler::Config::new(asgov::soc::FreqIndex(f), asgov::soc::BwIndex(0)),
            speedup: r.avg_gips / base,
            power_w: r.avg_power_w,
            measured: true,
        });
    }
    let table = ProfileTable {
        app: "Alternating".into(),
        base_gips: base,
        entries,
    };
    let issues = table.defects(&dev_cfg.table);
    assert!(issues.is_empty(), "{issues:?}");
    // The high rate outruns the lowest frequency, so the table has a
    // real speedup range to choose from.
    assert!(table.max_speedup() > 1.5, "{:?}", table.speedups());

    let mut controller = ControllerBuilder::new(table)
        .target_gips(default.avg_gips)
        .build();
    let mut device = Device::new(dev_cfg);
    let report = sim::run(&mut device, &mut app, &mut [&mut controller], 30_000);
    let perf = (report.avg_gips - default.avg_gips) / default.avg_gips;
    assert!(
        perf > -0.06,
        "controller holds the switching target, perf {:.1}%",
        perf * 100.0
    );
}
