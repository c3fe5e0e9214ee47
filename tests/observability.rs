//! Observability tests: the trace sink must be invisible when null
//! (bit-identical runs, mirroring the empty-`FaultPlan` contract in
//! `tests/chaos.rs`) and, when recording, must emit one schema-versioned
//! JSONL record per control cycle whose dwell split partitions the
//! control period exactly, and must receive the device's transitions
//! and power samples exactly as the device counts and integrates them.

use asgov::governors::AdrenoTz;
use asgov::obs::{parse_jsonl, CycleRecord, DeviceEvent, NullSink, RingSink, TraceSink, SCHEMA};
use asgov::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn quick_profile() -> ProfileOptions {
    ProfileOptions {
        runs_per_config: 1,
        run_ms: 8_000,
        freq_stride: 2,
        interpolate: true,
    }
}

/// Run the controller, optionally with a sink installed on the device;
/// returns the run's report and the device it ran on.
fn run_once(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    profile: &ProfileTable,
    target: f64,
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    duration_ms: u64,
) -> (asgov::soc::sim::RunReport, Device) {
    let mut controller = ControllerBuilder::new(profile.clone())
        .target_gips(target)
        .build();
    let mut gpu = AdrenoTz::default();
    let mut device = Device::new(dev_cfg.clone());
    if let Some(sink) = sink {
        device.install_obs_sink(sink);
    }
    app.reset();
    let report = sim::run(
        &mut device,
        app,
        &mut [&mut gpu, &mut controller],
        duration_ms,
    );
    (report, device)
}

#[test]
fn null_sink_is_bit_identical_to_no_sink() {
    // Tracing must be a pure observer: a run with a `NullSink` installed
    // matches a run with no sink at all, bit for bit.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::wechat(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut app, &quick_profile());
    let target = measure_default(&dev_cfg, &mut app, 1, 40_000).gips;

    let (bare, _) = run_once(&dev_cfg, &mut app, &profile, target, None, 40_000);
    let (nulled, _) = run_once(
        &dev_cfg,
        &mut app,
        &profile,
        target,
        Some(Rc::new(RefCell::new(NullSink))),
        40_000,
    );

    assert_eq!(bare.energy_j.to_bits(), nulled.energy_j.to_bits());
    assert_eq!(bare.avg_gips.to_bits(), nulled.avg_gips.to_bits());
    assert_eq!(bare.instructions.to_bits(), nulled.instructions.to_bits());
}

#[test]
fn ring_sink_does_not_change_the_run() {
    // Neither does the real recording sink: records are copies, never
    // feedback.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::spotify(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut app, &quick_profile());
    let target = measure_default(&dev_cfg, &mut app, 1, 40_000).gips;

    let (bare, _) = run_once(&dev_cfg, &mut app, &profile, target, None, 40_000);
    let sink = Rc::new(RefCell::new(RingSink::new(256)));
    let (traced, _) = run_once(
        &dev_cfg,
        &mut app,
        &profile,
        target,
        Some(sink.clone()),
        40_000,
    );

    assert_eq!(bare.energy_j.to_bits(), traced.energy_j.to_bits());
    assert_eq!(bare.avg_gips.to_bits(), traced.avg_gips.to_bits());
    assert!(sink.borrow().metrics().cycles > 0, "the sink must record");
}

#[test]
fn traced_run_emits_schema_versioned_jsonl_per_cycle() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::wechat(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut app, &quick_profile());
    let target = measure_default(&dev_cfg, &mut app, 1, 40_000).gips;

    let sink = Rc::new(RefCell::new(RingSink::new(256)));
    let duration_ms = 40_000u64;
    run_once(
        &dev_cfg,
        &mut app,
        &profile,
        target,
        Some(sink.clone()),
        duration_ms,
    );

    let sink = sink.borrow();
    let text = sink.to_jsonl();
    for line in text.lines() {
        assert!(
            line.contains(SCHEMA),
            "every line carries the schema tag: {line}"
        );
    }
    let records = parse_jsonl(&text).expect("trace round-trips");
    // One record per 2 s control cycle over the 40 s run (the first
    // cycle fires after one period).
    let period_ms = 2_000u64;
    let expected = duration_ms / period_ms;
    assert!(
        records.len() as u64 >= expected - 2 && records.len() as u64 <= expected + 1,
        "expected ~{expected} cycle records, got {}",
        records.len()
    );
    assert_eq!(sink.metrics().cycles, records.len() as u64);

    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.cycle, i as u64, "cycles are densely numbered");
        assert_eq!(
            rec.tau_lower_ms + rec.tau_upper_ms,
            period_ms,
            "dwell split partitions the control period exactly"
        );
        for tau in [rec.tau_lower_ms, rec.tau_upper_ms] {
            assert!(
                tau == 0 || tau >= 200,
                "non-zero dwells respect the 200 ms floor, got {tau}"
            );
        }
        assert!(rec.measured_gips.is_finite() && rec.target_gips.is_finite());
        assert!(rec.base_estimate > 0.0, "Kalman estimate stays positive");
    }
}

/// Records the device's stream: CPU and bus transitions and the power
/// monitor's spans, as the run's only recorder.
#[derive(Debug, Default)]
struct DeviceRecorder {
    /// `(first_w, rest_w, span_ms)` of every power span, in order.
    spans: Vec<(f64, f64, u64)>,
    /// CPU-frequency and bus-bandwidth events after the first span.
    cpu_events: u64,
    bus_events: u64,
}

impl TraceSink for DeviceRecorder {
    fn record_cycle(&mut self, _rec: &CycleRecord) {}

    fn device_event(&mut self, _t_ms: u64, event: DeviceEvent<'_>) {
        // The policies' `start` actuates before the run resets the
        // device statistics; the transitions the statistics count are
        // the ones after the run's first span.
        if self.spans.is_empty() {
            return;
        }
        match event {
            DeviceEvent::CpuFreq { .. } => self.cpu_events += 1,
            DeviceEvent::MemBw { .. } => self.bus_events += 1,
            _ => {}
        }
    }

    fn power_span(&mut self, _t_ms: u64, first_w: f64, rest_w: f64, span_ms: u64) {
        self.spans.push((first_w, rest_w, span_ms));
    }
}

#[test]
fn device_stream_reaches_the_sink_exactly() {
    // The sink sees every transition the device counts and every power
    // sample the monitor integrates, and observing them changes nothing.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::wechat(BackgroundLoad::baseline(1));
    let profile = profile_app(&dev_cfg, &mut app, &quick_profile());
    let target = measure_default(&dev_cfg, &mut app, 1, 40_000).gips;

    let (bare, _) = run_once(&dev_cfg, &mut app, &profile, target, None, 40_000);
    let sink = Rc::new(RefCell::new(DeviceRecorder::default()));
    let (traced, device) = run_once(
        &dev_cfg,
        &mut app,
        &profile,
        target,
        Some(sink.clone()),
        40_000,
    );
    assert_eq!(bare.energy_j.to_bits(), traced.energy_j.to_bits());
    assert_eq!(bare.avg_gips.to_bits(), traced.avg_gips.to_bits());
    assert_eq!(bare.instructions.to_bits(), traced.instructions.to_bits());

    let sink = sink.borrow();
    let stats = device.stats();
    assert!(stats.freq_transitions > 0 && stats.bw_transitions > 0);
    assert_eq!(sink.cpu_events, stats.freq_transitions);
    assert_eq!(sink.bus_events, stats.bw_transitions);

    // Integrate the spans the way the monitor does: the first sample,
    // then each later one, 1 ms apiece.
    let mut energy_j = 0.0;
    let mut elapsed_ms = 0;
    for &(first_w, rest_w, span_ms) in &sink.spans {
        energy_j += first_w * 1e-3;
        for _ in 1..span_ms {
            energy_j += rest_w * 1e-3;
        }
        elapsed_ms += span_ms;
    }
    assert_eq!(elapsed_ms, device.monitor().elapsed_ms());
    assert_eq!(energy_j.to_bits(), device.monitor().energy_j().to_bits());
}
