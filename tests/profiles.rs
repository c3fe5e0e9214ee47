//! Profile lifecycle tests across crates: persistence round-trips
//! through the filesystem, profile/controller consistency and the
//! CPU-only re-profiling path.

use asgov::governors::AdrenoTz;
use asgov::prelude::*;
use asgov::profiler::ProfileTable;

fn quick_profile() -> ProfileOptions {
    ProfileOptions {
        runs_per_config: 1,
        run_ms: 6_000,
        freq_stride: 2,
        interpolate: true,
    }
}

#[test]
fn profile_round_trips_through_disk() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let table = profile_app(&dev_cfg, &mut app, &quick_profile());

    let path = std::env::temp_dir().join("asgov_profile_roundtrip.tsv");
    std::fs::write(&path, table.to_tsv()).expect("write profile");
    let text = std::fs::read_to_string(&path).expect("read profile");
    let back = ProfileTable::from_tsv(&text).expect("parse profile");
    std::fs::remove_file(&path).ok();

    assert_eq!(table, back, "profile must survive a disk round-trip");
}

#[test]
fn persisted_profile_drives_a_controller() {
    // Profile once, serialize, "ship" to another session, control there.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::spotify(BackgroundLoad::baseline(1));
    let tsv = profile_app(&dev_cfg, &mut app, &quick_profile()).to_tsv();

    let restored = ProfileTable::from_tsv(&tsv).unwrap();
    let mut controller = ControllerBuilder::new(restored).target_gips(0.11).build();
    let mut gpu = AdrenoTz::default();
    let mut device = Device::new(dev_cfg);
    app.reset();
    let report = sim::run(
        &mut device,
        &mut app,
        &mut [&mut gpu, &mut controller],
        20_000,
    );
    assert!(report.avg_gips > 0.08);
    assert_eq!(controller.actuation_failures(), 0);
}

#[test]
fn profile_speedups_bracket_base() {
    // The base configuration is in every coordinated profile that starts
    // at f1; its speedup anchors ~1.0 and all speedups stay positive.
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
    let table = profile_app(&dev_cfg, &mut app, &quick_profile());
    assert!(table.min_speedup() > 0.5);
    assert!(table.max_speedup() < 50.0);
    assert!(table.base_gips > 0.01);
    for e in &table.entries {
        assert!(e.power_w > 0.8, "device power below base at {}", e.config);
        assert!(e.power_w < 10.0, "implausible power at {}", e.config);
    }
}

#[test]
fn interpolated_rows_lie_between_measured_endpoints() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::wechat(BackgroundLoad::baseline(1));
    let table = profile_app(&dev_cfg, &mut app, &quick_profile());
    // Group rows by frequency; within each, power must be monotone in bw
    // between the measured endpoints (linear interpolation).
    let freqs: std::collections::BTreeSet<usize> =
        table.entries.iter().map(|e| e.config.freq.0).collect();
    for f in freqs {
        let rows: Vec<_> = table
            .entries
            .iter()
            .filter(|e| e.config.freq.0 == f)
            .collect();
        assert_eq!(rows.len(), 13, "one row per bandwidth");
        assert!(rows.first().unwrap().measured);
        assert!(rows.last().unwrap().measured);
        let lo = rows.first().unwrap().power_w;
        let hi = rows.last().unwrap().power_w;
        for r in &rows {
            assert!(
                r.power_w >= lo.min(hi) - 1e-9 && r.power_w <= lo.max(hi) + 1e-9,
                "interpolated power escapes its endpoints at {}",
                r.config
            );
        }
    }
}

#[test]
fn cpu_only_profile_controls_without_bw_actuation() {
    let dev_cfg = DeviceConfig::nexus6();
    let mut app = apps::wechat(BackgroundLoad::baseline(1));
    let table = profile_app_cpu_only(&dev_cfg, &mut app, &quick_profile());
    assert!(table.len() >= 2);

    let mut controller = ControllerBuilder::new(table)
        .target_gips(0.7)
        .mode(ControlMode::CpuOnly)
        .build();
    let mut bw = CpubwHwmon::default();
    let mut gpu = AdrenoTz::default();
    let mut device = Device::new(dev_cfg);
    app.reset();
    sim::run(
        &mut device,
        &mut app,
        &mut [&mut bw, &mut gpu, &mut controller],
        20_000,
    );
    assert_eq!(device.bw_governor(), "cpubw_hwmon");
    assert_eq!(controller.actuation_failures(), 0);
}
