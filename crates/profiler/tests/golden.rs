//! Golden digests of every profiler output shape.
//!
//! Each digest folds the `to_bits` of every float (and every index and
//! flag) the profiler returns, so a refactor of the measurement loop
//! that moves a single ulp anywhere fails here. The committed
//! `results/*.txt` pin only the two-axis, CPU-only and MAR-CSE shapes at
//! one option set; these pins also cover the GPU profile, the
//! non-interpolated table, the threaded sweep and a two-run baseline.
//!
//! On a deliberate model change, rerun with `--nocapture` and copy the
//! printed digests.

use asgov_profiler::{
    fit_mar_cse, measure_default, profile_app, profile_app_cpu_only, profile_app_serial,
    profile_app_threads, profile_app_with_gpu, ProfileOptions, ProfileTable,
};
use asgov_soc::DeviceConfig;
use asgov_workloads::{apps, BackgroundLoad, PhasedApp};

/// FNV-1a over 64-bit words.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn table_digest(t: &ProfileTable) -> u64 {
    let mut d = Digest::default();
    d.word(t.app.len() as u64);
    d.f(t.base_gips);
    d.word(t.entries.len() as u64);
    for e in &t.entries {
        d.word(e.config.freq.0 as u64);
        d.word(e.config.bw.0 as u64);
        d.word(e.config.gpu.map_or(0, |g| g.0 as u64 + 1));
        d.f(e.speedup);
        d.f(e.power_w);
        d.word(u64::from(e.measured));
    }
    d.0
}

fn opts(interpolate: bool) -> ProfileOptions {
    ProfileOptions {
        runs_per_config: 2,
        run_ms: 2_000,
        freq_stride: 4,
        interpolate,
    }
}

/// The two test apps: VidCon (batch, profiled from f7) and AngryBirds
/// (rate-based, profiled from f1, so its base point is also a corner).
fn test_apps() -> [PhasedApp; 2] {
    [
        apps::vidcon(BackgroundLoad::baseline(1)),
        apps::angrybirds(BackgroundLoad::baseline(1)),
    ]
}

fn digests() -> Vec<(String, u64)> {
    let dev = DeviceConfig::nexus6();
    let mut out = Vec::new();
    for app in test_apps() {
        let name = app.spec().name;
        for interpolate in [true, false] {
            let o = opts(interpolate);
            out.push((
                format!("{name} profile_app interpolate={interpolate}"),
                table_digest(&profile_app(&dev, &mut app.clone(), &o)),
            ));
            out.push((
                format!("{name} profile_app_serial interpolate={interpolate}"),
                table_digest(&profile_app_serial(&dev, &mut app.clone(), &o)),
            ));
            out.push((
                format!("{name} profile_app_threads(2) interpolate={interpolate}"),
                table_digest(&profile_app_threads(&dev, &mut app.clone(), &o, 2)),
            ));
        }
        out.push((
            format!("{name} profile_app_with_gpu"),
            table_digest(&profile_app_with_gpu(&dev, &mut app.clone(), &opts(true))),
        ));
        out.push((
            format!("{name} profile_app_cpu_only"),
            table_digest(&profile_app_cpu_only(&dev, &mut app.clone(), &opts(true))),
        ));
        let m = measure_default(&dev, &mut app.clone(), 2, 2_000);
        let mut d = Digest::default();
        for x in [m.gips, m.power_w, m.duration_ms, m.energy_j] {
            d.f(x);
        }
        for r in &m.reports {
            d.word(r.duration_ms);
            for x in [r.energy_j, r.avg_power_w, r.instructions, r.avg_gips] {
                d.f(x);
            }
        }
        out.push((format!("{name} measure_default(2 runs)"), d.0));
    }
    // The model's Debug form prints every float in its shortest
    // round-trip representation, so it is bit-exact.
    let model = fit_mar_cse(&DeviceConfig::nexus6(), &mut test_apps(), &opts(false));
    let mut d = Digest::default();
    for b in format!("{model:?}").bytes() {
        d.word(u64::from(b));
    }
    out.push(("fit_mar_cse".to_string(), d.0));
    out
}

/// Captured before the measurement loop was unified.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("VidCon profile_app interpolate=true", 0xb938784e84ffc919),
    ("VidCon profile_app_serial interpolate=true", 0xb938784e84ffc919),
    ("VidCon profile_app_threads(2) interpolate=true", 0xb938784e84ffc919),
    ("VidCon profile_app interpolate=false", 0x3b5dfe5c37e944e9),
    ("VidCon profile_app_serial interpolate=false", 0x3b5dfe5c37e944e9),
    ("VidCon profile_app_threads(2) interpolate=false", 0x3b5dfe5c37e944e9),
    ("VidCon profile_app_with_gpu", 0x721a96dd402635af),
    ("VidCon profile_app_cpu_only", 0xc4cc4d6c95cbc283),
    ("VidCon measure_default(2 runs)", 0x97a04dcca171aef7),
    ("AngryBirds profile_app interpolate=true", 0x4d88a118de7eaccb),
    ("AngryBirds profile_app_serial interpolate=true", 0x4d88a118de7eaccb),
    ("AngryBirds profile_app_threads(2) interpolate=true", 0x4d88a118de7eaccb),
    ("AngryBirds profile_app interpolate=false", 0xbd2a43f42ea6a92b),
    ("AngryBirds profile_app_serial interpolate=false", 0xbd2a43f42ea6a92b),
    ("AngryBirds profile_app_threads(2) interpolate=false", 0xbd2a43f42ea6a92b),
    ("AngryBirds profile_app_with_gpu", 0x57a175fab9261c10),
    ("AngryBirds profile_app_cpu_only", 0x878da922c77e4153),
    ("AngryBirds measure_default(2 runs)", 0xfa0121ef2c39d437),
    ("fit_mar_cse", 0xaa4c8aa7573125f4),
];

#[test]
fn profiler_outputs_match_golden_digests() {
    let got = digests();
    for (name, digest) in &got {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, GOLDEN);
}
