//! The offline profiling procedure (paper §III-A).
//!
//! Every profiled point is one [`run_pinned`] call: a fresh device with
//! `perf`'s overhead on, the pinned axes under `userspace` and the rest
//! under their stock governors, and one replica power monitor per
//! repeated run. [`sweep`] measures a table's corners across the
//! frequency ladder, and each public profiler is a [`Shape`]: a corner
//! list plus a row layout.

use crate::table::{Config, ProfileEntry, ProfileTable};
use asgov_governors::{AdrenoTz, CpubwHwmon, Interactive};
use asgov_soc::gpu::ADRENO420_FREQS_GHZ;
use asgov_soc::sim::RunReport;
use asgov_soc::Workload;
use asgov_soc::{sim, BwIndex, Device, DeviceConfig, FreqIndex, GpuFreqIndex, PerfReader, Policy};
use asgov_util::par;
use asgov_workloads::PhasedApp;

/// Knobs of the profiling procedure. The defaults mirror the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOptions {
    /// Runs averaged per configuration (paper: 3). Each run has its own
    /// seed, derived from `(DeviceConfig::seed, run)`, and the runs share
    /// one simulation with a replica power monitor per extra run, so an
    /// extra run costs one noise stream, not one simulation.
    pub runs_per_config: usize,
    /// Measurement window per run for rate-based applications, ms.
    /// Batch applications run to completion instead.
    pub run_ms: u64,
    /// Profile every `freq_stride`-th frequency (paper: alternate
    /// frequencies → 2).
    pub freq_stride: usize,
    /// Fill the intermediate bandwidths (and GPU frequencies) of each
    /// profiled frequency by linear interpolation between the measured
    /// lowest and highest settings (paper behaviour). When `false` the
    /// table keeps only measured points.
    pub interpolate: bool,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        Self {
            runs_per_config: 3,
            run_ms: 30_000,
            freq_stride: 2,
            interpolate: true,
        }
    }
}

/// The operating point a profiling run pins. An axis left `None` runs
/// under its stock governor: `interactive`, `cpubw_hwmon` or
/// `msm-adreno-tz`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Pin {
    freq: Option<FreqIndex>,
    bw: Option<BwIndex>,
    gpu: Option<GpuFreqIndex>,
}

/// How a profiled point's runs are simulated: [`run_pinned`] in
/// production, the one-device-per-seed oracle in tests.
type RunPinned =
    fn(&DeviceConfig, &mut PhasedApp, Pin, u64, &[u64], u64) -> (Vec<RunReport>, Device);

/// The seeds of `runs` repeated runs: run `i` is seeded
/// `dev_cfg.seed ^ (i + salt)`. Returns run 0's seed and the others'.
pub(crate) fn run_seeds(dev_cfg: &DeviceConfig, runs: usize, salt: u64) -> (u64, Vec<u64>) {
    let seed = |run: u64| dev_cfg.seed ^ (run + salt);
    (seed(0), (1..runs as u64).map(seed).collect())
}

/// Run `app` for at most `run_ms` with `pin` applied, once per seed:
/// `seed`, then each of `extra`. Returns one report per seed, in that
/// order, and the device (for its PMU counters).
///
/// The runs share one simulation. The device is seeded `seed` and
/// carries one replica monitor per `extra` seed; the seed reaches only
/// the monitor's noise and nothing reads the monitor during a run (see
/// [`Device::add_replica_monitor`]), so every seed's run follows the
/// same trajectory. An extra seed's report is the simulated one as its
/// replica measured it, bit for bit the report of a fresh device seeded
/// like it. An extra seed costs one noise stream, not one simulation.
pub(crate) fn run_pinned(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    pin: Pin,
    seed: u64,
    extra: &[u64],
    run_ms: u64,
) -> (Vec<RunReport>, Device) {
    let mut device = Device::new(dev_cfg.clone().with_seed(seed));
    for &seed in extra {
        device.add_replica_monitor(seed);
    }
    PerfReader::apply_paper_overhead(&mut device);
    if pin.freq.is_some() {
        device.set_cpu_governor("userspace");
    }
    if pin.bw.is_some() {
        device.set_bw_governor("userspace");
    }
    if pin.gpu.is_some() {
        device.set_gpu_governor("userspace");
    }
    if let Some(freq) = pin.freq {
        device.set_cpu_freq(freq);
    }
    if let Some(bw) = pin.bw {
        device.set_mem_bw(bw);
    }
    if let Some(gpu) = pin.gpu {
        device.set_gpu_freq(gpu);
    }
    let mut cpu = Interactive::default();
    let mut bw = CpubwHwmon::default();
    let mut gpu = AdrenoTz::default();
    let stock: [(bool, &mut dyn Policy); 3] = [
        (pin.freq.is_none(), &mut cpu),
        (pin.bw.is_none(), &mut bw),
        (pin.gpu.is_none(), &mut gpu),
    ];
    let mut policies: Vec<&mut dyn Policy> = stock
        .into_iter()
        .filter_map(|(stock, policy)| stock.then_some(policy))
        .collect();
    app.reset();
    let report = sim::run(&mut device, app, &mut policies, run_ms);
    let replicas = device.replica_monitors().iter();
    let mut reports: Vec<RunReport> = replicas.map(|m| report.measured_by(m)).collect();
    reports.insert(0, report);
    (reports, device)
}

/// Average (GIPS, W) at `pin` over `opts.runs_per_config` runs seeded
/// `dev_cfg.seed ^ (run + salt)`, simulated by `run`.
fn measure(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
    pin: Pin,
    salt: u64,
    run: RunPinned,
) -> (f64, f64) {
    let (seed, extra) = run_seeds(dev_cfg, opts.runs_per_config, salt);
    let (reports, _) = run(dev_cfg, app, pin, seed, &extra, opts.run_ms);
    let (mut gips, mut power) = (0.0, 0.0);
    for report in &reports {
        gips += report.avg_gips;
        power += report.avg_power_w;
    }
    let runs = opts.runs_per_config as f64;
    (gips / runs, power / runs)
}

/// A table's measured corners: per profiled frequency, one (GIPS, W)
/// pair per corner, in corner order.
struct Sweep {
    app: String,
    base_gips: f64,
    freqs: Vec<FreqIndex>,
    corners: Vec<Vec<(f64, f64)>>,
}

/// One row of a table axis: its setting, its position `t` between the
/// axis's low and high corner, and, when the row was measured, the
/// offset its corner adds to the sweep's corner index.
type Rung<T> = (T, f64, Option<usize>);

/// The rungs of an axis measured at its first and last setting, whose
/// physical values (MB/s, GHz) are `values`. `hi` is the last setting's
/// corner offset.
fn axis<T>(values: &[f64], hi: usize, setting: impl Fn(usize) -> T) -> Vec<Rung<T>> {
    // asgov-analyze: allow(hot-path-transitive): values is a DVFS table's bandwidth ladder or the GPU ladder, never empty
    let (lo, last) = (values[0], values.len() - 1);
    let span = values[last] - lo;
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let corner = match i {
                0 => Some(0),
                _ if i == last => Some(hi),
                _ => None,
            };
            (setting(i), (v - lo) / span, corner)
        })
        .collect()
}

/// Measure `corners` (pins without a frequency) at every
/// `freq_stride`-th frequency of the app's profile range, after the
/// base point: the SoC's lowest frequency at `corners[0]`, whatever the
/// app's range (it anchors the speedup scale).
///
/// Each frequency is one job on the worker pool with a private app
/// clone (reset before every run anyway). Every seed derives from
/// `(dev_cfg.seed, run, salt)`, never from the worker, so the result is
/// independent of `threads` (`0` = auto: the machine's available
/// parallelism, clamped to the number of profiled frequencies). A
/// corner equal to the base pin reuses its measurement: same seeds,
/// same bits.
fn sweep(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
    threads: usize,
    salt: u64,
    corners: &[Pin],
    run: RunPinned,
) -> Sweep {
    assert!(opts.runs_per_config > 0, "need at least one run");
    assert!(opts.freq_stride > 0, "stride must be positive");
    let (lo_f, hi_f) = app.spec().profile_freq_range;
    let base_pin = Pin {
        freq: Some(dev_cfg.table.min_freq()),
        // asgov-analyze: allow(hot-path-transitive): every profiler passes a non-empty corner list, and ordered_map hands the closure below indices drawn from 0..freqs.len()
        ..corners[0]
    };
    let base = measure(dev_cfg, app, opts, base_pin, salt, run);
    let freqs: Vec<FreqIndex> = (lo_f..=hi_f.min(dev_cfg.table.num_freqs() - 1))
        .step_by(opts.freq_stride)
        .map(FreqIndex)
        .collect();
    let threads = match threads {
        0 => par::default_threads(freqs.len()),
        n => n,
    };
    let app_ref: &PhasedApp = app;
    let measured = par::ordered_map(freqs.len(), threads, |i| {
        let mut worker_app = app_ref.clone();
        let freq = Some(freqs[i]);
        corners
            .iter()
            .map(|&corner| match (Pin { freq, ..corner }) {
                pin if pin == base_pin => base,
                pin => measure(dev_cfg, &mut worker_app, opts, pin, salt, run),
            })
            .collect()
    });
    Sweep {
        app: app.spec().name.to_string(),
        base_gips: base.0.max(1e-6),
        freqs,
        corners: measured,
    }
}

impl Sweep {
    /// Lay the corners out as table rows, bandwidth-major within each
    /// frequency. With `interpolate` every (bandwidth, GPU) rung pair is
    /// bilinear between its frequency's measured corners; without it
    /// only the measured pairs are kept, at their measured values. A
    /// one-rung axis sits at `t = 0` with offset 0 at both ends, so it
    /// adds `0.0` and leaves the other axis's values bit-exact.
    fn table(
        self,
        bws: &[Rung<BwIndex>],
        gpus: &[Rung<Option<GpuFreqIndex>>],
        interpolate: bool,
    ) -> ProfileTable {
        // The last rung is the high corner (or, alone, the only one).
        let bh = bws.last().and_then(|r| r.2).unwrap_or(0);
        let gh = gpus.last().and_then(|r| r.2).unwrap_or(0);
        let lerp = |lo: (f64, f64), hi: (f64, f64), t: f64| {
            (lo.0 + t * (hi.0 - lo.0), lo.1 + t * (hi.1 - lo.1))
        };
        let mut entries = Vec::new();
        for (&freq, c) in self.freqs.iter().zip(&self.corners) {
            for &(bw, tb, cb) in bws {
                for &(gpu, tg, cg) in gpus {
                    let measured = cb.zip(cg).map(|(b, g)| c[b + g]);
                    let (gips, power_w) = match measured {
                        _ if interpolate => {
                            lerp(lerp(c[0], c[bh], tb), lerp(c[gh], c[bh + gh], tb), tg)
                        }
                        Some(point) => point,
                        None => continue,
                    };
                    entries.push(ProfileEntry {
                        config: Config { freq, bw, gpu },
                        speedup: gips / self.base_gips,
                        power_w,
                        measured: measured.is_some(),
                    });
                }
            }
        }
        ProfileTable {
            app: self.app,
            base_gips: self.base_gips,
            entries,
        }
    }
}

/// The bandwidth axis of `dev_cfg`, measured at its lowest and highest
/// setting; `hi` is the highest setting's corner offset.
fn bw_axis(dev_cfg: &DeviceConfig, hi: usize) -> Vec<Rung<BwIndex>> {
    let t = &dev_cfg.table;
    let mbps: Vec<f64> = t.bw_indices().map(|b| t.bw(b).0).collect();
    axis(&mbps, hi, BwIndex)
}

/// The table layouts the public profilers produce.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Frequency × memory bandwidth, the GPU under its stock governor.
    Bandwidth,
    /// Frequency × memory bandwidth × GPU frequency.
    BandwidthGpu,
    /// Frequency only, the bandwidth under `cpubw_hwmon`.
    CpuOnly,
}

/// Measure `shape`'s corners with `run` and lay out its table.
fn profile(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
    threads: usize,
    shape: Shape,
    run: RunPinned,
) -> ProfileTable {
    let t = &dev_cfg.table;
    let no_gpu = [(None, 0.0, Some(0))];
    match shape {
        Shape::Bandwidth => {
            // The GPU stays under its stock governor throughout (the
            // paper does not include it in the controlled configuration).
            let corners = [t.min_bw(), t.max_bw()].map(|bw| Pin {
                bw: Some(bw),
                ..Pin::default()
            });
            sweep(dev_cfg, app, opts, threads, 1, &corners, run).table(
                &bw_axis(dev_cfg, 1),
                &no_gpu,
                opts.interpolate,
            )
        }
        Shape::BandwidthGpu => {
            let gpu_hi = GpuFreqIndex(ADRENO420_FREQS_GHZ.len() - 1);
            // Four measured corners per frequency: (bw, gpu) ∈ {lo, hi}²,
            // bandwidth-major.
            let corners = [t.min_bw(), t.max_bw()]
                .into_iter()
                .flat_map(|bw| [GpuFreqIndex(0), gpu_hi].map(|gpu| (bw, gpu)))
                .map(|(bw, gpu)| Pin {
                    freq: None,
                    bw: Some(bw),
                    gpu: Some(gpu),
                })
                .collect::<Vec<_>>();
            sweep(dev_cfg, app, opts, threads, 0x30, &corners, run).table(
                &bw_axis(dev_cfg, 2),
                &axis(&ADRENO420_FREQS_GHZ, 1, |g| Some(GpuFreqIndex(g))),
                opts.interpolate,
            )
        }
        Shape::CpuOnly => sweep(dev_cfg, app, opts, threads, 0x10, &[Pin::default()], run).table(
            &[(t.min_bw(), 0.0, Some(0))],
            &no_gpu,
            opts.interpolate,
        ),
    }
}

/// Profile an application offline (paper §III-A): measure its base
/// speed at the SoC's lowest configuration, then speedup and power for
/// every `freq_stride`-th frequency inside the application's usable
/// range, at the lowest and highest memory bandwidth, interpolating the
/// intermediate bandwidths linearly.
///
/// The returned table is sorted by (frequency, bandwidth) and its
/// speedups are normalized to the measured base speed.
///
/// The per-frequency measurements are independent simulations whose
/// seeds derive only from `(dev_cfg.seed, run)`, so the sweep fans out
/// across the worker pool; results are bit-identical to the serial
/// sweep ([`profile_app_serial`]) for any thread count.
///
/// # Panics
///
/// Panics if `opts.runs_per_config` or `opts.freq_stride` is zero.
pub fn profile_app(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
) -> ProfileTable {
    profile_app_threads(dev_cfg, app, opts, 0)
}

/// [`profile_app`] with the sweep forced onto a single thread (no
/// workers are spawned at all). Exists so the parallel sweep can be
/// differentially tested against it; produces byte-identical tables.
pub fn profile_app_serial(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
) -> ProfileTable {
    profile_app_threads(dev_cfg, app, opts, 1)
}

/// [`profile_app`] with an explicit worker count (`0` = auto: the
/// machine's available parallelism, clamped to the number of profiled
/// frequencies).
///
/// # Panics
///
/// Panics if `opts.runs_per_config` or `opts.freq_stride` is zero.
pub fn profile_app_threads(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
    threads: usize,
) -> ProfileTable {
    profile(dev_cfg, app, opts, threads, Shape::Bandwidth, run_pinned)
}

/// Three-axis offline profile (the paper's §VII extension): every
/// `freq_stride`-th CPU frequency × {lowest, highest} memory bandwidth
/// × {lowest, highest} GPU frequency, with linear interpolation along
/// both the bandwidth and the GPU ladders (when `opts.interpolate`).
///
/// # Panics
///
/// Panics if `opts.runs_per_config` or `opts.freq_stride` is zero.
pub fn profile_app_with_gpu(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
) -> ProfileTable {
    profile(dev_cfg, app, opts, 0, Shape::BandwidthGpu, run_pinned)
}

/// Profile for the paper's §V-D CPU-only ablation: the CPU frequency is
/// pinned per configuration while the memory bandwidth stays under the
/// default `cpubw_hwmon` governor. The resulting table has one row per
/// profiled frequency (the bandwidth column records the SoC minimum as
/// a placeholder — a CPU-only controller never actuates it).
///
/// # Panics
///
/// Panics if `opts.runs_per_config` or `opts.freq_stride` is zero.
pub fn profile_app_cpu_only(
    dev_cfg: &DeviceConfig,
    app: &mut PhasedApp,
    opts: &ProfileOptions,
) -> ProfileTable {
    profile(dev_cfg, app, opts, 0, Shape::CpuOnly, run_pinned)
}

/// Fit a MAR-CSE model (paper §VI, Liang & Lai): for each training
/// application, sweep the frequency ladder at the lowest bandwidth,
/// find the energy-minimal frequency (the *critical speed*) and pair it
/// with the application's measured memory access rate. The resulting
/// points parameterize [`asgov_governors::MarCseModel`].
pub fn fit_mar_cse(
    dev_cfg: &DeviceConfig,
    apps: &mut [PhasedApp],
    opts: &ProfileOptions,
) -> asgov_governors::MarCseModel {
    assert!(!apps.is_empty(), "need at least one training application");
    let table = &dev_cfg.table;
    let mut points = Vec::new();
    for app in apps.iter_mut() {
        // One job per swept frequency; the (energy/instr, MAR) samples
        // come back in ladder order, so the fold below matches the
        // serial sweep exactly.
        let freqs: Vec<FreqIndex> = table.freq_indices().step_by(opts.freq_stride).collect();
        let app_ref: &PhasedApp = app;
        let sweep = par::ordered_map(freqs.len(), par::default_threads(freqs.len()), |i| {
            let freq = freqs[i];
            let pin = Pin {
                freq: Some(freq),
                bw: Some(table.min_bw()),
                gpu: None,
            };
            let seed = dev_cfg.seed ^ (freq.0 as u64 + 0x50);
            let (reports, device) =
                run_pinned(dev_cfg, &mut app_ref.clone(), pin, seed, &[], opts.run_ms);
            reports.first().filter(|r| r.instructions > 0.0).map(|r| {
                let mar = device.pmu().bus_bytes() / device.pmu().instructions();
                (r.energy_j / r.instructions, freq, mar)
            })
        });

        let mut best: Option<(f64, FreqIndex)> = None; // (energy per instr, freq)
        let mut mar_sum = 0.0;
        let mut mar_n = 0.0;
        for (energy_per_instr, freq, mar) in sweep.into_iter().flatten() {
            if best.is_none_or(|(e, _)| energy_per_instr < e) {
                best = Some((energy_per_instr, freq));
            }
            mar_sum += mar;
            mar_n += 1.0;
        }
        if let (Some((_, cs)), true) = (best, mar_n > 0.0) {
            points.push((mar_sum / mar_n, table.freq(cs).0));
        }
    }
    asgov_governors::MarCseModel::new(points)
}

/// The one-device-per-seed loop the replica monitors replace, kept as
/// the differential tests' oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// [`run_pinned`]'s contract, the slow way: each seed's run
    /// simulated on a fresh device of its own, without replicas.
    pub(crate) fn run_per_seed(
        dev_cfg: &DeviceConfig,
        app: &mut PhasedApp,
        pin: Pin,
        seed: u64,
        extra: &[u64],
        run_ms: u64,
    ) -> (Vec<RunReport>, Device) {
        let (mut reports, device) = run_pinned(dev_cfg, app, pin, seed, &[], run_ms);
        for &seed in extra {
            reports.extend(run_pinned(dev_cfg, app, pin, seed, &[], run_ms).0);
        }
        (reports, device)
    }

    /// Assert two report lists equal field for field, every float to
    /// the bit.
    pub(crate) fn assert_same_reports(oracle: &[RunReport], replicated: &[RunReport]) {
        assert_eq!(oracle, replicated);
        let bits = |r: &RunReport| {
            [
                r.energy_j,
                r.avg_power_w,
                r.instructions,
                r.avg_gips,
                r.stats.energy_j,
                r.stats.avg_power_w,
                r.stats.instructions,
                r.stats.avg_gips,
            ]
            .map(f64::to_bits)
        };
        for (o, r) in oracle.iter().zip(replicated) {
            assert_eq!(bits(o), bits(r), "{} under {}", o.app, o.policy);
        }
    }

    /// [`run_per_seed`]'s reports, after asserting that [`run_pinned`]
    /// returns the same ones.
    pub(crate) fn run_checked(
        dev_cfg: &DeviceConfig,
        app: &mut PhasedApp,
        pin: Pin,
        seed: u64,
        extra: &[u64],
        run_ms: u64,
    ) -> (Vec<RunReport>, Device) {
        let (replicated, _) = run_pinned(dev_cfg, app, pin, seed, extra, run_ms);
        let (reports, device) = run_per_seed(dev_cfg, app, pin, seed, extra, run_ms);
        assert_eq!(reports.len(), 1 + extra.len());
        assert_same_reports(&reports, &replicated);
        (reports, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::BwIndex;
    use asgov_workloads::{apps, paper_apps, BackgroundLoad};

    /// Every profiler shape, at the paper's three runs per
    /// configuration, on all six paper apps: each measured point's
    /// reports equal the one-device-per-seed oracle's bit for bit, and
    /// so does the table built from them.
    #[test]
    fn replicated_profiles_match_the_per_seed_oracle() {
        let dev_cfg = DeviceConfig::nexus6();
        let opts = ProfileOptions {
            runs_per_config: 3,
            run_ms: 3_000,
            freq_stride: 4,
            interpolate: true,
        };
        let bits = |t: &ProfileTable| {
            let mut bits = vec![t.base_gips.to_bits()];
            bits.extend(
                t.entries
                    .iter()
                    .flat_map(|e| [e.speedup.to_bits(), e.power_w.to_bits()]),
            );
            bits
        };
        type Profiler = fn(&DeviceConfig, &mut PhasedApp, &ProfileOptions) -> ProfileTable;
        let shapes: [(Profiler, Shape); 3] = [
            (profile_app, Shape::Bandwidth),
            (profile_app_with_gpu, Shape::BandwidthGpu),
            (profile_app_cpu_only, Shape::CpuOnly),
        ];
        for app in paper_apps(BackgroundLoad::baseline(1)) {
            for (public, shape) in shapes {
                let replicated = public(&dev_cfg, &mut app.clone(), &opts);
                let oracle = profile(
                    &dev_cfg,
                    &mut app.clone(),
                    &opts,
                    0,
                    shape,
                    oracle::run_checked,
                );
                let name = app.spec().name;
                assert_eq!(replicated, oracle, "{name} {shape:?}");
                assert_eq!(bits(&replicated), bits(&oracle), "{name} {shape:?}");
            }
        }
    }

    fn opts_fast() -> ProfileOptions {
        ProfileOptions {
            runs_per_config: 1,
            run_ms: 4_000,
            freq_stride: 4,
            interpolate: true,
        }
    }

    #[test]
    fn profile_covers_all_bandwidths_when_interpolating() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let t = profile_app(&dev_cfg, &mut app, &opts_fast());
        assert!(!t.is_empty());
        // Spotify profiles f1..f5 with stride 4 → f1, f5 → 2 × 13 rows.
        assert_eq!(t.len(), 2 * 13);
        let measured = t.entries.iter().filter(|e| e.measured).count();
        assert_eq!(measured, 4, "only lowest/highest bw measured");
    }

    #[test]
    fn base_speedup_is_one() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
        let t = profile_app(
            &dev_cfg,
            &mut app,
            &ProfileOptions {
                runs_per_config: 1,
                run_ms: 6_000,
                freq_stride: 4,
                interpolate: false,
            },
        );
        // First entry is the base configuration (f1, bw1): speedup 1.
        let first = &t.entries[0];
        assert_eq!(first.config.freq, FreqIndex(0));
        assert_eq!(first.config.bw, BwIndex(0));
        assert!(
            (first.speedup - 1.0).abs() < 0.08,
            "speedup {}",
            first.speedup
        );
    }

    #[test]
    fn speedup_monotone_along_frequency_for_batch_apps() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::vidcon(BackgroundLoad::baseline(1));
        let t = profile_app(&dev_cfg, &mut app, &opts_fast());
        // At the lowest bandwidth, speedup should increase with freq.
        let lo_bw: Vec<&ProfileEntry> = t
            .entries
            .iter()
            .filter(|e| e.config.bw == BwIndex(0))
            .collect();
        assert!(lo_bw.len() >= 2);
        for w in lo_bw.windows(2) {
            assert!(
                w[1].speedup > w[0].speedup * 0.98,
                "speedup should not regress: {} then {}",
                w[0].speedup,
                w[1].speedup
            );
        }
    }

    #[test]
    fn mar_cse_fit_orders_critical_speeds() {
        // A compute-bound trainer should get a higher critical speed
        // than a memory-bound one.
        let dev_cfg = DeviceConfig::nexus6();
        let mut training = [
            apps::vidcon(BackgroundLoad::none(1)),     // compute-ish
            apps::angrybirds(BackgroundLoad::none(1)), // more memory traffic
        ];
        let model = fit_mar_cse(
            &dev_cfg,
            &mut training,
            &ProfileOptions {
                runs_per_config: 1,
                run_ms: 3_000,
                freq_stride: 4,
                interpolate: false,
            },
        );
        let low_mar = model.critical_speed_ghz(0.05);
        let high_mar = model.critical_speed_ghz(3.0);
        assert!(low_mar > 0.0 && high_mar > 0.0);
    }

    #[test]
    fn cpu_only_profile_has_one_row_per_frequency() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::wechat(BackgroundLoad::baseline(1));
        let t = profile_app_cpu_only(&dev_cfg, &mut app, &opts_fast());
        // WeChat profiles f3..f10 with stride 4 -> f3, f7 -> 2 rows.
        assert_eq!(t.len(), 2);
        assert!(t.entries.iter().all(|e| e.measured));
        assert!(t.entries[1].speedup >= t.entries[0].speedup * 0.9);
    }

    #[test]
    fn gpu_profile_without_interpolation_keeps_only_measured_corners() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
        let opts = ProfileOptions {
            interpolate: false,
            ..opts_fast()
        };
        let t = profile_app_with_gpu(&dev_cfg, &mut app, &opts);
        // AngryBirds profiles f1..f10 with stride 4 -> f1, f5, f9.
        assert_eq!(t.len(), 3 * 4);
        assert!(t.entries.iter().all(|e| e.measured));
        for rows in t.entries.chunks(4) {
            let corners: Vec<_> = rows.iter().map(|e| (e.config.bw, e.config.gpu)).collect();
            let (bw_hi, gpu_hi) = (dev_cfg.table.max_bw(), GpuFreqIndex(4));
            assert_eq!(
                corners,
                [
                    (BwIndex(0), Some(GpuFreqIndex(0))),
                    (BwIndex(0), Some(gpu_hi)),
                    (bw_hi, Some(GpuFreqIndex(0))),
                    (bw_hi, Some(gpu_hi)),
                ]
            );
            assert!(rows.iter().all(|e| e.config.freq == rows[0].config.freq));
        }
    }

    #[test]
    fn parallel_profile_matches_serial() {
        // The tentpole determinism claim: the threaded sweep produces a
        // byte-identical ProfileTable for any worker count.
        let dev_cfg = DeviceConfig::nexus6();
        let opts = ProfileOptions {
            runs_per_config: 2,
            run_ms: 3_000,
            freq_stride: 2,
            interpolate: true,
        };
        let app = apps::spotify(BackgroundLoad::baseline(1));
        let serial = profile_app_serial(&dev_cfg, &mut app.clone(), &opts);
        for threads in [2, 3, 8] {
            let parallel = profile_app_threads(&dev_cfg, &mut app.clone(), &opts, threads);
            assert_eq!(serial.app, parallel.app);
            assert_eq!(
                serial.base_gips.to_bits(),
                parallel.base_gips.to_bits(),
                "base GIPS must be bit-identical ({threads} threads)"
            );
            assert_eq!(serial.entries.len(), parallel.entries.len());
            for (s, p) in serial.entries.iter().zip(&parallel.entries) {
                assert_eq!(s.config, p.config, "{threads} threads");
                assert_eq!(
                    s.speedup.to_bits(),
                    p.speedup.to_bits(),
                    "speedup at {:?} must be bit-identical ({threads} threads)",
                    s.config
                );
                assert_eq!(
                    s.power_w.to_bits(),
                    p.power_w.to_bits(),
                    "power at {:?} must be bit-identical ({threads} threads)",
                    s.config
                );
                assert_eq!(s.measured, p.measured);
            }
        }
    }

    #[test]
    fn power_monotone_along_bandwidth_at_fixed_freq() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::wechat(BackgroundLoad::baseline(1));
        let t = profile_app(&dev_cfg, &mut app, &opts_fast());
        let freq = t.entries[0].config.freq;
        let rows: Vec<&ProfileEntry> = t.entries.iter().filter(|e| e.config.freq == freq).collect();
        assert_eq!(rows.len(), 13);
        for w in rows.windows(2) {
            assert!(
                w[1].power_w >= w[0].power_w - 1e-9,
                "interpolated power must be monotone in bw"
            );
        }
    }
}
