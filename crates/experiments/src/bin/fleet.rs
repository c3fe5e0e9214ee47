//! Fleet experiment — N simulated devices under supervised controllers
//! in sharded epochs on a worker pool (ROADMAP item 2, DESIGN.md
//! §11–§12).
//!
//! Prints the aggregate energy-savings distributions per application
//! and per fault class, and writes `BENCH_fleet.json` in the working
//! directory with throughput figures (device-epochs/sec, controller
//! cycles/sec, peak RSS), keyed per tier so the 10³/10⁵/10⁶ rows
//! accumulate across invocations, and `device_epochs_per_ref`: the
//! throughput per [`reference_s`], which a gate can compare across
//! machines.
//!
//! Run: `cargo run --release -p asgov-experiments --bin fleet --
//!       [--smoke|--bench|--bench-1m] [--devices N] [--shards N]
//!       [--epochs N] [--epoch-ms N] [--threads N] [--seed N]
//!       [--quantum-ms N]`
//!
//! Give at most one tier; the default is `--smoke`. Invalid input (zero devices or threads,
//! malformed numbers, unknown or repeated flags) is rejected with a
//! diagnostic on stderr and exit code 2 — never a panic.

use asgov_fleet::{Fleet, FleetConfig, PolicyStore};
use asgov_soc::DeviceConfig;
use asgov_util::args::{ArgError, Flags};
use asgov_util::Json;
use std::time::Instant;

/// Parsed invocation: the run configuration plus the tier label its
/// benchmark row is filed under ("custom" when a preset was edited).
struct Invocation {
    cfg: FleetConfig,
    tier: &'static str,
}

fn parse_args(f: &mut Flags<'_>) -> Result<Invocation, ArgError> {
    let mut tiers = Vec::new();
    for tier in ["smoke", "bench", "bench-1m"] {
        if f.flag(&format!("--{tier}"))? {
            tiers.push(tier);
        }
    }
    let (mut tier, mut cfg) = match tiers[..] {
        [] | ["smoke"] => ("smoke", FleetConfig::smoke()),
        ["bench"] => ("bench", FleetConfig::bench()),
        ["bench-1m"] => ("bench-1m", FleetConfig::bench_1m()),
        _ => return Err(ArgError::usage("give at most one tier")),
    };
    // Benchmark rows stay comparable: any override that changes the
    // simulated workload files the run under "custom" instead of
    // overwriting a preset tier's row. Thread count does not change
    // results, so it keeps the tier label.
    let mut custom = false;
    let mut count = |f: &mut Flags<'_>, flag: &str, workload: bool| {
        let v = f.num::<u64>(flag)?;
        custom |= workload && v.is_some();
        match v {
            Some(0) if flag != "--seed" => {
                Err(ArgError::usage(format!("{flag} must be at least 1")))
            }
            v => Ok(v),
        }
    };
    for (flag, field) in [
        ("--devices", &mut cfg.devices),
        ("--shards", &mut cfg.shards),
        ("--epochs", &mut cfg.epochs),
        ("--epoch-ms", &mut cfg.epoch_ms),
        ("--seed", &mut cfg.seed),
        ("--quantum-ms", &mut cfg.demand_quantum_ms),
    ] {
        if let Some(v) = count(f, flag, true)? {
            *field = v;
        }
    }
    if let Some(v) = count(f, "--threads", false)? {
        cfg.threads = v as usize;
    }
    if custom {
        tier = "custom";
    }
    // Keep the partition sane if the user shrank the device count
    // below the preset shard count.
    cfg.shards = cfg.shards.min(cfg.devices).max(1);
    cfg.validate().map_err(|e| ArgError::usage(e.to_string()))?;
    Ok(Invocation { cfg, tier })
}

/// Peak resident set size from `/proc/self/status` (`VmHWM`), KiB.
/// `0` where the procfs field is unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Total iterations of the reference kernel, split evenly over the
/// run's threads (about 15 ms of one core's time).
const REFERENCE_ITERS: u64 = 4_000_000;

/// Reference samples taken before the run, and again after it.
const REFERENCE_SAMPLES: usize = 5;

/// One sample of the machine's speed: the wall time of a fixed amount
/// of CPU work — integer and floating-point arithmetic, a branch and a
/// small table, like the simulator's inner loops — split over
/// `threads` threads, s. With the work split the way the fleet splits
/// its shards, throughput times this time cancels both core speed and
/// core count.
fn reference_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    let t = Instant::now();
    std::thread::scope(|s| {
        for seed in 0..threads as u64 {
            let iters = REFERENCE_ITERS / threads as u64;
            s.spawn(move || {
                std::hint::black_box(reference_kernel(std::hint::black_box(seed), iters))
            });
        }
    });
    t.elapsed().as_secs_f64()
}

fn reference_kernel(seed: u64, iters: u64) -> f64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut table = [0.0f64; 256];
    let mut acc = 0.0;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let slot = &mut table[(x & 255) as usize];
        *slot = *slot * 0.999 + u.sqrt() * if u > 0.5 { 1.5 } else { 0.5 };
        acc += *slot / (1.0 + u);
    }
    acc
}

fn main() {
    let Invocation { cfg, tier } = asgov_util::args::parse_env("", parse_args);
    println!(
        "=== Fleet [{tier}]: {} devices, {} shards, {} epochs x {} ms, quantum {} ms (seed {:#x}) ===\n",
        cfg.devices, cfg.shards, cfg.epochs, cfg.epoch_ms, cfg.demand_quantum_ms, cfg.seed
    );

    let dev_cfg = DeviceConfig::nexus6();
    let t_store = Instant::now();
    let store = PolicyStore::resolve(&cfg, &dev_cfg);
    let store_secs = t_store.elapsed().as_secs_f64();
    println!(
        "policy store: {} signatures resolved in {store_secs:.2} s",
        store.len()
    );

    let mut fleet = match Fleet::new(cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(2);
        }
    };
    let threads = if cfg.threads == 0 {
        asgov_util::par::default_threads(cfg.shards as usize)
    } else {
        cfg.threads
    };
    // The fleet's pool never runs more workers than shards.
    let ref_threads = threads.min(cfg.shards as usize);
    let mut ref_samples: Vec<f64> = (0..REFERENCE_SAMPLES)
        .map(|_| reference_s(ref_threads))
        .collect();
    let t_run = Instant::now();
    let report = match fleet.run(&store) {
        Ok(r) => r.clone(),
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(1);
        }
    };
    let run_secs = t_run.elapsed().as_secs_f64();
    // The reference is the lower quartile of the samples before and
    // after: bursts of contention inflate single samples, and the lower
    // quartile follows the slower drift of the machine's speed.
    ref_samples.extend((0..REFERENCE_SAMPLES).map(|_| reference_s(ref_threads)));
    ref_samples.sort_by(f64::total_cmp);
    let ref_s = ref_samples[ref_samples.len() / 4];

    let device_epochs = report.totals.online + report.totals.offline;
    let device_epochs_per_sec = device_epochs as f64 / run_secs.max(1e-9);
    let device_epochs_per_ref = device_epochs_per_sec * ref_s;
    let cycles_per_sec = report.controller_cycles() as f64 / run_secs.max(1e-9);
    let rss_kib = peak_rss_kib();

    let s = &report.totals.savings;
    println!("\nenergy savings vs default governor, percent (mean ± std [min, max], n):");
    println!("\nper application:");
    for (idx, app) in asgov_fleet::spec::roster_names().into_iter().enumerate() {
        let st = asgov_fleet::app_stream(idx);
        print_stream(app, s, st, true);
    }
    println!("\nper fault class:");
    for class in asgov_fleet::FaultClass::all() {
        let st = asgov_fleet::fault_stream(class);
        print_stream(class.label(), s, st, false);
    }
    let t = &report.totals;
    println!(
        "\nsupervision: {} restarts ({} warm), {} warm migrations, {} snapshot errors, {} ms downtime",
        t.restarts, t.warm_restarts, t.warm_migrations, t.snapshot_errors, t.downtime_ms
    );
    println!(
        "\nthroughput: {device_epochs_per_sec:.0} device-epochs/sec, {cycles_per_sec:.0} controller-cycles/sec, \
         peak RSS {:.1} MiB",
        rss_kib as f64 / 1024.0
    );
    println!(
        "reference kernel: {:.2} ms on {ref_threads} threads, {device_epochs_per_ref:.1} device-epochs per reference",
        ref_s * 1e3
    );

    let mut row = Json::object();
    row.set("devices", cfg.devices as f64);
    row.set("shards", cfg.shards as f64);
    row.set("epochs", cfg.epochs as f64);
    row.set("epoch_ms", cfg.epoch_ms as f64);
    row.set("seed", cfg.seed as f64);
    row.set("demand_quantum_ms", cfg.demand_quantum_ms as f64);
    row.set("threads", threads as f64);
    row.set("store_resolve_secs", store_secs);
    row.set("run_secs", run_secs);
    row.set("device_epochs", device_epochs as f64);
    row.set("device_epochs_per_sec", device_epochs_per_sec);
    row.set("reference_s", ref_s);
    row.set("device_epochs_per_ref", device_epochs_per_ref);
    row.set("controller_cycles_per_sec", cycles_per_sec);
    row.set("peak_rss_kib", rss_kib as f64);
    row.set("report", report.to_json());

    // Top level mirrors this run and keys every tier's latest row under
    // "tiers" so the 10³/10⁵/10⁶ results accumulate across invocations.
    let path = "BENCH_fleet.json";
    let mut tiers = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|old| old.get("tiers").cloned())
        .unwrap_or_else(Json::object);
    tiers.set(tier, row.clone());

    let mut bench = Json::object();
    bench.set("tier", tier);
    for key in [
        "devices",
        "shards",
        "epochs",
        "epoch_ms",
        "seed",
        "demand_quantum_ms",
        "threads",
        "store_resolve_secs",
        "run_secs",
        "device_epochs",
        "device_epochs_per_sec",
        "reference_s",
        "device_epochs_per_ref",
        "controller_cycles_per_sec",
        "peak_rss_kib",
        "report",
    ] {
        if let Some(v) = row.get(key) {
            bench.set(key, v.clone());
        }
    }
    bench.set("tiers", tiers);

    match std::fs::write(path, bench.to_pretty() + "\n") {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("fleet: writing {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// One savings stream as a human-readable row.
fn print_stream(label: &str, s: &asgov_obs::FleetStats, stream: usize, full: bool) {
    let n = s.included(stream);
    let degenerate = s.excluded(stream);
    let suffix = if degenerate > 0 {
        format!("  ({degenerate} degenerate excluded)")
    } else {
        String::new()
    };
    if full {
        println!(
            "  {label:<12} {:>6.1} ± {:>5.1}  [{:>6.1}, {:>6.1}]  n={n}{suffix}",
            s.mean(stream),
            s.std(stream),
            s.min(stream).unwrap_or(0.0),
            s.max(stream).unwrap_or(0.0),
        );
    } else {
        println!(
            "  {label:<18} {:>6.1} ± {:>5.1}  n={n}{suffix}",
            s.mean(stream),
            s.std(stream),
        );
    }
}
