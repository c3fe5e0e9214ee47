//! # asgov-benchmark — the repository's end-to-end benchmark
//!
//! Four workloads drive the program through its public APIs only:
//!
//! | workload | what one round does |
//! |---|---|
//! | `fleet-exact` | a fleet run on the exact 1 ms demand model |
//! | `fleet-coarse` | a fleet run on the 20 ms demand quantum |
//! | `fleet-churn` | many one-cycle epochs, then checkpoint → restore round trips |
//! | `paper` | Table III regenerated at full fidelity |
//!
//! A run sets the workload up and times that set-up, then repeats rounds
//! until its time budget is spent, and reports medians over rounds. An
//! untraced run reports the [`END_TO_END`] metrics; a traced run
//! alternates untraced rounds with rounds that time the calls into each
//! layer from the benchmark's own wrappers ([`trace`]) and reports the
//! [`PER_LAYER`] metrics. Both also report workload-specific extras,
//! and both check the program's outputs ([`RunResult::checks`]).

pub mod compare;
mod fleet;
mod paper;
mod stats;
mod trace;

use asgov_util::Json;
use std::time::Instant;

/// Worker threads every workload uses: the machine the benchmark was
/// sized on has two cores, and each workload stays within them.
const THREADS: usize = 2;

/// Set-up samples taken before the measured phase.
const SETUP_REPS: usize = 5;

/// End-to-end metrics of an untraced run, as `(name, unit)`, in the
/// order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_s_per_ref", "s/ref"),
    ("peak_rss_mib", "MiB"),
    ("energy_savings_pct", "%"),
];

/// Per-layer metrics of a traced run, as `(name, unit)`, in the order
/// of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 17] = [
    ("soc.device.new_us", "us"),
    ("core.controller.build_us", "us"),
    ("linprog.hull.build_us", "us"),
    ("soc.us_per_sim_s", "us/s"),
    ("workloads.us_per_sim_s", "us/s"),
    ("governors.us_per_sim_s", "us/s"),
    ("core.controller.us_per_sim_s", "us/s"),
    ("soc.steps", "count"),
    ("profiler.profile_s", "s"),
    ("profiler.default_s", "s"),
    ("util.pool.busy_pct", "%"),
    ("util.pool.wait_s", "s"),
    ("core.controller.solve_ns", "ns"),
    ("core.controller.actuation_ns", "ns"),
    ("core.controller.rest_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fleet on the exact per-ms demand model.
    FleetExact,
    /// Fleet on the 20 ms demand quantum.
    FleetCoarse,
    /// Short epochs plus whole-fleet checkpoint round trips.
    FleetChurn,
    /// Table III regeneration.
    Paper,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetExact,
        Workload::FleetCoarse,
        Workload::FleetChurn,
        Workload::Paper,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetExact => "fleet-exact",
            Workload::FleetCoarse => "fleet-coarse",
            Workload::FleetChurn => "fleet-churn",
            Workload::Paper => "paper",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed used when none is given: the fleet presets' seed, or the
    /// Nexus 6 device model's noise seed for `paper`.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Paper => asgov_soc::DeviceConfig::nexus6().seed,
            _ => asgov_fleet::FleetConfig::smoke().seed,
        }
    }
}

/// Problem size. `Tiny` exists for tests: the same code paths at a
/// size that runs in seconds even in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` and the README record.
    Full,
    /// Smallest sizes that still exercise every layer.
    Tiny,
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed all of the workload's inputs derive from.
    pub seed: u64,
    /// Time budget of the measured phase; rounds repeat until it is
    /// spent (each workload runs a minimum number of rounds).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// One correctness check and whether it passed.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (device-epochs for fleets, Table III rows
    /// for `paper`).
    pub attempted: u64,
    /// Operations that failed (degenerate baselines, non-finite or
    /// unhealthy rows, or all of them on a program error).
    pub failed: u64,
    /// The declared metrics: [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics beyond the declared set.
    pub extras: Vec<Metric>,
    /// Correctness checks, run outside the measured phase.
    pub checks: Vec<Check>,
}

impl RunResult {
    /// Record a declared metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(metric(name, value, unit));
    }

    /// Record a workload-specific metric.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extras.push(metric(name, value, unit));
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
        });
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// declared metrics as `{name: {value, unit}}`.
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("correct", self.correct());
        j.set("attempted", self.attempted as f64);
        j.set("failed", self.failed as f64);
        j.set("metrics", metrics_json(&self.metrics));
        j
    }

    /// The result line plus the extras, for result files.
    pub fn to_file_json(&self, opts: &RunOptions) -> Json {
        let mut j = self.to_json();
        j.set("workload", opts.workload.name());
        j.set("seed", opts.seed as f64);
        j.set("trace", opts.trace);
        j.set("extras", metrics_json(&self.extras));
        j
    }
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut j = Json::object();
    for m in metrics {
        let mut v = Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit.as_str());
        j.set(&m.name, v);
    }
    j
}

/// Run one workload.
pub fn run(opts: &RunOptions) -> RunResult {
    let mut result = match opts.workload {
        Workload::FleetExact => fleet::run(opts, fleet::Shape::exact(opts.size)),
        Workload::FleetCoarse => fleet::run(opts, fleet::Shape::coarse(opts.size)),
        Workload::FleetChurn => fleet::run(opts, fleet::Shape::churn(opts.size)),
        Workload::Paper => paper::run(opts),
    };
    let declared: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let complete = result.metrics.len() == declared.len()
        && declared.iter().all(|(name, unit)| {
            result
                .metrics
                .iter()
                .any(|m| m.name == *name && m.unit == *unit && m.value.is_finite())
        });
    result.check("every declared metric measured and finite", complete);
    result
}

/// Peak resident set size of this process (`VmHWM`), MiB; `NaN` where
/// procfs does not provide it.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Seconds elapsed since `t`.
pub(crate) fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The measured phase's time budget: rounds continue until `seconds`
/// have passed and at least `min_rounds` have run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    start: Instant,
    seconds: f64,
    min_rounds: usize,
}

impl Budget {
    /// Start a budget now.
    pub fn start(seconds: f64, min_rounds: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            min_rounds,
        }
    }

    /// Whether another round should run after `done` rounds.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_rounds || secs_since(self.start) < self.seconds
    }
}

/// A set-up sample shorter than this times a batch of back-to-back
/// set-ups instead of one, so microsecond set-ups time reliably.
const MIN_SETUP_SAMPLE_S: f64 = 0.01;

/// Times a workload's set-up: [`SETUP_REPS`] samples when built, and
/// one more at each round boundary of an untraced run, because the
/// machine's speed comes and goes in stretches of seconds (on the
/// machine the benchmark was sized on, a set-up timed 1.0 µs or 2.0 µs
/// depending on the moment). `setup_s` is the median of all samples.
/// A sample times a batch of calls sized by [`MIN_SETUP_SAMPLE_S`] on a
/// fresh thread (the sizing pass doubles as warm-up).
#[derive(Debug)]
pub(crate) struct SetupTimer<F> {
    set_up: F,
    batch: u32,
    samples: Vec<f64>,
}

impl<T: Send, F: FnMut() -> T + Send> SetupTimer<F> {
    /// Size the batch, take the first samples, and return the timer
    /// with the last value `set_up` built.
    pub fn new(set_up: F) -> (Self, T) {
        let mut timer = Self {
            set_up,
            batch: 1,
            samples: Vec::new(),
        };
        let (mut secs, mut last) = timer.time_batch();
        while secs < MIN_SETUP_SAMPLE_S {
            timer.batch *= 2;
            drop(last);
            (secs, last) = timer.time_batch();
        }
        for _ in 0..SETUP_REPS {
            drop(last);
            last = timer.sample();
        }
        (timer, last)
    }

    /// Take one more sample, returning the value built.
    pub fn sample(&mut self) -> T {
        let (secs, last) = self.time_batch();
        self.samples.push(secs / f64::from(self.batch));
        last
    }

    /// Median per-call set-up time over all samples, s.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.samples)
    }

    fn time_batch(&mut self) -> (f64, T) {
        let (batch, set_up) = (self.batch, &mut self.set_up);
        std::thread::scope(|s| {
            let timed = s.spawn(move || {
                let t = Instant::now();
                let last = (0..batch).map(|_| set_up()).last();
                (secs_since(t), last)
            });
            match timed.join() {
                Ok((secs, last)) => (secs, last.expect("a batch holds at least one set-up")),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })
    }
}

/// Iterations of the reference kernel per thread (about 4 ms on the
/// machine the benchmark was sized on).
const REFERENCE_ITERS: u64 = 1_000_000;

/// Reference samples taken at each round boundary.
const REFERENCE_SAMPLES: usize = 5;

/// One sample of the benchmark's unit of machine speed: the wall time
/// of a fixed CPU kernel — integer and floating-point arithmetic, a
/// branch and a small table, like the simulator's inner loops — run on
/// [`THREADS`] threads at once, s. The kernel is the benchmark's own
/// code, so no change to the program moves it, while a machine that is
/// running slower for a while slows it too.
pub(crate) fn reference_s() -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for seed in 0..THREADS as u64 {
            s.spawn(move || std::hint::black_box(reference_kernel(std::hint::black_box(seed))));
        }
    });
    secs_since(t)
}

fn reference_kernel(seed: u64) -> f64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut table = [0.0f64; 256];
    let mut acc = 0.0;
    for _ in 0..REFERENCE_ITERS {
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

/// Round times of a measured phase, with reference samples taken at
/// every round boundary.
#[derive(Debug, Clone)]
pub(crate) struct Rounds {
    /// Wall time of each round, s.
    pub wall_s: Vec<f64>,
    reference_s: Vec<f64>,
}

impl Rounds {
    /// Start, sampling the reference.
    pub fn start() -> Self {
        let mut rounds = Self {
            wall_s: Vec::new(),
            reference_s: Vec::new(),
        };
        rounds.sample_reference();
        rounds
    }

    /// Record a round of `wall_s` that just ended, and sample the
    /// reference after it.
    pub fn push(&mut self, wall_s: f64) {
        self.wall_s.push(wall_s);
        self.sample_reference();
    }

    fn sample_reference(&mut self) {
        self.reference_s
            .extend((0..REFERENCE_SAMPLES).map(|_| reference_s()));
    }

    /// The run's reference unit, s: the lower quartile of its reference
    /// samples. Short bursts of contention inflate single samples; the
    /// lower quartile follows the slower drift of the machine's speed.
    pub fn reference_unit_s(&self) -> f64 {
        stats::quartiles(&self.reference_s).0
    }

    /// Median over rounds of `work[i]` per host second of round `i`,
    /// and the same per reference unit.
    pub fn throughput(&self, work: impl IntoIterator<Item = f64>) -> (f64, f64) {
        let per_s = median_of(work.into_iter().zip(&self.wall_s).map(|(w, t)| w / t));
        (per_s, per_s * self.reference_unit_s())
    }

    /// Rounds recorded.
    pub fn len(&self) -> usize {
        self.wall_s.len()
    }
}

/// Median over `profiles` of one `EnergyOptimizer::new` (the hull
/// build every controller construction pays), µs. Each profile's build
/// is timed over a batch of repetitions.
pub(crate) fn hull_build_us(profiles: &[asgov_profiler::ProfileTable]) -> f64 {
    const REPS: u32 = 32;
    median_of(profiles.iter().map(|p| {
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(asgov_core::EnergyOptimizer::new(std::hint::black_box(p)));
        }
        trace::ns_since(t) as f64 * 1e-3 / f64::from(REPS)
    }))
}

/// Median of `values`.
pub(crate) fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&values.into_iter().collect::<Vec<_>>())
}
