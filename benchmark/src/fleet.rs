//! The fleet workloads: `fleet-exact`, `fleet-coarse` and `fleet-churn`.
//!
//! An untraced round is one [`Fleet::run`] over a fresh fleet (plus,
//! for `fleet-churn`, whole-fleet checkpoint → restore round trips).
//! A traced round drives the same configuration through a replica of
//! `shard::run_epoch_into` built from its public calls, with shard
//! epochs barriered over [`WorkerPool::ordered_map`]; the checks pin
//! the replica to the real engine bit for bit.

use crate::stats::median;
use crate::trace::{
    ns_since, Calls, Cycle, CycleSink, LayerCosts, RunSample, TimedPolicy, TimedWorkload, TimerCost,
};
use crate::{
    hull_build_us, median_of, peak_rss_mib, secs_since, Budget, Rounds, RunOptions, RunResult,
    SetupTimer, Size, THREADS,
};
use asgov_core::{ControllerBuilder, Supervisor, SupervisorConfig};
use asgov_fleet::report::{APP_STREAMS, SAVINGS_STREAMS};
use asgov_fleet::spec::{build_app, roster_signatures};
use asgov_fleet::{
    app_stream, fault_stream, shard, DeviceSpec, EpochStats, Fleet, FleetConfig, FleetError,
    FleetReport, PolicyStore, ShardState,
};
use asgov_governors::AdrenoTz;
use asgov_obs::TraceSink;
use asgov_profiler::{measure_default, profile_app_serial, ProfileOptions};
use asgov_soc::{event, Device, DeviceConfig, Policy, Workload as _};
use asgov_util::par::WorkerPool;
use asgov_util::Rng;
use asgov_workloads::BackgroundLoad;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

/// Traced rounds wrap every trait call only on shards `s` with
/// `s` a multiple of `TRACE_STRIDE`: per-millisecond wrappers on every device
/// would more than double the run. The other shards get call-level
/// spans only.
const TRACE_STRIDE: u64 = 16;

/// The supervision tuning `shard::run_epoch_into` gives fleet devices
/// (private there; the replica check fails if this copy drifts).
const SUPERVISOR: SupervisorConfig = SupervisorConfig {
    max_restarts: 8,
    backoff_base_ms: 50,
    backoff_max_ms: 400,
    checkpoint_period_ms: 2_000,
    warm: true,
};

/// The profiling options `PolicyStore::resolve` uses (private there;
/// the store check fails if this copy drifts).
const STORE_PROFILE: ProfileOptions = ProfileOptions {
    runs_per_config: 1,
    run_ms: 3_000,
    freq_stride: 4,
    interpolate: true,
};

/// Size of a fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Simulated devices.
    pub devices: u64,
    /// Shards (pool jobs per epoch).
    pub shards: u64,
    /// Epochs per round.
    pub epochs: u64,
    /// Simulated ms per epoch.
    pub epoch_ms: u64,
    /// Demand quantum, simulated ms.
    pub quantum_ms: u64,
    /// Checkpoint → restore round trips per round.
    pub checkpoints: usize,
}

impl Shape {
    /// `fleet-exact`: per-ms simulation dominates (1 ms spans).
    pub fn exact(size: Size) -> Self {
        match size {
            Size::Full => Self::new(4_096, 256, 2, 4_000, 1, 0),
            Size::Tiny => Self::new(48, 16, 2, 2_500, 1, 0),
        }
    }

    /// `fleet-coarse`: 20 ms spans; construction is a larger share.
    pub fn coarse(size: Size) -> Self {
        match size {
            Size::Full => Self::new(6_144, 512, 2, 4_000, 20, 0),
            Size::Tiny => Self::new(48, 16, 2, 2_500, 20, 0),
        }
    }

    /// `fleet-churn`: one control cycle per epoch, so fixed
    /// per-device-epoch costs and the fleet codec dominate.
    pub fn churn(size: Size) -> Self {
        match size {
            Size::Full => Self::new(1_024, 64, 24, 2_000, 20, 20),
            Size::Tiny => Self::new(32, 16, 3, 2_000, 20, 2),
        }
    }

    fn new(
        devices: u64,
        shards: u64,
        epochs: u64,
        epoch_ms: u64,
        quantum_ms: u64,
        checkpoints: usize,
    ) -> Self {
        Self {
            devices,
            shards,
            epochs,
            epoch_ms,
            quantum_ms,
            checkpoints,
        }
    }

    /// The fleet configuration for `seed`.
    pub fn config(&self, seed: u64) -> FleetConfig {
        FleetConfig {
            devices: self.devices,
            shards: self.shards,
            epochs: self.epochs,
            epoch_ms: self.epoch_ms,
            seed,
            threads: THREADS,
            demand_quantum_ms: self.quantum_ms,
            ..FleetConfig::smoke()
        }
    }
}

/// Run a fleet workload of the given shape.
pub fn run(opts: &RunOptions, shape: Shape) -> RunResult {
    let cfg = shape.config(opts.seed);
    let mut out = RunResult::default();
    let (setup, (store, _)) = SetupTimer::new(|| set_up(&cfg));
    let ran = if opts.trace {
        traced(opts, shape, &cfg, &store, &mut out)
    } else {
        untraced(opts, shape, &cfg, &store, setup, &mut out)
    };
    if let Err(e) = ran {
        out.check(&format!("fleet ran without error: {e}"), false);
        out.attempted = out.attempted.max(1);
        out.failed = out.attempted;
    }
    out
}

/// Seed the policy store is resolved at. `--seed` varies the fleet —
/// which devices run which apps, and every per-epoch draw — but not the
/// profiles and baselines the devices share: resolved at the run's own
/// seed, the 18 baselines' measurement noise would shift every
/// device's savings together, and `energy_savings_pct` would vary more
/// across seeds than its bound.
const STORE_SEED: u64 = 0xf1ee7;

/// The configuration the policy store is resolved for: the run's, at
/// [`STORE_SEED`].
fn store_config(cfg: &FleetConfig) -> FleetConfig {
    FleetConfig {
        seed: STORE_SEED,
        ..*cfg
    }
}

/// The set-up: `PolicyStore::resolve` and `Fleet::new`. A bad
/// configuration surfaces again, as an error, in the first round.
fn set_up(cfg: &FleetConfig) -> (PolicyStore, Result<Fleet, FleetError>) {
    let store = PolicyStore::resolve(&store_config(cfg), &DeviceConfig::nexus6());
    (store, Fleet::new(*cfg))
}

/// One untraced round on a fresh fleet.
struct Round {
    /// Whole round, s.
    wall_s: f64,
    /// The `Fleet::run` part, s.
    run_s: f64,
    /// Each checkpoint → restore round trip, s.
    checkpoint_s: Vec<f64>,
    /// Whether the last restored fleet equals the original.
    restored_matches: bool,
    fleet: Fleet,
}

fn round(cfg: &FleetConfig, store: &PolicyStore, checkpoints: usize) -> Result<Round, FleetError> {
    let mut fleet = Fleet::new(*cfg)?;
    let t = Instant::now();
    fleet.run(store)?;
    let run_s = secs_since(t);
    let mut checkpoint_s = Vec::with_capacity(checkpoints);
    let mut restored = None;
    for _ in 0..checkpoints {
        // Free the previous copy outside the timed round trip.
        drop(restored.take());
        let trip = Instant::now();
        let bytes = fleet.checkpoint()?;
        let back = Fleet::restore(*cfg, &bytes)?;
        checkpoint_s.push(secs_since(trip));
        restored = Some(back);
    }
    let wall_s = secs_since(t);
    let restored_matches = restored.is_none_or(|back| {
        back.shards() == fleet.shards() && report_text(back.report()) == report_text(fleet.report())
    });
    Ok(Round {
        wall_s,
        run_s,
        checkpoint_s,
        restored_matches,
        fleet,
    })
}

fn report_text(report: &FleetReport) -> String {
    report.to_json().to_string()
}

fn untraced<F: FnMut() -> (PolicyStore, Result<Fleet, FleetError>) + Send>(
    opts: &RunOptions,
    shape: Shape,
    cfg: &FleetConfig,
    store: &PolicyStore,
    mut setup: SetupTimer<F>,
    out: &mut RunResult,
) -> Result<(), FleetError> {
    let budget = Budget::start(opts.seconds, 1);
    let mut rounds = Rounds::start();
    let mut checkpoint_s = Vec::new();
    let mut restored_matches = true;
    let mut identical = true;
    let mut first: Option<(FleetReport, String)> = None;
    while budget.more(rounds.len()) {
        let r = round(cfg, store, shape.checkpoints)?;
        rounds.push(r.wall_s);
        drop(setup.sample());
        checkpoint_s.extend(r.checkpoint_s);
        restored_matches &= r.restored_matches;
        let report = r.fleet.report();
        out.attempted += report.totals.online + report.totals.offline;
        out.failed += degenerate(report);
        let text = report_text(report);
        match &first {
            Some((_, first_text)) => identical &= text == *first_text,
            None => first = Some((report.clone(), text)),
        }
    }
    let peak_mib = peak_rss_mib();
    let (report, _) = first.expect("a budget runs at least one round");

    invariant_checks(cfg, &report, out);
    out.check("every round's report is byte-identical", identical);
    out.check(
        "1/16 sub-fleet report identical at 1 and 2 threads",
        sub_fleet_matches(cfg, store)?,
    );
    if shape.checkpoints > 0 {
        out.check(
            "checkpoint -> restore reproduces the fleet",
            restored_matches,
        );
    }

    let sim_s = report.totals.online as f64 * cfg.epoch_ms as f64 * 1e-3;
    let device_epochs = (report.totals.online + report.totals.offline) as f64;
    let (per_host_s, per_ref) = rounds.throughput(std::iter::repeat(sim_s));
    out.metric("setup_s", setup.median_s(), "s");
    out.metric("sim_s_per_ref", per_ref, "s/ref");
    out.metric("peak_rss_mib", peak_mib, "MiB");
    out.metric("energy_savings_pct", savings_pct(&report), "%");
    out.extra("sim_s_per_host_s", per_host_s, "s/s");
    out.extra(
        "device_epochs_per_s",
        per_host_s * device_epochs / sim_s,
        "1/s",
    );
    out.extra("reference_ms", rounds.reference_unit_s() * 1e3, "ms");
    out.extra("round_s", median(&rounds.wall_s), "s");
    out.extra("rounds", rounds.len() as f64, "count");
    if shape.checkpoints > 0 {
        out.extra("checkpoint_s", median(&checkpoint_s), "s");
    }
    out.extra(
        "failed_pct",
        100.0 * out.failed as f64 / out.attempted as f64,
        "%",
    );
    Ok(())
}

/// Mean over the applications of each one's mean savings, as Table III
/// averages apps. (Weighting by device count would add the seed's app
/// mix to the metric's spread across seeds.)
fn savings_pct(report: &FleetReport) -> f64 {
    let s = &report.totals.savings;
    let means: Vec<f64> = (0..APP_STREAMS)
        .map(app_stream)
        .filter(|&st| s.included(st) > 0)
        .map(|st| s.mean(st))
        .collect();
    means.iter().sum::<f64>() / means.len() as f64
}

/// Device-epochs whose baseline could not anchor a savings percentage.
fn degenerate(report: &FleetReport) -> u64 {
    (0..APP_STREAMS)
        .map(|i| report.totals.savings.excluded(app_stream(i)))
        .sum()
}

fn invariant_checks(cfg: &FleetConfig, report: &FleetReport, out: &mut RunResult) {
    let t = &report.totals;
    out.check(
        "online + offline = devices x epochs",
        t.online + t.offline == cfg.devices * cfg.epochs,
    );
    out.check(
        "every savings stream is finite",
        (0..SAVINGS_STREAMS).all(|st| {
            t.savings.included(st) == 0
                || (t.savings.mean(st).is_finite() && t.savings.std(st).is_finite())
        }),
    );
}

fn sub_fleet_matches(cfg: &FleetConfig, store: &PolicyStore) -> Result<bool, FleetError> {
    let sub = |threads| FleetConfig {
        devices: (cfg.devices / 16).max(1),
        shards: (cfg.shards / 16).max(1),
        threads,
        ..*cfg
    };
    let mut one = Fleet::new(sub(1))?;
    let mut two = Fleet::new(sub(2))?;
    Ok(report_text(one.run(store)?) == report_text(two.run(store)?))
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

/// Host time of one online or offline device-epoch in the replica, ns.
#[derive(Debug, Clone, Default)]
struct DeviceEpoch {
    online: bool,
    /// `DeviceSpec::derive`, churn draw, store lookup, `build_app`.
    spec_ns: u64,
    /// `Device::new` + `install_faults`.
    new_ns: u64,
    /// `Supervisor::new`, including the controller and hull build.
    build_ns: u64,
    migrate_in_ns: u64,
    /// `event::run_counted`.
    run_ns: u64,
    migrate_out_ns: u64,
    /// Savings and counters into `EpochStats`.
    record_ns: u64,
    snapshot_bytes: u64,
    events: u64,
    sim_ms: u64,
    restarts: u64,
    down: bool,
    /// Per-call times, on sampled shards only.
    calls: Option<Calls>,
}

impl DeviceEpoch {
    fn spans_ns(&self) -> u64 {
        self.spec_ns
            + self.new_ns
            + self.build_ns
            + self.migrate_in_ns
            + self.run_ns
            + self.migrate_out_ns
            + self.record_ns
    }
}

/// One shard-epoch of the replica.
#[derive(Debug)]
struct ShardEpoch {
    stats: EpochStats,
    devices: Vec<DeviceEpoch>,
    cycles: Vec<Cycle>,
    job_ns: u64,
}

/// `shard::run_epoch_into`, rebuilt from the fleet's public calls with
/// a span around each. With `wrap`, the workload and both policies are
/// wrapped per call and the device carries a cycle-record sink.
fn replica_epoch(
    cfg: &FleetConfig,
    store: &PolicyStore,
    state: &mut ShardState,
    wrap: bool,
) -> Result<ShardEpoch, FleetError> {
    let (start, count) = cfg.shard_range(state.shard);
    let epoch = state.next_epoch;
    let mut out = ShardEpoch {
        stats: EpochStats::default(),
        devices: Vec::with_capacity(count as usize),
        cycles: Vec::new(),
        job_ns: 0,
    };
    for i in 0..count {
        let mut d = DeviceEpoch::default();
        let t = Instant::now();
        let spec = DeviceSpec::derive(cfg.seed, start + i);
        let epoch_seed = spec.epoch_seed(cfg.seed, epoch);
        let mut rng = Rng::seed_from_u64(epoch_seed);
        if rng.gen_bool(cfg.offline_rate) {
            out.stats.offline += 1;
            d.spec_ns = ns_since(t);
            out.devices.push(d);
            continue;
        }
        let sig = spec.signature();
        let policy = store
            .get(&sig)
            .ok_or_else(|| FleetError::UnknownSignature(sig.clone()))?;
        let Some(mut app) = build_app(
            spec.app,
            BackgroundLoad::with_level(spec.load, rng.next_u64()),
            cfg.demand_quantum_ms,
        ) else {
            return Err(FleetError::UnknownSignature(sig));
        };
        d.online = true;
        d.spec_ns = ns_since(t);

        let t = Instant::now();
        let mut device = Device::new(DeviceConfig::nexus6().with_seed(rng.next_u64()));
        if let Some(injector) = spec.fault_injector(cfg.epoch_ms, rng.next_u64()) {
            device.install_faults(injector);
        }
        d.new_ns = ns_since(t);

        let t = Instant::now();
        let factory_profile = policy.profile.clone();
        let target = policy.target_gips;
        let mut supervisor = Supervisor::new(
            move || {
                ControllerBuilder::new(factory_profile.clone())
                    .target_gips(target)
                    .seed(epoch_seed)
                    .build()
            },
            SUPERVISOR,
        );
        d.build_ns = ns_since(t);

        let t = Instant::now();
        if let Some(snapshot) = state.snapshots.get_mut(i as usize).and_then(Option::take) {
            supervisor.migrate_in(snapshot);
        }
        d.migrate_in_ns = ns_since(t);

        let mut gpu_gov = AdrenoTz::default();
        app.reset();
        let (report, engine) = if wrap {
            let sink = Rc::new(RefCell::new(CycleSink::default()));
            device.install_obs_sink(sink.clone() as Rc<RefCell<dyn TraceSink>>);
            let mut w_app = TimedWorkload::new(&mut app);
            let mut w_gov = TimedPolicy::new(&mut gpu_gov);
            let mut w_sup = TimedPolicy::with_cycles(&mut supervisor, sink.clone());
            let t = Instant::now();
            let ran = {
                let mut policies: [&mut dyn Policy; 2] = [&mut w_gov, &mut w_sup];
                event::run_counted(&mut device, &mut w_app, &mut policies, cfg.epoch_ms)
            };
            d.run_ns = ns_since(t);
            d.calls = Some(Calls {
                app: w_app.span,
                gov: w_gov.span,
                ctrl: w_sup.span,
                ctrl_start_ns: w_sup.start_ns,
            });
            out.cycles.extend(sink.borrow().cycles.iter().copied());
            ran
        } else {
            let t = Instant::now();
            let mut policies: [&mut dyn Policy; 2] = [&mut gpu_gov, &mut supervisor];
            let ran = event::run_counted(&mut device, &mut app, &mut policies, cfg.epoch_ms);
            d.run_ns = ns_since(t);
            ran
        };
        d.events = engine.events;
        d.sim_ms = engine.simulated_ms;

        let t = Instant::now();
        let snapshot = supervisor.migrate_out(device.now_ms());
        d.snapshot_bytes = snapshot.as_ref().map_or(0, Vec::len) as u64;
        if let Some(slot) = state.snapshots.get_mut(i as usize) {
            *slot = snapshot;
        }
        d.migrate_out_ns = ns_since(t);

        let t = Instant::now();
        let stats = &mut out.stats;
        stats.online += 1;
        stats.energy_j += report.energy_j;
        stats.restarts += supervisor.restarts();
        stats.warm_restarts += supervisor.warm_restarts();
        stats.warm_migrations += supervisor.warm_migrations();
        stats.snapshot_errors += supervisor.snapshot_errors();
        stats.downtime_ms += supervisor.downtime_ms();
        let base = policy.baseline_energy_j;
        if base.is_finite() && base > 0.0 {
            let savings = (base - report.energy_j) / base * 100.0;
            stats.savings.record(app_stream(spec.app_idx), savings);
            stats
                .savings
                .record(fault_stream(spec.fault_class), savings);
        } else {
            stats.savings.record_excluded(app_stream(spec.app_idx));
            stats
                .savings
                .record_excluded(fault_stream(spec.fault_class));
        }
        d.record_ns = ns_since(t);
        d.restarts = supervisor.restarts();
        d.down = supervisor.downtime_ms() > 0;
        out.devices.push(d);
    }
    state.next_epoch = epoch + 1;
    Ok(out)
}

/// One traced round: the replica over every shard and epoch.
#[derive(Debug)]
struct TracedRound {
    threads: usize,
    wall_ns: u64,
    /// Σ `ordered_map` wall time, ns.
    map_ns: u64,
    /// Σ job time inside the pool, ns.
    job_ns: u64,
    /// Each shard-epoch merge, and each epoch's fold into the totals.
    merge_ns: Vec<u64>,
    devices: Vec<DeviceEpoch>,
    cycles: Vec<Cycle>,
    totals: EpochStats,
}

impl TracedRound {
    /// Pool threads' idle time during the epoch fan-outs, ns.
    fn pool_wait_ns(&self) -> u64 {
        (self.threads as u64 * self.map_ns).saturating_sub(self.job_ns)
    }

    /// Share of the round's thread time covered by layer spans: device
    /// spans, pool idle time and merges, over the pool's thread time
    /// plus the serial remainder.
    fn coverage_pct(&self) -> f64 {
        let covered = self.devices.iter().map(DeviceEpoch::spans_ns).sum::<u64>()
            + self.pool_wait_ns()
            + self.merge_ns.iter().sum::<u64>();
        let thread_ns =
            self.threads as u64 * self.map_ns + self.wall_ns.saturating_sub(self.map_ns);
        100.0 * covered as f64 / thread_ns as f64
    }
}

fn traced_round(
    cfg: &FleetConfig,
    store: &PolicyStore,
    pool: &mut WorkerPool,
) -> Result<TracedRound, FleetError> {
    let start = Instant::now();
    let shards: Vec<Mutex<ShardState>> = (0..cfg.shards)
        .map(|s| Mutex::new(ShardState::new(cfg, s)))
        .collect();
    let mut round = TracedRound {
        threads: pool.threads(),
        wall_ns: 0,
        map_ns: 0,
        job_ns: 0,
        merge_ns: Vec::new(),
        devices: Vec::new(),
        cycles: Vec::new(),
        totals: EpochStats::default(),
    };
    for _ in 0..cfg.epochs {
        let t = Instant::now();
        let results = pool.ordered_map(shards.len(), |s| -> Result<ShardEpoch, FleetError> {
            let t = Instant::now();
            let mut state = shards[s]
                .lock()
                .expect("a shard lock is only poisoned by a job that panicked");
            let mut e = replica_epoch(
                cfg,
                store,
                &mut state,
                (s as u64).is_multiple_of(TRACE_STRIDE),
            )?;
            e.job_ns = ns_since(t);
            Ok(e)
        });
        round.map_ns += ns_since(t);
        let mut merged = EpochStats::default();
        for e in results {
            let e = e?;
            let t = Instant::now();
            merged
                .merge(&e.stats)
                .map_err(|_| FleetError::StatsLayout)?;
            round.merge_ns.push(ns_since(t));
            round.job_ns += e.job_ns;
            round.devices.extend(e.devices);
            round.cycles.extend(e.cycles);
        }
        let t = Instant::now();
        round
            .totals
            .merge(&merged)
            .map_err(|_| FleetError::StatsLayout)?;
        round.merge_ns.push(ns_since(t));
    }
    round.wall_ns = ns_since(start);
    Ok(round)
}

/// `PolicyStore::resolve` timed whole, then its per-signature work
/// redone serially with the profiler's two phases timed apart.
struct Resolve {
    resolve_s: f64,
    profile_s: f64,
    default_s: f64,
    matches: bool,
}

fn traced_resolve(cfg: &FleetConfig, store: &PolicyStore) -> Resolve {
    let t = Instant::now();
    drop(PolicyStore::resolve(cfg, &DeviceConfig::nexus6()));
    let dev_cfg = DeviceConfig::nexus6().with_seed(cfg.seed);
    let mut r = Resolve {
        resolve_s: secs_since(t),
        profile_s: 0.0,
        default_s: 0.0,
        matches: true,
    };
    for (sig, name, load) in roster_signatures() {
        let Some(mut app) = build_app(
            name,
            BackgroundLoad::with_level(load, cfg.seed),
            cfg.demand_quantum_ms,
        ) else {
            r.matches = false;
            continue;
        };
        let t = Instant::now();
        let profile = profile_app_serial(&dev_cfg, &mut app, &STORE_PROFILE);
        r.profile_s += secs_since(t);
        let t = Instant::now();
        let base = measure_default(&dev_cfg, &mut app, 1, cfg.epoch_ms);
        r.default_s += secs_since(t);
        r.matches &= store.get(&sig).is_some_and(|p| {
            p.profile == profile
                && p.target_gips.to_bits() == base.gips.to_bits()
                && p.baseline_energy_j.to_bits() == base.energy_j.to_bits()
        });
    }
    r
}

fn same_stats(a: &EpochStats, b: &EpochStats) -> bool {
    a.online == b.online
        && a.offline == b.offline
        && a.energy_j.to_bits() == b.energy_j.to_bits()
        && a.restarts == b.restarts
        && a.warm_restarts == b.warm_restarts
        && a.warm_migrations == b.warm_migrations
        && a.snapshot_errors == b.snapshot_errors
        && a.downtime_ms == b.downtime_ms
        && a.savings.serialize_words() == b.savings.serialize_words()
}

/// Run the first and last shards through every epoch three ways — the
/// real `shard::run_epoch_into`, the wrapped replica and the unwrapped
/// replica — and report whether the replicas' statistics and shard
/// states match the real engine, and whether wrapping left the event
/// counts unchanged.
fn shard_checks(cfg: &FleetConfig, store: &PolicyStore) -> Result<(bool, bool), FleetError> {
    let mut same = true;
    let mut same_events = true;
    for s in [0, cfg.shards - 1] {
        let mut real = ShardState::new(cfg, s);
        let mut wrapped = real.clone();
        let mut plain = real.clone();
        for _ in 0..cfg.epochs {
            let expected = shard::run_epoch_into(cfg, store, &mut real)?;
            let w = replica_epoch(cfg, store, &mut wrapped, true)?;
            let p = replica_epoch(cfg, store, &mut plain, false)?;
            same &= same_stats(&w.stats, &expected)
                && same_stats(&p.stats, &expected)
                && wrapped == real
                && plain == real;
            let events = |e: &ShardEpoch| e.devices.iter().map(|d| d.events).collect::<Vec<_>>();
            same_events &= events(&w) == events(&p);
        }
    }
    Ok((same, same_events))
}

/// Encode and decode the final state of `fleet`: median ms of each over
/// three repetitions, and the frame size in MiB.
fn checkpoint_probe(cfg: &FleetConfig, fleet: &Fleet) -> Result<(f64, f64, f64), FleetError> {
    let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        bytes = fleet.checkpoint()?;
        encode.push(secs_since(t) * 1e3);
        let t = Instant::now();
        let back = Fleet::restore(*cfg, &bytes)?;
        decode.push(secs_since(t) * 1e3);
        drop(back);
    }
    Ok((
        median(&encode),
        median(&decode),
        bytes.len() as f64 / (1024.0 * 1024.0),
    ))
}

fn traced(
    opts: &RunOptions,
    shape: Shape,
    cfg: &FleetConfig,
    store: &PolicyStore,
    out: &mut RunResult,
) -> Result<(), FleetError> {
    let mut pool = WorkerPool::new(THREADS);
    let budget = Budget::start(opts.seconds, 1);
    let mut plain_run_s = Vec::new();
    let mut rounds = Vec::new();
    let mut resolves = Vec::new();
    let mut last = None;
    while budget.more(rounds.len()) {
        let r = round(cfg, store, shape.checkpoints)?;
        plain_run_s.push(r.run_s);
        let report = r.fleet.report();
        out.attempted += report.totals.online + report.totals.offline;
        out.failed += degenerate(report);
        last = Some(r.fleet);
        rounds.push(traced_round(cfg, store, &mut pool)?);
        resolves.push(traced_resolve(&store_config(cfg), store));
    }
    let fleet = last.expect("a budget runs at least one round");
    let plain = fleet.report();

    let replica = FleetReport {
        config: *cfg,
        epochs_run: cfg.epochs,
        totals: rounds[0].totals.clone(),
    };
    invariant_checks(cfg, plain, out);
    out.check(
        "replica report is byte-identical to Fleet::run's",
        report_text(&replica) == report_text(plain),
    );
    let (same, same_events) = shard_checks(cfg, store)?;
    out.check(
        "replica shard-epochs equal shard::run_epoch_into bit for bit",
        same,
    );
    out.check(
        "wrapped run_counted has the unwrapped event counts",
        same_events,
    );
    out.check(
        "replica store equals PolicyStore::resolve",
        resolves.iter().all(|r| r.matches),
    );

    let cost = TimerCost::measure();
    let online: Vec<&DeviceEpoch> = rounds
        .iter()
        .flat_map(|r| &r.devices)
        .filter(|d| d.online)
        .collect();
    let sampled: Vec<(&DeviceEpoch, &Calls)> = online
        .iter()
        .filter_map(|d| Some((*d, d.calls.as_ref()?)))
        .collect();
    let layers = LayerCosts::split(
        online.iter().map(|d| RunSample {
            run_ns: d.run_ns,
            sim_ms: d.sim_ms,
            calls: d.calls.as_ref(),
        }),
        cost,
    );
    let cycles: Vec<Cycle> = rounds
        .iter()
        .flat_map(|r| r.cycles.iter().copied())
        .collect();
    let plain_s = median(&plain_run_s);
    let traced_s = median_of(rounds.iter().map(|r| r.wall_ns as f64 * 1e-9));
    let profiles = roster_signatures()
        .into_iter()
        .filter_map(|(sig, _, _)| store.get(&sig).map(|p| p.profile.clone()))
        .collect::<Vec<_>>();
    let us = |ns: u64| ns as f64 * 1e-3;

    out.metric(
        "soc.device.new_us",
        median_of(online.iter().map(|d| us(d.new_ns))),
        "us",
    );
    out.metric(
        "core.controller.build_us",
        median_of(online.iter().map(|d| us(d.build_ns))),
        "us",
    );
    out.metric("linprog.hull.build_us", hull_build_us(&profiles), "us");
    out.metric("soc.us_per_sim_s", layers.soc, "us/s");
    out.metric("workloads.us_per_sim_s", layers.app, "us/s");
    out.metric("governors.us_per_sim_s", layers.gov, "us/s");
    out.metric("core.controller.us_per_sim_s", layers.ctrl, "us/s");
    out.metric(
        "soc.steps",
        rounds[0].devices.iter().map(|d| d.events).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "profiler.profile_s",
        median_of(resolves.iter().map(|r| r.profile_s)),
        "s",
    );
    out.metric(
        "profiler.default_s",
        median_of(resolves.iter().map(|r| r.default_s)),
        "s",
    );
    out.metric(
        "util.pool.busy_pct",
        median_of(
            rounds
                .iter()
                .map(|r| 100.0 * r.job_ns as f64 / (r.threads as u64 * r.map_ns) as f64),
        ),
        "%",
    );
    out.metric(
        "util.pool.wait_s",
        median_of(rounds.iter().map(|r| r.pool_wait_ns() as f64 * 1e-9)),
        "s",
    );
    out.metric(
        "core.controller.solve_ns",
        median_of(cycles.iter().map(|c| c.solve_ns as f64)),
        "ns",
    );
    out.metric(
        "core.controller.actuation_ns",
        median_of(cycles.iter().map(|c| c.actuation_ns as f64)),
        "ns",
    );
    out.metric(
        "core.controller.rest_ns",
        median_of(cycles.iter().map(|c| c.rest_ns(cost))),
        "ns",
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        "%",
    );
    out.metric(
        "trace.coverage_pct",
        median_of(rounds.iter().map(TracedRound::coverage_pct)),
        "%",
    );

    let first = &rounds[0];
    let (encode_ms, decode_ms, mib) = checkpoint_probe(cfg, &fleet)?;
    out.extra(
        "fleet.store.resolve_s",
        median_of(resolves.iter().map(|r| r.resolve_s)),
        "s",
    );
    out.extra(
        "fleet.spec.build_us",
        median_of(online.iter().map(|d| us(d.spec_ns))),
        "us",
    );
    out.extra(
        "core.supervisor.migrate_in_us",
        median_of(
            sampled
                .iter()
                .map(|(d, c)| us(d.migrate_in_ns + c.ctrl_start_ns)),
        ),
        "us",
    );
    out.extra(
        "core.supervisor.migrate_out_us",
        median_of(online.iter().map(|d| us(d.migrate_out_ns))),
        "us",
    );
    out.extra(
        "core.persist.snapshot_bytes",
        median_of(online.iter().map(|d| d.snapshot_bytes as f64)),
        "B",
    );
    out.extra(
        "core.supervisor.restarts",
        first.devices.iter().map(|d| d.restarts).sum::<u64>() as f64,
        "count",
    );
    out.extra(
        "core.supervisor.down_epochs",
        first.devices.iter().filter(|d| d.down).count() as f64,
        "count",
    );
    out.extra(
        "obs.fleet_stats.record_ns",
        median_of(online.iter().map(|d| d.record_ns as f64)),
        "ns",
    );
    out.extra(
        "fleet.report.merge_us",
        median_of(
            rounds
                .iter()
                .flat_map(|r| r.merge_ns.iter().map(|&ns| us(ns))),
        ),
        "us",
    );
    out.extra("fleet.checkpoint.encode_ms", encode_ms, "ms");
    out.extra("fleet.checkpoint.decode_ms", decode_ms, "ms");
    out.extra("fleet.checkpoint.mib", mib, "MiB");
    out.extra(
        "soc.event.run_us",
        median_of(
            online
                .iter()
                .filter(|d| d.calls.is_none())
                .map(|d| us(d.run_ns)),
        ),
        "us",
    );
    out.extra(
        "soc.event.events",
        median_of(online.iter().map(|d| d.events as f64)),
        "count",
    );
    out.extra("trace.wrapped_slowdown", layers.wrapped_slowdown, "x");
    out.extra("trace.timer_ns", cost.total_ns, "ns");
    out.extra(
        "trace.sampled_shards",
        cfg.shards.div_ceil(TRACE_STRIDE) as f64,
        "count",
    );
    out.extra("trace.rounds", rounds.len() as f64, "count");
    Ok(())
}
