//! The online controller (paper Fig. 2) as an [`asgov_soc::Policy`].

use crate::optimizer::EnergyOptimizer;
use crate::persist::{self, Restartable, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::regulator::PerformanceRegulator;
use crate::resilience::{self, DegradationLadder, DivergenceGuard, LadderEvent, PerfGate};
use crate::scheduler::ConfigScheduler;
use asgov_obs::CycleRecord;
use asgov_profiler::ProfileTable;
use asgov_soc::{sysfs, DegradationLevel, Device, HealthReport, PerfReader, Policy};
// asgov-analyze: allow(nondeterminism): wall-clock latency is observability metadata, only read when a sink is installed
use std::time::Instant;

/// Which optimizer the controller runs each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerStrategy {
    /// The paper's linear program (exact, at-most-two configurations).
    #[default]
    LinearProgram,
    /// CoScale-style greedy local search (paper §VI comparison): a
    /// single configuration found by neighbour descent from the last
    /// applied point.
    Gradient,
}

/// Which configuration axes the controller actuates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// Coordinated control of CPU frequency *and* memory bandwidth (the
    /// paper's main contribution).
    Coordinated,
    /// CPU frequency only; memory bandwidth stays with the default
    /// `cpubw_hwmon` governor (the §V-D ablation, which consumes ~53 %
    /// more of the saved energy on average).
    CpuOnly,
}

/// Builder for [`EnergyController`].
#[derive(Debug, Clone)]
pub struct ControllerBuilder {
    base_gips: f64,
    optimizer: EnergyOptimizer,
    target_gips: Option<f64>,
    period_ms: u64,
    perf_noise_rel: f64,
    min_dwell_ms: u64,
    mode: ControlMode,
    seed: u64,
    target_margin: f64,
    gain: f64,
    strategy: OptimizerStrategy,
}

impl ControllerBuilder {
    /// Start building a controller around an offline profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile table is empty.
    pub fn new(profile: ProfileTable) -> Self {
        Self::with_optimizer(profile.base_gips, EnergyOptimizer::new(&profile))
    }

    /// Start building a controller around a prebuilt optimizer and the
    /// base speed (`base_gips`) of the profile it was built from — all
    /// a controller needs of the profile. A caller that builds many
    /// controllers of one profile (a fleet signature's device-epochs
    /// and supervised restarts) builds `EnergyOptimizer::new(&profile)`
    /// once and passes a clone of it here: no hull is rebuilt and no
    /// table is copied. With that optimizer the controller is
    /// identical to [`ControllerBuilder::new`]`(profile)`'s.
    ///
    /// Passing an optimizer built from another profile is a logic
    /// error that is not detected: the controller would plan over the
    /// other table.
    pub fn with_optimizer(base_gips: f64, optimizer: EnergyOptimizer) -> Self {
        Self {
            base_gips,
            optimizer,
            target_gips: None,
            period_ms: 2_000,
            perf_noise_rel: 0.02,
            min_dwell_ms: 200,
            mode: ControlMode::Coordinated,
            seed: 0xc0,
            target_margin: 0.01,
            gain: 0.45,
            strategy: OptimizerStrategy::default(),
        }
    }

    /// Set the performance target `r` in GIPS (typically the measured
    /// default-governor performance `R_def`). Without it the controller
    /// targets the middle of the profile's speedup range. Non-finite or
    /// non-positive values are rejected (with a logged warning) and
    /// leave the default target in place.
    pub fn target_gips(mut self, gips: f64) -> Self {
        if gips.is_finite() && gips > 0.0 {
            self.target_gips = Some(gips);
        } else {
            eprintln!("asgov: ignoring invalid target_gips {gips:?} (must be finite and positive)");
        }
        self
    }

    /// Control cycle duration 𝕋, ms (paper: 2000).
    pub fn period_ms(mut self, ms: u64) -> Self {
        self.period_ms = ms.max(200);
        self
    }

    /// Relative PMU measurement noise (σ). Non-finite or negative
    /// values are clamped to 0 with a logged warning.
    pub fn perf_noise_rel(mut self, rel: f64) -> Self {
        if rel.is_finite() && rel >= 0.0 {
            self.perf_noise_rel = rel;
        } else {
            eprintln!("asgov: clamping invalid perf_noise_rel {rel:?} to 0");
            self.perf_noise_rel = 0.0;
        }
        self
    }

    /// Minimum dwell per configuration, ms (paper: 200).
    pub fn min_dwell_ms(mut self, ms: u64) -> Self {
        self.min_dwell_ms = ms;
        self
    }

    /// Select coordinated or CPU-only control.
    pub fn mode(mut self, mode: ControlMode) -> Self {
        self.mode = mode;
        self
    }

    /// Seed for the perf reader's measurement noise.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Tolerance band on the performance target: the controller tracks
    /// `(1 − margin) · r`. "Maintaining the target" in the presence of
    /// PMU measurement noise needs a small slack, otherwise the noise
    /// pins the regulator against the profile's most expensive corner.
    /// Default 1 %, matching the paper's "worst case performance loss
    /// of < 1 %".
    pub fn target_margin(mut self, margin: f64) -> Self {
        if margin.is_finite() {
            self.target_margin = margin.clamp(0.0, 0.5);
        } else {
            eprintln!(
                "asgov: ignoring non-finite target_margin, keeping {}",
                self.target_margin
            );
        }
        self
    }

    /// Integrator gain (see `AdaptiveIntegrator::with_gain`); default
    /// 0.45 for noise immunity at the 2 s cycle. Values outside `(0, 1]`
    /// (or non-finite) would make the integrator panic or diverge, so
    /// they are rejected with a logged warning.
    pub fn gain(mut self, gain: f64) -> Self {
        if gain.is_finite() && gain > 0.0 && gain <= 1.0 {
            self.gain = gain;
        } else {
            eprintln!(
                "asgov: ignoring invalid gain {gain:?} (must be in (0, 1]), keeping {}",
                self.gain
            );
        }
        self
    }

    /// Select the per-cycle optimizer (default: the paper's LP).
    pub fn optimizer_strategy(mut self, strategy: OptimizerStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Build the controller.
    pub fn build(self) -> EnergyController {
        let optimizer = self.optimizer;
        let min_s = optimizer.min_speedup().max(1e-9);
        // Clamp marginally inside the table's maximum: a target within
        // measurement noise of the absolute maximum would otherwise pin
        // the controller to the most expensive corner configuration.
        let max_s = (optimizer.max_speedup() * 0.995).max(min_s);
        let target = self
            .target_gips
            .unwrap_or(self.base_gips * 0.5 * (min_s + max_s))
            * (1.0 - self.target_margin);
        let profiled_base = self.base_gips.max(1e-6);
        let regulator = PerformanceRegulator::with_gain(profiled_base, min_s, max_s, self.gain);
        let scheduler = ConfigScheduler::new(self.min_dwell_ms, self.mode == ControlMode::CpuOnly)
            .with_retry(resilience::MAX_RETRIES, resilience::BACKOFF_BASE_MS);
        // The plant cannot physically exceed base × max speedup; beyond
        // that (with headroom) a reading is corrupt, not optimistic.
        let plausible_max = (profiled_base * optimizer.max_speedup()).max(target);
        let safe_index = optimizer.max_speedup_index();
        EnergyController {
            optimizer,
            regulator,
            scheduler,
            perf: PerfReader::new(PerfReader::PAPER_PERIOD_MS, self.perf_noise_rel, self.seed),
            target_gips: target,
            period_ms: self.period_ms,
            mode: self.mode,
            cycle_end_ms: 0,
            readings: Vec::new(),
            last_measured: 0.0,
            strategy: self.strategy,
            last_lower_index: 0,
            gate: PerfGate::new(resilience::OUTLIER_FACTOR, plausible_max),
            guard: DivergenceGuard::new(resilience::DIVERGENCE_FACTOR, profiled_base),
            ladder: DegradationLadder::new(resilience::DEGRADE_AFTER, resilience::PROBATION_CYCLES),
            profiled_base,
            safe_index,
            drought_run: 0,
            perf_droughts: 0,
            cycles: 0,
            restarts: 0,
            snapshot_errors: 0,
        }
    }
}

/// The paper's online controller: measure → regulate → optimize →
/// schedule, every 𝕋 = 2 s. See the crate docs for the loop diagram.
#[derive(Debug, Clone)]
pub struct EnergyController {
    optimizer: EnergyOptimizer,
    regulator: PerformanceRegulator,
    scheduler: ConfigScheduler,
    perf: PerfReader,
    target_gips: f64,
    period_ms: u64,
    mode: ControlMode,
    cycle_end_ms: u64,
    readings: Vec<f64>,
    last_measured: f64,
    strategy: OptimizerStrategy,
    last_lower_index: usize,
    gate: PerfGate,
    guard: DivergenceGuard,
    ladder: DegradationLadder,
    profiled_base: f64,
    safe_index: usize,
    drought_run: u64,
    perf_droughts: u64,
    cycles: u64,
    // Supervisor telemetry stamped into emitted cycle records. Owned by
    // the supervising process, not the controller, so deliberately NOT
    // part of the snapshot payload.
    restarts: u64,
    snapshot_errors: u64,
}

impl EnergyController {
    /// The performance target `r`, GIPS.
    pub fn target_gips(&self) -> f64 {
        self.target_gips
    }

    /// The control mode.
    pub fn mode(&self) -> ControlMode {
        self.mode
    }

    /// The current base-speed estimate `b_n`.
    pub fn base_estimate(&self) -> f64 {
        self.regulator.base_speed()
    }

    /// Number of sysfs actuation failures that survived the recovery
    /// path — retries exhausted or unrecoverable (should stay zero).
    pub fn actuation_failures(&self) -> u64 {
        self.scheduler.writes_failed()
    }

    /// The run's health counters so far (always available; attached to
    /// [`asgov_soc::sim::RunReport`] through [`Policy::health`]).
    pub fn health_report(&self) -> HealthReport {
        HealthReport {
            level: self.ladder.level(),
            sysfs_busy: self.scheduler.sysfs_busy(),
            wrong_governor: self.scheduler.wrong_governor(),
            other_write_errors: self.scheduler.other_errors(),
            actuation_failures: self.scheduler.writes_failed(),
            retries: self.scheduler.retries(),
            governor_reasserts: self.scheduler.governor_reasserts(),
            thermal_clamps_detected: self.scheduler.thermal_clamps_detected(),
            perf_rejected: self.gate.rejected(),
            perf_droughts: self.perf_droughts,
            kalman_reseeds: self.guard.reseeds(),
            failed_cycles: self.ladder.failed_cycles(),
            degradations: self.ladder.degradations(),
            recoveries: self.ladder.recoveries(),
            recovery_latency_cycles: self.ladder.recovery_latency(),
            climb_latency_cycles: self.ladder.climb_latency(),
            // Restart accounting belongs to the supervisor, which
            // merges it in; an unsupervised controller reports zeros.
            ..HealthReport::default()
        }
    }

    /// Hand the device back to the stock governors (ladder bottom).
    fn enter_fallback(&mut self, device: &mut Device) {
        let _ = device.sysfs_write(sysfs::CPU_GOVERNOR, "interactive");
        if self.mode == ControlMode::Coordinated {
            let _ = device.sysfs_write(sysfs::BW_GOVERNOR, "cpubw_hwmon");
        }
        if self.optimizer.controls_gpu() {
            let _ = device.sysfs_write(sysfs::GPU_GOVERNOR, "msm-adreno-tz");
        }
    }

    /// Pin the safe (maximum-speedup) configuration through the
    /// scheduler. The scheduler's recovery path re-asserts `userspace`
    /// if something moved the governors, so this doubles as the
    /// recovery probe while at the ladder bottom.
    fn apply_safe_config(&mut self, device: &mut Device) {
        let period_s = self.period_ms as f64 * 1e-3;
        let plan = self.optimizer.pinned_plan(self.safe_index, period_s);
        self.scheduler.install(device, &plan, self.period_ms);
    }

    fn run_cycle(&mut self, device: &mut Device) {
        // Observability: record construction and the wall-clock reads
        // that feed it are gated on a sink being installed, so an
        // un-instrumented run takes none of these branches and its
        // simulation outputs stay bit-identical.
        let tracing = device.has_obs_sink();
        let cycle = self.cycles;
        self.cycles += 1;
        // 0. Consume the elapsed cycle's actuation outcome and judge
        //    the cycle. A cycle fails when actuation exhausted its
        //    retries or the measurement drought ran too long.
        let outcome = self.scheduler.take_cycle_outcome();
        if self.readings.is_empty() {
            self.drought_run += 1;
            self.perf_droughts += 1;
        } else {
            self.drought_run = 0;
        }
        let cycle_failed = outcome.failed || self.drought_run >= resilience::DROUGHT_CYCLES;
        let mut entered_fallback = false;
        match self.ladder.observe(cycle_failed) {
            LadderEvent::Down(DegradationLevel::SafeConfig) => {
                // Feedback can no longer be trusted: pin the safe
                // configuration and suspend optimization.
            }
            LadderEvent::Down(_) => {
                self.enter_fallback(device);
                entered_fallback = true;
            }
            LadderEvent::Up(DegradationLevel::Full) => {
                // Probation served: resume full control from a clean
                // estimator state instead of whatever the fault left.
                self.regulator.reseed(self.profiled_base);
                let s0 = self.target_gips / self.profiled_base;
                self.regulator.set_speedup(s0);
            }
            LadderEvent::Up(_) | LadderEvent::None => {}
        }

        // Degraded operation replaces the measure→regulate→optimize
        // pipeline with the level's fixed action.
        match self.ladder.level() {
            DegradationLevel::SafeConfig | DegradationLevel::FallbackGovernor => {
                self.readings.clear();
                // asgov-analyze: allow(nondeterminism): latency probe behind the obs gate; never taken when tracing is off
                let actuation_t = tracing.then(Instant::now);
                if self.ladder.level() == DegradationLevel::SafeConfig {
                    self.apply_safe_config(device);
                } else if !entered_fallback {
                    if cycle_failed {
                        // The last probe failed: make sure the stock
                        // governors still own the device (a partial
                        // probe may have re-asserted `userspace`).
                        self.enter_fallback(device);
                    } else {
                        // Probe for recovery: the scheduler re-asserts
                        // `userspace` and pins the safe configuration;
                        // success shows up as a clean cycle.
                        self.apply_safe_config(device);
                    }
                }
                if tracing {
                    let cfg = self.optimizer.config(self.safe_index);
                    let pinned = (cfg.freq.0 as u32, cfg.bw.0 as u32);
                    device.emit_cycle(&CycleRecord {
                        cycle,
                        t_ms: device.now_ms(),
                        target_gips: self.target_gips,
                        measured_gips: self.last_measured,
                        error: self.target_gips - self.last_measured,
                        base_estimate: self.regulator.base_speed(),
                        innovation: self.regulator.innovation(),
                        required_speedup: self.optimizer.speedup_at(self.safe_index),
                        lower: pinned,
                        upper: pinned,
                        tau_lower_ms: self.period_ms,
                        tau_upper_ms: 0,
                        solve_ns: 0,
                        actuation_ns: actuation_t.map_or(0, |t| t.elapsed().as_nanos() as u64),
                        fault: outcome.fault,
                        level: self.ladder.level(),
                        restarts: self.restarts,
                        snapshot_errors: self.snapshot_errors,
                    });
                }
                return;
            }
            DegradationLevel::Full => {}
        }

        // 1. Measurement y_n: average of this cycle's perf readings.
        let y = if self.readings.is_empty() {
            self.last_measured
        } else {
            self.readings.iter().sum::<f64>() / self.readings.len() as f64
        };
        self.readings.clear();
        self.last_measured = y;

        let applied = self.scheduler.applied_speedup();

        // 2. Regulate, then check the estimator did not diverge (a
        //    stream of corrupt measurements can drag the Kalman state
        //    somewhere no real application reaches; re-seed from the
        //    profiled base rather than keep integrating on garbage).
        let mut s_next = self.regulator.step(self.target_gips, y, applied);
        if self.guard.diverged(self.regulator.base_speed()) {
            self.regulator.reseed(self.profiled_base);
            s_next = (self.target_gips / self.profiled_base)
                .clamp(self.optimizer.min_speedup(), self.optimizer.max_speedup());
            self.regulator.set_speedup(s_next);
        }

        // 3. Optimize. (Inputs are validated; solve only fails on
        //    non-finite targets, which the clamped regulator precludes.)
        let period_s = self.period_ms as f64 * 1e-3;
        // asgov-analyze: allow(nondeterminism): latency probe behind the obs gate; never taken when tracing is off
        let solve_t = tracing.then(Instant::now);
        let plan = match self.strategy {
            OptimizerStrategy::LinearProgram => self.optimizer.solve(s_next, period_s),
            OptimizerStrategy::Gradient => {
                self.optimizer
                    .solve_gradient(s_next, period_s, self.last_lower_index)
            }
        };
        let solve_ns = solve_t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let Some(plan) = plan else {
            return;
        };
        self.last_lower_index = self.optimizer.index_of(plan.lower).unwrap_or(0);

        // 4. Schedule.
        // asgov-analyze: allow(nondeterminism): latency probe behind the obs gate; never taken when tracing is off
        let actuation_t = tracing.then(Instant::now);
        self.scheduler.install(device, &plan, self.period_ms);

        if tracing {
            let (tau_lower_ms, tau_upper_ms) = self.scheduler.rounded_dwell_ms();
            device.emit_cycle(&CycleRecord {
                cycle,
                t_ms: device.now_ms(),
                target_gips: self.target_gips,
                measured_gips: y,
                error: self.target_gips - y,
                base_estimate: self.regulator.base_speed(),
                innovation: self.regulator.innovation(),
                required_speedup: s_next,
                lower: (plan.lower.freq.0 as u32, plan.lower.bw.0 as u32),
                upper: (plan.upper.freq.0 as u32, plan.upper.bw.0 as u32),
                tau_lower_ms,
                tau_upper_ms,
                solve_ns,
                actuation_ns: actuation_t.map_or(0, |t| t.elapsed().as_nanos() as u64),
                fault: outcome.fault,
                level: self.ladder.level(),
                restarts: self.restarts,
                snapshot_errors: self.snapshot_errors,
            });
        }
    }
}

impl Restartable for EnergyController {
    fn snapshot_bytes(&self, now_ms: u64) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        w.put_uvar(now_ms);
        w.put_uvar(self.cycle_end_ms);
        w.put_uvar(self.cycles);
        w.put_f64(self.last_measured);
        w.put_f64_slice(&self.readings)?;
        w.put_uvar(self.drought_run);
        w.put_uvar(self.perf_droughts);
        w.put_uvar(self.last_lower_index as u64);
        self.regulator.encode_state(&mut w);
        self.scheduler.encode_state(&mut w);
        self.ladder.encode_state(&mut w);
        w.put_uvar(self.gate.rejected());
        w.put_uvar(self.guard.reseeds());
        w.finish()
    }

    /// Restores are transactional: the frame is decoded into locals and
    /// stack copies of the regulator, scheduler and ladder (plain data,
    /// so copying them allocates nothing), every domain condition is
    /// checked, and only then is anything committed. A refused frame
    /// leaves the controller untouched.
    fn restore_bytes(&mut self, bytes: &[u8], now_ms: u64) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        // Re-anchor absolute deadlines: the device clock kept running
        // while the controller was dead, so everything armed for the
        // future shifts by the downtime.
        let delta_ms = now_ms.saturating_sub(r.take_uvar()?);
        let cycle_end_ms = r.take_uvar()?.saturating_add(delta_ms);
        let cycles = r.take_uvar()?;
        let last_measured = r.take_f64()?;
        let readings = r.take_f64_vec()?;
        let drought_run = r.take_uvar()?;
        let perf_droughts = r.take_uvar()?;
        let last_lower_index: usize = persist::narrow(r.take_uvar()?)?;
        let mut regulator = self.regulator.clone();
        regulator.decode_state(&mut r)?;
        let mut scheduler = self.scheduler.clone();
        scheduler.decode_state(&mut r, delta_ms, |cfg| {
            self.optimizer.index_of(cfg).is_some()
        })?;
        let mut ladder = self.ladder.clone();
        ladder.decode_state(&mut r)?;
        let gate_rejected = r.take_uvar()?;
        let guard_reseeds = r.take_uvar()?;
        r.finish()?;
        // Domain validation: a frame can be checksum-clean yet carry
        // values the controller must never ingest (hand-crafted, or
        // written by a buggy peer). They would otherwise panic deep
        // inside the control loop.
        persist::ensure(last_measured.is_finite())?;
        persist::ensure(readings.iter().all(|g| g.is_finite()))?;
        persist::ensure(last_lower_index < self.optimizer.len())?;

        self.regulator = regulator;
        self.scheduler = scheduler;
        self.ladder = ladder;
        self.gate.restore_rejected(gate_rejected);
        self.guard.restore_reseeds(guard_reseeds);
        self.cycle_end_ms = cycle_end_ms;
        self.cycles = cycles;
        self.last_measured = last_measured;
        self.readings = readings;
        self.drought_run = drought_run;
        self.perf_droughts = perf_droughts;
        self.last_lower_index = last_lower_index;
        Ok(())
    }

    fn restart_cold(&mut self, device: &mut Device) {
        // Take the device over afresh, then drop to the safe
        // configuration: with no memory of the previous incarnation the
        // controller cannot trust a feedback history it does not have,
        // so it must serve a full probation before resuming
        // optimization.
        self.start(device);
        self.ladder.force_level(DegradationLevel::SafeConfig);
        self.apply_safe_config(device);
    }

    fn note_restart_telemetry(&mut self, restarts: u64, snapshot_errors: u64) {
        self.restarts = restarts;
        self.snapshot_errors = snapshot_errors;
    }
}

impl Policy for EnergyController {
    fn name(&self) -> &str {
        match self.mode {
            ControlMode::Coordinated => "asgov",
            ControlMode::CpuOnly => "asgov-cpu-only",
        }
    }

    fn start(&mut self, device: &mut Device) {
        // Take over the subsystems exactly as the paper does: select the
        // `userspace` governors through sysfs, then actuate via
        // `scaling_setspeed` / `userspace/set_freq`.
        let _ = device.sysfs_write(sysfs::CPU_GOVERNOR, "userspace");
        if self.mode == ControlMode::Coordinated {
            let _ = device.sysfs_write(sysfs::BW_GOVERNOR, "userspace");
        }
        if self.optimizer.controls_gpu() {
            let _ = device.sysfs_write(sysfs::GPU_GOVERNOR, "userspace");
        }
        self.perf.enable(device);
        self.cycle_end_ms = device.now_ms() + self.period_ms;
        self.readings.clear();

        // Initial plan: aim the profile at the target directly using the
        // profiled base speed, and sync the integrator so the first
        // feedback cycle continues from there instead of dipping to the
        // lowest configuration.
        let s0 = self.target_gips / self.regulator.base_speed().max(1e-9);
        self.regulator.set_speedup(s0);
        if let Some(plan) = self.optimizer.solve(s0, self.period_ms as f64 * 1e-3) {
            self.scheduler.install(device, &plan, self.period_ms);
        }
    }

    fn tick(&mut self, device: &mut Device) {
        if let Some(reading) = self.perf.poll(device) {
            // Sanity-gate the raw sample: non-finite or implausibly
            // large values never reach the regulator.
            if let Some(gips) = self.gate.accept(reading.gips) {
                self.readings.push(gips);
            }
        }
        self.scheduler.tick(device);
        if device.now_ms() >= self.cycle_end_ms {
            self.run_cycle(device);
            self.cycle_end_ms = device.now_ms() + self.period_ms;
        }
    }

    fn finish(&mut self, device: &mut Device) {
        self.perf.disable(device);
    }

    fn health(&self) -> Option<HealthReport> {
        Some(self.health_report())
    }

    fn next_event_ms(&self, device: &Device) -> u64 {
        // The controller's three internal clock domains: the perf
        // reader's sampling window, the scheduler's armed retry/switch
        // deadlines, and the control-period boundary. `tick` is a pure
        // no-op strictly before the nearest of them.
        self.perf
            .next_sample_due_ms()
            .min(self.scheduler.next_actuation_ms())
            .min(self.cycle_end_ms)
            .max(device.now_ms() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_obs::RingSink;
    use asgov_profiler::{measure_default, profile_app, Config, ProfileOptions};
    use asgov_soc::{sim, BwIndex, DeviceConfig, FreqIndex, Workload as _};
    use asgov_workloads::{apps, BackgroundLoad};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn fast_opts() -> ProfileOptions {
        ProfileOptions {
            runs_per_config: 1,
            run_ms: 5_000,
            freq_stride: 2,
            interpolate: true,
        }
    }

    #[test]
    fn controller_meets_target_for_steady_app() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::wechat(BackgroundLoad::baseline(1));
        let profile = profile_app(&dev_cfg, &mut app, &fast_opts());
        let default = measure_default(&dev_cfg, &mut app, 1, 40_000);

        let mut controller = ControllerBuilder::new(profile)
            .target_gips(default.gips)
            .build();
        let mut device = Device::new(dev_cfg);
        let sink = Rc::new(RefCell::new(RingSink::new(32)));
        device.install_obs_sink(sink.clone());
        app.reset();
        let report = sim::run(&mut device, &mut app, &mut [&mut controller], 40_000);

        let perf_delta = (report.avg_gips - default.gips) / default.gips;
        assert!(
            perf_delta > -0.05,
            "performance loss {perf_delta:.3} exceeds 5% (target {}, got {})",
            default.gips,
            report.avg_gips
        );
        assert_eq!(controller.actuation_failures(), 0);
        assert!(sink.borrow().metrics().cycles > 0);
    }

    #[test]
    fn controller_saves_energy_vs_default_for_game() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::angrybirds(BackgroundLoad::baseline(1));
        let profile = profile_app(&dev_cfg, &mut app, &fast_opts());
        let default = measure_default(&dev_cfg, &mut app, 1, 60_000);

        let mut controller = ControllerBuilder::new(profile)
            .target_gips(default.gips)
            .build();
        let mut device = Device::new(dev_cfg);
        app.reset();
        let report = sim::run(&mut device, &mut app, &mut [&mut controller], 60_000);

        let savings = (default.energy_j - report.energy_j) / default.energy_j;
        assert!(
            savings > 0.0,
            "controller should save energy: default {} J, controller {} J",
            default.energy_j,
            report.energy_j
        );
    }

    #[test]
    fn base_estimate_converges_toward_profiled_base() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::mxplayer(BackgroundLoad::baseline(1));
        let profile = profile_app(&dev_cfg, &mut app, &fast_opts());
        let profiled_base = profile.base_gips;

        let mut controller = ControllerBuilder::new(profile).target_gips(0.3).build();
        let mut device = Device::new(dev_cfg);
        app.reset();
        sim::run(&mut device, &mut app, &mut [&mut controller], 30_000);
        let est = controller.base_estimate();
        assert!(
            est > 0.3 * profiled_base && est < 3.0 * profiled_base,
            "estimate {est} wandered far from profiled base {profiled_base}"
        );
    }

    #[test]
    fn cpu_only_mode_does_not_actuate_bandwidth() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let profile = profile_app(&dev_cfg, &mut app, &fast_opts());

        let mut controller = ControllerBuilder::new(profile)
            .target_gips(0.1)
            .mode(ControlMode::CpuOnly)
            .build();
        let mut bw_gov = asgov_governors::CpubwHwmon::default();
        let mut device = Device::new(dev_cfg);
        app.reset();
        sim::run(
            &mut device,
            &mut app,
            &mut [&mut bw_gov, &mut controller],
            20_000,
        );
        assert_eq!(device.bw_governor(), "cpubw_hwmon");
        assert_eq!(device.cpu_governor(), "userspace");
        assert_eq!(controller.actuation_failures(), 0);
    }

    #[test]
    fn gradient_strategy_controls_too() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::wechat(BackgroundLoad::baseline(1));
        let profile = profile_app(&dev_cfg, &mut app, &fast_opts());
        let default = measure_default(&dev_cfg, &mut app, 1, 30_000);

        let mut controller = ControllerBuilder::new(profile)
            .target_gips(default.gips)
            .optimizer_strategy(crate::OptimizerStrategy::Gradient)
            .build();
        let mut device = Device::new(dev_cfg);
        app.reset();
        let report = sim::run(&mut device, &mut app, &mut [&mut controller], 30_000);
        let perf = (report.avg_gips - default.gips) / default.gips;
        assert!(
            perf > -0.08,
            "gradient strategy should still roughly hold the target, got {:.1}%",
            perf * 100.0
        );
        assert_eq!(controller.actuation_failures(), 0);
    }

    #[test]
    fn target_margin_shifts_the_setpoint() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::baseline(1));
        let profile = profile_app(&dev_cfg, &mut app, &fast_opts());
        let tight = ControllerBuilder::new(profile.clone())
            .target_gips(0.2)
            .target_margin(0.0)
            .build();
        let slack = ControllerBuilder::new(profile)
            .target_gips(0.2)
            .target_margin(0.10)
            .build();
        assert!((tight.target_gips() - 0.2).abs() < 1e-12);
        assert!((slack.target_gips() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_or_clamps_invalid_inputs() {
        let profile = {
            let dev_cfg = DeviceConfig::nexus6();
            let mut app = apps::spotify(BackgroundLoad::baseline(1));
            profile_app(
                &dev_cfg,
                &mut app,
                &ProfileOptions {
                    runs_per_config: 1,
                    run_ms: 2_000,
                    freq_stride: 4,
                    interpolate: false,
                },
            )
        };
        // A valid value survives a later invalid one; non-finite and
        // non-positive inputs never poison the controller.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let c = ControllerBuilder::new(profile.clone())
                .target_gips(0.25)
                .target_gips(bad)
                .gain(0.3)
                .gain(bad)
                .target_margin(0.1)
                .build();
            assert!((c.target_gips() - 0.225).abs() < 1e-12, "bad = {bad:?}");
        }
        // Negative noise clamps to zero; a NaN margin keeps the default.
        let c = ControllerBuilder::new(profile)
            .target_gips(0.25)
            .perf_noise_rel(-0.5)
            .target_margin(f64::NAN)
            .build();
        assert!(c.target_gips().is_finite() && c.target_gips() > 0.0);
    }

    #[test]
    fn builder_defaults_are_the_papers() {
        let profile = {
            let dev_cfg = DeviceConfig::nexus6();
            let mut app = apps::spotify(BackgroundLoad::baseline(1));
            profile_app(
                &dev_cfg,
                &mut app,
                &ProfileOptions {
                    runs_per_config: 1,
                    run_ms: 2_000,
                    freq_stride: 4,
                    interpolate: false,
                },
            )
        };
        let c = ControllerBuilder::new(profile).build();
        assert_eq!(c.period_ms, 2_000);
        assert_eq!(c.perf.period_ms(), 1_000);
        assert_eq!(c.mode(), ControlMode::Coordinated);
    }

    /// A five-configuration table on the Nexus 6 ladders.
    fn small_profile() -> ProfileTable {
        let mk = |f: usize, b: usize, s: f64, p: f64| asgov_profiler::ProfileEntry {
            config: Config {
                freq: FreqIndex(f),
                bw: BwIndex(b),
                gpu: None,
            },
            speedup: s,
            power_w: p,
            measured: true,
        };
        ProfileTable {
            app: "test".into(),
            base_gips: 0.2,
            entries: vec![
                mk(0, 0, 1.0, 1.5),
                mk(2, 0, 1.6, 1.9),
                mk(4, 0, 2.1, 2.4),
                mk(4, 12, 2.6, 3.0),
                mk(8, 12, 3.4, 4.2),
            ],
        }
    }

    /// A controller payload written field by field in the frame's
    /// layout, independently of the controller's own encoder. `bad`
    /// names the one field that carries an out-of-domain value; the
    /// frame is CRC-clean either way.
    fn hand_built_frame(table_len: usize, bad: Option<&str>) -> Vec<u8> {
        let is = |field: &str| bad == Some(field);
        let mut w = SnapshotWriter::new();
        // Controller scalars: saved_at_ms, cycle_end_ms, cycles,
        // last_measured, readings, drought_run, perf_droughts,
        // last_lower_index.
        w.put_uvar(4_000);
        w.put_uvar(6_000);
        w.put_uvar(2);
        w.put_f64(0.31);
        w.put_f64_slice(&[0.30, 0.32]).expect("small slice");
        w.put_uvar(0);
        w.put_uvar(1);
        w.put_uvar(if is("last_lower_index") {
            table_len as u64
        } else {
            1
        });
        // Regulator: estimate, variance, speedup, error, innovation.
        w.put_f64(0.21);
        w.put_f64(if is("variance") { -1.0 } else { 0.002 });
        w.put_f64(1.4);
        w.put_f64(0.01);
        w.put_f64(-0.02);
        // Scheduler: switch deadline, pending upper (8, 12) or one
        // outside the profile, applied speedup, dwells, no retry, seven
        // counters, cycle_failed, last fault.
        w.put_opt_uvar(Some(5_200));
        w.put_bool(true);
        w.put_uvar(if is("pending_upper") { 9 } else { 8 });
        w.put_uvar(12);
        w.put_opt_uvar(None);
        w.put_f64(1.5);
        w.put_uvar(1_200);
        w.put_uvar(800);
        w.put_bool(false);
        w.put_uvar(0);
        w.put_uvar(0);
        for counter in 1..=7 {
            w.put_uvar(counter);
        }
        w.put_bool(false);
        w.put_opt_u8(Some(if is("fault") { 9 } else { 4 }));
        // Ladder: level, six counters, four optional cycle marks.
        w.put_u8(if is("level") { 7 } else { 1 });
        for counter in [5, 1, 0, 3, 1, 0] {
            w.put_uvar(counter);
        }
        w.put_opt_uvar(Some(4));
        w.put_opt_uvar(Some(2));
        w.put_opt_uvar(None);
        w.put_opt_uvar(None);
        // Perf-gate rejections, divergence-guard reseeds.
        w.put_uvar(3);
        w.put_uvar(0);
        w.finish().expect("small frame")
    }

    #[test]
    fn restore_is_transactional_at_the_controller_level() {
        let mut controller = ControllerBuilder::new(small_profile())
            .target_gips(0.4)
            .build();
        let mut device = Device::new(DeviceConfig::nexus6());
        let mut app = asgov_soc::ConstantWorkload::new("steady", 0.5, 1.2, 0.8);
        sim::run(&mut device, &mut app, &mut [&mut controller], 7_300);
        let now_ms = device.now_ms();
        let table_len = controller.optimizer.len();

        // The well-formed frame restores: the bad frames below differ
        // from it in exactly the named field.
        let mut accepting = controller.clone();
        accepting
            .restore_bytes(&hand_built_frame(table_len, None), now_ms)
            .expect("the well-formed hand-built frame restores");

        let debug_before = format!("{controller:?}");
        let bytes_before = controller.snapshot_bytes(now_ms).expect("encodes");
        for bad in [
            "variance",
            "level",
            "pending_upper",
            "last_lower_index",
            "fault",
        ] {
            let frame = hand_built_frame(table_len, Some(bad));
            assert!(
                controller.restore_bytes(&frame, now_ms).is_err(),
                "{bad}: an out-of-domain value must be refused"
            );
            assert_eq!(
                format!("{controller:?}"),
                debug_before,
                "{bad}: a refused restore touched the controller"
            );
            assert_eq!(
                controller.snapshot_bytes(now_ms).expect("encodes"),
                bytes_before,
                "{bad}: a refused restore changed the next snapshot"
            );
        }
    }
}
