//! The scheduler S (paper Fig. 2): applies the optimizer's plan to the
//! device through sysfs, honouring a minimum dwell time.
//!
//! The paper's implementation never keeps the CPUs at a frequency for
//! less than 200 ms, so a plan's `τ_l` is rounded to that granularity;
//! plans whose lower dwell rounds to zero collapse to the upper
//! configuration (and vice versa). Not to be confused with the OS task
//! scheduler.

use crate::optimizer::Plan;
use asgov_profiler::Config;
use asgov_soc::sysfs::{self, Decimal};
use asgov_soc::{Device, SocErrorKind};

/// What happened to actuation over the control cycle just ended
/// (consumed by the controller's degradation ladder each cycle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleOutcome {
    /// A configuration could not be applied even after retries.
    pub failed: bool,
    /// The cause of the last write failure seen this cycle (recovered
    /// or not), for diagnostics.
    pub fault: Option<SocErrorKind>,
}

/// Applies `(c_l, τ_l) → (c_h, τ_h)` plans at tick granularity.
///
/// The scheduler is hardened against a hostile sysfs: transient
/// `-EBUSY` rejections are retried with exponential backoff across
/// ticks, `WrongGovernor` rejections (an external agent stole the
/// governor) re-assert `userspace` and retry immediately, and every
/// successful CPU write is read back through `scaling_cur_freq` to
/// detect silent thermal clamping. All of this is diagnostics-only on a
/// healthy device: no extra writes, no behavioural change.
#[derive(Debug, Clone)]
pub struct ConfigScheduler {
    min_dwell_ms: u64,
    cpu_only: bool,
    switch_at_ms: Option<u64>,
    pending_upper: Option<Config>,
    applied_speedup: f64,
    last_dwell_ms: (u64, u64),
    max_retries: u32,
    backoff_base_ms: u64,
    retry_config: Option<Config>,
    retry_at_ms: u64,
    retry_attempts: u32,
    writes_failed: u64,
    sysfs_busy: u64,
    wrong_governor: u64,
    other_errors: u64,
    retries: u64,
    governor_reasserts: u64,
    thermal_clamps_detected: u64,
    cycle_failed: bool,
    last_fault: Option<SocErrorKind>,
}

impl ConfigScheduler {
    /// Create a scheduler with the given minimum dwell (paper: 200 ms).
    /// In `cpu_only` mode only the CPU frequency is actuated; the memory
    /// bandwidth is left to whatever devfreq governor is active (the
    /// §V-D ablation).
    pub fn new(min_dwell_ms: u64, cpu_only: bool) -> Self {
        Self {
            min_dwell_ms: min_dwell_ms.max(1),
            cpu_only,
            switch_at_ms: None,
            pending_upper: None,
            applied_speedup: 1.0,
            last_dwell_ms: (0, 0),
            max_retries: 3,
            backoff_base_ms: 10,
            retry_config: None,
            retry_at_ms: 0,
            retry_attempts: 0,
            writes_failed: 0,
            sysfs_busy: 0,
            wrong_governor: 0,
            other_errors: 0,
            retries: 0,
            governor_reasserts: 0,
            thermal_clamps_detected: 0,
            cycle_failed: false,
            last_fault: None,
        }
    }

    /// Override the retry policy for transiently rejected writes
    /// (default: 3 retries, 10 ms base backoff, doubling per attempt).
    pub fn with_retry(mut self, max_retries: u32, backoff_base_ms: u64) -> Self {
        self.max_retries = max_retries;
        self.backoff_base_ms = backoff_base_ms.max(1);
        self
    }

    /// The average speedup the *rounded* schedule actually applies over
    /// the cycle (the Kalman filter's measurement coefficient).
    pub fn applied_speedup(&self) -> f64 {
        self.applied_speedup
    }

    /// The dwell split `(τ_l, τ_h)` of the most recently installed
    /// plan, ms, after quantization to the minimum dwell. Invariant:
    /// the two always sum to the control period exactly.
    pub fn rounded_dwell_ms(&self) -> (u64, u64) {
        self.last_dwell_ms
    }

    /// Count of sysfs writes that stayed failed after all recovery
    /// attempts (re-assert, retries). Zero on a healthy device.
    pub fn writes_failed(&self) -> u64 {
        self.writes_failed
    }

    /// Writes transiently rejected with `Busy`.
    pub fn sysfs_busy(&self) -> u64 {
        self.sysfs_busy
    }

    /// Writes rejected because an external agent moved the governor
    /// away from `userspace`.
    pub fn wrong_governor(&self) -> u64 {
        self.wrong_governor
    }

    /// Writes rejected for any other cause.
    pub fn other_errors(&self) -> u64 {
        self.other_errors
    }

    /// Write retries performed (immediate and backed-off).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Times `userspace` was re-asserted after a `WrongGovernor`
    /// rejection.
    pub fn governor_reasserts(&self) -> u64 {
        self.governor_reasserts
    }

    /// Successful CPU writes whose read-back (`scaling_cur_freq`) came
    /// back below the requested frequency — silent thermal mitigation.
    pub fn thermal_clamps_detected(&self) -> u64 {
        self.thermal_clamps_detected
    }

    /// Consume the cycle's actuation outcome (resets the per-cycle
    /// failure flag and fault record; counters are cumulative).
    pub fn take_cycle_outcome(&mut self) -> CycleOutcome {
        let out = CycleOutcome {
            failed: self.cycle_failed,
            fault: self.last_fault,
        };
        self.cycle_failed = false;
        self.last_fault = None;
        out
    }

    /// Install a plan for the control cycle of `period_ms` starting now.
    /// Applies the first configuration immediately and arms the switch
    /// point, with `τ_l` rounded to the minimum dwell.
    pub fn install(&mut self, device: &mut Device, plan: &Plan, period_ms: u64) {
        // A new plan supersedes any retry still pending from the last one.
        self.retry_config = None;
        self.retry_attempts = 0;
        let tau_l_req = (plan.tau_lower * 1000.0).round() as u64;
        // Round τ_l to the dwell grid, then assign the remainder to
        // τ_h so the dwells partition the control period exactly:
        // τ_l + τ_h == period_ms always. A remainder shorter than the
        // minimum dwell cannot be honoured as its own slot, so it
        // collapses into the lower side instead of silently shrinking
        // or stretching the period.
        let dwell = self.min_dwell_ms;
        let mut tau_l_ms = (((tau_l_req + dwell / 2) / dwell) * dwell).min(period_ms);
        let mut tau_u_ms = period_ms - tau_l_ms;
        if tau_u_ms > 0 && tau_u_ms < dwell {
            tau_l_ms = period_ms;
            tau_u_ms = 0;
        }
        self.last_dwell_ms = (tau_l_ms, tau_u_ms);

        if tau_l_ms == 0 {
            self.apply(device, plan.upper);
            self.switch_at_ms = None;
            self.pending_upper = None;
            self.applied_speedup = plan.speedup_upper;
        } else if tau_u_ms == 0 {
            self.apply(device, plan.lower);
            self.switch_at_ms = None;
            self.pending_upper = None;
            self.applied_speedup = plan.speedup_lower;
        } else {
            self.apply(device, plan.lower);
            self.switch_at_ms = Some(device.now_ms() + tau_l_ms);
            self.pending_upper = Some(plan.upper);
            let f = tau_l_ms as f64 / period_ms as f64;
            self.applied_speedup = f * plan.speedup_lower + (1.0 - f) * plan.speedup_upper;
        }
    }

    /// Earliest millisecond at which [`ConfigScheduler::tick`] can act
    /// — the nearer of the pending retry deadline and the armed
    /// intra-period switch point, or [`u64::MAX`] when neither is
    /// armed. Ticks strictly before this are pure no-ops, which is what
    /// lets the event engine skip them.
    pub fn next_actuation_ms(&self) -> u64 {
        let mut next = u64::MAX;
        if self.retry_config.is_some() {
            next = next.min(self.retry_at_ms);
        }
        if self.pending_upper.is_some() {
            if let Some(t) = self.switch_at_ms {
                next = next.min(t);
            }
        }
        next
    }

    /// Per-tick: perform the armed switch when its time comes, and
    /// re-attempt any write whose backoff has elapsed.
    pub fn tick(&mut self, device: &mut Device) {
        if let Some(cfg) = self.retry_config {
            if device.now_ms() >= self.retry_at_ms {
                self.retry_config = None;
                self.retries += 1;
                self.apply(device, cfg);
            }
        }
        if let (Some(t), Some(cfg)) = (self.switch_at_ms, self.pending_upper) {
            if device.now_ms() >= t {
                self.apply(device, cfg);
                self.switch_at_ms = None;
                self.pending_upper = None;
            }
        }
    }

    /// One sysfs write with recovery: on `WrongGovernor`, re-assert
    /// `userspace` at `governor_path` and retry immediately; other
    /// failures are counted and returned.
    fn write_recovering(
        &mut self,
        device: &mut Device,
        path: &str,
        value: &str,
        governor_path: &str,
    ) -> Result<(), SocErrorKind> {
        let Err(e) = device.sysfs_write(path, value) else {
            return Ok(());
        };
        let kind = e.kind();
        self.last_fault = Some(kind);
        match kind {
            SocErrorKind::WrongGovernor => {
                self.wrong_governor += 1;
                if device.sysfs_write(governor_path, "userspace").is_ok() {
                    self.governor_reasserts += 1;
                    self.retries += 1;
                    if device.sysfs_write(path, value).is_ok() {
                        return Ok(());
                    }
                }
                Err(kind)
            }
            SocErrorKind::Busy => {
                self.sysfs_busy += 1;
                Err(kind)
            }
            _ => {
                self.other_errors += 1;
                Err(kind)
            }
        }
    }

    /// Write one configuration through sysfs (the paper's controller is
    /// a user-space agent; it has no kernel driver path). Transient
    /// failures arm a backed-off retry of the whole configuration (the
    /// writes are idempotent); exhausted retries mark the cycle failed.
    /// On a healthy device it allocates nothing: the paths are
    /// constants, the values are formatted on the stack and the
    /// read-back is numeric.
    fn apply(&mut self, device: &mut Device, config: Config) {
        let mut busy = false;
        let mut hard_failure = false;

        let khz = device.table().freq(config.freq).khz();
        match self.write_recovering(
            device,
            sysfs::CPU_SETSPEED,
            Decimal::new(khz).as_str(),
            sysfs::CPU_GOVERNOR,
        ) {
            Ok(()) => {
                // Detect silent thermal mitigation: the write succeeded
                // but the policy may have clamped the running frequency.
                if device
                    .sysfs_read_u64(sysfs::CPU_CUR_FREQ)
                    .is_ok_and(|cur| cur < khz)
                {
                    self.thermal_clamps_detected += 1;
                }
            }
            Err(SocErrorKind::Busy) => busy = true,
            Err(_) => hard_failure = true,
        }
        if !self.cpu_only {
            let mbps = device.table().bw(config.bw).0.round() as u64;
            match self.write_recovering(
                device,
                sysfs::BW_SET_FREQ,
                Decimal::new(mbps).as_str(),
                sysfs::BW_GOVERNOR,
            ) {
                Ok(()) => {}
                Err(SocErrorKind::Busy) => busy = true,
                Err(_) => hard_failure = true,
            }
        }
        if let Some(g) = config.gpu {
            let hz = (device.gpu().freq_ghz(g) * 1e9).round() as u64;
            match self.write_recovering(
                device,
                sysfs::GPU_CLK,
                Decimal::new(hz).as_str(),
                sysfs::GPU_GOVERNOR,
            ) {
                Ok(()) => {}
                Err(SocErrorKind::Busy) => busy = true,
                Err(_) => hard_failure = true,
            }
        }

        if busy && self.retry_attempts < self.max_retries {
            self.retry_attempts += 1;
            let backoff = self.backoff_base_ms << (self.retry_attempts - 1);
            self.retry_config = Some(config);
            self.retry_at_ms = device.now_ms() + backoff;
        } else if busy || hard_failure {
            self.retry_config = None;
            self.retry_attempts = 0;
            self.writes_failed += 1;
            self.cycle_failed = true;
        } else {
            self.retry_attempts = 0;
        }
    }

    /// Capture the scheduler's mutable state for a checkpoint. The
    /// dwell/retry tuning (`min_dwell_ms`, `cpu_only`, `max_retries`,
    /// `backoff_base_ms`) are construction parameters and are not part
    /// of the state. Deadlines (`switch_at_ms`, `retry_at_ms`) are
    /// stored as the absolute device milliseconds they were armed for;
    /// [`restore`](ConfigScheduler::restore) re-anchors them.
    pub fn checkpoint(&self) -> SchedulerState {
        SchedulerState {
            switch_at_ms: self.switch_at_ms,
            pending_upper: self.pending_upper,
            applied_speedup: self.applied_speedup,
            last_dwell_ms: self.last_dwell_ms,
            retry_config: self.retry_config,
            retry_at_ms: self.retry_at_ms,
            retry_attempts: self.retry_attempts,
            writes_failed: self.writes_failed,
            sysfs_busy: self.sysfs_busy,
            wrong_governor: self.wrong_governor,
            other_errors: self.other_errors,
            retries: self.retries,
            governor_reasserts: self.governor_reasserts,
            thermal_clamps_detected: self.thermal_clamps_detected,
            cycle_failed: self.cycle_failed,
            last_fault: self.last_fault,
        }
    }

    /// Restore a [`checkpoint`](ConfigScheduler::checkpoint), shifting
    /// every armed deadline forward by `delta_ms` (the downtime between
    /// the snapshot and the restart) so the pending switch and retry
    /// fire relative to the resumed clock rather than in the past.
    pub fn restore(&mut self, state: &SchedulerState, delta_ms: u64) {
        self.switch_at_ms = state.switch_at_ms.map(|t| t.saturating_add(delta_ms));
        self.pending_upper = state.pending_upper;
        self.applied_speedup = state.applied_speedup;
        self.last_dwell_ms = state.last_dwell_ms;
        self.retry_config = state.retry_config;
        self.retry_at_ms = state.retry_at_ms.saturating_add(delta_ms);
        self.retry_attempts = state.retry_attempts;
        self.writes_failed = state.writes_failed;
        self.sysfs_busy = state.sysfs_busy;
        self.wrong_governor = state.wrong_governor;
        self.other_errors = state.other_errors;
        self.retries = state.retries;
        self.governor_reasserts = state.governor_reasserts;
        self.thermal_clamps_detected = state.thermal_clamps_detected;
        self.cycle_failed = state.cycle_failed;
        self.last_fault = state.last_fault;
    }
}

/// The mutable state of a [`ConfigScheduler`], as captured by
/// [`ConfigScheduler::checkpoint`]. Plain data for the checkpoint codec
/// in [`crate::persist`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedulerState {
    /// Absolute ms of the armed intra-period switch, if any.
    pub switch_at_ms: Option<u64>,
    /// Upper configuration awaiting the switch, if any.
    pub pending_upper: Option<Config>,
    /// Average speedup of the installed (rounded) schedule.
    pub applied_speedup: f64,
    /// Dwell split `(τ_l, τ_h)` of the installed plan, ms.
    pub last_dwell_ms: (u64, u64),
    /// Configuration awaiting a backed-off retry, if any.
    pub retry_config: Option<Config>,
    /// Absolute ms the pending retry is armed for.
    pub retry_at_ms: u64,
    /// Retry attempts consumed for the pending configuration.
    pub retry_attempts: u32,
    /// Writes that stayed failed after all recovery attempts.
    pub writes_failed: u64,
    /// Writes transiently rejected with `Busy`.
    pub sysfs_busy: u64,
    /// Writes rejected with `WrongGovernor`.
    pub wrong_governor: u64,
    /// Writes rejected for any other cause.
    pub other_errors: u64,
    /// Write retries performed.
    pub retries: u64,
    /// Times `userspace` was re-asserted.
    pub governor_reasserts: u64,
    /// Thermal clamps detected via read-back.
    pub thermal_clamps_detected: u64,
    /// Whether the cycle in progress has already failed.
    pub cycle_failed: bool,
    /// Cause of the last write failure seen this cycle.
    pub last_fault: Option<SocErrorKind>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::{BwIndex, Demand, DeviceConfig, FreqIndex};

    fn plan(l: (usize, usize), u: (usize, usize), tau_l: f64, tau_u: f64) -> Plan {
        Plan {
            lower: Config {
                freq: FreqIndex(l.0),
                bw: BwIndex(l.1),
                gpu: None,
            },
            upper: Config {
                freq: FreqIndex(u.0),
                bw: BwIndex(u.1),
                gpu: None,
            },
            tau_lower: tau_l,
            tau_upper: tau_u,
            speedup_lower: 1.0,
            speedup_upper: 2.0,
            speedup: (tau_l * 1.0 + tau_u * 2.0) / (tau_l + tau_u).max(1e-9),
            energy_j: 1.0,
        }
    }

    fn userspace_device() -> Device {
        let mut d = Device::new(DeviceConfig::nexus6());
        d.set_cpu_governor("userspace");
        d.set_bw_governor("userspace");
        d
    }

    #[test]
    fn applies_lower_then_switches_to_upper() {
        let mut dev = userspace_device();
        let mut sched = ConfigScheduler::new(200, false);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 1.2, 0.8), 2000);
        assert_eq!(dev.freq(), FreqIndex(2));
        assert_eq!(dev.bw(), BwIndex(1));
        let idle = Demand::idle();
        for _ in 0..1199 {
            dev.tick(&idle);
            sched.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(2), "still in lower dwell");
        for _ in 0..2 {
            dev.tick(&idle);
            sched.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(8), "switched after τ_l");
        assert_eq!(dev.bw(), BwIndex(5));
        assert_eq!(sched.writes_failed(), 0);
    }

    #[test]
    fn rounds_tiny_lower_dwell_away() {
        let mut dev = userspace_device();
        let mut sched = ConfigScheduler::new(200, false);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 0.05, 1.95), 2000);
        // 50 ms rounds to 0 under a 200 ms dwell: straight to upper.
        assert_eq!(dev.freq(), FreqIndex(8));
        assert_eq!(sched.applied_speedup(), 2.0);
    }

    #[test]
    fn rounds_tiny_upper_dwell_away() {
        let mut dev = userspace_device();
        let mut sched = ConfigScheduler::new(200, false);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 1.93, 0.07), 2000);
        assert_eq!(dev.freq(), FreqIndex(2));
        assert_eq!(sched.applied_speedup(), 1.0);
        let idle = Demand::idle();
        for _ in 0..2100 {
            dev.tick(&idle);
            sched.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(2), "never switches");
    }

    #[test]
    fn applied_speedup_reflects_rounding() {
        let mut dev = userspace_device();
        let mut sched = ConfigScheduler::new(200, false);
        // τ_l = 0.93 s rounds to 1.0 s → applied = 0.5·1 + 0.5·2 = 1.5.
        sched.install(&mut dev, &plan((2, 1), (8, 5), 0.93, 1.07), 2000);
        assert!((sched.applied_speedup() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn rounded_dwells_partition_the_period_for_all_split_ratios() {
        // Regression: the quantized dwells must satisfy τ_l + τ_h ==
        // period exactly, for every split ratio and also for periods
        // that are not multiples of the 200 ms grid (where the old code
        // could leave a sliver of the period unassigned).
        for period_ms in [1000u64, 1900, 2000, 2100, 2500, 3700] {
            let mut dev = userspace_device();
            let mut sched = ConfigScheduler::new(200, false);
            for i in 0..=40u64 {
                let tau_l = period_ms as f64 / 1000.0 * i as f64 / 40.0;
                let tau_u = period_ms as f64 / 1000.0 - tau_l;
                sched.install(&mut dev, &plan((2, 1), (8, 5), tau_l, tau_u), period_ms);
                let (l, u) = sched.rounded_dwell_ms();
                assert_eq!(
                    l + u,
                    period_ms,
                    "period {period_ms}, split {i}/40: {l} + {u}"
                );
                assert!(
                    u == 0 || u >= 200,
                    "period {period_ms}, split {i}/40: τ_h sliver of {u} ms"
                );
                assert!(
                    l == 0 || l >= 200,
                    "period {period_ms}, split {i}/40: τ_l sliver of {l} ms"
                );
                // The applied speedup must describe the *rounded*
                // schedule, using the same exact partition.
                let f = l as f64 / period_ms as f64;
                let expect = f * 1.0 + (1.0 - f) * 2.0;
                assert!(
                    (sched.applied_speedup() - expect).abs() < 1e-9,
                    "period {period_ms}, split {i}/40"
                );
            }
        }
    }

    #[test]
    fn cpu_only_leaves_bandwidth_alone() {
        let mut dev = userspace_device();
        dev.set_bw_governor("cpubw_hwmon"); // default bw governor stays
        dev.set_mem_bw(BwIndex(7));
        let mut sched = ConfigScheduler::new(200, true);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 2.0, 0.0), 2000);
        assert_eq!(dev.freq(), FreqIndex(2));
        assert_eq!(dev.bw(), BwIndex(7), "bandwidth untouched in cpu-only");
        assert_eq!(sched.writes_failed(), 0);
    }

    #[test]
    fn applies_the_gpu_axis_when_present() {
        let mut dev = userspace_device();
        dev.set_gpu_governor("userspace");
        let mut sched = ConfigScheduler::new(200, false);
        let mut p = plan((2, 1), (8, 5), 2.0, 0.0);
        p.lower.gpu = Some(asgov_soc::GpuFreqIndex(3));
        sched.install(&mut dev, &p, 2000);
        assert_eq!(dev.gpu().freq(), asgov_soc::GpuFreqIndex(3));
        assert_eq!(sched.writes_failed(), 0);
    }

    #[test]
    fn gpu_write_recovers_by_reasserting_the_governor() {
        let mut dev = userspace_device(); // GPU still on msm-adreno-tz
        let mut sched = ConfigScheduler::new(200, false);
        let mut p = plan((2, 1), (8, 5), 2.0, 0.0);
        p.lower.gpu = Some(asgov_soc::GpuFreqIndex(3));
        sched.install(&mut dev, &p, 2000);
        assert_eq!(dev.gpu().governor(), "userspace", "governor re-asserted");
        assert_eq!(dev.gpu().freq(), asgov_soc::GpuFreqIndex(3));
        assert_eq!(sched.writes_failed(), 0, "recovered, not failed");
        assert!(sched.wrong_governor() > 0);
        assert!(sched.governor_reasserts() > 0);
    }

    #[test]
    fn wrong_governor_writes_recover_not_fail() {
        let mut dev = Device::new(DeviceConfig::nexus6()); // interactive active
        let mut sched = ConfigScheduler::new(200, false);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 2.0, 0.0), 2000);
        assert_eq!(dev.cpu_governor(), "userspace");
        assert_eq!(
            dev.freq(),
            FreqIndex(2),
            "configuration applied after recovery"
        );
        assert_eq!(sched.writes_failed(), 0);
        assert!(sched.wrong_governor() >= 1);
        assert!(sched.governor_reasserts() >= 1);
        let out = sched.take_cycle_outcome();
        assert!(!out.failed);
        assert_eq!(out.fault, Some(asgov_soc::SocErrorKind::WrongGovernor));
        // Taking the outcome resets the per-cycle fault record.
        assert_eq!(sched.take_cycle_outcome().fault, None);
    }

    #[test]
    fn busy_writes_are_retried_with_backoff() {
        use asgov_soc::{FaultInjector, FaultKind, FaultPlan};
        let mut dev = userspace_device();
        // Busy storm for the first 25 ms only: the first attempt fails,
        // a backed-off retry lands after the storm.
        let fp = FaultPlan::new()
            .window(0, 25, FaultKind::SysfsBusy)
            .expect("valid window");
        dev.install_faults(FaultInjector::new(fp, 5));
        let mut sched = ConfigScheduler::new(200, false).with_retry(3, 30);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 2.0, 0.0), 2000);
        assert_ne!(dev.freq(), FreqIndex(2), "first write rejected busy");
        let idle = Demand::idle();
        for _ in 0..100 {
            dev.tick(&idle);
            sched.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(2), "retry applied the config");
        assert_eq!(dev.bw(), BwIndex(1));
        assert!(sched.sysfs_busy() >= 1);
        assert!(sched.retries() >= 1);
        assert_eq!(sched.writes_failed(), 0);
        assert!(!sched.take_cycle_outcome().failed);
    }

    #[test]
    fn exhausted_retries_mark_the_cycle_failed() {
        use asgov_soc::{FaultInjector, FaultKind, FaultPlan};
        let mut dev = userspace_device();
        let fp = FaultPlan::new()
            .window(0, 60_000, FaultKind::SysfsBusy)
            .expect("valid window");
        dev.install_faults(FaultInjector::new(fp, 5));
        let mut sched = ConfigScheduler::new(200, false).with_retry(2, 5);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 2.0, 0.0), 2000);
        let idle = Demand::idle();
        for _ in 0..200 {
            dev.tick(&idle);
            sched.tick(&mut dev);
        }
        assert!(sched.writes_failed() >= 1);
        let out = sched.take_cycle_outcome();
        assert!(out.failed);
        assert_eq!(out.fault, Some(asgov_soc::SocErrorKind::Busy));
    }

    #[test]
    fn checkpoint_round_trips_and_reanchors_deadlines() {
        let mut dev = userspace_device();
        let mut sched = ConfigScheduler::new(200, false);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 1.2, 0.8), 2000);
        let state = sched.checkpoint();
        assert_eq!(state.switch_at_ms, Some(1200));
        assert!(state.pending_upper.is_some());

        // Zero-delta restore reproduces the scheduler exactly.
        let mut fresh = ConfigScheduler::new(200, false);
        fresh.restore(&state, 0);
        assert_eq!(fresh.checkpoint(), state);

        // A 300 ms downtime shifts the armed switch by 300 ms.
        let mut shifted = ConfigScheduler::new(200, false);
        shifted.restore(&state, 300);
        assert_eq!(shifted.checkpoint().switch_at_ms, Some(1500));
        assert_eq!(shifted.next_actuation_ms(), 1500);

        // The shifted switch still fires (against a device whose clock
        // kept running during the downtime).
        let idle = Demand::idle();
        while dev.now_ms() < 1500 {
            dev.tick(&idle);
        }
        shifted.tick(&mut dev);
        assert_eq!(dev.freq(), FreqIndex(8), "re-anchored switch applied");
    }

    #[test]
    fn thermal_clamp_is_detected_via_readback() {
        use asgov_soc::{FaultInjector, FaultKind, FaultPlan};
        let mut dev = userspace_device();
        let fp = FaultPlan::new()
            .window(0, 60_000, FaultKind::ThermalClamp(3))
            .expect("valid window");
        dev.install_faults(FaultInjector::new(fp, 5));
        let mut sched = ConfigScheduler::new(200, false);
        sched.install(&mut dev, &plan((8, 5), (8, 5), 2.0, 0.0), 2000);
        assert_eq!(dev.freq(), FreqIndex(3), "silently clamped to ceiling");
        assert!(sched.thermal_clamps_detected() >= 1);
        assert_eq!(sched.writes_failed(), 0, "the write itself succeeded");
    }
}
