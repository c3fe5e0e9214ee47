//! The scheduler S (paper Fig. 2): applies the optimizer's plan to the
//! device through sysfs, honouring a minimum dwell time.
//!
//! The paper's implementation never keeps the CPUs at a frequency for
//! less than 200 ms, so a plan's `τ_l` is rounded to that granularity;
//! plans whose lower dwell rounds to zero collapse to the upper
//! configuration (and vice versa). Not to be confused with the OS task
//! scheduler.

use crate::optimizer::Plan;
use crate::persist::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use asgov_profiler::Config;
use asgov_soc::sysfs::{self, Decimal};
use asgov_soc::{BwIndex, Device, FreqIndex, GpuFreqIndex, SocErrorKind};

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

    /// Append the scheduler's mutable state to a snapshot payload. The
    /// dwell/retry tuning (`min_dwell_ms`, `cpu_only`, `max_retries`,
    /// `backoff_base_ms`) are construction parameters and are not
    /// written. Deadlines (`switch_at_ms`, `retry_at_ms`) are written as
    /// the absolute device milliseconds they were armed for;
    /// [`decode_state`](ConfigScheduler::decode_state) re-anchors them.
    pub fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put_opt_uvar(self.switch_at_ms);
        put_opt_config(w, self.pending_upper);
        w.put_f64(self.applied_speedup);
        w.put_uvar(self.last_dwell_ms.0);
        w.put_uvar(self.last_dwell_ms.1);
        put_opt_config(w, self.retry_config);
        w.put_uvar(self.retry_at_ms);
        w.put_uvar(u64::from(self.retry_attempts));
        w.put_uvar(self.writes_failed);
        w.put_uvar(self.sysfs_busy);
        w.put_uvar(self.wrong_governor);
        w.put_uvar(self.other_errors);
        w.put_uvar(self.retries);
        w.put_uvar(self.governor_reasserts);
        w.put_uvar(self.thermal_clamps_detected);
        w.put_bool(self.cycle_failed);
        w.put_opt_u8(self.last_fault.map(SocErrorKind::wire_code));
    }

    /// Read the state [`encode_state`](ConfigScheduler::encode_state)
    /// wrote, shifting every armed deadline forward by `delta_ms` (the
    /// downtime between the snapshot and the restart) so the pending
    /// switch and retry fire relative to the resumed clock rather than
    /// in the past. A pending or retried configuration that `known`
    /// refuses (one outside the controller's profile), a non-finite
    /// applied speedup or an unknown fault code is
    /// [`SnapshotError::Corrupt`].
    ///
    /// Fields are assigned as they are read, so an error leaves the
    /// scheduler partly overwritten: decode into a copy and keep it
    /// only on success.
    pub fn decode_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
        delta_ms: u64,
        known: impl Fn(Config) -> bool,
    ) -> Result<(), SnapshotError> {
        self.switch_at_ms = r.take_opt_uvar()?.map(|t| t.saturating_add(delta_ms));
        self.pending_upper = take_opt_config(r)?;
        self.applied_speedup = r.take_f64()?;
        self.last_dwell_ms = (r.take_uvar()?, r.take_uvar()?);
        self.retry_config = take_opt_config(r)?;
        self.retry_at_ms = r.take_uvar()?.saturating_add(delta_ms);
        self.retry_attempts = persist::narrow(r.take_uvar()?)?;
        self.writes_failed = r.take_uvar()?;
        self.sysfs_busy = r.take_uvar()?;
        self.wrong_governor = r.take_uvar()?;
        self.other_errors = r.take_uvar()?;
        self.retries = r.take_uvar()?;
        self.governor_reasserts = r.take_uvar()?;
        self.thermal_clamps_detected = r.take_uvar()?;
        self.cycle_failed = r.take_bool()?;
        self.last_fault = match r.take_opt_u8()? {
            Some(code) => Some(persist::require(SocErrorKind::from_wire(code))?),
            None => None,
        };
        persist::ensure(self.applied_speedup.is_finite())?;
        for cfg in [self.pending_upper, self.retry_config]
            .into_iter()
            .flatten()
        {
            persist::ensure(known(cfg))?;
        }
        Ok(())
    }
}

/// Append one profile configuration to a snapshot payload. The GPU
/// index rides in a typed `put_opt_uvar` field, so the presence tag is
/// persist.rs's 0/1 convention rather than a hand-rolled byte.
fn put_config(w: &mut SnapshotWriter, cfg: Config) {
    w.put_uvar(cfg.freq.0 as u64);
    w.put_uvar(cfg.bw.0 as u64);
    w.put_opt_uvar(cfg.gpu.map(|g| g.0 as u64));
}

/// Decode one profile configuration (whether the profile holds it is
/// the caller's check).
fn take_config(r: &mut SnapshotReader<'_>) -> Result<Config, SnapshotError> {
    let freq = FreqIndex(persist::narrow(r.take_uvar()?)?);
    let bw = BwIndex(persist::narrow(r.take_uvar()?)?);
    let gpu = r
        .take_opt_uvar()?
        .map(persist::narrow)
        .transpose()?
        .map(GpuFreqIndex);
    Ok(Config { freq, bw, gpu })
}

fn put_opt_config(w: &mut SnapshotWriter, cfg: Option<Config>) {
    w.put_bool(cfg.is_some());
    if let Some(c) = cfg {
        put_config(w, c);
    }
}

fn take_opt_config(r: &mut SnapshotReader<'_>) -> Result<Option<Config>, SnapshotError> {
    if r.take_bool()? {
        Ok(Some(take_config(r)?))
    } else {
        Ok(None)
    }
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

    /// `sched`'s state, framed alone.
    fn state_frame(sched: &ConfigScheduler) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        sched.encode_state(&mut w);
        w.finish().expect("small frame")
    }

    /// A fresh 200 ms scheduler decoded from `frame`, `delta_ms` later.
    fn decoded(
        frame: &[u8],
        delta_ms: u64,
        known: impl Fn(Config) -> bool,
    ) -> Result<ConfigScheduler, SnapshotError> {
        let mut sched = ConfigScheduler::new(200, false);
        let mut r = SnapshotReader::new(frame)?;
        sched.decode_state(&mut r, delta_ms, known)?;
        r.finish()?;
        Ok(sched)
    }

    #[test]
    fn state_round_trips_and_reanchors_deadlines() {
        let mut dev = userspace_device();
        let mut sched = ConfigScheduler::new(200, false);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 1.2, 0.8), 2000);
        assert_eq!(sched.next_actuation_ms(), 1200);
        let frame = state_frame(&sched);

        // Zero-delta decode reproduces the scheduler exactly.
        let fresh = decoded(&frame, 0, |_| true).expect("restorable");
        assert_eq!(format!("{fresh:?}"), format!("{sched:?}"));
        assert_eq!(state_frame(&fresh), frame);

        // A 300 ms downtime shifts the armed switch by 300 ms.
        let mut shifted = decoded(&frame, 300, |_| true).expect("restorable");
        assert_eq!(shifted.switch_at_ms, Some(1500));
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
    fn decode_refuses_configs_outside_the_profile_and_bad_codes() {
        let mut dev = userspace_device();
        let mut sched = ConfigScheduler::new(200, false);
        sched.install(&mut dev, &plan((2, 1), (8, 5), 1.2, 0.8), 2000);
        let frame = state_frame(&sched);
        // The pending upper (8, 5) is outside a profile that lacks it.
        let lacks_upper = |cfg: Config| cfg.freq != FreqIndex(8);
        assert_eq!(
            decoded(&frame, 0, lacks_upper).map(|_| ()),
            Err(SnapshotError::Corrupt)
        );
        // An unknown fault code is refused: the code is the payload's
        // last byte, and the CRC (header bytes 12..16) is re-sealed.
        sched.last_fault = Some(SocErrorKind::Busy);
        let mut frame = state_frame(&sched);
        let last = frame.len() - 1;
        frame[last] = 9;
        let crc = persist::crc32(&frame[persist::HEADER_LEN..]);
        frame[12..16].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decoded(&frame, 0, |_| true).map(|_| ()),
            Err(SnapshotError::Corrupt)
        );
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
