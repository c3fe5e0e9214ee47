//! Model of the `perf` tool used to read the PMU.
//!
//! The paper measures application performance as GIPS derived from the
//! PMU instruction counter via `perf`. On the Nexus 6, `perf` has a
//! minimum sampling period of 100 ms, a *computation overhead of 40 %*
//! at that period (4 % at a 1 s period — it takes 1.04 s to report a 1 s
//! measurement) and a power overhead of ~15 mW. Those overheads are the
//! reason the paper picks a 2 s control cycle; [`PerfReader`] models
//! them so the reproduction faces the same trade-off.

use crate::device::Device;
use asgov_util::Rng;

/// Minimum supported sampling period, ms (as on the paper's Nexus 6).
pub const MIN_PERIOD_MS: u64 = 100;

/// One performance reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReading {
    /// Time the reading was produced, ms.
    pub t_ms: u64,
    /// Measured performance over the window, GIPS.
    pub gips: f64,
    /// Window length, ms.
    pub window_ms: u64,
}

/// Samples the PMU at a fixed period, injecting the tool's CPU-load and
/// power overhead into the device while enabled.
#[derive(Debug, Clone)]
pub struct PerfReader {
    period_ms: u64,
    noise_rel: f64,
    rng: Rng,
    enabled: bool,
    last_sample_ms: u64,
    last_instructions: f64,
}

impl PerfReader {
    /// The sampling period the paper runs `perf` at, ms: 1 s, which
    /// costs 4 % CPU load and 15 mW.
    pub const PAPER_PERIOD_MS: u64 = 1_000;

    /// Charge `device` the tool's cost at [`PerfReader::PAPER_PERIOD_MS`]
    /// without sampling, as an enabled reader at that period does. The
    /// paper runs `perf` in every measured run, the default-governor
    /// baseline and profiling included.
    pub fn apply_paper_overhead(device: &mut Device) {
        let paper = Self::new(Self::PAPER_PERIOD_MS, 0.0, 0);
        device.set_tool_overhead(paper.overhead_load(), paper.overhead_power_w());
    }

    /// A reader sampling every `period_ms` (clamped to the 100 ms
    /// minimum) with relative Gaussian measurement noise `noise_rel`
    /// (e.g. `0.02` for 2 %).
    pub fn new(period_ms: u64, noise_rel: f64, seed: u64) -> Self {
        Self {
            period_ms: period_ms.max(MIN_PERIOD_MS),
            noise_rel: noise_rel.max(0.0),
            rng: Rng::seed_from_u64(seed),
            enabled: false,
            last_sample_ms: 0,
            last_instructions: 0.0,
        }
    }

    /// The sampling period, ms.
    pub fn period_ms(&self) -> u64 {
        self.period_ms
    }

    /// The CPU-load overhead this reader imposes while enabled:
    /// 40 % at a 100 ms period, 4 % at 1 s (inversely proportional).
    pub fn overhead_load(&self) -> f64 {
        40.0 / self.period_ms as f64
    }

    /// The power overhead while enabled, watts.
    pub fn overhead_power_w(&self) -> f64 {
        0.015
    }

    /// Start sampling: snapshots the PMU and injects the tool overhead
    /// into the device.
    pub fn enable(&mut self, device: &mut Device) {
        self.enabled = true;
        self.last_sample_ms = device.now_ms();
        self.last_instructions = device.pmu().instructions();
        device.set_tool_overhead(self.overhead_load(), self.overhead_power_w());
    }

    /// Stop sampling and remove the tool overhead.
    pub fn disable(&mut self, device: &mut Device) {
        self.enabled = false;
        device.set_tool_overhead(0.0, 0.0);
    }

    /// Earliest millisecond at which [`PerfReader::poll`] can produce a
    /// reading ([`u64::MAX`] while disabled) — every earlier poll
    /// returns `None` without touching any state or RNG, so the event
    /// engine can skip straight to this deadline.
    pub fn next_sample_due_ms(&self) -> u64 {
        if self.enabled {
            self.last_sample_ms.saturating_add(self.period_ms)
        } else {
            u64::MAX
        }
    }

    /// Call once per tick; returns a reading when a full period has
    /// elapsed. Returns `None` while disabled or mid-window.
    ///
    /// When the device carries a [`crate::faults::FaultInjector`], the
    /// reading is subject to its perf pathologies: dropouts (the window
    /// is consumed but no reading is produced, like a lost `perf`
    /// sample) and corrupted values (NaN, zero, or spikes). The reader's
    /// own noise stream is drawn *before* the fault is applied, so an
    /// empty plan leaves readings bit-identical.
    pub fn poll(&mut self, device: &mut Device) -> Option<PerfReading> {
        if !self.enabled {
            return None;
        }
        let now = device.now_ms();
        let window = now - self.last_sample_ms;
        if window < self.period_ms {
            return None;
        }
        let instructions = device.pmu().instructions();
        let delta = instructions - self.last_instructions;
        let gips_true = delta / (window as f64 * 1e-3) / 1e9;
        let mut gips = if self.noise_rel > 0.0 {
            (gips_true * (1.0 + self.noise_rel * self.rng.gen_normal())).max(0.0)
        } else {
            gips_true
        };
        self.last_sample_ms = now;
        self.last_instructions = instructions;
        match device.draw_perf_fault() {
            Some(crate::faults::PerfFault::Dropout) => return None,
            Some(crate::faults::PerfFault::Nan) => gips = f64::NAN,
            Some(crate::faults::PerfFault::Zero) => gips = 0.0,
            Some(crate::faults::PerfFault::Spike(factor)) => gips *= factor,
            None => {}
        }
        Some(PerfReading {
            t_ms: now,
            gips,
            window_ms: window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::workload::Demand;

    fn device() -> Device {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        Device::new(cfg)
    }

    fn demand() -> Demand {
        Demand {
            ipc0: 1.5,
            bytes_per_instr: 0.5,
            desired_gips: Some(0.2),
            active_cores: 2.0,
            ..Demand::default()
        }
    }

    #[test]
    fn period_clamped_to_minimum() {
        let r = PerfReader::new(10, 0.0, 1);
        assert_eq!(r.period_ms(), MIN_PERIOD_MS);
    }

    #[test]
    fn overhead_matches_paper_numbers() {
        let fast = PerfReader::new(100, 0.0, 1);
        assert!((fast.overhead_load() - 0.40).abs() < 1e-12);
        let slow = PerfReader::new(1000, 0.0, 1);
        assert!((slow.overhead_load() - 0.04).abs() < 1e-12);
        assert!((slow.overhead_power_w() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn reading_matches_executed_rate() {
        let mut dev = device();
        let mut reader = PerfReader::new(1000, 0.0, 1);
        reader.enable(&mut dev);
        let mut reading = None;
        for _ in 0..1000 {
            dev.tick(&demand());
            if let Some(r) = reader.poll(&mut dev) {
                reading = Some(r);
            }
        }
        let r = reading.expect("one reading per second");
        assert_eq!(r.window_ms, 1000);
        assert!(
            (r.gips - 0.2).abs() < 0.02,
            "measured {} GIPS, expected ~0.2",
            r.gips
        );
    }

    #[test]
    fn no_reading_mid_window_or_disabled() {
        let mut dev = device();
        let mut reader = PerfReader::new(100, 0.0, 1);
        // Disabled: never reads.
        for _ in 0..200 {
            dev.tick(&demand());
            assert!(reader.poll(&mut dev).is_none());
        }
        reader.enable(&mut dev);
        dev.tick(&demand());
        assert!(reader.poll(&mut dev).is_none(), "mid-window");
    }

    #[test]
    fn enable_injects_overhead_and_disable_removes_it() {
        let mut dev = device();
        let mut reader = PerfReader::new(100, 0.0, 1);
        reader.enable(&mut dev);
        let loaded = dev.tick(&Demand::idle()).executed.busy_frac;
        assert!(loaded >= 0.39, "40% perf overhead visible in load");
        reader.disable(&mut dev);
        let clean = dev.tick(&Demand::idle()).executed.busy_frac;
        assert!(clean < 0.01);
    }

    #[test]
    fn perf_faults_corrupt_or_drop_readings() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let mut dev = device();
        let plan = FaultPlan::new()
            .window(0, 150, FaultKind::PerfNan)
            .and_then(|p| p.window(150, 250, FaultKind::PerfDropout))
            .and_then(|p| p.window(250, 350, FaultKind::PerfSpike(10.0)))
            .and_then(|p| p.window(350, 450, FaultKind::PerfZero))
            .expect("valid windows");
        dev.install_faults(FaultInjector::new(plan, 7));
        let mut reader = PerfReader::new(100, 0.0, 1);
        reader.enable(&mut dev);
        let mut readings = Vec::new();
        let mut polls = 0;
        for _ in 0..500 {
            dev.tick(&demand());
            let before = dev.now_ms();
            if before.is_multiple_of(100) {
                polls += 1;
            }
            if let Some(r) = reader.poll(&mut dev) {
                readings.push(r);
            }
        }
        assert!(polls >= 5);
        assert!(readings.iter().any(|r| r.gips.is_nan()), "NaN window");
        assert!(
            readings.len() < polls,
            "dropout window consumed at least one reading"
        );
        assert!(
            readings.iter().any(|r| r.gips > 1.0),
            "spike window produced an outlier (true rate ~0.2)"
        );
        assert!(readings.iter().any(|r| r.gips == 0.0), "zero window");
        let stats = dev.faults().unwrap().stats();
        assert!(stats.perf_dropouts >= 1);
        assert!(stats.perf_corrupted >= 3);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let run = |seed| {
            let mut dev = device();
            let mut reader = PerfReader::new(100, 0.05, seed);
            reader.enable(&mut dev);
            let mut vals = Vec::new();
            for _ in 0..500 {
                dev.tick(&demand());
                if let Some(r) = reader.poll(&mut dev) {
                    vals.push(r.gips);
                }
            }
            vals
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
