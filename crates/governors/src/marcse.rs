//! MAR-CSE: critical-speed DVFS from the memory access rate.
//!
//! The paper's §VI discusses Liang & Lai (EMC'10), a *model-based*
//! Android governor: offline, a set of benchmarks yields the
//! energy-optimal CPU frequency (*critical speed*, CS) as a function of
//! the *memory access rate* (MAR, bus bytes per instruction); online,
//! the governor reads the MAR from the PMU and applies the modeled
//! critical speed. It is application-agnostic and optimizes energy
//! *without a performance constraint* — exactly the two properties the
//! paper's controller improves on. Implemented here as a comparison
//! baseline; fit a model with `asgov_profiler::fit_mar_cse` or use the
//! bundled default.

use asgov_soc::{Device, Policy};

/// The MAR → critical-speed model: a piecewise-linear mapping from
/// memory access rate (bus bytes per instruction) to the energy-optimal
/// CPU frequency in GHz.
#[derive(Debug, Clone, PartialEq)]
pub struct MarCseModel {
    // (mar, critical_speed_ghz), sorted by mar.
    points: Vec<(f64, f64)>,
}

impl MarCseModel {
    /// Build a model from `(MAR, critical speed GHz)` samples.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or contains negative MARs.
    pub fn new(mut points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "model needs at least one point");
        assert!(
            points.iter().all(|&(m, _)| m >= 0.0),
            "memory access rates are non-negative"
        );
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self { points }
    }

    /// A default fit for the simulated Nexus 6: compute-bound code
    /// (low MAR) runs efficiently near the knee of the V²f curve;
    /// memory-bound code (high MAR) gains nothing from frequency and
    /// drops to the low end of the ladder.
    pub fn nexus6_default() -> Self {
        Self::new(vec![
            (0.0, 1.9584),
            (0.5, 1.4976),
            (1.0, 1.0368),
            (2.0, 0.7296),
            (4.0, 0.4224),
        ])
    }

    /// The modeled critical speed for a measured MAR (clamped linear
    /// interpolation).
    pub fn critical_speed_ghz(&self, mar: f64) -> f64 {
        let pts = &self.points;
        if mar <= pts[0].0 {
            return pts[0].1;
        }
        if mar >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let hi = pts.iter().position(|&(m, _)| m >= mar).expect("in range");
        let (m0, c0) = pts[hi - 1];
        let (m1, c1) = pts[hi];
        let t = (mar - m0) / (m1 - m0).max(f64::EPSILON);
        c0 + t * (c1 - c0)
    }
}

/// The MAR-CSE governor: samples the PMU's bytes-per-instruction ratio
/// and pins the modeled critical speed.
#[derive(Debug, Clone)]
pub struct MarCse {
    model: MarCseModel,
    sample_ms: u64,
    next_sample_ms: u64,
    last_instructions: f64,
    last_bytes: f64,
}

impl MarCse {
    /// A governor driven by `model`, sampling every 100 ms (the paper's
    /// PMU floor).
    pub fn new(model: MarCseModel) -> Self {
        Self {
            model,
            sample_ms: 100,
            next_sample_ms: 0,
            last_instructions: 0.0,
            last_bytes: 0.0,
        }
    }

    /// The model in use.
    pub fn model(&self) -> &MarCseModel {
        &self.model
    }
}

impl Default for MarCse {
    fn default() -> Self {
        Self::new(MarCseModel::nexus6_default())
    }
}

impl Policy for MarCse {
    fn name(&self) -> &str {
        "mar-cse"
    }

    fn start(&mut self, device: &mut Device) {
        // Like the controller, this is a frequency dictator: it takes
        // the userspace governor slot.
        device.set_cpu_governor("userspace");
        self.next_sample_ms = device.now_ms() + self.sample_ms;
        self.last_instructions = device.pmu().instructions();
        self.last_bytes = device.pmu().bus_bytes();
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms || device.cpu_governor() != "userspace" {
            return;
        }
        self.next_sample_ms = device.now_ms() + self.sample_ms;
        let instructions = device.pmu().instructions();
        let bytes = device.pmu().bus_bytes();
        let delta_i = instructions - self.last_instructions;
        let delta_b = bytes - self.last_bytes;
        self.last_instructions = instructions;
        self.last_bytes = bytes;
        if delta_i <= 0.0 {
            return; // idle window: no information, hold frequency
        }
        let mar = delta_b / delta_i;
        let cs = self.model.critical_speed_ghz(mar);
        let idx = device.table().freq_at_least(cs);
        device.set_cpu_freq(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::{Demand, DeviceConfig, FreqIndex};

    #[test]
    fn model_interpolates_and_clamps() {
        let m = MarCseModel::new(vec![(0.0, 2.0), (2.0, 1.0)]);
        assert_eq!(m.critical_speed_ghz(0.0), 2.0);
        assert_eq!(m.critical_speed_ghz(2.0), 1.0);
        assert!((m.critical_speed_ghz(1.0) - 1.5).abs() < 1e-12);
        assert_eq!(m.critical_speed_ghz(99.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_model_rejected() {
        let _ = MarCseModel::new(vec![]);
    }

    #[test]
    fn governor_tracks_memory_intensity() {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        let mut dev = Device::new(cfg);
        let mut gov = MarCse::default();
        gov.start(&mut dev);

        let compute = Demand {
            ipc0: 1.5,
            bytes_per_instr: 0.05,
            desired_gips: None,
            active_cores: 2.0,
            ..Demand::default()
        };
        for _ in 0..500 {
            dev.tick(&compute);
            gov.tick(&mut dev);
        }
        let freq_compute = dev.freq();

        let memory = Demand {
            ipc0: 1.5,
            bytes_per_instr: 4.0,
            desired_gips: None,
            active_cores: 2.0,
            ..Demand::default()
        };
        for _ in 0..500 {
            dev.tick(&memory);
            gov.tick(&mut dev);
        }
        let freq_memory = dev.freq();
        assert!(
            freq_memory < freq_compute,
            "memory-bound code gets a lower critical speed: {freq_compute} vs {freq_memory}"
        );
    }

    #[test]
    fn idle_windows_hold_frequency() {
        let mut dev = Device::new(DeviceConfig::nexus6());
        let mut gov = MarCse::default();
        gov.start(&mut dev);
        dev.set_cpu_freq(FreqIndex(7));
        let idle = Demand::idle();
        for _ in 0..500 {
            dev.tick(&idle);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(7));
    }
}
