//! CPU hotplugging (`mpdecision`).
//!
//! Qualcomm's `mpdecision` daemon onlines and offlines cores based on
//! load. The paper **disables it** during all experiments ("to prevent
//! CPU hotplugging which can lead to inaccurate measurements", §IV-A);
//! it is implemented here so that choice can be reproduced as an
//! ablation: with `MpDecision` running, repeated measurements of the
//! same configuration vary, exactly the effect the authors avoided.

use asgov_soc::{Device, Policy};

/// Simplified `mpdecision`: steps the online-core count one core at a
/// time based on aggregate load.
#[derive(Debug, Clone, Default)]
pub struct MpDecision {
    next_sample_ms: u64,
    last_ms: u64,
    last_busy_core_ms: f64,
}

impl MpDecision {
    /// Sampling period, ms.
    const SAMPLE_MS: u64 = 100;
    /// Per-online-core load above which another core is onlined.
    const UP_THRESHOLD: f64 = 0.70;
    /// Per-online-core load below which a core is offlined.
    const DOWN_THRESHOLD: f64 = 0.25;
    /// Minimum online cores.
    const MIN_CORES: f64 = 1.0;
    /// Maximum online cores.
    const MAX_CORES: f64 = 4.0;
}

impl Policy for MpDecision {
    fn name(&self) -> &str {
        "mpdecision"
    }

    fn start(&mut self, device: &mut Device) {
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
        self.last_ms = device.now_ms();
        self.last_busy_core_ms = device.busy_core_ms();
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms {
            return;
        }
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
        let now = device.now_ms();
        let dt = now.saturating_sub(self.last_ms) as f64;
        if dt <= 0.0 {
            return;
        }
        let busy_cores = (device.busy_core_ms() - self.last_busy_core_ms) / dt;
        self.last_ms = now;
        self.last_busy_core_ms = device.busy_core_ms();

        let online = device.online_cores();
        let per_core = busy_cores / online;
        if per_core > Self::UP_THRESHOLD && online < Self::MAX_CORES {
            device.set_online_cores((online + 1.0).min(Self::MAX_CORES));
        } else if per_core < Self::DOWN_THRESHOLD && online > Self::MIN_CORES {
            device.set_online_cores((online - 1.0).max(Self::MIN_CORES));
        }
    }

    fn finish(&mut self, device: &mut Device) {
        // Leave the device in the paper's experimental state.
        device.set_online_cores(4.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::{Demand, DeviceConfig};

    fn device() -> Device {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        Device::new(cfg)
    }

    fn heavy() -> Demand {
        Demand {
            ipc0: 1.5,
            bytes_per_instr: 0.1,
            desired_gips: None,
            active_cores: 4.0,
            ..Demand::default()
        }
    }

    #[test]
    fn offlines_cores_when_idle() {
        let mut dev = device();
        let mut mp = MpDecision::default();
        mp.start(&mut dev);
        let idle = Demand::idle();
        for _ in 0..2_000 {
            dev.tick(&idle);
            mp.tick(&mut dev);
        }
        assert_eq!(dev.online_cores(), 1.0);
    }

    #[test]
    fn onlines_cores_under_load() {
        let mut dev = device();
        dev.set_online_cores(1.0);
        let mut mp = MpDecision::default();
        mp.start(&mut dev);
        let d = heavy();
        for _ in 0..2_000 {
            dev.tick(&d);
            mp.tick(&mut dev);
        }
        assert!(dev.online_cores() >= 3.0, "got {}", dev.online_cores());
    }

    #[test]
    fn finish_restores_four_cores() {
        let mut dev = device();
        let mut mp = MpDecision::default();
        mp.start(&mut dev);
        dev.set_online_cores(2.0);
        mp.finish(&mut dev);
        assert_eq!(dev.online_cores(), 4.0);
    }

    #[test]
    fn hotplugging_perturbs_measurements() {
        // The reason the paper disables mpdecision: the same pinned
        // configuration measures differently depending on hotplug state.
        let measure = |with_mp: bool| {
            let mut dev = device();
            dev.set_cpu_governor("userspace");
            dev.set_cpu_freq(asgov_soc::FreqIndex(9));
            let mut mp = MpDecision::default();
            if with_mp {
                mp.start(&mut dev);
            }
            // Alternate idle and busy 250 ms slices.
            let mut executed = 0.0;
            for i in 0..4_000u64 {
                let d = if (i / 250) % 2 == 0 {
                    Demand::idle()
                } else {
                    heavy()
                };
                let out = dev.tick(&d);
                if with_mp {
                    mp.tick(&mut dev);
                }
                executed += out.executed.instructions;
            }
            executed
        };
        let pinned = measure(false);
        let hotplugged = measure(true);
        assert!(
            hotplugged < pinned * 0.95,
            "hotplugging should visibly cost throughput on bursty load: {pinned} vs {hotplugged}"
        );
    }
}
