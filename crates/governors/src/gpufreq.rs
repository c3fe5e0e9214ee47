//! GPU (`kgsl`) devfreq governors.

use asgov_soc::{Device, GpuFreqIndex, Policy};

/// Simplified `msm-adreno-tz`, the stock Adreno GPU governor: samples
/// GPU busy time and steps the frequency one ladder level at a time.
#[derive(Debug, Clone, Default)]
pub struct AdrenoTz {
    next_sample_ms: u64,
    last_ms: u64,
    last_busy_ms: f64,
}

impl AdrenoTz {
    /// Sampling period, ms.
    const SAMPLE_MS: u64 = 50;
    /// GPU busy fraction above which the governor steps up.
    const UP_THRESHOLD: f64 = 0.80;
    /// GPU busy fraction below which the governor steps down.
    const DOWN_THRESHOLD: f64 = 0.30;
}

impl Policy for AdrenoTz {
    fn name(&self) -> &str {
        "msm-adreno-tz"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_gpu_governor("msm-adreno-tz");
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
        self.last_ms = device.now_ms();
        self.last_busy_ms = device.gpu().busy_ms();
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms || device.gpu().governor() != "msm-adreno-tz" {
            return;
        }
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
        let now = device.now_ms();
        let dt = now.saturating_sub(self.last_ms) as f64;
        if dt <= 0.0 {
            return;
        }
        let busy = device.gpu().busy_ms();
        let load = ((busy - self.last_busy_ms) / dt).clamp(0.0, 1.0);
        self.last_ms = now;
        self.last_busy_ms = busy;

        let cur = device.gpu().freq();
        if load > Self::UP_THRESHOLD && cur.0 + 1 < device.gpu().num_freqs() {
            device.set_gpu_freq(GpuFreqIndex(cur.0 + 1));
        } else if load < Self::DOWN_THRESHOLD && cur.0 > 0 {
            device.set_gpu_freq(GpuFreqIndex(cur.0 - 1));
        }
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        if device.gpu().governor() != "msm-adreno-tz" {
            u64::MAX
        } else {
            self.next_sample_ms.max(device.now_ms() + 1)
        }
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

    fn render_demand(gpu_work: f64) -> Demand {
        Demand {
            gpu_work,
            desired_gips: Some(0.05),
            ..Demand::default()
        }
    }

    #[test]
    fn climbs_under_render_load() {
        let mut dev = device();
        let mut gov = AdrenoTz::default();
        gov.start(&mut dev);
        let d = render_demand(0.55); // nearly the top frequency's worth
        for _ in 0..2_000 {
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        assert!(
            dev.gpu().freq().0 >= 3,
            "should climb toward 600 MHz, at {}",
            dev.gpu().freq()
        );
    }

    #[test]
    fn descends_when_idle() {
        let mut dev = device();
        let mut gov = AdrenoTz::default();
        gov.start(&mut dev);
        dev.set_gpu_freq(GpuFreqIndex(4));
        let d = render_demand(0.0);
        for _ in 0..2_000 {
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.gpu().freq(), GpuFreqIndex(0));
    }

    #[test]
    fn inert_when_not_selected() {
        let mut dev = device();
        let mut gov = AdrenoTz::default();
        gov.start(&mut dev);
        dev.set_gpu_governor("userspace");
        dev.set_gpu_freq(GpuFreqIndex(2));
        let d = render_demand(0.55);
        for _ in 0..500 {
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.gpu().freq(), GpuFreqIndex(2));
    }
}
