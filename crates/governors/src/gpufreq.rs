//! GPU (`kgsl`) devfreq governors.

use asgov_soc::{Device, GpuFreqIndex, Policy};

/// Tunables of the [`AdrenoTz`] governor.
#[derive(Debug, Clone, PartialEq)]
pub struct AdrenoTzParams {
    /// Sampling period, ms.
    pub sample_ms: u64,
    /// GPU busy fraction above which the governor steps up.
    pub up_threshold: f64,
    /// GPU busy fraction below which the governor steps down.
    pub down_threshold: f64,
}

impl Default for AdrenoTzParams {
    fn default() -> Self {
        Self {
            sample_ms: 50,
            up_threshold: 0.80,
            down_threshold: 0.30,
        }
    }
}

/// Simplified `msm-adreno-tz`, the stock Adreno GPU governor: samples
/// GPU busy time and steps the frequency one ladder level at a time.
#[derive(Debug, Clone)]
pub struct AdrenoTz {
    params: AdrenoTzParams,
    next_sample_ms: u64,
    last_ms: u64,
    last_busy_ms: f64,
}

impl AdrenoTz {
    /// Create with explicit tunables.
    pub fn new(params: AdrenoTzParams) -> Self {
        Self {
            params,
            next_sample_ms: 0,
            last_ms: 0,
            last_busy_ms: 0.0,
        }
    }
}

impl Default for AdrenoTz {
    fn default() -> Self {
        Self::new(AdrenoTzParams::default())
    }
}

impl Policy for AdrenoTz {
    fn name(&self) -> &str {
        "msm-adreno-tz"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_gpu_governor("msm-adreno-tz");
        self.next_sample_ms = device.now_ms() + self.params.sample_ms;
        self.last_ms = device.now_ms();
        self.last_busy_ms = device.gpu().busy_ms();
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms || device.gpu().governor() != "msm-adreno-tz" {
            return;
        }
        self.next_sample_ms = device.now_ms() + self.params.sample_ms;
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
        if load > self.params.up_threshold && cur.0 + 1 < device.gpu().num_freqs() {
            device.set_gpu_freq(GpuFreqIndex(cur.0 + 1));
        } else if load < self.params.down_threshold && cur.0 > 0 {
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
