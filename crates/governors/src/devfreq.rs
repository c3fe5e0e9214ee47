//! Memory-bus bandwidth (`devfreq`) governors.

use asgov_soc::{Device, Policy};

/// The Qualcomm `cpubw_hwmon` devfreq governor: monitors CPU→memory
/// traffic through L2 cache-event hardware counters and votes bus
/// bandwidth accordingly — up immediately, down by exponential back-off.
///
/// Crucially (for the paper's thesis) it knows nothing about what the
/// CPU governor is doing.
#[derive(Debug, Clone, Default)]
pub struct CpubwHwmon {
    next_sample_ms: u64,
    last_ms: u64,
    last_bus_bytes: f64,
    vote_mbps: f64,
}

impl CpubwHwmon {
    /// Traffic-sampling period, ms.
    const SAMPLE_MS: u64 = 50;
    /// Target bus utilization: the governor votes for
    /// `traffic / IO_PERCENT` of bandwidth (headroom above the measured
    /// traffic), mirroring the `io_percent` tunable of the Qualcomm
    /// `bw_hwmon` driver.
    const IO_PERCENT: f64 = 0.16;
    /// Per-sample multiplicative decay of the internal bandwidth vote
    /// while traffic is below it — the *exponential back-off* the paper
    /// calls out: the governor lowers bandwidth much more slowly than it
    /// raises it, holding a higher-than-necessary setting for most of
    /// the runtime (Fig. 5).
    const DECAY: f64 = 0.96;

    /// The current internal bandwidth vote, MBps.
    pub fn vote_mbps(&self) -> f64 {
        self.vote_mbps
    }
}

impl Policy for CpubwHwmon {
    fn name(&self) -> &str {
        "cpubw_hwmon"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_bw_governor("cpubw_hwmon");
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
        self.last_ms = device.now_ms();
        self.last_bus_bytes = device.pmu().bus_bytes();
        self.vote_mbps = device.table().bw(device.bw()).0;
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms || device.bw_governor() != "cpubw_hwmon" {
            return;
        }
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;

        let now = device.now_ms();
        let dt_s = (now - self.last_ms) as f64 * 1e-3;
        if dt_s <= 0.0 {
            return;
        }
        let bytes = device.pmu().bus_bytes();
        let traffic_mbps = (bytes - self.last_bus_bytes) / dt_s / 1e6;
        self.last_ms = now;
        self.last_bus_bytes = bytes;

        let desired = traffic_mbps / Self::IO_PERCENT;
        if desired > self.vote_mbps {
            self.vote_mbps = desired; // vote up immediately
        } else {
            // Exponential back-off downwards.
            self.vote_mbps = (self.vote_mbps * Self::DECAY).max(desired);
        }
        let idx = device.table().bw_at_least(self.vote_mbps);
        device.set_mem_bw(idx);
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        if device.bw_governor() != "cpubw_hwmon" {
            u64::MAX
        } else {
            self.next_sample_ms.max(device.now_ms() + 1)
        }
    }
}

/// The devfreq `performance` governor: pins the maximum bandwidth.
#[derive(Debug, Clone, Default)]
pub struct PerformanceBw;

impl Policy for PerformanceBw {
    fn name(&self) -> &str {
        "performance"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_bw_governor("performance");
    }

    fn tick(&mut self, _device: &mut Device) {}

    fn next_event_ms(&self, _device: &Device) -> u64 {
        // `tick` is a no-op: the event engine never needs to wake us.
        u64::MAX
    }
}

/// The devfreq `powersave` governor: pins the minimum bandwidth.
#[derive(Debug, Clone, Default)]
pub struct PowersaveBw;

impl Policy for PowersaveBw {
    fn name(&self) -> &str {
        "powersave"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_bw_governor("powersave");
    }

    fn tick(&mut self, _device: &mut Device) {}

    fn next_event_ms(&self, _device: &Device) -> u64 {
        // `tick` is a no-op: the event engine never needs to wake us.
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::{BwIndex, Demand, DeviceConfig};

    fn device() -> Device {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        Device::new(cfg)
    }

    fn traffic_demand(bpi: f64) -> Demand {
        Demand {
            ipc0: 1.5,
            bytes_per_instr: bpi,
            desired_gips: None,
            active_cores: 4.0,
            ..Demand::default()
        }
    }

    #[test]
    fn votes_up_immediately_under_traffic() {
        let mut dev = device();
        let mut gov = CpubwHwmon::default();
        gov.start(&mut dev);
        let d = traffic_demand(8.0);
        for _ in 0..200 {
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        assert!(
            dev.bw().0 >= 2,
            "bandwidth should have been raised, at {}",
            dev.bw()
        );
    }

    #[test]
    fn backs_off_slowly_when_traffic_stops() {
        let mut dev = device();
        let mut gov = CpubwHwmon::default();
        gov.start(&mut dev);
        let d = traffic_demand(8.0);
        for _ in 0..500 {
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        let peak = dev.bw();
        assert!(peak.0 >= 2);

        // Traffic ceases; the vote must decay gradually, not collapse.
        let idle = Demand::idle();
        let mut trace = Vec::new();
        for _ in 0..6000 {
            dev.tick(&idle);
            gov.tick(&mut dev);
            trace.push(dev.bw().0);
        }
        assert_eq!(*trace.last().unwrap(), 0, "eventually reaches minimum");
        // Exponential back-off ⇒ strictly more than one distinct level
        // visited on the way down and no single-step collapse.
        let after_300ms = trace[300];
        assert!(
            after_300ms > 0,
            "back-off must hold bandwidth above minimum for a while"
        );
        let distinct: std::collections::BTreeSet<usize> = trace.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "decay should walk down through levels: {distinct:?}"
        );
    }

    #[test]
    fn inert_when_not_selected() {
        let mut dev = device();
        let mut gov = CpubwHwmon::default();
        gov.start(&mut dev);
        dev.set_bw_governor("userspace");
        dev.set_mem_bw(BwIndex(4));
        let d = traffic_demand(8.0);
        for _ in 0..500 {
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.bw(), BwIndex(4));
    }

    #[test]
    fn fixed_governors_pin() {
        let mut dev = device();
        PerformanceBw.start(&mut dev);
        assert_eq!(dev.bw(), dev.table().max_bw());
        PowersaveBw.start(&mut dev);
        assert_eq!(dev.bw(), dev.table().min_bw());
    }
}
