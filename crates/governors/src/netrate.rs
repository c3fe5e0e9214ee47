//! Packet-rate coalescing manager for the radio (paper §VII axis).
//!
//! Serves the same role for the network axis that `cpubw_hwmon` serves
//! for the memory bus: watch the serviced packet rate and adapt the
//! radio's service-rate setting — up immediately when saturated, down
//! lazily when over-provisioned.

use asgov_soc::{Device, NetRateIndex, Policy};

/// Steps the radio's packet service rate to track offered load.
#[derive(Debug, Clone, Default)]
pub struct NetRateManager {
    next_sample_ms: u64,
    last_ms: u64,
    last_serviced: f64,
}

impl NetRateManager {
    /// Sampling period, ms.
    const SAMPLE_MS: u64 = 100;
    /// Utilization of the current setting above which the manager steps
    /// up (saturation means demand is being throttled).
    const UP_THRESHOLD: f64 = 0.95;
    /// Utilization of the *next lower* setting below which the manager
    /// steps down.
    const DOWN_THRESHOLD: f64 = 0.60;
}

impl Policy for NetRateManager {
    fn name(&self) -> &str {
        "netrate"
    }

    fn start(&mut self, device: &mut Device) {
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
        self.last_ms = device.now_ms();
        self.last_serviced = device.radio().serviced_packets();
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms {
            return;
        }
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
        let now = device.now_ms();
        let dt_s = now.saturating_sub(self.last_ms) as f64 * 1e-3;
        if dt_s <= 0.0 {
            return;
        }
        let serviced = device.radio().serviced_packets();
        let rate_pps = (serviced - self.last_serviced) / dt_s;
        self.last_ms = now;
        self.last_serviced = serviced;

        let cur = device.radio().rate();
        let cap = device.radio().rate_pps(cur);
        if rate_pps > Self::UP_THRESHOLD * cap && cur.0 + 1 < device.radio().num_rates() {
            device.set_net_rate(NetRateIndex(cur.0 + 1));
        } else if cur.0 > 0 {
            let lower_cap = device.radio().rate_pps(NetRateIndex(cur.0 - 1));
            if rate_pps < Self::DOWN_THRESHOLD * lower_cap {
                device.set_net_rate(NetRateIndex(cur.0 - 1));
            }
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

    fn net_demand(pps: f64) -> Demand {
        Demand {
            net_pps: pps,
            desired_gips: Some(0.05),
            ..Demand::default()
        }
    }

    #[test]
    fn steps_up_under_saturation() {
        let mut dev = device();
        dev.set_net_rate(NetRateIndex(0)); // 100 pps
        let mut mgr = NetRateManager::default();
        mgr.start(&mut dev);
        for _ in 0..1_000 {
            dev.tick(&net_demand(3_000.0));
            mgr.tick(&mut dev);
        }
        assert!(
            dev.radio().rate().0 >= 3,
            "manager should climb to service 3k pps, at {}",
            dev.radio().rate()
        );
    }

    #[test]
    fn steps_down_when_quiet() {
        let mut dev = device();
        dev.set_net_rate(NetRateIndex(4));
        let mut mgr = NetRateManager::default();
        mgr.start(&mut dev);
        for _ in 0..2_000 {
            dev.tick(&net_demand(50.0));
            mgr.tick(&mut dev);
        }
        assert_eq!(dev.radio().rate(), NetRateIndex(0));
    }

    #[test]
    fn holds_a_matched_setting() {
        let mut dev = device();
        dev.set_net_rate(NetRateIndex(2)); // 1000 pps for 800 offered
        let mut mgr = NetRateManager::default();
        mgr.start(&mut dev);
        for _ in 0..1_000 {
            dev.tick(&net_demand(800.0));
            mgr.tick(&mut dev);
        }
        assert_eq!(dev.radio().rate(), NetRateIndex(2));
    }
}
