//! Load-adaptive control (paper §V-C, future work): track the runtime
//! background load and regenerate the profile table from a
//! [`LoadModel`] instead of re-profiling.

use crate::controller::EnergyController;
use crate::optimizer::EnergyOptimizer;
use crate::persist::{self, Restartable, SnapshotError, SnapshotReader, SnapshotWriter};
use asgov_profiler::{LoadModel, LoadSignature};
use asgov_soc::{Device, Policy};

impl EnergyController {
    /// Replace the profile table driving the optimizer (used by
    /// [`LoadAdaptiveController`]; also available to applications that
    /// re-profile on their own). The regulator's clamp range follows
    /// the new table.
    pub fn swap_profile(&mut self, table: &asgov_profiler::ProfileTable) {
        let optimizer = EnergyOptimizer::new(table);
        let min_s = optimizer.min_speedup().max(1e-9);
        let max_s = (optimizer.max_speedup() * 0.995).max(min_s);
        self.set_speedup_range(min_s, max_s);
        self.set_optimizer(optimizer);
    }
}

/// Wraps an [`EnergyController`] with a [`LoadModel`]: every
/// `refresh_cycles` control cycles it samples the device's
/// background-load accounting, generates the profile predicted for that
/// load, and swaps it into the controller.
#[derive(Debug)]
pub struct LoadAdaptiveController {
    inner: EnergyController,
    model: LoadModel,
    refresh_ms: u64,
    next_refresh_ms: u64,
    last_bg_util_ms: f64,
    last_bg_traffic_mb: f64,
    last_sample_ms: u64,
    swaps: u64,
}

impl LoadAdaptiveController {
    /// Wrap `controller`, refreshing the profile from `model` every
    /// `refresh_ms` (e.g. 10 000 ms — load drifts slowly).
    ///
    /// # Panics
    ///
    /// Panics if `refresh_ms` is zero.
    pub fn new(controller: EnergyController, model: LoadModel, refresh_ms: u64) -> Self {
        assert!(refresh_ms > 0, "refresh period must be positive");
        Self {
            inner: controller,
            model,
            refresh_ms,
            next_refresh_ms: 0,
            last_bg_util_ms: 0.0,
            last_bg_traffic_mb: 0.0,
            last_sample_ms: 0,
            swaps: 0,
        }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &EnergyController {
        &self.inner
    }

    /// How many times the profile has been regenerated.
    pub fn profile_swaps(&self) -> u64 {
        self.swaps
    }

    fn measure_signature(&mut self, device: &Device) -> Option<LoadSignature> {
        let now = device.now_ms();
        let dt_ms = now.saturating_sub(self.last_sample_ms) as f64;
        if dt_ms <= 0.0 {
            return None;
        }
        let util = (device.bg_util_ms() - self.last_bg_util_ms) / dt_ms;
        let traffic = (device.bg_traffic_mb() - self.last_bg_traffic_mb) / (dt_ms * 1e-3);
        self.last_sample_ms = now;
        self.last_bg_util_ms = device.bg_util_ms();
        self.last_bg_traffic_mb = device.bg_traffic_mb();
        Some(LoadSignature {
            cpu_util: util.clamp(0.0, 1.0),
            traffic_mbps: traffic.max(0.0),
        })
    }
}

impl Policy for LoadAdaptiveController {
    fn name(&self) -> &str {
        "asgov-load-adaptive"
    }

    fn start(&mut self, device: &mut Device) {
        self.last_sample_ms = device.now_ms();
        self.last_bg_util_ms = device.bg_util_ms();
        self.last_bg_traffic_mb = device.bg_traffic_mb();
        self.next_refresh_ms = device.now_ms() + self.refresh_ms;
        self.inner.start(device);
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() >= self.next_refresh_ms {
            self.next_refresh_ms = device.now_ms() + self.refresh_ms;
            if let Some(sig) = self.measure_signature(device) {
                // An unresolvable signature (NaN, anchor hole) means "no
                // better profile available": keep the current one.
                if let Ok(table) = self.model.table_for(&sig) {
                    self.inner.swap_profile(&table);
                    self.swaps += 1;
                }
            }
        }
        self.inner.tick(device);
    }

    fn finish(&mut self, device: &mut Device) {
        self.inner.finish(device);
    }

    fn health(&self) -> Option<asgov_soc::HealthReport> {
        self.inner.health()
    }

    fn next_event_ms(&self, device: &Device) -> u64 {
        self.next_refresh_ms
            .min(self.inner.next_event_ms(device))
            .max(device.now_ms() + 1)
    }
}

impl Restartable for LoadAdaptiveController {
    fn snapshot_bytes(&self, now_ms: u64) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        w.put_uvar(now_ms);
        w.put_uvar(self.swaps);
        w.put_uvar(self.next_refresh_ms);
        w.put_uvar(self.last_sample_ms);
        w.put_f64(self.last_bg_util_ms);
        w.put_f64(self.last_bg_traffic_mb);
        w.put_bytes(&self.inner.snapshot_bytes(now_ms)?)?;
        w.finish()
    }

    fn restore_bytes(&mut self, bytes: &[u8], now_ms: u64) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let saved_at_ms = r.take_uvar()?;
        let swaps = r.take_uvar()?;
        let next_refresh_ms = r.take_uvar()?;
        let last_sample_ms = r.take_uvar()?;
        let last_bg_util_ms = r.take_f64()?;
        let last_bg_traffic_mb = r.take_f64()?;
        let inner_bytes = r.take_bytes()?.to_vec();
        r.finish()?;
        persist::ensure(last_bg_util_ms.is_finite() && last_bg_util_ms >= 0.0)?;
        persist::ensure(last_bg_traffic_mb.is_finite() && last_bg_traffic_mb >= 0.0)?;
        // The inner restore is transactional; if it fails, nothing of
        // the wrapper has been applied either.
        self.inner.restore_bytes(&inner_bytes, now_ms)?;
        let delta_ms = now_ms.saturating_sub(saved_at_ms);
        self.swaps = swaps;
        self.next_refresh_ms = next_refresh_ms.saturating_add(delta_ms);
        // Sampling baselines stay absolute: the device's background
        // accounting kept running through the outage, so the next
        // signature averages correctly over the downtime.
        self.last_sample_ms = last_sample_ms;
        self.last_bg_util_ms = last_bg_util_ms;
        self.last_bg_traffic_mb = last_bg_traffic_mb;
        Ok(())
    }

    fn restart_cold(&mut self, device: &mut Device) {
        self.last_sample_ms = device.now_ms();
        self.last_bg_util_ms = device.bg_util_ms();
        self.last_bg_traffic_mb = device.bg_traffic_mb();
        self.next_refresh_ms = device.now_ms() + self.refresh_ms;
        self.inner.restart_cold(device);
    }

    fn note_restart_telemetry(&mut self, restarts: u64, snapshot_errors: u64) {
        self.inner.note_restart_telemetry(restarts, snapshot_errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerBuilder;
    use asgov_profiler::{profile_app, ProfileOptions};
    use asgov_soc::{sim, DeviceConfig, Workload as _};
    use asgov_workloads::{apps, BackgroundLoad, LoadLevel};

    fn quick() -> ProfileOptions {
        ProfileOptions {
            runs_per_config: 1,
            run_ms: 6_000,
            freq_stride: 4,
            interpolate: true,
        }
    }

    #[test]
    fn adaptive_controller_swaps_profiles_under_heavy_load() {
        let dev_cfg = DeviceConfig::nexus6();
        // Anchor profiles at NL and HL.
        let mut nl_app = apps::wechat(BackgroundLoad::none(1));
        let nl_profile = profile_app(&dev_cfg, &mut nl_app, &quick());
        let mut hl_app = apps::wechat(BackgroundLoad::heavy(1));
        let hl_profile = profile_app(&dev_cfg, &mut hl_app, &quick());
        let model = LoadModel::new(vec![
            (
                LoadSignature {
                    cpu_util: 0.008,
                    traffic_mbps: 4.0,
                },
                nl_profile.clone(),
            ),
            (
                LoadSignature {
                    cpu_util: 0.16,
                    traffic_mbps: 180.0,
                },
                hl_profile,
            ),
        ])
        .unwrap();

        let base = ControllerBuilder::new(nl_profile).target_gips(0.7).build();
        let mut adaptive = LoadAdaptiveController::new(base, model, 8_000);

        // Run under heavy load: the wrapper must regenerate the profile.
        let mut app = apps::wechat(BackgroundLoad::with_level(LoadLevel::Heavy, 1));
        let mut device = asgov_soc::Device::new(dev_cfg);
        app.reset();
        let report = sim::run(&mut device, &mut app, &mut [&mut adaptive], 30_000);
        assert!(adaptive.profile_swaps() >= 2, "profile should refresh");
        assert!(report.avg_gips > 0.5, "call keeps running");
    }

    #[test]
    fn snapshot_round_trips_and_rejects_garbage() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::none(1));
        let p = profile_app(&dev_cfg, &mut app, &quick());
        let model = LoadModel::new(vec![
            (
                LoadSignature {
                    cpu_util: 0.0,
                    traffic_mbps: 0.0,
                },
                p.clone(),
            ),
            (
                LoadSignature {
                    cpu_util: 0.2,
                    traffic_mbps: 100.0,
                },
                p.clone(),
            ),
        ])
        .unwrap();
        let base = ControllerBuilder::new(p.clone()).target_gips(0.6).build();
        let mut adaptive = LoadAdaptiveController::new(base, model.clone(), 5_000);

        let mut device = asgov_soc::Device::new(dev_cfg);
        app.reset();
        let _ = sim::run(&mut device, &mut app, &mut [&mut adaptive], 12_000);
        let swaps_before = adaptive.profile_swaps();
        let snap = adaptive
            .snapshot_bytes(device.now_ms())
            .expect("in-range snapshot");

        // A fresh wrapper restored from the snapshot carries the swap
        // count and refresh schedule across.
        let base2 = ControllerBuilder::new(p).target_gips(0.6).build();
        let mut restored = LoadAdaptiveController::new(base2, model, 5_000);
        restored.start(&mut device);
        restored
            .restore_bytes(&snap, device.now_ms() + 400)
            .expect("clean snapshot restores");
        assert_eq!(restored.profile_swaps(), swaps_before);
        assert_eq!(
            restored.next_refresh_ms,
            adaptive.next_refresh_ms + 400,
            "refresh deadline re-anchored by the downtime"
        );
        assert_eq!(restored.last_sample_ms, adaptive.last_sample_ms);

        // Damage detection covers the nested controller frame too.
        let mut bad = snap;
        if let Some(b) = bad.last_mut() {
            *b ^= 0x01;
        }
        assert!(restored.restore_bytes(&bad, device.now_ms() + 400).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_refresh_rejected() {
        let dev_cfg = DeviceConfig::nexus6();
        let mut app = apps::spotify(BackgroundLoad::none(1));
        let p = profile_app(&dev_cfg, &mut app, &quick());
        let model = LoadModel::new(vec![
            (
                LoadSignature {
                    cpu_util: 0.0,
                    traffic_mbps: 0.0,
                },
                p.clone(),
            ),
            (
                LoadSignature {
                    cpu_util: 0.2,
                    traffic_mbps: 100.0,
                },
                p.clone(),
            ),
        ])
        .unwrap();
        let base = ControllerBuilder::new(p).build();
        let _ = LoadAdaptiveController::new(base, model, 0);
    }
}
