//! Simulation harness: runs a workload on a device under a set of
//! policies and reports energy/performance statistics. [`run`] is the
//! event engine ([`crate::event::run`]); this module owns its report.

use crate::device::{Device, DeviceStats};
use crate::health::HealthReport;
use crate::monitor::PowerMonitor;
use crate::workload::Workload;
use crate::Policy;

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Names of the policies that governed the run, joined with `+`
    /// (`"none"` when the run used no policies).
    pub policy: String,
    /// Wall-clock duration actually simulated, ms.
    pub duration_ms: u64,
    /// Requested time limit, ms (`duration_ms < max_ms` means the
    /// workload completed early).
    pub max_ms: u64,
    /// Measured (Monsoon) energy over the run, joules.
    pub energy_j: f64,
    /// Average device power, watts.
    pub avg_power_w: f64,
    /// Foreground instructions retired.
    pub instructions: f64,
    /// Average foreground performance, GIPS.
    pub avg_gips: f64,
    /// Whether the workload reported completion before the time limit
    /// (fixed-work applications such as VidCon).
    pub completed: bool,
    /// Full device statistics (histograms, transitions).
    pub stats: DeviceStats,
    /// Health summary of the first policy that reports one (hardened
    /// controllers do; plain governors don't).
    pub health: Option<HealthReport>,
}

impl RunReport {
    /// Execution time in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_ms as f64 * 1e-3
    }

    /// This run as `monitor` measured it: the energy and average power
    /// (in the report and in its `stats`) are `monitor`'s, everything
    /// else is this report's. With one of the device's replica monitors
    /// ([`Device::replica_monitors`]) this is the report a run on a
    /// device seeded like that replica would return.
    pub fn measured_by(&self, monitor: &PowerMonitor) -> RunReport {
        let mut report = self.clone();
        report.energy_j = monitor.energy_j();
        report.avg_power_w = monitor.average_power_w();
        report.stats.energy_j = report.energy_j;
        report.stats.avg_power_w = report.avg_power_w;
        report
    }

    /// Machine-readable summary of the run as a JSON object (the
    /// hand-rolled `asgov-util` surface — the workspace carries no
    /// serde). Histograms are omitted; this is the scalar summary that
    /// result files and the bench harness persist.
    pub fn to_json(&self) -> asgov_util::Json {
        let mut doc = asgov_util::Json::object();
        doc.set("app", self.app.as_str());
        doc.set("policy", self.policy.as_str());
        doc.set("duration_ms", self.duration_ms as f64);
        doc.set("elapsed_ms", self.duration_ms as f64);
        doc.set("max_ms", self.max_ms as f64);
        doc.set("energy_j", self.energy_j);
        doc.set("avg_power_w", self.avg_power_w);
        doc.set("instructions", self.instructions);
        doc.set("avg_gips", self.avg_gips);
        doc.set("completed", self.completed);
        if let Some(h) = &self.health {
            doc.set("health", h.to_json());
        }
        doc
    }
}

pub use crate::event::run;

/// Assemble the [`RunReport`] at the end of a [`run`], once the
/// policies have finished.
pub(crate) fn collect_report<W: Workload + ?Sized>(
    device: &Device,
    workload: &W,
    policies: &[&mut dyn Policy],
    max_ms: u64,
    completed: bool,
) -> RunReport {
    let health = policies.iter().find_map(super::Policy::health);
    let policy = if policies.is_empty() {
        "none".to_string()
    } else {
        // `a+b+…`, built in one exactly sized allocation.
        let len = policies.iter().map(|p| p.name().len() + 1).sum::<usize>() - 1;
        let mut joined = String::with_capacity(len);
        for (i, p) in policies.iter().enumerate() {
            if i > 0 {
                joined.push('+');
            }
            joined.push_str(p.name());
        }
        joined
    };

    let stats = device.stats();
    RunReport {
        app: workload.name().to_string(),
        policy,
        duration_ms: stats.elapsed_ms,
        max_ms,
        energy_j: stats.energy_j,
        avg_power_w: stats.avg_power_w,
        instructions: stats.instructions,
        avg_gips: stats.avg_gips,
        completed,
        stats,
        health,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::dvfs::FreqIndex;
    use crate::workload::{ConstantWorkload, Demand, Executed};

    /// A policy that pins a frequency at start (for testing the harness).
    struct PinFreq(FreqIndex);
    impl Policy for PinFreq {
        fn name(&self) -> &str {
            "pin"
        }
        fn start(&mut self, device: &mut Device) {
            device.set_cpu_governor("userspace");
            device.set_cpu_freq(self.0);
        }
        fn tick(&mut self, _device: &mut Device) {}
    }

    /// Fixed-work workload for completion testing.
    struct Batch {
        remaining: f64,
    }
    impl Workload for Batch {
        fn name(&self) -> &str {
            "batch"
        }
        fn demand(&mut self, _now_ms: u64) -> Demand {
            Demand {
                ipc0: 1.5,
                bytes_per_instr: 0.1,
                desired_gips: None,
                active_cores: 2.0,
                ..Demand::default()
            }
        }
        fn deliver(&mut self, _now_ms: u64, executed: Executed) {
            self.remaining -= executed.instructions;
        }
        fn finished(&self) -> bool {
            self.remaining <= 0.0
        }
        fn reset(&mut self) {
            self.remaining = 1e9;
        }
    }

    #[test]
    fn run_produces_consistent_report() {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        let mut device = Device::new(cfg);
        let mut app = ConstantWorkload::new("toy", 0.3, 1.5, 1.0);
        let report = run(&mut device, &mut app, &mut [], 1_000);
        assert_eq!(report.duration_ms, 1000);
        assert!(!report.completed);
        assert!(report.energy_j > 0.5 && report.energy_j < 5.0);
        assert!((report.avg_power_w - report.energy_j / 1.0).abs() < 1e-9);
        assert!(report.avg_gips > 0.0);

        // The JSON summary carries the same scalars.
        let json = report.to_json();
        assert_eq!(
            json.get("app").and_then(asgov_util::Json::as_str),
            Some("toy")
        );
        assert_eq!(
            json.get("energy_j").and_then(asgov_util::Json::as_f64),
            Some(report.energy_j)
        );
    }

    #[test]
    fn batch_workload_finishes_faster_at_high_frequency() {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;

        let mut dev_lo = Device::new(cfg.clone());
        let mut app = Batch { remaining: 1e9 };
        let slow = run(
            &mut dev_lo,
            &mut app,
            &mut [&mut PinFreq(FreqIndex(0))],
            60_000,
        );
        assert!(slow.completed);

        let mut dev_hi = Device::new(cfg);
        app.reset();
        let fast = run(
            &mut dev_hi,
            &mut app,
            &mut [&mut PinFreq(FreqIndex(17))],
            60_000,
        );
        assert!(fast.completed);
        assert!(
            fast.duration_ms * 3 < slow.duration_ms,
            "high frequency should finish much faster ({} vs {})",
            fast.duration_ms,
            slow.duration_ms
        );
    }

    #[test]
    fn back_to_back_runs_reset_statistics() {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        let mut device = Device::new(cfg);
        let mut app = ConstantWorkload::new("toy", 0.3, 1.5, 1.0);
        let first = run(&mut device, &mut app, &mut [], 500);
        app.reset();
        let second = run(&mut device, &mut app, &mut [], 500);
        assert_eq!(first.duration_ms, second.duration_ms);
        assert!((first.energy_j - second.energy_j).abs() < 0.05);
    }
}
