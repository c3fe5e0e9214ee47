//! Controller health reporting: per-fault-class counters and the
//! degradation ladder level.
//!
//! The hardened controller runtime (`asgov-core::resilience`) fills a
//! [`HealthReport`] while it runs; the simulation harness attaches it
//! to [`RunReport`](crate::sim::RunReport) via
//! [`Policy::health`](crate::Policy::health) so experiment binaries and
//! the CLI can print a failure summary instead of a bare counter.

/// The controller's degradation ladder (defined in `asgov-obs`, so
/// cycle records carry it without depending on this crate).
pub use asgov_obs::DegradationLevel;

/// Per-run health summary of a hardened controller: what faults it
/// observed, how it degraded and how fast it recovered.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthReport {
    /// Degradation level at the end of the run.
    pub level: DegradationLevel,
    /// Sysfs writes rejected with `Busy`.
    pub sysfs_busy: u64,
    /// Sysfs writes rejected with `WrongGovernor`.
    pub wrong_governor: u64,
    /// Sysfs writes of any other failure cause.
    pub other_write_errors: u64,
    /// Writes that still failed after retries were exhausted.
    pub actuation_failures: u64,
    /// Actuation retries performed.
    pub retries: u64,
    /// Times the `userspace` governor was re-asserted.
    pub governor_reasserts: u64,
    /// Actuations observed (via read-back) to be clamped below the
    /// requested frequency (thermal mitigation).
    pub thermal_clamps_detected: u64,
    /// Perf readings rejected by the sanity gate (non-finite or
    /// outlier).
    pub perf_rejected: u64,
    /// Control cycles that ended with no accepted perf reading.
    pub perf_droughts: u64,
    /// Kalman estimator re-seeds forced by the divergence guard.
    pub kalman_reseeds: u64,
    /// Control cycles classified as failed.
    pub failed_cycles: u64,
    /// Steps taken down the degradation ladder.
    pub degradations: u64,
    /// Steps taken back up the ladder.
    pub recoveries: u64,
    /// Control cycles between the *first* failed cycle of the most
    /// recent fault episode and the return to `Full` operation — i.e.
    /// how long the whole episode (faults included) kept the controller
    /// away from full closed-loop control. `None` if the controller
    /// never returned from a degraded level, or never left `Full`.
    pub recovery_latency_cycles: Option<u64>,
    /// Control cycles between the *last* failed cycle and the most
    /// recent return to `Full` — the climb-out time once the fault
    /// cleared. This is the quantity bounded by the chaos suite's
    /// M = 5 contract.
    pub climb_latency_cycles: Option<u64>,
    /// Controller restarts performed by a supervisor after injected
    /// crashes (0 when unsupervised or never killed).
    pub restarts: u64,
    /// Restarts that successfully resumed from a checkpoint (the rest
    /// were cold restarts from the safe configuration).
    pub warm_restarts: u64,
    /// Checkpoints that could not be used at restart: corrupt,
    /// truncated, version-mismatched, or invalidated by a clock jump.
    pub snapshot_errors: u64,
    /// Total milliseconds the controller was dead (kill to restart).
    pub downtime_ms: u64,
    /// Worst-case milliseconds from a restart back to `Full` operation
    /// (`None` if never restarted, or not yet recovered).
    pub restart_recovery_ms: Option<u64>,
}

impl HealthReport {
    /// `true` when nothing abnormal was observed over the run.
    pub fn is_clean(&self) -> bool {
        *self == HealthReport::default()
    }

    /// Total sysfs write failures, by any cause.
    pub fn write_failures(&self) -> u64 {
        self.sysfs_busy + self.wrong_governor + self.other_write_errors
    }

    /// One-line human-readable summary (for CLI/experiment reports).
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "healthy: no faults observed".to_string();
        }
        let mut parts = Vec::new();
        if self.write_failures() > 0 {
            parts.push(format!(
                "{} write failures (busy {}, wrong-governor {}, other {}; {} unrecovered)",
                self.write_failures(),
                self.sysfs_busy,
                self.wrong_governor,
                self.other_write_errors,
                self.actuation_failures
            ));
        }
        if self.retries > 0 || self.governor_reasserts > 0 {
            parts.push(format!(
                "{} retries, {} governor re-asserts",
                self.retries, self.governor_reasserts
            ));
        }
        if self.thermal_clamps_detected > 0 {
            parts.push(format!(
                "{} thermally clamped actuations",
                self.thermal_clamps_detected
            ));
        }
        if self.perf_rejected > 0 || self.perf_droughts > 0 {
            parts.push(format!(
                "{} perf readings rejected, {} measurement droughts",
                self.perf_rejected, self.perf_droughts
            ));
        }
        if self.kalman_reseeds > 0 {
            parts.push(format!("{} estimator re-seeds", self.kalman_reseeds));
        }
        if self.degradations > 0 {
            let latency = match (self.recovery_latency_cycles, self.climb_latency_cycles) {
                (Some(c), Some(k)) => format!("recovered in {c} cycles, climb-out {k}"),
                (Some(c), None) => format!("recovered in {c} cycles"),
                _ => "not recovered".to_string(),
            };
            parts.push(format!(
                "{} degradations / {} recoveries ({latency})",
                self.degradations, self.recoveries
            ));
        }
        if self.restarts > 0 || self.snapshot_errors > 0 {
            let recovery = self
                .restart_recovery_ms
                .map_or_else(|| "not recovered".to_string(), |ms| format!("{ms} ms"));
            parts.push(format!(
                "{} restarts ({} warm, {} snapshot errors), {} ms downtime, back to full in {recovery}",
                self.restarts, self.warm_restarts, self.snapshot_errors, self.downtime_ms
            ));
        }
        format!("level {}: {}", self.level, parts.join("; "))
    }

    /// Aggregate two runs' reports: counters add, the level and
    /// recovery latency take the worst case. Used by experiment
    /// harnesses that average several runs per measurement.
    pub fn merge(&self, other: &HealthReport) -> HealthReport {
        HealthReport {
            level: self.level.max(other.level),
            sysfs_busy: self.sysfs_busy + other.sysfs_busy,
            wrong_governor: self.wrong_governor + other.wrong_governor,
            other_write_errors: self.other_write_errors + other.other_write_errors,
            actuation_failures: self.actuation_failures + other.actuation_failures,
            retries: self.retries + other.retries,
            governor_reasserts: self.governor_reasserts + other.governor_reasserts,
            thermal_clamps_detected: self.thermal_clamps_detected + other.thermal_clamps_detected,
            perf_rejected: self.perf_rejected + other.perf_rejected,
            perf_droughts: self.perf_droughts + other.perf_droughts,
            kalman_reseeds: self.kalman_reseeds + other.kalman_reseeds,
            failed_cycles: self.failed_cycles + other.failed_cycles,
            degradations: self.degradations + other.degradations,
            recoveries: self.recoveries + other.recoveries,
            recovery_latency_cycles: match (
                self.recovery_latency_cycles,
                other.recovery_latency_cycles,
            ) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            climb_latency_cycles: match (self.climb_latency_cycles, other.climb_latency_cycles) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            restarts: self.restarts + other.restarts,
            warm_restarts: self.warm_restarts + other.warm_restarts,
            snapshot_errors: self.snapshot_errors + other.snapshot_errors,
            downtime_ms: self.downtime_ms + other.downtime_ms,
            restart_recovery_ms: match (self.restart_recovery_ms, other.restart_recovery_ms) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Machine-readable form for result artifacts.
    pub fn to_json(&self) -> asgov_util::Json {
        let mut doc = asgov_util::Json::object();
        doc.set("level", self.level.to_string().as_str());
        doc.set("sysfs_busy", self.sysfs_busy as f64);
        doc.set("wrong_governor", self.wrong_governor as f64);
        doc.set("other_write_errors", self.other_write_errors as f64);
        doc.set("actuation_failures", self.actuation_failures as f64);
        doc.set("retries", self.retries as f64);
        doc.set("governor_reasserts", self.governor_reasserts as f64);
        doc.set(
            "thermal_clamps_detected",
            self.thermal_clamps_detected as f64,
        );
        doc.set("perf_rejected", self.perf_rejected as f64);
        doc.set("perf_droughts", self.perf_droughts as f64);
        doc.set("kalman_reseeds", self.kalman_reseeds as f64);
        doc.set("failed_cycles", self.failed_cycles as f64);
        doc.set("degradations", self.degradations as f64);
        doc.set("recoveries", self.recoveries as f64);
        match self.recovery_latency_cycles {
            Some(c) => doc.set("recovery_latency_cycles", c as f64),
            None => doc.set("recovery_latency_cycles", asgov_util::Json::Null),
        }
        match self.climb_latency_cycles {
            Some(c) => doc.set("climb_latency_cycles", c as f64),
            None => doc.set("climb_latency_cycles", asgov_util::Json::Null),
        }
        doc.set("restarts", self.restarts as f64);
        doc.set("warm_restarts", self.warm_restarts as f64);
        doc.set("snapshot_errors", self.snapshot_errors as f64);
        doc.set("downtime_ms", self.downtime_ms as f64);
        match self.restart_recovery_ms {
            Some(ms) => doc.set("restart_recovery_ms", ms as f64),
            None => doc.set("restart_recovery_ms", asgov_util::Json::Null),
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_summarizes_as_healthy() {
        let r = HealthReport::default();
        assert!(r.is_clean());
        assert!(r.summary().contains("healthy"));
    }

    #[test]
    fn summary_mentions_every_observed_class() {
        let r = HealthReport {
            level: DegradationLevel::SafeConfig,
            sysfs_busy: 3,
            wrong_governor: 1,
            retries: 4,
            governor_reasserts: 1,
            thermal_clamps_detected: 2,
            perf_rejected: 5,
            perf_droughts: 2,
            kalman_reseeds: 1,
            failed_cycles: 3,
            degradations: 1,
            recoveries: 0,
            ..HealthReport::default()
        };
        let s = r.summary();
        for needle in [
            "safe-config",
            "busy 3",
            "wrong-governor 1",
            "retries",
            "clamped",
            "rejected",
            "re-seeds",
            "not recovered",
        ] {
            assert!(s.contains(needle), "summary {s:?} misses {needle:?}");
        }
    }

    #[test]
    fn merge_adds_counters_and_takes_worst_level() {
        let a = HealthReport {
            level: DegradationLevel::SafeConfig,
            sysfs_busy: 2,
            recovery_latency_cycles: Some(3),
            ..HealthReport::default()
        };
        let b = HealthReport {
            sysfs_busy: 1,
            retries: 4,
            recovery_latency_cycles: Some(5),
            ..HealthReport::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.level, DegradationLevel::SafeConfig);
        assert_eq!(m.sysfs_busy, 3);
        assert_eq!(m.retries, 4);
        assert_eq!(m.recovery_latency_cycles, Some(5));
        assert!(HealthReport::default()
            .merge(&HealthReport::default())
            .is_clean());
    }

    #[test]
    fn restart_fields_flow_through_summary_merge_and_json() {
        let a = HealthReport {
            restarts: 2,
            warm_restarts: 1,
            snapshot_errors: 1,
            downtime_ms: 350,
            restart_recovery_ms: Some(4000),
            ..HealthReport::default()
        };
        let s = a.summary();
        for needle in [
            "2 restarts",
            "1 warm",
            "1 snapshot errors",
            "350 ms downtime",
            "4000 ms",
        ] {
            assert!(s.contains(needle), "summary {s:?} misses {needle:?}");
        }
        assert!(!a.is_clean());

        let b = HealthReport {
            restarts: 1,
            downtime_ms: 100,
            restart_recovery_ms: Some(6000),
            ..HealthReport::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.restarts, 3);
        assert_eq!(m.warm_restarts, 1);
        assert_eq!(m.snapshot_errors, 1);
        assert_eq!(m.downtime_ms, 450);
        assert_eq!(m.restart_recovery_ms, Some(6000));

        let json = m.to_json();
        assert_eq!(
            json.get("restarts").and_then(asgov_util::Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            json.get("downtime_ms").and_then(asgov_util::Json::as_f64),
            Some(450.0)
        );
        assert_eq!(
            json.get("restart_recovery_ms")
                .and_then(asgov_util::Json::as_f64),
            Some(6000.0)
        );
        // Never-restarted runs serialize a null recovery time.
        let clean = HealthReport::default().to_json();
        assert!(matches!(
            clean.get("restart_recovery_ms"),
            Some(asgov_util::Json::Null)
        ));
    }

    #[test]
    fn json_round_trips_the_counters() {
        let r = HealthReport {
            sysfs_busy: 2,
            recovery_latency_cycles: Some(3),
            ..HealthReport::default()
        };
        let json = r.to_json();
        assert_eq!(
            json.get("sysfs_busy").and_then(asgov_util::Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            json.get("recovery_latency_cycles")
                .and_then(asgov_util::Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            json.get("level").and_then(asgov_util::Json::as_str),
            Some("full")
        );
    }
}
