//! Aggregate fleet results: energy-savings distributions per
//! application and per fault class, plus supervision telemetry.
//!
//! Savings distributions live in one columnar [`FleetStats`]
//! aggregator with a fixed stream layout — roster applications first
//! (in roster order), then fault classes (in [`FaultClass::all`]
//! order). Its integer fixed-point moments and histograms merge
//! bit-exactly in any order; the one floating-point total
//! (`energy_j`) is folded in a fixed (epoch-major, shard-minor)
//! order, so reports are bit-identical across thread counts and
//! however a run is split into steps.

use crate::spec::{roster_names, FaultClass, FleetConfig};
use asgov_obs::{FleetStats, LayoutMismatch};
use asgov_util::Json;

/// Number of per-application savings streams (the roster size).
pub const APP_STREAMS: usize = 6;
/// Number of per-fault-class savings streams.
pub const FAULT_STREAMS: usize = 7;
/// Total savings streams in every fleet aggregator.
pub const SAVINGS_STREAMS: usize = APP_STREAMS + FAULT_STREAMS;

/// The aggregator stream for a roster application (by roster index).
pub fn app_stream(app_idx: usize) -> usize {
    app_idx.min(APP_STREAMS - 1)
}

/// The aggregator stream for a fault class.
pub fn fault_stream(class: FaultClass) -> usize {
    APP_STREAMS + class.index()
}

/// A fresh savings aggregator with the fleet's fixed stream layout.
pub fn savings_agg() -> FleetStats {
    FleetStats::savings_pct(SAVINGS_STREAMS)
}

/// One shard-epoch's contribution to the fleet report.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Device-epochs simulated.
    pub online: u64,
    /// Device-epochs skipped by offline churn.
    pub offline: u64,
    /// Simulated energy over all online device-epochs, joules.
    pub energy_j: f64,
    /// Controller restarts performed by supervisors.
    pub restarts: u64,
    /// Restarts that resumed from a checkpoint.
    pub warm_restarts: u64,
    /// Epoch handovers that warm-started from a migrated snapshot.
    pub warm_migrations: u64,
    /// Unusable checkpoints (each forced a cold start).
    pub snapshot_errors: u64,
    /// Milliseconds controllers spent dead.
    pub downtime_ms: u64,
    /// Columnar savings distributions: streams `0..APP_STREAMS` are
    /// per-application, the rest per-fault-class. Degenerate-baseline
    /// device-epochs are recorded as excluded samples (counted, never
    /// averaged).
    pub savings: FleetStats,
}

impl Default for EpochStats {
    fn default() -> Self {
        Self {
            online: 0,
            offline: 0,
            energy_j: 0.0,
            restarts: 0,
            warm_restarts: 0,
            warm_migrations: 0,
            snapshot_errors: 0,
            downtime_ms: 0,
            savings: savings_agg(),
        }
    }
}

impl EpochStats {
    /// Fold another epoch/shard contribution into this one. The
    /// savings columns merge bit-exactly in any order; `energy_j` is
    /// an f64 sum, so the caller fixes the merge order.
    ///
    /// # Errors
    ///
    /// [`LayoutMismatch`] if the aggregators disagree on layout — only
    /// possible for stats rebuilt from a foreign checkpoint.
    pub fn merge(&mut self, other: &EpochStats) -> Result<(), LayoutMismatch> {
        self.savings.merge(&other.savings)?;
        self.online += other.online;
        self.offline += other.offline;
        self.energy_j += other.energy_j;
        self.restarts += other.restarts;
        self.warm_restarts += other.warm_restarts;
        self.warm_migrations += other.warm_migrations;
        self.snapshot_errors += other.snapshot_errors;
        self.downtime_ms += other.downtime_ms;
        Ok(())
    }

    asgov_core::snapshot_fields! {
        /// The stats, for a fleet checkpoint.
        pub(crate) fn write_fields(&self, w);
        /// Savings columns off the fleet's fixed stream layout are
        /// refused here: later merges would fail far from the codec.
        pub(crate) fn read_fields(&mut self, r);

        online: u64,
        offline: u64,
        #[check(energy_j.is_finite())] energy_j: f64,
        restarts: u64,
        warm_restarts: u64,
        warm_migrations: u64,
        snapshot_errors: u64,
        downtime_ms: u64,
        #[check(savings_agg().merge(&savings).is_ok())] savings: FleetStats,
    }
}

/// The aggregate fleet report: configuration echo, telemetry, and the
/// savings distributions.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The configuration that produced this report.
    pub config: FleetConfig,
    /// Epochs completed so far.
    pub epochs_run: u64,
    /// Accumulated statistics over all epochs and shards.
    pub totals: EpochStats,
}

impl FleetReport {
    /// An empty report for `config`.
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            epochs_run: 0,
            totals: EpochStats::default(),
        }
    }

    /// Estimated controller cycles simulated (one per 2 000 ms control
    /// period per online device-epoch).
    pub fn controller_cycles(&self) -> u64 {
        self.totals.online * (self.config.epoch_ms / 2_000).max(1)
    }

    /// The full report as JSON (stable key order, deterministic
    /// serialization).
    pub fn to_json(&self) -> Json {
        let mut cfg = Json::object();
        cfg.set("devices", self.config.devices as f64);
        cfg.set("shards", self.config.shards as f64);
        cfg.set("epochs", self.config.epochs as f64);
        cfg.set("epoch_ms", self.config.epoch_ms as f64);
        cfg.set("seed", self.config.seed as f64);
        cfg.set("offline_rate", self.config.offline_rate);
        cfg.set("demand_quantum_ms", self.config.demand_quantum_ms as f64);

        let mut tel = Json::object();
        tel.set("restarts", self.totals.restarts as f64);
        tel.set("warm_restarts", self.totals.warm_restarts as f64);
        tel.set("warm_migrations", self.totals.warm_migrations as f64);
        tel.set("snapshot_errors", self.totals.snapshot_errors as f64);
        tel.set("downtime_ms", self.totals.downtime_ms as f64);

        let mut per_app = Json::object();
        for (idx, name) in roster_names().into_iter().enumerate() {
            per_app.set(name, self.savings_json(app_stream(idx)));
        }
        let mut per_fault = Json::object();
        for class in FaultClass::all() {
            per_fault.set(class.label(), self.savings_json(fault_stream(class)));
        }

        let mut j = Json::object();
        j.set("config", cfg);
        j.set("epochs_run", self.epochs_run as f64);
        j.set("device_epochs_online", self.totals.online as f64);
        j.set("device_epochs_offline", self.totals.offline as f64);
        j.set("controller_cycles", self.controller_cycles() as f64);
        j.set("energy_j", self.totals.energy_j);
        j.set("telemetry", tel);
        j.set("savings_per_app", per_app);
        j.set("savings_per_fault", per_fault);
        j
    }

    /// One stream's distribution with the report's historical key
    /// names (`count` = usable samples, `degenerate` = excluded
    /// device-epochs) plus the histogram-derived quantiles and
    /// non-empty buckets the columnar aggregator adds.
    fn savings_json(&self, stream: usize) -> Json {
        let s = &self.totals.savings;
        let mut j = Json::object();
        j.set("count", s.included(stream) as f64);
        j.set("degenerate", s.excluded(stream) as f64);
        j.set("mean_pct", s.mean(stream));
        j.set("std_pct", s.std(stream));
        j.set("min_pct", s.min(stream).unwrap_or(0.0));
        j.set("max_pct", s.max(stream).unwrap_or(0.0));
        for (key, q) in [("p50_pct", 0.5), ("p95_pct", 0.95), ("p99_pct", 0.99)] {
            j.set(key, s.quantile(stream, q).unwrap_or(0.0));
        }
        let buckets: Vec<Json> = s
            .buckets(stream)
            .map(|(le, n)| {
                let mut e = Json::object();
                e.set("le", le);
                e.set("n", n as f64);
                e
            })
            .collect();
        j.set("buckets", buckets);
        j
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asgov_core::{SnapshotReader, SnapshotWriter};
    use asgov_util::Rng;

    /// A varint of any width, 0 and `u64::MAX` included.
    pub(crate) fn wide(rng: &mut Rng) -> u64 {
        match rng.gen_range_usize(0..8) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.next_u64() >> rng.gen_range_usize(0..64),
        }
    }

    /// Stats with every persisted field drawn from `rng`.
    pub(crate) fn random_stats(rng: &mut Rng) -> EpochStats {
        let mut s = EpochStats {
            online: wide(rng),
            offline: wide(rng),
            energy_j: rng.gen_range(-1e9..1e9),
            restarts: wide(rng),
            warm_restarts: wide(rng),
            warm_migrations: wide(rng),
            snapshot_errors: wide(rng),
            downtime_ms: wide(rng),
            ..EpochStats::default()
        };
        for _ in 0..rng.gen_range_usize(0..40) {
            let stream = rng.gen_range_usize(0..SAVINGS_STREAMS);
            if rng.gen_bool(0.1) {
                s.savings.record_excluded(stream);
            } else {
                s.savings.record(stream, rng.gen_range(-50.0..60.0));
            }
        }
        s
    }

    #[test]
    fn random_stats_round_trip() {
        let mut rng = Rng::seed_from_u64(0x57a7_5001);
        for case in 0..100 {
            let stats = random_stats(&mut rng);
            let mut w = SnapshotWriter::new();
            stats.write_fields(&mut w).expect("small stats");
            let frame = w.finish().expect("small frame");
            let mut back = EpochStats::default();
            let mut r = SnapshotReader::new(&frame).expect("intact frame");
            back.read_fields(&mut r).expect("restorable");
            r.finish().expect("fully consumed");
            assert_eq!(format!("{back:?}"), format!("{stats:?}"), "case {case}");
            let mut w = SnapshotWriter::new();
            back.write_fields(&mut w).expect("small stats");
            assert_eq!(w.finish(), Ok(frame), "case {case}: re-encoded");
        }
    }

    #[test]
    fn stream_layout_is_dense_and_disjoint() {
        assert_eq!(roster_names().len(), APP_STREAMS);
        assert_eq!(FaultClass::all().len(), FAULT_STREAMS);
        let mut seen = std::collections::BTreeSet::new();
        for idx in 0..APP_STREAMS {
            assert!(seen.insert(app_stream(idx)));
        }
        for class in FaultClass::all() {
            assert!(seen.insert(fault_stream(class)));
        }
        assert_eq!(seen.len(), SAVINGS_STREAMS);
        assert_eq!(*seen.iter().max().unwrap_or(&0), SAVINGS_STREAMS - 1);
        assert_eq!(savings_agg().streams(), SAVINGS_STREAMS);
    }

    #[test]
    fn merging_epoch_stats_sums_counters_and_savings() {
        let mut a = EpochStats {
            online: 3,
            energy_j: 1.5,
            ..EpochStats::default()
        };
        a.savings.record(app_stream(0), 10.0);
        a.savings.record(app_stream(0), 20.0);
        let mut b = EpochStats {
            online: 2,
            offline: 1,
            energy_j: 0.5,
            ..EpochStats::default()
        };
        b.savings.record(app_stream(0), 30.0);
        b.savings.record_excluded(fault_stream(FaultClass::Healthy));
        a.merge(&b).unwrap();
        assert_eq!(a.online, 5);
        assert_eq!(a.offline, 1);
        assert!((a.energy_j - 2.0).abs() < 1e-12);
        assert_eq!(a.savings.included(app_stream(0)), 3);
        assert!((a.savings.mean(app_stream(0)) - 20.0).abs() < 1e-9);
        assert_eq!(a.savings.excluded(fault_stream(FaultClass::Healthy)), 1);
    }

    #[test]
    fn report_json_has_the_documented_top_level_keys() {
        let r = FleetReport::new(FleetConfig::smoke());
        let j = r.to_json();
        for key in [
            "config",
            "epochs_run",
            "device_epochs_online",
            "device_epochs_offline",
            "controller_cycles",
            "energy_j",
            "telemetry",
            "savings_per_app",
            "savings_per_fault",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let per_app = j.get("savings_per_app").expect("per_app");
        for name in roster_names() {
            let entry = per_app.get(name).expect(name);
            for key in [
                "count",
                "degenerate",
                "mean_pct",
                "std_pct",
                "min_pct",
                "max_pct",
            ] {
                assert!(entry.get(key).is_some(), "missing {name}.{key}");
            }
        }
    }

    #[test]
    fn empty_report_serializes_finite_numbers() {
        let text = FleetReport::new(FleetConfig::smoke()).to_json().to_pretty();
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
    }
}
