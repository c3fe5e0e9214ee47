//! The sink the device and controller emit trace data into.

use crate::hist::Histogram;
use crate::record::{CycleRecord, DegradationLevel, SocErrorKind};
use crate::ring::RingBuffer;
use asgov_util::Json;
use std::fmt;

/// One device-level event, borrowed for the duration of the
/// [`TraceSink::device_event`] call. Ladder indices are 0-based; the
/// `Display` form (a CSV row tail `kind,from,to`) uses the paper's
/// 1-based numbering (`f1`…`f18`, `bw1`…`bw13`, `g1`…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceEvent<'a> {
    /// The CPU frequency changed.
    CpuFreq {
        /// Old frequency index.
        from: usize,
        /// New frequency index.
        to: usize,
    },
    /// The memory-bus bandwidth changed.
    MemBw {
        /// Old bandwidth index.
        from: usize,
        /// New bandwidth index.
        to: usize,
    },
    /// The GPU frequency changed.
    GpuFreq {
        /// Old GPU frequency index.
        from: usize,
        /// New GPU frequency index.
        to: usize,
    },
    /// A governor was (re)selected for a subsystem.
    Governor {
        /// `"cpufreq"` or `"devfreq"`.
        subsystem: &'static str,
        /// The newly selected governor.
        name: &'a str,
    },
    /// The fault injector killed the controller process.
    ControllerKill,
}

impl fmt::Display for DeviceEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeviceEvent::CpuFreq { from, to } => write!(f, "cpufreq,f{},f{}", from + 1, to + 1),
            DeviceEvent::MemBw { from, to } => write!(f, "membw,bw{},bw{}", from + 1, to + 1),
            DeviceEvent::GpuFreq { from, to } => write!(f, "gpufreq,g{},g{}", from + 1, to + 1),
            DeviceEvent::Governor { subsystem, name } => write!(f, "governor,{subsystem},{name}"),
            DeviceEvent::ControllerKill => f.write_str("controller-kill,,"),
        }
    }
}

/// Receives per-cycle records (from the controller), actuation events
/// and the power monitor's samples (from the simulated device). A sink
/// is the one recorder of a run: the device keeps no trace of its own.
/// Implementations must be cheap: the controller calls into the sink
/// from its hot path, and the bench suite holds the overhead budget to
/// < 5 % per cycle.
///
/// `Debug` is a supertrait so sinks can live inside `Device`, which
/// derives `Debug`.
pub trait TraceSink: std::fmt::Debug {
    /// One control cycle completed.
    fn record_cycle(&mut self, rec: &CycleRecord);

    /// A device-level event happened at `t_ms`. Default: ignored.
    fn device_event(&mut self, t_ms: u64, event: DeviceEvent<'_>) {
        let _ = (t_ms, event);
    }

    /// The power monitor booked a span of `span_ms` 1 ms samples
    /// starting at `t_ms`: the first reads `first_w` watts (the span's
    /// measurement noise included, clamped as the monitor integrated
    /// it), each later one `rest_w`. Adding `w · 1e-3` per sample in
    /// that order reproduces the monitor's energy integral bit for bit.
    /// Default: ignored.
    fn power_span(&mut self, t_ms: u64, first_w: f64, rest_w: f64, span_ms: u64) {
        let _ = (t_ms, first_w, rest_w, span_ms);
    }
}

/// Discards everything. Installing a `NullSink` is bit-identical to
/// installing no sink at all (asserted in `tests/observability.rs`,
/// mirroring the empty-`FaultPlan` contract in `tests/chaos.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record_cycle(&mut self, _rec: &CycleRecord) {}
}

/// Aggregated counters and histograms over everything a sink has seen.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Control cycles observed.
    pub cycles: u64,
    /// Cycles that carried an actuation fault, per [`SocErrorKind`]
    /// (indexed by [`SocErrorKind::index`]).
    pub faults: [u64; 5],
    /// Cycles spent at each [`DegradationLevel`] (indexed by
    /// [`DegradationLevel::index`]).
    pub level_cycles: [u64; 3],
    /// Ladder step-downs observed (one per level crossed).
    pub degradations: u64,
    /// Completed recoveries (back to `Full`), attributed to the fault
    /// class that opened the degraded episode.
    pub recoveries_by_fault: [u64; 5],
    /// Device-level events ([`DeviceEvent`]) of every kind, in total.
    pub device_events: u64,
    /// Optimizer solve time, ns.
    pub solve_ns: Histogram,
    /// Actuation latency, ns.
    pub actuation_ns: Histogram,
    /// |Kalman innovation|, GIPS.
    pub innovation_abs: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            cycles: 0,
            faults: [0; 5],
            level_cycles: [0; 3],
            degradations: 0,
            recoveries_by_fault: [0; 5],
            device_events: 0,
            solve_ns: Histogram::time_ns(),
            actuation_ns: Histogram::time_ns(),
            innovation_abs: Histogram::magnitude(),
        }
    }
}

impl Metrics {
    /// Total faulted cycles across all classes.
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// JSON summary (printed by `asgov stats`).
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("cycles", self.cycles as f64);
        let mut faults = Json::object();
        let mut recoveries = Json::object();
        // `SocErrorKind::ALL` / `DegradationLevel::ALL` order matches
        // `index()`, so zipping the kind list against the counter arrays
        // avoids any indexing entirely.
        for (f, (&n, &r)) in SocErrorKind::ALL
            .iter()
            .zip(self.faults.iter().zip(self.recoveries_by_fault.iter()))
        {
            if n > 0 {
                faults.set(f.as_str(), n as f64);
            }
            if r > 0 {
                recoveries.set(f.as_str(), r as f64);
            }
        }
        o.set("faulted_cycles", faults);
        o.set("recoveries_by_fault", recoveries);
        let mut levels = Json::object();
        for (l, &n) in DegradationLevel::ALL.iter().zip(self.level_cycles.iter()) {
            if n > 0 {
                levels.set(l.as_str(), n as f64);
            }
        }
        o.set("level_cycles", levels);
        o.set("degradations", self.degradations as f64);
        o.set("device_events", self.device_events as f64);
        o.set("solve_ns", self.solve_ns.to_json());
        o.set("actuation_ns", self.actuation_ns.to_json());
        o.set("innovation_abs", self.innovation_abs.to_json());
        o
    }
}

/// The standard in-memory sink: a fixed-capacity [`RingBuffer`] of the
/// newest records plus running [`Metrics`]. Construction reserves all
/// storage; the record path never allocates.
#[derive(Debug, Clone)]
pub struct RingSink {
    ring: RingBuffer<CycleRecord>,
    metrics: Metrics,
    prev_level: DegradationLevel,
    /// The fault class that opened the current degraded episode, for
    /// recovery attribution.
    episode_fault: Option<SocErrorKind>,
}

impl RingSink {
    /// A sink retaining the newest `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: RingBuffer::new(capacity),
            metrics: Metrics::default(),
            prev_level: DegradationLevel::Full,
            episode_fault: None,
        }
    }

    /// The retained records, oldest → newest.
    pub fn records(&self) -> Vec<CycleRecord> {
        self.ring.iter().copied().collect()
    }

    /// The underlying ring (for capacity / drop accounting).
    pub fn ring(&self) -> &RingBuffer<CycleRecord> {
        &self.ring
    }

    /// The aggregated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Serialize the retained records as JSONL, one schema-versioned
    /// compact object per line, oldest → newest.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.ring.iter() {
            out.push_str(&rec.to_jsonl_line());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for RingSink {
    fn record_cycle(&mut self, rec: &CycleRecord) {
        self.metrics.cycles += 1;
        if let Some(n) = self.metrics.level_cycles.get_mut(rec.level.index()) {
            *n += 1;
        }
        if let Some(fault) = rec.fault {
            if let Some(n) = self.metrics.faults.get_mut(fault.index()) {
                *n += 1;
            }
            if self.episode_fault.is_none() {
                self.episode_fault = Some(fault);
            }
        }
        if rec.level.index() > self.prev_level.index() {
            self.metrics.degradations += (rec.level.index() - self.prev_level.index()) as u64;
        }
        if rec.level == DegradationLevel::Full && self.prev_level != DegradationLevel::Full {
            if let Some(n) = self
                .episode_fault
                .and_then(|fault| self.metrics.recoveries_by_fault.get_mut(fault.index()))
            {
                *n += 1;
            }
        }
        if rec.level == DegradationLevel::Full && rec.fault.is_none() {
            self.episode_fault = None;
        }
        self.prev_level = rec.level;
        self.metrics.solve_ns.record(rec.solve_ns as f64);
        self.metrics.actuation_ns.record(rec.actuation_ns as f64);
        self.metrics.innovation_abs.record(rec.innovation.abs());
        self.ring.push(*rec);
    }

    fn device_event(&mut self, _t_ms: u64, _event: DeviceEvent<'_>) {
        self.metrics.device_events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, fault: Option<SocErrorKind>, level: DegradationLevel) -> CycleRecord {
        CycleRecord {
            cycle,
            t_ms: 2_000 * (cycle + 1),
            innovation: -0.25,
            solve_ns: 1_500,
            actuation_ns: 9_000,
            fault,
            level,
            ..CycleRecord::default()
        }
    }

    #[test]
    fn aggregates_counters_and_histograms() {
        let mut sink = RingSink::new(8);
        sink.record_cycle(&rec(0, None, DegradationLevel::Full));
        sink.record_cycle(&rec(1, Some(SocErrorKind::Busy), DegradationLevel::Full));
        sink.record_cycle(&rec(
            2,
            Some(SocErrorKind::Busy),
            DegradationLevel::SafeConfig,
        ));
        sink.record_cycle(&rec(3, None, DegradationLevel::SafeConfig));
        sink.record_cycle(&rec(4, None, DegradationLevel::Full));
        let m = sink.metrics();
        assert_eq!(m.cycles, 5);
        assert_eq!(m.faults[SocErrorKind::Busy.index()], 2);
        assert_eq!(m.level_cycles[DegradationLevel::Full.index()], 3);
        assert_eq!(m.level_cycles[DegradationLevel::SafeConfig.index()], 2);
        assert_eq!(m.degradations, 1);
        assert_eq!(m.recoveries_by_fault[SocErrorKind::Busy.index()], 1);
        assert_eq!(m.solve_ns.count(), 5);
        assert_eq!(m.innovation_abs.count(), 5);
    }

    #[test]
    fn recovery_attributed_to_opening_fault() {
        // Busy opens the episode; a later WrongGovernor mid-episode
        // does not steal the attribution.
        let mut sink = RingSink::new(8);
        sink.record_cycle(&rec(
            0,
            Some(SocErrorKind::Busy),
            DegradationLevel::SafeConfig,
        ));
        sink.record_cycle(&rec(
            1,
            Some(SocErrorKind::WrongGovernor),
            DegradationLevel::SafeConfig,
        ));
        sink.record_cycle(&rec(2, None, DegradationLevel::Full));
        let m = sink.metrics();
        assert_eq!(m.recoveries_by_fault[SocErrorKind::Busy.index()], 1);
        assert_eq!(
            m.recoveries_by_fault[SocErrorKind::WrongGovernor.index()],
            0
        );
    }

    #[test]
    fn jsonl_lists_retained_records_in_order() {
        let mut sink = RingSink::new(2);
        for i in 0..4 {
            sink.record_cycle(&rec(i, None, DegradationLevel::Full));
        }
        let text = sink.to_jsonl();
        let records = crate::record::parse_jsonl(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].cycle, 2);
        assert_eq!(records[1].cycle, 3);
        assert_eq!(sink.ring().dropped(), 2);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut sink = NullSink;
        sink.record_cycle(&rec(0, None, DegradationLevel::Full));
        sink.device_event(10, DeviceEvent::CpuFreq { from: 0, to: 9 });
        sink.power_span(10, 1.5, 1.5, 4);
    }

    #[test]
    fn device_events_render_paper_numbering() {
        let rows = [
            DeviceEvent::CpuFreq { from: 0, to: 9 },
            DeviceEvent::MemBw { from: 12, to: 0 },
            DeviceEvent::GpuFreq { from: 4, to: 3 },
            DeviceEvent::Governor {
                subsystem: "cpufreq",
                name: "userspace",
            },
            DeviceEvent::ControllerKill,
        ]
        .map(|e| e.to_string());
        assert_eq!(
            rows,
            [
                "cpufreq,f1,f10",
                "membw,bw13,bw1",
                "gpufreq,g5,g4",
                "governor,cpufreq,userspace",
                "controller-kill,,",
            ]
        );
    }

    #[test]
    fn metrics_json_has_the_headline_keys() {
        let mut sink = RingSink::new(4);
        sink.record_cycle(&rec(0, Some(SocErrorKind::Busy), DegradationLevel::Full));
        let j = sink.metrics().to_json();
        assert_eq!(j.get("cycles").and_then(Json::as_f64), Some(1.0));
        assert!(j.get("solve_ns").is_some());
        assert_eq!(
            j.get("faulted_cycles")
                .and_then(|f| f.get("busy"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }
}
