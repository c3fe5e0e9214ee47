//! Trace-driven workloads: replay a recorded demand trace instead of a
//! synthetic phase machine.
//!
//! The paper profiles live applications; a practical deployment would
//! record their demand once and replay it during development. The CSV
//! format is one sample per line:
//!
//! ```csv
//! t_ms,rate_gips,ipc0,bytes_per_instr,active_cores,extra_power_w,gpu_work_ghz
//! 0,0.25,1.2,0.8,1.5,0.1,0.0
//! 500,0.40,1.2,0.8,1.5,0.1,0.0
//! ```
//!
//! Samples hold until the next timestamp; the trace loops when it ends
//! (so a short recording drives an arbitrarily long run).

use crate::background::BackgroundLoad;
use asgov_soc::{Demand, Executed, Workload};
use std::error::Error;
use std::fmt;

/// One sample of a recorded demand trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Sample time, ms from trace start.
    pub t_ms: u64,
    /// Demanded rate, GIPS.
    pub rate_gips: f64,
    /// Peak IPC per core.
    pub ipc0: f64,
    /// Bus bytes per instruction.
    pub bytes_per_instr: f64,
    /// Cores the workload keeps busy.
    pub active_cores: f64,
    /// Extra device power, watts.
    pub extra_power_w: f64,
    /// GPU work, GHz-equivalents.
    pub gpu_work_ghz: f64,
}

/// Error parsing a demand-trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Zero-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl Error for TraceParseError {}

/// A workload that replays a recorded demand trace, looping at the end.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: String,
    samples: Vec<TraceSample>,
    trace_len_ms: u64,
    background: BackgroundLoad,
    backlog_gi: f64,
    executed_gi: f64,
}

impl TraceWorkload {
    /// Build from samples (must be non-empty and time-sorted).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or timestamps are not
    /// non-decreasing.
    pub fn new(name: &str, samples: Vec<TraceSample>, background: BackgroundLoad) -> Self {
        assert!(!samples.is_empty(), "trace must have samples");
        assert!(
            samples.windows(2).all(|w| w[0].t_ms <= w[1].t_ms),
            "trace samples must be time-sorted"
        );
        // The trace nominally lasts until one sample-interval past the
        // last sample (or 1 ms for single-sample traces).
        let last = samples[samples.len() - 1].t_ms;
        let first = samples[0].t_ms;
        let trace_len_ms = if samples.len() > 1 {
            last + (last - first) / (samples.len() as u64 - 1).max(1)
        } else {
            last + 1
        };
        Self {
            name: name.to_string(),
            samples,
            trace_len_ms: trace_len_ms.max(1),
            background,
            backlog_gi: 0.0,
            executed_gi: 0.0,
        }
    }

    /// Parse the CSV format described in the module docs.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] on malformed lines; the header is optional.
    pub fn from_csv(
        name: &str,
        text: &str,
        background: BackgroundLoad,
    ) -> Result<Self, TraceParseError> {
        let mut samples = Vec::new();
        for (line_no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("t_ms") {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != 7 {
                return Err(TraceParseError {
                    line: line_no,
                    reason: format!("expected 7 fields, got {}", fields.len()),
                });
            }
            let num = |i: usize| -> Result<f64, TraceParseError> {
                fields[i].parse().map_err(|_| TraceParseError {
                    line: line_no,
                    reason: format!("cannot parse field {} ({:?})", i, fields[i]),
                })
            };
            samples.push(TraceSample {
                t_ms: num(0)? as u64,
                rate_gips: num(1)?,
                ipc0: num(2)?,
                bytes_per_instr: num(3)?,
                active_cores: num(4)?,
                extra_power_w: num(5)?,
                gpu_work_ghz: num(6)?,
            });
        }
        if samples.is_empty() {
            return Err(TraceParseError {
                line: 0,
                reason: "trace has no samples".to_string(),
            });
        }
        samples.sort_by_key(|s| s.t_ms);
        Ok(Self::new(name, samples, background))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Is the trace empty? (Never true — construction requires samples.)
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration of one loop of the trace, ms.
    pub fn trace_len_ms(&self) -> u64 {
        self.trace_len_ms
    }

    fn sample_at(&self, now_ms: u64) -> &TraceSample {
        let t = now_ms % self.trace_len_ms;
        // Last sample with t_ms <= t (samples hold until the next one).
        match self.samples.binary_search_by_key(&t, |s| s.t_ms) {
            Ok(i) => &self.samples[i],
            Err(0) => &self.samples[0],
            Err(i) => &self.samples[i - 1],
        }
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn demand(&mut self, now_ms: u64) -> Demand {
        let s = *self.sample_at(now_ms);
        self.backlog_gi += s.rate_gips * 1e-3;
        // Bound the backlog at ~100 ms of work: replayed apps drop
        // rather than queue indefinitely, like their live counterparts.
        self.backlog_gi = self.backlog_gi.min(s.rate_gips * 0.1 + 1e-9);
        Demand {
            ipc0: s.ipc0,
            bytes_per_instr: s.bytes_per_instr,
            desired_gips: Some(self.backlog_gi / 1e-3),
            active_cores: s.active_cores,
            extra_power_w: s.extra_power_w,
            gpu_work: s.gpu_work_ghz,
            bg: self.background.demand_window(now_ms, 1),
            ..Demand::default()
        }
    }

    fn deliver(&mut self, _now_ms: u64, executed: Executed) {
        let gi = executed.instructions / 1e9;
        self.executed_gi += gi;
        self.backlog_gi = (self.backlog_gi - gi).max(0.0);
    }

    fn reset(&mut self) {
        self.backlog_gi = 0.0;
        self.executed_gi = 0.0;
        self.background.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::{sim, Device, DeviceConfig};

    const CSV: &str = "\
t_ms,rate_gips,ipc0,bytes_per_instr,active_cores,extra_power_w,gpu_work_ghz
0,0.10,1.2,0.5,1.0,0.0,0.0
1000,0.40,1.2,0.5,2.0,0.1,0.0
2000,0.10,1.2,0.5,1.0,0.0,0.0
";

    fn bg() -> BackgroundLoad {
        BackgroundLoad::none(1)
    }

    #[test]
    fn parses_csv_with_header() {
        let w = TraceWorkload::from_csv("t", CSV, bg()).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.trace_len_ms(), 3000);
    }

    #[test]
    fn rejects_malformed_csv() {
        let err = TraceWorkload::from_csv("t", "1,2,3\n", bg()).unwrap_err();
        assert!(err.reason.contains("7 fields"));
        let err = TraceWorkload::from_csv("t", "0,x,1,1,1,0,0\n", bg()).unwrap_err();
        assert!(err.reason.contains("parse"));
        let err = TraceWorkload::from_csv("t", "# only a comment\n", bg()).unwrap_err();
        assert!(err.reason.contains("no samples"));
    }

    #[test]
    fn samples_hold_and_loop() {
        let mut w = TraceWorkload::from_csv("t", CSV, bg()).unwrap();
        // Mid first segment: low rate.
        let d = w.demand(500);
        assert!(d.active_cores == 1.0);
        // Mid second segment: high rate, more cores.
        let d = w.demand(1_500);
        assert_eq!(d.active_cores, 2.0);
        assert!((d.extra_power_w - 0.1).abs() < 1e-12);
        // Looped: 3500 % 3000 = 500 -> first segment again.
        let d = w.demand(3_500);
        assert_eq!(d.active_cores, 1.0);
    }

    #[test]
    fn replay_executes_near_the_recorded_rate() {
        let mut device = Device::new({
            let mut c = DeviceConfig::nexus6();
            c.monitor_noise_w = 0.0;
            c
        });
        device.set_cpu_governor("userspace");
        device.set_cpu_freq(asgov_soc::FreqIndex(12));
        device.set_bw_governor("userspace");
        device.set_mem_bw(asgov_soc::BwIndex(6));
        let mut w = TraceWorkload::from_csv("t", CSV, bg()).unwrap();
        let report = sim::run(&mut device, &mut w, &mut [], 12_000);
        // Mean of the trace: (0.10 + 0.40 + 0.10) / 3 = 0.2 GIPS.
        assert!(
            (report.avg_gips - 0.2).abs() < 0.03,
            "replayed {} GIPS, expected ~0.2",
            report.avg_gips
        );
    }

    #[test]
    #[should_panic(expected = "samples")]
    fn empty_trace_rejected() {
        let _ = TraceWorkload::new("t", vec![], bg());
    }
}
