//! Performance monitoring unit: retired-instruction and bus-byte counters.
//!
//! The paper reads the instruction counter through `perf` and derives a
//! GIPS (giga-instructions per second) metric; see [`crate::PerfReader`]
//! for the tool model on top of these raw counters.

/// Hardware performance counters. Counters are cumulative and
/// monotonically increasing, as on real hardware; readers keep their own
/// snapshots and difference them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pmu {
    instructions: f64,
    bus_bytes: f64,
}

impl Pmu {
    /// A fresh PMU with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one tick of execution.
    #[inline]
    pub(crate) fn record(&mut self, instructions: f64, bus_bytes: f64) {
        debug_assert!(instructions >= 0.0 && bus_bytes >= 0.0);
        self.instructions += instructions;
        self.bus_bytes += bus_bytes;
    }

    /// Cumulative retired instructions.
    pub fn instructions(&self) -> f64 {
        self.instructions
    }

    /// Cumulative memory-bus bytes (what `cpubw_hwmon` monitors via L2
    /// cache read/write events).
    pub fn bus_bytes(&self) -> f64 {
        self.bus_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_cumulative() {
        let mut pmu = Pmu::new();
        pmu.record(100.0, 10.0);
        pmu.record(200.0, 20.0);
        assert_eq!(pmu.instructions(), 300.0);
        assert_eq!(pmu.bus_bytes(), 30.0);
    }

    #[test]
    fn fresh_pmu_reads_zero() {
        let pmu = Pmu::new();
        assert_eq!(pmu.instructions(), 0.0);
        assert_eq!(pmu.bus_bytes(), 0.0);
    }
}
