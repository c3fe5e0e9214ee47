//! GPU model (Adreno 420). The paper leaves the GPU to its stock
//! `msm-adreno-tz` governor and names it only as a future control axis
//! (§VII); here it is hardware that every run carries, never a
//! controlled axis.
//!
//! The GPU renders the frames games demand. Its operating point scales
//! like the CPU's: utilization-dependent dynamic power on a voltage
//! ladder, plus a rate limit — a GPU-bound application cannot render
//! faster than the GPU executes, which caps its CPU-side instruction
//! rate too (the render thread blocks on the GPU fence).

use crate::sysfs::{self, GPU_GOVERNORS};
use std::borrow::Cow;

/// The Adreno 420 frequency ladder, GHz.
pub const ADRENO420_FREQS_GHZ: [f64; 5] = [0.20, 0.30, 0.42, 0.50, 0.60];

/// Index into the GPU frequency ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuFreqIndex(pub usize);

impl std::fmt::Display for GpuFreqIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0 + 1)
    }
}

/// The GPU: ladder, current operating point, and power model.
#[derive(Debug, Clone, PartialEq)]
pub struct Gpu {
    freqs_ghz: &'static [f64],
    cur: GpuFreqIndex,
    governor: Cow<'static, str>,
    /// Dynamic power coefficient, W per (V² · GHz) at full utilization.
    dyn_w_per_v2ghz: f64,
    /// Leakage, W per volt.
    leak_w_per_v: f64,
    busy_ms: f64,
    time_in_freq_ms: [u64; ADRENO420_FREQS_GHZ.len()],
}

impl Gpu {
    /// An Adreno 420-like GPU.
    pub fn adreno420() -> Self {
        Self {
            freqs_ghz: &ADRENO420_FREQS_GHZ,
            cur: GpuFreqIndex(0),
            governor: Cow::Borrowed("msm-adreno-tz"),
            dyn_w_per_v2ghz: 1.6,
            leak_w_per_v: 0.04,
            busy_ms: 0.0,
            time_in_freq_ms: [0; ADRENO420_FREQS_GHZ.len()],
        }
    }

    /// Number of operating points.
    pub fn num_freqs(&self) -> usize {
        self.freqs_ghz.len()
    }

    /// Frequency at `idx`, GHz.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn freq_ghz(&self, idx: GpuFreqIndex) -> f64 {
        // asgov-analyze: allow(hot-path-index): documented panicking accessor; indices come from this ladder
        self.freqs_ghz[idx.0]
    }

    /// Voltage at `idx` (Adreno-like ladder).
    pub fn voltage(&self, idx: GpuFreqIndex) -> f64 {
        0.8 + 0.5 * self.freq_ghz(idx)
    }

    /// Current operating point.
    pub fn freq(&self) -> GpuFreqIndex {
        self.cur
    }

    /// Set the operating point.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_freq(&mut self, idx: GpuFreqIndex) {
        assert!(idx.0 < self.freqs_ghz.len(), "gpu frequency out of range");
        self.cur = idx;
    }

    /// Smallest index with frequency ≥ `ghz` (max index if beyond).
    pub fn freq_at_least(&self, ghz: f64) -> GpuFreqIndex {
        match self.freqs_ghz.iter().position(|&f| f >= ghz) {
            Some(i) => GpuFreqIndex(i),
            None => GpuFreqIndex(self.freqs_ghz.len() - 1),
        }
    }

    /// Selected devfreq governor for the GPU.
    pub fn governor(&self) -> &str {
        &self.governor
    }

    /// Record the selected GPU governor. The name only: the ladder
    /// pins of `performance` and `powersave` are applied by
    /// [`Device::set_gpu_governor`](crate::Device::set_gpu_governor)
    /// through the device's frequency path.
    pub fn set_governor(&mut self, name: &str) {
        self.governor = sysfs::governor_name(&GPU_GOVERNORS, name);
    }

    /// Cumulative GPU busy time, ms (for the tz governor's load signal).
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Milliseconds spent at each operating point.
    pub fn time_in_freq_ms(&self) -> &[u64] {
        &self.time_in_freq_ms
    }

    /// Reset residency statistics.
    pub fn reset_stats(&mut self) {
        self.time_in_freq_ms.iter_mut().for_each(|c| *c = 0);
    }

    /// The per-tick rates at the current operating point under
    /// `gpu_work`, the render work demanded per tick in GHz-equivalents
    /// of GPU time (0 = GPU idle); pure, so a span evaluates it once.
    pub(crate) fn evaluate(&self, gpu_work: f64) -> GpuRate {
        let f = self.freq_ghz(self.cur);
        let v = self.voltage(self.cur);
        let util = if gpu_work <= 0.0 {
            0.0
        } else {
            (gpu_work / f).min(1.0)
        };
        let fraction = if gpu_work <= f || gpu_work <= 0.0 {
            1.0
        } else {
            f / gpu_work
        };
        let power_w = self.leak_w_per_v * v + self.dyn_w_per_v2ghz * v * v * f * util;
        GpuRate {
            util,
            fraction,
            power_w,
        }
    }

    /// Book `span_ms` ticks at `rate`: the busy accumulator receives
    /// the same per-millisecond additions as `span_ms` one-tick spans.
    /// An idle GPU's `+ 0.0` is idempotent (for either sign of zero), so
    /// one add books the whole span.
    pub(crate) fn accumulate(&mut self, rate: GpuRate, span_ms: u64) {
        // asgov-analyze: allow(float-eq): exact test for the idempotent `+ 0.0`, not a tolerance comparison
        let adds = if rate.util == 0.0 {
            span_ms.min(1)
        } else {
            span_ms
        };
        for _ in 0..adds {
            self.busy_ms += rate.util;
        }
        if let Some(t) = self.time_in_freq_ms.get_mut(self.cur.0) {
            *t += span_ms;
        }
    }
}

/// One tick's GPU rates (see [`Gpu::evaluate`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GpuRate {
    /// Busy fraction of the tick.
    util: f64,
    /// CPU-side throughput fraction (1.0 when the GPU keeps up).
    pub(crate) fraction: f64,
    /// GPU power, watts.
    pub(crate) power_w: f64,
}

impl Default for Gpu {
    fn default() -> Self {
        Self::adreno420()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_and_voltages_monotone() {
        let g = Gpu::adreno420();
        assert_eq!(g.num_freqs(), 5);
        for i in 1..g.num_freqs() {
            assert!(g.freq_ghz(GpuFreqIndex(i)) > g.freq_ghz(GpuFreqIndex(i - 1)));
            assert!(g.voltage(GpuFreqIndex(i)) > g.voltage(GpuFreqIndex(i - 1)));
        }
    }

    #[test]
    fn keeps_up_when_fast_enough() {
        let mut g = Gpu::adreno420();
        g.set_freq(GpuFreqIndex(4)); // 600 MHz
        let rate = g.evaluate(0.3);
        assert_eq!(rate.fraction, 1.0);
        assert!(
            rate.power_w > 0.1,
            "busy GPU draws real power, got {}",
            rate.power_w
        );
    }

    #[test]
    fn bottlenecks_when_too_slow() {
        let mut g = Gpu::adreno420();
        g.set_freq(GpuFreqIndex(0)); // 200 MHz
        let rate = g.evaluate(0.4);
        assert!(
            (rate.fraction - 0.5).abs() < 1e-12,
            "200 MHz vs 0.4 GHz work"
        );
    }

    #[test]
    fn idle_gpu_draws_only_leakage() {
        let mut g = Gpu::adreno420();
        g.set_freq(GpuFreqIndex(4));
        let rate = g.evaluate(0.0);
        assert_eq!(rate.fraction, 1.0);
        assert!(
            rate.power_w < 0.06,
            "idle GPU draws ~leakage, got {}",
            rate.power_w
        );
    }

    #[test]
    fn governor_records_the_name_only() {
        let mut g = Gpu::adreno420();
        g.set_freq(GpuFreqIndex(2));
        g.set_governor("performance");
        assert_eq!(g.governor(), "performance");
        assert_eq!(g.freq(), GpuFreqIndex(2), "pins belong to the device");
        g.set_governor("userspace");
        assert_eq!(g.governor(), "userspace");
    }

    #[test]
    fn residency_and_busy_accumulate() {
        let mut g = Gpu::adreno420();
        g.set_freq(GpuFreqIndex(2));
        for _ in 0..10 {
            let rate = g.evaluate(0.21); // half utilization at 0.42 GHz
            g.accumulate(rate, 1);
        }
        assert_eq!(g.time_in_freq_ms()[2], 10);
        assert!((g.busy_ms() - 5.0).abs() < 1e-9);
        g.reset_stats();
        assert_eq!(g.time_in_freq_ms()[2], 0);
    }
}
