//! Monsoon-style whole-device power monitor.
//!
//! The paper samples device power at 5 kHz with a Monsoon Power Monitor
//! and integrates to energy. Our simulator advances in spans of whole
//! 1 ms ticks, and the monitor records one averaged sample per tick —
//! exactly what a 5 kHz monitor's per-millisecond average would be — and
//! integrates energy tick by tick. Measurement noise is drawn once per
//! span, not once per tick (see [`PowerMonitor`]).

use asgov_util::Rng;

/// Whole-device power monitor: integrates the device's power to energy.
/// It keeps no trace; [`Device`](crate::Device) forwards each span's
/// samples to the installed `asgov_obs::TraceSink`.
///
/// Measurement noise is drawn once per span of ticks, not once per
/// tick: a span of `n` ticks gets one Gaussian draw `σ·√n·z`, the exact
/// law of the sum of `n` independent N(0, σ²) per-tick errors, added to
/// its first sample. The span's measured total is clamped at zero (a
/// monitor cannot read negative energy). A 1 ms span is therefore the
/// per-tick model verbatim, and with σ = 0 every span integrates the
/// same bits as its ticks one at a time. The first sample of each span
/// carries the whole span's noise.
#[derive(Debug, Clone)]
pub struct PowerMonitor {
    noise_sigma_w: f64,
    rng: Rng,
    energy_j: f64,
    elapsed_ms: u64,
}

impl PowerMonitor {
    /// A monitor with Gaussian measurement noise of standard deviation
    /// `noise_sigma_w` watts (the paper's Monsoon is quite accurate; a
    /// few mW is realistic).
    pub fn new(noise_sigma_w: f64, seed: u64) -> Self {
        Self {
            noise_sigma_w,
            rng: Rng::seed_from_u64(seed),
            energy_j: 0.0,
            elapsed_ms: 0,
        }
    }

    /// A fresh monitor with this one's noise level and its own `seed`.
    pub(crate) fn replica(&self, seed: u64) -> Self {
        Self::new(self.noise_sigma_w, seed)
    }

    /// Record a span of `span_ms` ticks (at least one): `first_w` is the
    /// average power of its first tick, `rest_w` that of each later
    /// tick. One noise draw `σ·√n·z` covers the span and lands on its
    /// first sample; the later samples add their noiseless power in tick
    /// order. At `span_ms == 1` this is one noisy per-tick sample.
    /// Returns the first sample as measured: noisy and clamped.
    #[inline]
    pub(crate) fn record_span(&mut self, first_w: f64, rest_w: f64, span_ms: u64) -> f64 {
        let noise = if self.noise_sigma_w > 0.0 {
            // Box-Muller transform; the RNG is deterministic per seed.
            let (radius, cosine) = self.rng.gen_normal_factors();
            // σ·√1 is σ exactly, so a 1 ms span skips the square root.
            let sigma_span = if span_ms == 1 {
                self.noise_sigma_w
            } else {
                self.noise_sigma_w * (span_ms as f64).sqrt()
            };
            sigma_span * radius * cosine
        } else {
            0.0
        };
        // Clamp the span's measured total, not its first sample: at one
        // tick this is the per-sample `max(0.0)`.
        let rest_sum_w = rest_w * (span_ms - 1) as f64;
        let noisy = first_w + noise;
        let first = if noisy + rest_sum_w < 0.0 {
            0.0 - rest_sum_w
        } else {
            noisy
        };
        self.energy_j += first * 1e-3; // 1 ms tick
        for _ in 1..span_ms {
            self.energy_j += rest_w * 1e-3;
        }
        self.elapsed_ms += span_ms;
        first
    }

    /// Total measured energy since the last reset, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Measurement duration since the last reset, ms.
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ms
    }

    /// Average power since the last reset, watts (0 if nothing recorded).
    pub fn average_power_w(&self) -> f64 {
        if self.elapsed_ms == 0 {
            0.0
        } else {
            self.energy_j / (self.elapsed_ms as f64 * 1e-3)
        }
    }

    /// Clear the integrator.
    pub fn reset(&mut self) {
        self.energy_j = 0.0;
        self.elapsed_ms = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_energy_exactly_without_noise() {
        let mut m = PowerMonitor::new(0.0, 1);
        for _ in 0..1000 {
            m.record_span(2.0, 2.0, 1);
        }
        assert!((m.energy_j() - 2.0).abs() < 1e-9, "2 W for 1 s = 2 J");
        assert_eq!(m.elapsed_ms(), 1000);
        assert!((m.average_power_w() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn noise_is_zero_mean_in_aggregate() {
        let mut m = PowerMonitor::new(0.005, 42);
        for _ in 0..100_000 {
            m.record_span(1.5, 1.5, 1);
        }
        let avg = m.average_power_w();
        assert!(
            (avg - 1.5).abs() < 0.001,
            "noisy average {avg} drifted from 1.5"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = PowerMonitor::new(0.0, 1);
        m.record_span(3.0, 3.0, 1);
        m.reset();
        assert_eq!(m.energy_j(), 0.0);
        assert_eq!(m.elapsed_ms(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut m = PowerMonitor::new(0.01, seed);
            for _ in 0..1000 {
                m.record_span(1.0, 1.0, 1);
            }
            m.energy_j()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
