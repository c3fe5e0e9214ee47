//! The performance regulator: adaptive-gain integrator + Kalman base
//! speed estimator (paper §III-B3, Eqns. 2–3).

use crate::persist::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use asgov_control::{AdaptiveIntegrator, KalmanFilter};

/// Computes the required speedup `s_n` for the next control cycle from
/// the target performance and the measured performance, while
/// continuously estimating the application's base speed `b_n`.
#[derive(Debug, Clone)]
pub struct PerformanceRegulator {
    integrator: AdaptiveIntegrator,
    kalman: KalmanFilter,
    last_innovation: f64,
}

impl PerformanceRegulator {
    /// Create a regulator.
    ///
    /// * `initial_base_gips` — seed for the base-speed estimate
    ///   (typically [`asgov_profiler::ProfileTable::base_gips`]).
    /// * `min_speedup` / `max_speedup` — the speedup range available in
    ///   the profile table; the required speedup is clamped to it
    ///   (anti-windup for unreachable targets).
    ///
    /// # Panics
    ///
    /// Panics if the speedup range is invalid (see
    /// [`AdaptiveIntegrator::new`]) or `initial_base_gips` is not
    /// positive.
    pub fn new(initial_base_gips: f64, min_speedup: f64, max_speedup: f64) -> Self {
        Self::with_gain(initial_base_gips, min_speedup, max_speedup, 1.0)
    }

    /// Like [`PerformanceRegulator::new`] with an explicit integrator
    /// gain (see [`AdaptiveIntegrator::with_gain`]).
    ///
    /// # Panics
    ///
    /// As [`PerformanceRegulator::new`]; additionally if `gain` is not
    /// in `(0, 1]`.
    pub fn with_gain(
        initial_base_gips: f64,
        min_speedup: f64,
        max_speedup: f64,
        gain: f64,
    ) -> Self {
        assert!(
            initial_base_gips > 0.0,
            "initial base speed must be positive"
        );
        Self {
            integrator: AdaptiveIntegrator::new(1.0, min_speedup, max_speedup).with_gain(gain),
            // Variances follow POET's practice: slow random-walk drift,
            // measurement noise dominated by the PMU reader.
            kalman: KalmanFilter::new(initial_base_gips, 0.1 * initial_base_gips, 1e-5, 1e-3),
            last_innovation: 0.0,
        }
    }

    /// Current base-speed estimate `b_n`, GIPS.
    pub fn base_speed(&self) -> f64 {
        self.kalman.value()
    }

    /// Current required speedup `s_n`.
    pub fn required_speedup(&self) -> f64 {
        self.integrator.speedup()
    }

    /// The Kalman innovation `y − h·b⁻` of the most recent
    /// [`step`](PerformanceRegulator::step) (0 before the first step).
    /// Surfaced for the observability layer, which histograms its
    /// magnitude as a model-mismatch signal.
    pub fn innovation(&self) -> f64 {
        self.last_innovation
    }

    /// Advance one control cycle.
    ///
    /// * `target_gips` — the performance target `r`.
    /// * `measured_gips` — this cycle's measurement `y_n`.
    /// * `applied_speedup` — the average speedup the scheduler actually
    ///   applied during the measured cycle (the Kalman measurement
    ///   coefficient `h`).
    ///
    /// Returns the required speedup for the next cycle.
    pub fn step(&mut self, target_gips: f64, measured_gips: f64, applied_speedup: f64) -> f64 {
        // Estimate b from y = s_applied · b.
        let est = self.kalman.update(measured_gips, applied_speedup);
        self.last_innovation = est.innovation;
        let b = est.value.max(1e-6);
        self.integrator.step(target_gips, measured_gips, b)
    }

    /// Re-seed on a detected phase change.
    pub fn reseed(&mut self, base_gips: f64) {
        self.kalman.reset(base_gips, 0.1 * base_gips);
        self.integrator.reset(1.0);
    }

    /// Set the integrator's current speedup (used to sync with an
    /// externally-installed initial plan, avoiding a cold-start dip).
    pub fn set_speedup(&mut self, speedup: f64) {
        self.integrator.reset(speedup);
    }

    /// Append the regulator's mutable state to a snapshot payload: the
    /// Kalman posterior estimate and variance, the integrator's speedup
    /// and tracking error, and the most recent innovation. The
    /// configured variances, gain and speedup range are construction
    /// parameters and are not written.
    pub fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.kalman.value());
        w.put_f64(self.kalman.variance());
        w.put_f64(self.integrator.speedup());
        w.put_f64(self.integrator.last_error());
        w.put_f64(self.last_innovation);
    }

    /// Read the state [`encode_state`](PerformanceRegulator::encode_state)
    /// wrote. A negative or non-finite variance, or a non-finite
    /// estimate or speedup (a corrupted or hand-crafted snapshot), is
    /// [`SnapshotError::Corrupt`], and the regulator is left untouched.
    pub fn decode_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let base_estimate = r.take_f64()?;
        let base_variance = r.take_f64()?;
        let speedup = r.take_f64()?;
        let last_error = r.take_f64()?;
        let last_innovation = r.take_f64()?;
        persist::ensure(
            base_variance.is_finite()
                && base_variance >= 0.0
                && base_estimate.is_finite()
                && speedup.is_finite(),
        )?;
        self.kalman.reset(base_estimate, base_variance);
        self.integrator.restore_state(speedup, last_error);
        self.last_innovation = last_innovation;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plant: y = s · b_true, the regulator must find s = r / b_true.
    #[test]
    fn converges_on_ideal_plant() {
        let b_true = 0.129;
        let mut reg = PerformanceRegulator::new(0.2, 1.0, 10.0); // wrong seed
        let target = 0.25;
        let mut applied = 1.0;
        for _ in 0..100 {
            let y = applied * b_true;
            applied = reg.step(target, y, applied);
        }
        assert!(
            (reg.base_speed() - b_true).abs() < 0.01,
            "base speed estimate {} should converge to {}",
            reg.base_speed(),
            b_true
        );
        assert!(
            (applied * b_true - target).abs() < 0.01,
            "achieved {} vs target {}",
            applied * b_true,
            target
        );
    }

    #[test]
    fn tracks_base_speed_change() {
        let mut reg = PerformanceRegulator::new(0.4, 1.0, 10.0);
        let target = 0.8;
        let mut applied = 1.0;
        let mut b = 0.4;
        for i in 0..400 {
            if i == 200 {
                b = 0.25; // heavier background load shrinks base speed
            }
            let y = applied * b;
            applied = reg.step(target, y, applied);
        }
        assert!(
            (applied * b - target).abs() < 0.02,
            "regulator should re-converge after base-speed change"
        );
    }

    #[test]
    fn clamps_to_available_speedups() {
        let mut reg = PerformanceRegulator::new(0.1, 1.0, 3.0);
        let mut applied = 1.0;
        for _ in 0..50 {
            let y = applied * 0.1;
            applied = reg.step(10.0, y, applied); // unreachable target
        }
        assert_eq!(applied, 3.0);
    }

    #[test]
    fn reseed_resets_both_parts() {
        let mut reg = PerformanceRegulator::new(0.5, 1.0, 8.0);
        reg.step(2.0, 0.5, 1.0);
        reg.reseed(0.7);
        assert_eq!(reg.base_speed(), 0.7);
        assert_eq!(reg.required_speedup(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_seed() {
        let _ = PerformanceRegulator::new(0.0, 1.0, 2.0);
    }

    /// `reg`'s state, framed alone.
    fn state_frame(reg: &PerformanceRegulator) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        reg.encode_state(&mut w);
        w.finish().expect("small frame")
    }

    /// Decode a [`state_frame`] into `reg`.
    fn decode_frame(reg: &mut PerformanceRegulator, frame: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(frame)?;
        reg.decode_state(&mut r)?;
        r.finish()
    }

    #[test]
    fn state_round_trips_bit_exactly() {
        let mut reg = PerformanceRegulator::new(0.5, 1.0, 8.0);
        for i in 0..20 {
            reg.step(0.8, 0.3 + 0.01 * f64::from(i), 1.5);
        }
        let mut fresh = PerformanceRegulator::new(0.5, 1.0, 8.0);
        decode_frame(&mut fresh, &state_frame(&reg)).expect("restorable");
        assert_eq!(fresh.base_speed().to_bits(), reg.base_speed().to_bits());
        assert_eq!(
            fresh.required_speedup().to_bits(),
            reg.required_speedup().to_bits()
        );
        assert_eq!(fresh.innovation().to_bits(), reg.innovation().to_bits());
        assert_eq!(format!("{fresh:?}"), format!("{reg:?}"));
        // Identical futures: the next step must produce identical bits.
        let a = reg.step(0.8, 0.42, 1.5);
        let b = fresh.step(0.8, 0.42, 1.5);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn decode_refuses_unrestorable_state() {
        let mut reg = PerformanceRegulator::new(0.5, 1.0, 8.0);
        reg.step(0.8, 0.3, 1.5);
        let before = format!("{reg:?}");
        // (estimate, variance, speedup): a negative or NaN variance, a
        // NaN estimate and an infinite speedup are each refused.
        for (estimate, variance, speedup) in [
            (0.5, -1.0, 1.0),
            (0.5, f64::NAN, 1.0),
            (f64::NAN, 0.01, 1.0),
            (0.5, 0.01, f64::INFINITY),
        ] {
            let mut w = SnapshotWriter::new();
            for v in [estimate, variance, speedup, 0.0, 0.0] {
                w.put_f64(v);
            }
            let frame = w.finish().expect("small frame");
            assert_eq!(
                decode_frame(&mut reg, &frame),
                Err(SnapshotError::Corrupt),
                "({estimate}, {variance}, {speedup})"
            );
            // The refused decode left the regulator untouched.
            assert_eq!(format!("{reg:?}"), before);
        }
    }
}
