//! The adaptive-gain integral performance regulator (paper Eqn. 2–3).

/// Adaptive-gain integral controller.
///
/// At the end of every control cycle, given the target performance `r`
/// and the measured performance `y_n`, the regulator computes the
/// required *speedup* for the next cycle:
///
/// ```text
/// e_n = r − y_n                      (Eqn. 2)
/// s_n = s_{n−1} + e_{n−1} / b_{n−1}  (Eqn. 3)
/// ```
///
/// The gain `1 / b_{n−1}` adapts with the application's base speed
/// `b` (the speed at the lowest system configuration), which is
/// estimated online by a [`crate::KalmanFilter`]. Because `s` is a
/// speedup relative to the base speed, at equilibrium
/// `s · b = r` — the integrator drives the error to zero (see the
/// stability analysis in Almoosa et al., "A power capping controller
/// for multicore processors", ACC 2012).
///
/// The speedup is clamped to a configurable range (the speedups
/// available in the profile table) to prevent wind-up when the target
/// is unreachable.
///
/// # Example
///
/// ```
/// use asgov_control::AdaptiveIntegrator;
///
/// let mut reg = AdaptiveIntegrator::new(1.0, 1.0, 10.0);
/// // Plant: y = s * b with b = 2.0; target r = 6.0 → s* = 3.0.
/// let (r, b) = (6.0, 2.0);
/// let mut s = reg.speedup();
/// for _ in 0..50 {
///     let y = s * b;
///     s = reg.step(r, y, b);
/// }
/// assert!((reg.speedup() - 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveIntegrator {
    speedup: f64,
    min_speedup: f64,
    max_speedup: f64,
    gain: f64,
    last_error: f64,
}

impl AdaptiveIntegrator {
    /// Create a regulator with initial speedup `initial` clamped into
    /// `[min_speedup, max_speedup]`.
    ///
    /// # Panics
    ///
    /// Panics if `min_speedup > max_speedup` or `min_speedup <= 0`.
    pub fn new(initial: f64, min_speedup: f64, max_speedup: f64) -> Self {
        assert!(
            min_speedup <= max_speedup,
            "min_speedup must not exceed max_speedup"
        );
        assert!(min_speedup > 0.0, "speedups must be positive");
        Self {
            speedup: initial.clamp(min_speedup, max_speedup),
            min_speedup,
            max_speedup,
            gain: 1.0,
            last_error: 0.0,
        }
    }

    /// Scale the integration gain: `s_n = s_{n-1} + g·e_{n-1}/b_{n-1}`.
    /// `g = 1` (the default) is the paper's deadbeat update; `g < 1`
    /// trades convergence speed for noise immunity (closed-loop pole at
    /// `1 − g`).
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not in `(0, 1]`.
    pub fn with_gain(mut self, gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]");
        self.gain = gain;
        self
    }

    /// The current required speedup `s_n`.
    pub fn speedup(&self) -> f64 {
        self.speedup
    }

    /// The most recent tracking error `e_n`.
    pub fn last_error(&self) -> f64 {
        self.last_error
    }

    /// Advance one control cycle: `target` is `r`, `measured` is `y_n`,
    /// and `base_speed` is the estimate of `b_n`. Returns the new
    /// required speedup `s_{n+1}`.
    ///
    /// A non-positive `base_speed` (e.g. a Kalman filter still
    /// converging from a degenerate seed) leaves the speedup unchanged
    /// rather than dividing by zero.
    pub fn step(&mut self, target: f64, measured: f64, base_speed: f64) -> f64 {
        let error = target - measured;
        self.last_error = error;
        if base_speed > 0.0 {
            self.speedup = (self.speedup + self.gain * error / base_speed)
                .clamp(self.min_speedup, self.max_speedup);
        }
        self.speedup
    }

    /// Reset to a given speedup (used on phase changes).
    pub fn reset(&mut self, speedup: f64) {
        self.speedup = speedup.clamp(self.min_speedup, self.max_speedup);
        self.last_error = 0.0;
    }

    /// Restore the mutable state captured by [`Self::speedup`] and
    /// [`Self::last_error`] (checkpoint/restore support). A speedup that
    /// was read from this integrator round-trips bit-exactly, because
    /// re-clamping an already-clamped value is the identity.
    pub fn restore_state(&mut self, speedup: f64, last_error: f64) {
        self.speedup = speedup.clamp(self.min_speedup, self.max_speedup);
        self.last_error = last_error;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_required_speedup() {
        let mut reg = AdaptiveIntegrator::new(1.0, 1.0, 20.0);
        let b = 0.129; // AngryBirds base speed from the paper, GIPS
        let r = 0.20; // target GIPS
        for _ in 0..100 {
            let y = reg.speedup() * b;
            reg.step(r, y, b);
        }
        assert!((reg.speedup() * b - r).abs() < 1e-9);
    }

    #[test]
    fn clamps_unreachable_target_without_windup() {
        let mut reg = AdaptiveIntegrator::new(1.0, 1.0, 2.0);
        let b = 1.0;
        for _ in 0..1000 {
            let y = reg.speedup() * b;
            reg.step(100.0, y, b); // target far beyond reach
        }
        assert_eq!(reg.speedup(), 2.0);
        // After the target becomes reachable again, recovery is fast
        // because the integrator did not wind up beyond the clamp.
        let mut cycles = 0;
        loop {
            let y = reg.speedup() * b;
            reg.step(1.5, y, b);
            cycles += 1;
            if (reg.speedup() - 1.5).abs() < 1e-6 {
                break;
            }
            assert!(cycles < 10, "recovery should be immediate-ish");
        }
    }

    #[test]
    fn adapts_when_base_speed_changes() {
        let mut reg = AdaptiveIntegrator::new(1.0, 1.0, 20.0);
        let r = 1.0;
        let mut b = 0.5;
        for _ in 0..50 {
            let y = reg.speedup() * b;
            reg.step(r, y, b);
        }
        assert!((reg.speedup() - 2.0).abs() < 1e-6);
        // Application enters a faster phase: base speed doubles.
        b = 1.0;
        for _ in 0..50 {
            let y = reg.speedup() * b;
            reg.step(r, y, b);
        }
        assert!((reg.speedup() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_base_speed_is_safe() {
        let mut reg = AdaptiveIntegrator::new(2.0, 1.0, 10.0);
        reg.step(1.0, 0.5, 0.0);
        assert_eq!(reg.speedup(), 2.0);
        reg.step(1.0, 0.5, -1.0);
        assert_eq!(reg.speedup(), 2.0);
    }

    #[test]
    fn reset_restores_state() {
        let mut reg = AdaptiveIntegrator::new(1.0, 1.0, 10.0);
        reg.step(5.0, 1.0, 1.0);
        assert!(reg.last_error() > 0.0);
        reg.reset(3.0);
        assert_eq!(reg.speedup(), 3.0);
        assert_eq!(reg.last_error(), 0.0);
    }

    #[test]
    #[should_panic(expected = "min_speedup")]
    fn rejects_inverted_range() {
        let _ = AdaptiveIntegrator::new(1.0, 5.0, 2.0);
    }
}
