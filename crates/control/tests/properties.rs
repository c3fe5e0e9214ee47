//! Property-based tests of the control-theory substrate: convergence,
//! stability and clamping of the regulator and estimator under random
//! plants and noise.
//!
//! Randomized inputs come from a seeded [`asgov_util::Rng`] so every
//! run exercises the same cases (the hermetic stand-in for proptest).

use asgov_control::{AdaptiveIntegrator, KalmanFilter};
use asgov_util::Rng;

/// The adaptive integrator converges to the required speedup for any
/// reachable target on a linear plant, regardless of the initial
/// state and base speed.
#[test]
fn integrator_converges() {
    let mut rng = Rng::seed_from_u64(0xc0_0001);
    for case in 0..128 {
        let b = rng.gen_range(0.05..2.0);
        let target_frac = rng.gen_range(0.05..0.95);
        let initial = rng.gen_range(1.0..10.0);
        let (min_s, max_s) = (1.0, 10.0);
        let target = (min_s + target_frac * (max_s - min_s)) * b;
        let mut reg = AdaptiveIntegrator::new(initial, min_s, max_s);
        for _ in 0..200 {
            let y = reg.speedup() * b;
            reg.step(target, y, b);
        }
        assert!(
            (reg.speedup() * b - target).abs() < 1e-6 * target.max(1.0),
            "case {case}: speedup {} for target {target} at base {b}",
            reg.speedup()
        );
    }
}

/// The integrator's output is always within its clamp range, no
/// matter how wild the measurements are.
#[test]
fn integrator_always_clamped() {
    let mut rng = Rng::seed_from_u64(0xc0_0002);
    for case in 0..128 {
        let target = rng.gen_range(-5.0..5.0);
        let b = rng.gen_range(0.001..10.0);
        let len = rng.gen_range_usize(1..100);
        let mut reg = AdaptiveIntegrator::new(1.0, 1.0, 3.0);
        for _ in 0..len {
            let y = rng.gen_range(-10.0..10.0);
            let s = reg.step(target, y, b);
            assert!(
                (1.0..=3.0).contains(&s),
                "case {case}: unclamped speedup {s}"
            );
        }
    }
}

/// The Kalman filter converges to the true base speed under
/// persistent excitation, for any positive h sequence.
#[test]
fn kalman_converges() {
    let mut rng = Rng::seed_from_u64(0xc0_0003);
    for case in 0..128 {
        let b_true = rng.gen_range(0.05..2.0);
        let h = rng.gen_range(0.5..5.0);
        let spread = rng.gen_range(0.0..1.0);
        let mut kf = KalmanFilter::new(b_true * (0.2 + 1.6 * spread), 1.0, 1e-6, 1e-3);
        for _ in 0..500 {
            kf.update(h * b_true, h);
        }
        assert!(
            (kf.value() - b_true).abs() < 0.01 * b_true.max(0.1),
            "case {case}: estimate {} vs true {b_true}",
            kf.value()
        );
    }
}

/// The filter's variance never becomes negative or NaN.
#[test]
fn kalman_variance_well_formed() {
    let mut rng = Rng::seed_from_u64(0xc0_0004);
    for case in 0..128 {
        let len = rng.gen_range_usize(1..200);
        let mut kf = KalmanFilter::new(0.5, 1.0, 1e-4, 1e-2);
        for _ in 0..len {
            let y = rng.gen_range(0.0..5.0);
            let h = rng.gen_range(0.0..5.0);
            kf.update(y, h);
            assert!(kf.variance() >= 0.0, "case {case}");
            assert!(kf.variance().is_finite(), "case {case}");
            assert!(kf.value().is_finite(), "case {case}");
        }
    }
}
