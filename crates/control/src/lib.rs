//! # asgov-control — control-theory building blocks
//!
//! The substrate for the paper's online controller (Section III-B):
//!
//! - [`AdaptiveIntegrator`] — the adaptive-gain integral performance
//!   regulator `s_n = s_{n-1} + e_{n-1} / b_{n-1}` (paper Eqn. 3), whose
//!   gain adapts through the base-speed estimate `b`.
//! - [`KalmanFilter`] — the scalar Kalman filter that continuously
//!   estimates the application *base speed* `b_n` from measurements
//!   `y_n = s_{n-1} · b_n + v` (paper §III-B3, following POET).
//!
//! All types are plain `f64` state machines with no allocation, suitable
//! for per-control-cycle invocation at negligible overhead.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod integrator;
mod kalman;

pub use integrator::AdaptiveIntegrator;
pub use kalman::{KalmanEstimate, KalmanFilter};
