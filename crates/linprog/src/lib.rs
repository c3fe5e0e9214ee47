//! # asgov-linprog — linear programming for the energy optimizer
//!
//! The paper's energy optimizer (Eqns. 4–7) is the linear program
//!
//! ```text
//! min   uᵀ · ℙ                    (energy over the next cycle)
//! s.t.  𝕊ᵀ · u = s_n · T          (performance constraint)
//!       𝟙ᵀ · u = T                (time fills the cycle exactly)
//!       0 ≼ u ≼ T
//! ```
//!
//! whose optimum provably uses **at most two** system configurations
//! `c_l, c_h` bracketing the required speedup. This crate provides:
//!
//! - [`hull`] — the runtime solver: precompute the lower convex
//!   envelope of the (speedup, power) points once (`O(N log N)`), then
//!   answer every per-tick solve with a binary search + one
//!   interpolation (`O(log N)`). It also owns the [`Schedule`] type
//!   and the plateau clamp for out-of-range targets,
//! - [`two_point`] — the paper's `O(N²)` pair search, kept as the
//!   brute-force oracle the hull solver is differentially tested
//!   against and as the optimizer benchmark's baseline,
//! - [`gradient`] — a CoScale-style greedy local search (paper §VI's
//!   point of comparison), provided to quantify why the paper prefers
//!   the exact LP.
//!
//! A general dense simplex solver lives in the crate's test support
//! (`tests/support/simplex.rs`); the property tests check the
//! two-configuration solvers against it.
//!
//! # Example
//!
//! ```
//! use asgov_linprog::HullSolver;
//!
//! let speedups = [1.0, 1.8, 2.5];
//! let powers = [1.6, 2.2, 3.1];
//! let hull = HullSolver::new(&speedups, &powers).unwrap();
//! let sched = hull.solve(2.0, 2.0).unwrap();
//! // Bracket the target speedup 2.0 between configs 1 (s=1.8) and 2 (s=2.5).
//! assert_eq!((sched.lower, sched.upper), (1, 2));
//! let achieved = (sched.tau_lower * 1.8 + sched.tau_upper * 2.5) / 2.0;
//! assert!((achieved - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gradient;
pub mod hull;
pub mod two_point;

pub use hull::{HullSolver, Schedule};
