//! The brute-force two-configuration energy optimizer (paper Fig. 3).
//!
//! The LP of Eqns. 4–7 has two equality constraints, so its basic optimal
//! solutions have at most two nonzero `τ` values: the optimizer picks at
//! most two configurations `c_l, c_h` with `𝕊(l) ≤ s_n < 𝕊(h)` and time
//! shares `τ_l + τ_h = T`. This module implements that `O(N²)` pair
//! search as written in the paper. It is the oracle the runtime
//! [`HullSolver`](crate::HullSolver) is differentially tested against,
//! and the baseline of the `asgov-bench` optimizer rows; no controller
//! runs it. It clamps through the hull's plateau clamp, so the two
//! agree bit for bit on every clamped target.

use crate::hull::{Clamp, Schedule};

/// Find the minimum-energy schedule delivering average speedup
/// `target_speedup` over a control cycle of `period_s` seconds.
///
/// `speedups[i]` and `powers[i]` are the profiled speedup and average
/// power of configuration `i` (paper Table I). Returns `None` when the
/// inputs are empty, have mismatched lengths, or contain non-finite or
/// non-positive periods.
///
/// Targets below the lowest achievable speedup clamp to the
/// minimum-power configuration among those with the lowest speedup;
/// targets above the highest clamp to the maximum-speedup configuration
/// (minimum power among near-ties) — matching the regulator's clamping.
/// Configurations whose speedups differ by less than
/// [`PLATEAU_TOL`](crate::hull::PLATEAU_TOL) (0.5 % relative) count as
/// performance-equivalent when clamping: among them, the cheapest one
/// wins.
pub fn optimize(
    speedups: &[f64],
    powers: &[f64],
    target_speedup: f64,
    period_s: f64,
) -> Option<Schedule> {
    let n = speedups.len();
    if n == 0
        || powers.len() != n
        || !period_s.is_finite()
        || period_s <= 0.0
        || !target_speedup.is_finite()
        || speedups.iter().chain(powers.iter()).any(|v| !v.is_finite())
    {
        return None;
    }

    if let Some(sched) = Clamp::new(speedups, powers).apply(target_speedup, period_s) {
        return Some(sched);
    }

    // O(N²) pair search. For each bracketing pair compute the unique
    // time split and its energy; keep the cheapest.
    let mut best: Option<Schedule> = None;
    for l in 0..n {
        // asgov-analyze: allow(hot-path-transitive): l and h range over 0..n with n == speedups.len() == powers.len(), checked at entry
        if speedups[l] > target_speedup {
            continue;
        }
        for h in 0..n {
            if speedups[h] < target_speedup || h == l {
                continue;
            }
            let span = speedups[h] - speedups[l];
            if span <= 0.0 {
                continue;
            }
            let tau_h = period_s * (target_speedup - speedups[l]) / span;
            let tau_l = period_s - tau_h;
            let energy = tau_l * powers[l] + tau_h * powers[h];
            if best.as_ref().is_none_or(|b| energy < b.energy_j) {
                best = Some(Schedule {
                    lower: l,
                    upper: h,
                    tau_lower: tau_l,
                    tau_upper: tau_h,
                    energy_j: energy,
                });
            }
        }
    }
    // An exact-match configuration may beat every strict pair.
    for (i, (&s, &p)) in speedups.iter().zip(powers).enumerate() {
        if (s - target_speedup).abs() < 1e-12 {
            let cand = Schedule::single(i, p, period_s);
            if best.as_ref().is_none_or(|b| cand.energy_j <= b.energy_j) {
                best = Some(cand);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HullSolver;

    const T: f64 = 2.0;

    #[test]
    fn brackets_the_target() {
        let s = [1.0, 1.5, 2.0, 3.0];
        let p = [1.0, 1.4, 2.0, 3.5];
        let sched = optimize(&s, &p, 1.75, T).unwrap();
        assert!(s[sched.lower] <= 1.75 && s[sched.upper] >= 1.75);
        assert!((sched.tau_lower + sched.tau_upper - T).abs() < 1e-12);
        assert!((sched.expected_speedup(&s) - 1.75).abs() < 1e-9);
    }

    #[test]
    fn picks_cheapest_bracket_not_nearest() {
        // Config 1 is power-inefficient; mixing 0 and 2 is cheaper than
        // any schedule through 1.
        let s = [1.0, 1.5, 2.0];
        let p = [1.0, 5.0, 2.0];
        let sched = optimize(&s, &p, 1.5, T).unwrap();
        assert_eq!((sched.lower, sched.upper), (0, 2));
        // energy = 1·1.0 + 1·2.0 = 3.0 < 2·5.0.
        assert!((sched.energy_j - 3.0).abs() < 1e-9);
    }

    #[test]
    fn exact_match_uses_single_config() {
        let s = [1.0, 2.0, 3.0];
        let p = [1.0, 1.5, 4.0];
        let sched = optimize(&s, &p, 2.0, T).unwrap();
        assert_eq!(sched.lower, sched.upper);
        assert_eq!(sched.lower, 1);
        assert!((sched.energy_j - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_below_and_above_range() {
        let s = [1.0, 2.0];
        let p = [1.0, 2.0];
        let below = optimize(&s, &p, 0.5, T).unwrap();
        assert_eq!((below.lower, below.upper), (0, 0));
        let above = optimize(&s, &p, 9.0, T).unwrap();
        assert_eq!((above.lower, above.upper), (1, 1));
        assert!((above.energy_j - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(optimize(&[], &[], 1.0, T).is_none());
        assert!(optimize(&[1.0], &[1.0, 2.0], 1.0, T).is_none());
        assert!(optimize(&[1.0], &[1.0], 1.0, 0.0).is_none());
        assert!(optimize(&[1.0], &[1.0], 1.0, -1.0).is_none());
        assert!(optimize(&[f64::NAN], &[1.0], 1.0, T).is_none());
        assert!(optimize(&[1.0], &[1.0], f64::INFINITY, T).is_none());
    }

    #[test]
    fn unsorted_tables_are_fine() {
        let s = [3.0, 1.0, 2.0];
        let p = [4.0, 1.0, 2.0];
        let sched = optimize(&s, &p, 1.5, T).unwrap();
        assert!((sched.expected_speedup(&s) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn collinear_points_cost_the_same() {
        let s = [1.0, 2.0, 3.0];
        let p = [1.0, 2.0, 3.0];
        let hull = HullSolver::new(&s, &p).unwrap();
        let sched = hull.solve(1.5, T).unwrap();
        let brute = optimize(&s, &p, 1.5, T).unwrap();
        assert!((sched.energy_j - brute.energy_j).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_fixed_tables() {
        let s = [1.0, 1.3, 1.9, 2.4, 3.1, 3.8];
        let p = [1.5, 1.7, 2.4, 2.9, 3.8, 5.0];
        let hull = HullSolver::new(&s, &p).unwrap();
        for k in 0..=40 {
            let target = 0.8 + k as f64 * 0.1; // sweeps below, through, above
            let a = hull.solve(target, T).unwrap();
            let b = optimize(&s, &p, target, T).unwrap();
            assert!(
                (a.energy_j - b.energy_j).abs() < 1e-9,
                "target {target}: hull {} vs brute {}",
                a.energy_j,
                b.energy_j
            );
            assert!(
                (a.expected_speedup(&s) - b.expected_speedup(&s)).abs() < 1e-9,
                "target {target}: speedups diverge"
            );
        }
    }

    #[test]
    fn clamps_identically_to_brute_force() {
        // A plateaued table: the last three configs are within 0.5 % in
        // speedup but differ in power — the clamp must pick the cheapest.
        let s = [1.0, 2.0, 3.000, 3.004, 3.008];
        let p = [1.0, 2.0, 4.0, 3.6, 3.8];
        let hull = HullSolver::new(&s, &p).unwrap();
        for target in [0.2, 0.999, 1.0, 3.0, 3.01, 99.0] {
            let a = hull.solve(target, T).unwrap();
            let b = optimize(&s, &p, target, T).unwrap();
            assert_eq!(
                (a.lower, a.upper),
                (b.lower, b.upper),
                "clamp indices diverge at target {target}"
            );
            assert!((a.energy_j - b.energy_j).abs() < 1e-12);
        }
    }
}
