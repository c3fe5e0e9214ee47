//! CoScale-style gradient-descent configuration search.
//!
//! The paper's §VI compares against CoScale (Deng et al., MICRO'12),
//! which coordinates CPU and memory DVFS on servers using a
//! *gradient-descent heuristic* instead of a linear program. This module
//! implements that search style over the same profile vectors, so the
//! repository can quantify the paper's claim that LP-based selection is
//! preferable: the heuristic returns a *single* configuration (no
//! two-point time-mixing) and can stop in a local minimum of the
//! energy/performance trade-off.

use crate::hull::Schedule;

/// Greedy local search: starting from `start`, repeatedly move to the
/// neighbouring index (±1 in the table order) that reduces power while
/// still meeting `target_speedup`; if the target is unmet, move toward
/// more speedup. Terminates at a local optimum.
///
/// The table should be sorted by increasing speedup for the neighbour
/// structure to be meaningful (the profiler emits tables in
/// configuration order, which is speedup-monotone per frequency column;
/// sort first if you need the global structure).
///
/// Returns `None` on malformed input (mismatched lengths, empty table,
/// out-of-range start, non-finite values).
pub fn descend(
    speedups: &[f64],
    powers: &[f64],
    target_speedup: f64,
    period_s: f64,
    start: usize,
) -> Option<Schedule> {
    let n = speedups.len();
    if n == 0
        || powers.len() != n
        || start >= n
        || !period_s.is_finite()
        || period_s <= 0.0
        || !target_speedup.is_finite()
        || speedups.iter().chain(powers.iter()).any(|v| !v.is_finite())
    {
        return None;
    }

    let mut cur = start;
    // Bounded iterations: each accepted move strictly improves either
    // feasibility or power, so n² is a generous cap.
    for _ in 0..n * n {
        // asgov-analyze: allow(hot-path-transitive): cur starts inside 0..n (validated at entry) and only moves via checked_sub / (cur + 1 < n) neighbors
        let feasible = speedups[cur] >= target_speedup;
        let mut best = cur;
        for cand in [cur.checked_sub(1), (cur + 1 < n).then_some(cur + 1)]
            .into_iter()
            .flatten()
        {
            if feasible {
                // Keep feasibility, reduce power.
                if speedups[cand] >= target_speedup && powers[cand] < powers[best] {
                    best = cand;
                }
            } else {
                // Climb toward feasibility.
                if speedups[cand] > speedups[best] {
                    best = cand;
                }
            }
        }
        if best == cur {
            break;
        }
        cur = best;
    }

    Some(Schedule::single(cur, powers[cur], period_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_point;

    /// A smooth convex table: the heuristic finds the same *config* as
    /// the LP's bracketing pair but cannot time-mix, so it pays extra.
    #[test]
    fn single_config_answer_costs_at_least_the_lp() {
        let speedups: Vec<f64> = (0..20).map(|i| 1.0 + 0.15 * i as f64).collect();
        let powers: Vec<f64> = (0..20).map(|i| 1.0 + 0.02 * (i * i) as f64).collect();
        let target = 2.05;
        let gd = descend(&speedups, &powers, target, 2.0, 10).unwrap();
        let lp = two_point::optimize(&speedups, &powers, target, 2.0).unwrap();
        assert!(speedups[gd.lower] >= target, "heuristic must be feasible");
        assert!(
            gd.energy_j >= lp.energy_j - 1e-9,
            "gradient descent ({}) cannot beat the LP ({})",
            gd.energy_j,
            lp.energy_j
        );
    }

    /// On a non-convex power curve the heuristic can strand in a local
    /// minimum that the exhaustive LP search avoids.
    #[test]
    fn local_minimum_trap() {
        // Speedups rise monotonically; power has a plateau the greedy
        // walk cannot cross, while the cheap global optimum sits at the
        // far end (index 6).
        let speedups = [1.0, 1.5, 2.0, 2.1, 2.2, 2.3, 2.4];
        let powers = [3.0, 2.5, 4.5, 4.0, 4.0, 4.0, 1.5];
        let target = 1.9;
        let gd = descend(&speedups, &powers, target, 2.0, 0).unwrap();
        assert_eq!(gd.lower, 3, "greedy walk strands on the plateau");
        let lp = two_point::optimize(&speedups, &powers, target, 2.0).unwrap();
        assert!(
            lp.energy_j < gd.energy_j,
            "LP ({}) escapes the trap GD ({}) is stuck in",
            lp.energy_j,
            gd.energy_j
        );
    }

    #[test]
    fn unreachable_target_climbs_to_the_top() {
        let speedups = [1.0, 2.0, 3.0];
        let powers = [1.0, 2.0, 3.0];
        let gd = descend(&speedups, &powers, 99.0, 2.0, 0).unwrap();
        assert_eq!(gd.lower, 2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(descend(&[], &[], 1.0, 2.0, 0).is_none());
        assert!(descend(&[1.0], &[1.0, 2.0], 1.0, 2.0, 0).is_none());
        assert!(descend(&[1.0], &[1.0], 1.0, 2.0, 5).is_none());
        assert!(descend(&[1.0], &[1.0], 1.0, 0.0, 0).is_none());
        assert!(descend(&[f64::NAN], &[1.0], 1.0, 2.0, 0).is_none());
    }

    #[test]
    fn start_point_matters() {
        // Two feasible basins; different starts, different answers.
        let speedups = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5];
        let powers = [1.0, 3.0, 3.0, 3.0, 3.0, 1.2];
        let from_left = descend(&speedups, &powers, 1.5, 2.0, 0).unwrap();
        let from_right = descend(&speedups, &powers, 1.5, 2.0, 5).unwrap();
        assert_eq!(from_left.lower, 0);
        assert_eq!(from_right.lower, 5);
    }
}
