//! Convex-hull energy optimizer: `O(log N)` per solve.
//!
//! The brute-force [`two_point::optimize`] pair search is `O(N²)` per
//! control tick. But the minimum-energy two-configuration schedule for
//! a target speedup `s` is exactly the **lower convex envelope** of the
//! (speedup, power) point set evaluated at `s`: any chord through two
//! configurations bracketing `s` is a candidate schedule, and the
//! cheapest chord at `s` is, by definition, the envelope. Configurations
//! strictly above the envelope can never appear in an optimal schedule.
//!
//! [`HullSolver`] therefore precomputes the envelope once — `O(N log N)`
//! (sort + Andrew monotone chain) — and answers each solve with a
//! binary search over the hull vertices plus one interpolation:
//! `O(log H)` for `H ≤ N` hull vertices. For the paper's N = 234
//! configuration table this turns tens of thousands of pair evaluations
//! into ~8 comparisons (see `BENCH_optimizer.json`).
//!
//! Out-of-range targets clamp through the *same* plateau logic as the
//! brute-force solver (`two_point::clamp_extremes`), so the two paths
//! are differentially tested to produce equal energy on every table
//! (`hull_matches_two_point_exhaustively` in `tests/properties.rs`).

use crate::two_point::{self, Schedule, PLATEAU_TOL};

/// Precomputed lower convex envelope of a (speedup, power) table.
///
/// Build once per profile table with [`HullSolver::new`], then call
/// [`HullSolver::solve`] every control tick.
///
/// # Example
///
/// ```
/// use asgov_linprog::hull::HullSolver;
/// use asgov_linprog::two_point;
///
/// let speedups = [1.0, 1.8, 2.0, 2.5];
/// let powers = [1.6, 2.2, 3.5, 3.1]; // config 2 is dominated
/// let hull = HullSolver::new(&speedups, &powers).unwrap();
/// let fast = hull.solve(2.0, 2.0).unwrap();
/// let brute = two_point::optimize(&speedups, &powers, 2.0, 2.0).unwrap();
/// assert!((fast.energy_j - brute.energy_j).abs() < 1e-12);
/// // The dominated config is never scheduled.
/// assert_ne!(fast.lower, 2);
/// assert_ne!(fast.upper, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HullSolver {
    /// Hull vertex speedups, strictly ascending.
    xs: Vec<f64>,
    /// Hull vertex powers.
    ys: Vec<f64>,
    /// Original configuration index of each hull vertex.
    idx: Vec<usize>,
    /// Lowest/highest speedup in the *full* table (clamp thresholds).
    s_min: f64,
    s_max: f64,
    /// Clamp targets: cheapest members of the low/high plateaus, with
    /// their speedup/power (identical selection to the brute force).
    low_i: usize,
    low_s: f64,
    low_p: f64,
    high_i: usize,
    high_p: f64,
}

impl HullSolver {
    /// Build the lower convex envelope of `(speedups[i], powers[i])`.
    /// `O(N log N)`. Returns `None` when the inputs are empty,
    /// mismatched, or contain non-finite values — the same rejections
    /// as [`two_point::optimize`].
    pub fn new(speedups: &[f64], powers: &[f64]) -> Option<Self> {
        let n = speedups.len();
        if n == 0
            || powers.len() != n
            || speedups.iter().chain(powers.iter()).any(|v| !v.is_finite())
        {
            return None;
        }

        // Clamp precomputation, shared with the brute-force path.
        let (min_i, max_i) = two_point::extreme_speedup_indices(speedups, powers);
        let low_i = two_point::cheapest_low_plateau(speedups, powers, min_i);
        let high_i = two_point::cheapest_high_plateau(speedups, powers, max_i);

        // Sort configuration indices by (speedup, power, index); for
        // duplicate speedups only the cheapest can be on the envelope.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            // asgov-analyze: allow(hot-path-transitive): comparator indices come from (0..n).collect() where n == speedups.len() == powers.len(), checked at entry
            speedups[a]
                .total_cmp(&speedups[b])
                .then(powers[a].total_cmp(&powers[b]))
                .then(a.cmp(&b))
        });

        // Andrew monotone chain, lower hull. `cross ≤ 0` also drops
        // collinear interior vertices — the envelope is unchanged.
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        for &i in &order {
            if let Some(&last) = stack.last() {
                if speedups[i] == speedups[last] {
                    continue; // same speedup, equal or higher power
                }
            }
            while stack.len() >= 2 {
                let a = stack[stack.len() - 2];
                let b = stack[stack.len() - 1];
                let cross = (speedups[b] - speedups[a]) * (powers[i] - powers[a])
                    - (powers[b] - powers[a]) * (speedups[i] - speedups[a]);
                if cross <= 0.0 {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(i);
        }

        Some(Self {
            xs: stack.iter().map(|&i| speedups[i]).collect(),
            ys: stack.iter().map(|&i| powers[i]).collect(),
            idx: stack,
            s_min: speedups[min_i],
            s_max: speedups[max_i],
            low_i,
            low_s: speedups[low_i],
            low_p: powers[low_i],
            high_i,
            high_p: powers[high_i],
        })
    }

    /// Original configuration indices of the envelope vertices, in
    /// ascending speedup order.
    pub fn vertices(&self) -> &[usize] {
        &self.idx
    }

    /// Minimum-energy schedule delivering `target_speedup` over
    /// `period_s` seconds: `O(log H)`. Energy-equal to
    /// [`two_point::optimize`] on every
    /// input (differentially tested); `None` only for non-finite or
    /// non-positive `target_speedup`/`period_s`.
    pub fn solve(&self, target_speedup: f64, period_s: f64) -> Option<Schedule> {
        if !period_s.is_finite() || period_s <= 0.0 || !target_speedup.is_finite() {
            return None;
        }

        // Plateau clamping, in the same order as the brute force: low
        // band first (with the interior fall-through), then high band.
        if target_speedup <= self.s_min * (1.0 + PLATEAU_TOL)
            && target_speedup <= self.low_s.max(self.s_min)
        {
            return Some(single(self.low_i, self.low_p, period_s));
        }
        if target_speedup >= self.s_max * (1.0 - PLATEAU_TOL) {
            return Some(single(self.high_i, self.high_p, period_s));
        }

        // Interior target: the envelope segment bracketing it is the
        // cheapest two-configuration schedule. `partition_point` gives
        // the first vertex with speedup > target. For physical
        // (positive-speedup) tables the clamps above guarantee
        // s_min < target < s_max; the guards below cover degenerate
        // non-positive-speedup tables, where the relative-tolerance
        // clamps can miss and the brute force finds no bracketing pair.
        let up = self.xs.partition_point(|&s| s <= target_speedup);
        if up == 0 {
            return None; // target below every configuration
        }
        if up == self.xs.len() && self.xs[up - 1] < target_speedup {
            return None; // target above every configuration
        }
        if self.xs.len() == 1 {
            // Lone vertex reachable only by exact match.
            return Some(single(self.idx[0], self.ys[0], period_s));
        }
        let (l, h) = if up == self.xs.len() {
            (up - 2, up - 1) // target == s_max: last segment, τ_l = 0
        } else {
            (up - 1, up)
        };
        let span = self.xs[h] - self.xs[l];
        let tau_upper = period_s * (target_speedup - self.xs[l]) / span;
        let tau_lower = period_s - tau_upper;
        Some(Schedule {
            lower: self.idx[l],
            upper: self.idx[h],
            tau_lower,
            tau_upper,
            energy_j: tau_lower * self.ys[l] + tau_upper * self.ys[h],
        })
    }
}

fn single(i: usize, power_w: f64, period_s: f64) -> Schedule {
    Schedule {
        lower: i,
        upper: i,
        tau_lower: period_s,
        tau_upper: 0.0,
        energy_j: period_s * power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_point::optimize;

    const T: f64 = 2.0;

    #[test]
    fn dominated_points_leave_the_envelope() {
        // Point 1 sits above the chord 0–2: it must not be a vertex.
        let s = [1.0, 2.0, 3.0];
        let p = [1.0, 3.0, 3.5];
        let hull = HullSolver::new(&s, &p).unwrap();
        assert_eq!(hull.vertices(), &[0, 2]);
        // And the solver mixes 0 and 2 straight across the gap.
        let sched = hull.solve(2.0, T).unwrap();
        assert_eq!((sched.lower, sched.upper), (0, 2));
        assert!((sched.energy_j - (1.0 + 3.5)).abs() < 1e-12);
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
    fn duplicate_speedups_keep_the_cheapest() {
        let s = [1.0, 1.0, 3.0];
        let p = [2.0, 1.0, 3.0];
        let hull = HullSolver::new(&s, &p).unwrap();
        // Vertex at speedup 1.0 must be config 1 (power 1.0).
        assert_eq!(hull.vertices()[0], 1);
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

    #[test]
    fn single_entry_table() {
        let hull = HullSolver::new(&[1.5], &[2.0]).unwrap();
        for target in [0.1, 1.5, 9.0] {
            let sched = hull.solve(target, T).unwrap();
            assert_eq!((sched.lower, sched.upper), (0, 0));
            assert!((sched.energy_j - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(HullSolver::new(&[], &[]).is_none());
        assert!(HullSolver::new(&[1.0], &[1.0, 2.0]).is_none());
        assert!(HullSolver::new(&[f64::NAN], &[1.0]).is_none());
        let hull = HullSolver::new(&[1.0, 2.0], &[1.0, 2.0]).unwrap();
        assert!(hull.solve(f64::NAN, T).is_none());
        assert!(hull.solve(1.5, 0.0).is_none());
        assert!(hull.solve(1.5, -1.0).is_none());
        assert!(hull.solve(f64::INFINITY, T).is_none());
    }

    #[test]
    fn envelope_is_convex_and_sorted() {
        let s = [2.0, 1.0, 3.5, 2.5, 1.5, 3.0];
        let p = [2.5, 1.0, 4.0, 2.6, 2.2, 3.9];
        let hull = HullSolver::new(&s, &p).unwrap();
        let xs: Vec<f64> = hull.vertices().iter().map(|&i| s[i]).collect();
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "vertices not sorted");
        // Slopes are non-decreasing along a lower convex envelope.
        let ys: Vec<f64> = hull.vertices().iter().map(|&i| p[i]).collect();
        let slopes: Vec<f64> = xs
            .windows(2)
            .zip(ys.windows(2))
            .map(|(x, y)| (y[1] - y[0]) / (x[1] - x[0]))
            .collect();
        assert!(
            slopes.windows(2).all(|w| w[1] >= w[0] - 1e-12),
            "envelope not convex: {slopes:?}"
        );
    }
}
