//! Convex-hull energy optimizer: `O(log N)` per solve.
//!
//! The brute-force [`two_point::optimize`](crate::two_point::optimize)
//! pair search is `O(N²)` per control tick. But the minimum-energy
//! two-configuration schedule for a target speedup `s` is exactly the
//! **lower convex envelope** of the (speedup, power) point set
//! evaluated at `s`: any chord through two
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
//! This module also owns the runtime LP types and rules: the
//! [`Schedule`] every solver returns and the plateau clamp for
//! out-of-range targets. The brute-force oracle clamps through the same
//! precomputed clamp, so the two paths are differentially tested to
//! produce equal energy on every table
//! (`hull_matches_two_point_exhaustively` in `tests/properties.rs`).

/// The optimizer's output: run configuration `lower` for `tau_lower`
/// seconds, then configuration `upper` for `tau_upper` seconds.
///
/// `lower == upper` (with `tau_upper == 0`) when a single configuration
/// meets the target exactly or the target is outside the achievable
/// speedup range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Index of the configuration with speedup ≤ target.
    pub lower: usize,
    /// Index of the configuration with speedup ≥ target.
    pub upper: usize,
    /// Time to spend in `lower`, seconds.
    pub tau_lower: f64,
    /// Time to spend in `upper`, seconds.
    pub tau_upper: f64,
    /// Expected energy over the cycle, joules (`τ_l·P_l + τ_h·P_h`).
    pub energy_j: f64,
}

impl Schedule {
    /// Configuration `i`, drawing `power_w`, for the whole `period_s`.
    pub fn single(i: usize, power_w: f64, period_s: f64) -> Self {
        Self {
            lower: i,
            upper: i,
            tau_lower: period_s,
            tau_upper: 0.0,
            energy_j: period_s * power_w,
        }
    }

    /// Expected average speedup delivered by this schedule.
    pub fn expected_speedup(&self, speedups: &[f64]) -> f64 {
        let total = self.tau_lower + self.tau_upper;
        if total <= 0.0 {
            return 0.0;
        }
        // asgov-analyze: allow(hot-path-transitive): lower/upper were produced by the solver as indices into this same speedup table; a schedule is only meaningful against the table that built it
        (self.tau_lower * speedups[self.lower] + self.tau_upper * speedups[self.upper]) / total
    }
}

/// Relative speedup tolerance below which two configurations count as
/// performance-equivalent at the extremes of the table.
///
/// Profiled speedups carry measurement noise. Without the tolerance, a
/// saturated application (GIPS flat across most of the table) would be
/// parked on whichever configuration happened to measure
/// epsilon-fastest — often a needlessly expensive one.
pub const PLATEAU_TOL: f64 = 0.005;

/// The plateau clamp of one (speedup, power) table, precomputed once.
///
/// Targets at or below the low band clamp to the cheapest configuration
/// whose speedup is within [`PLATEAU_TOL`] of the minimum; targets in
/// the high band clamp to the cheapest within [`PLATEAU_TOL`] of the
/// maximum. Both solvers clamp through this, so their clamping is
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Clamp {
    /// Lowest/highest speedup in the table (band thresholds).
    s_min: f64,
    s_max: f64,
    /// Cheapest members of the low/high plateaus, with their
    /// speedup/power.
    low_i: usize,
    low_s: f64,
    low_p: f64,
    high_i: usize,
    high_p: f64,
}

impl Clamp {
    /// Precompute the clamp of a non-empty table of equal-length,
    /// finite `speedups` and `powers`.
    pub(crate) fn new(speedups: &[f64], powers: &[f64]) -> Self {
        let (min_i, max_i) = extreme_speedup_indices(speedups, powers);
        let low_i = cheapest_low_plateau(speedups, powers, min_i);
        let high_i = cheapest_high_plateau(speedups, powers, max_i);
        Self {
            // asgov-analyze: allow(hot-path-transitive): min_i/max_i/low_i/high_i index these same validated equal-length slices
            s_min: speedups[min_i],
            s_max: speedups[max_i],
            low_i,
            low_s: speedups[low_i],
            low_p: powers[low_i],
            high_i,
            high_p: powers[high_i],
        }
    }

    /// The single-configuration schedule for an out-of-range target;
    /// `None` for an interior target, which goes to the pair search.
    /// The low band goes first, and a target above the cheapest low
    /// plateau member falls through to the interior.
    pub(crate) fn apply(&self, target_speedup: f64, period_s: f64) -> Option<Schedule> {
        if target_speedup <= self.s_min * (1.0 + PLATEAU_TOL)
            && target_speedup <= self.low_s.max(self.s_min)
        {
            return Some(Schedule::single(self.low_i, self.low_p, period_s));
        }
        if target_speedup >= self.s_max * (1.0 - PLATEAU_TOL) {
            return Some(Schedule::single(self.high_i, self.high_p, period_s));
        }
        None
    }
}

/// The cheapest configuration inside the low-speedup plateau (speedups
/// within `PLATEAU_TOL` of the minimum).
fn cheapest_low_plateau(speedups: &[f64], powers: &[f64], min_i: usize) -> usize {
    // asgov-analyze: allow(hot-path-transitive): min_i comes from extreme_speedup_indices over this table; filter indices range over 0..len of the same validated equal-length slices
    let cutoff = speedups[min_i] * (1.0 + PLATEAU_TOL);
    (0..speedups.len())
        .filter(|&i| speedups[i] <= cutoff)
        .min_by(|&a, &b| powers[a].total_cmp(&powers[b]))
        .unwrap_or(min_i)
}

/// The cheapest configuration inside the high-speedup plateau (speedups
/// within `PLATEAU_TOL` of the maximum).
fn cheapest_high_plateau(speedups: &[f64], powers: &[f64], max_i: usize) -> usize {
    // asgov-analyze: allow(hot-path-transitive): max_i comes from extreme_speedup_indices over this table; filter indices range over 0..len of the same validated equal-length slices
    let cutoff = speedups[max_i] * (1.0 - PLATEAU_TOL);
    (0..speedups.len())
        .filter(|&i| speedups[i] >= cutoff)
        .min_by(|&a, &b| powers[a].total_cmp(&powers[b]))
        .unwrap_or(max_i)
}

/// Indices of the lowest- and highest-speedup configurations, breaking
/// ties by lower power.
fn extreme_speedup_indices(speedups: &[f64], powers: &[f64]) -> (usize, usize) {
    let mut min_i = 0;
    let mut max_i = 0;
    for i in 1..speedups.len() {
        // asgov-analyze: allow(hot-path-transitive): i ranges over 1..len, min_i/max_i over previously visited indices; powers.len() == speedups.len() is checked by every entry point
        if speedups[i] < speedups[min_i]
            || (speedups[i] == speedups[min_i] && powers[i] < powers[min_i])
        {
            min_i = i;
        }
        if speedups[i] > speedups[max_i]
            || (speedups[i] == speedups[max_i] && powers[i] < powers[max_i])
        {
            max_i = i;
        }
    }
    (min_i, max_i)
}

/// Precomputed lower convex envelope of a (speedup, power) table.
///
/// Build once per profile table with [`HullSolver::new`], then call
/// [`HullSolver::solve`] every control tick.
///
/// # Example
///
/// ```
/// use asgov_linprog::hull::HullSolver;
///
/// let speedups = [1.0, 1.8, 2.0, 2.5];
/// let powers = [1.6, 2.2, 3.5, 3.1]; // config 2 is dominated
/// let hull = HullSolver::new(&speedups, &powers).unwrap();
/// let sched = hull.solve(2.0, 2.0).unwrap();
/// // The dominated config is never scheduled: its neighbours on the
/// // envelope share the period instead.
/// assert_eq!((sched.lower, sched.upper), (1, 3));
/// assert!((sched.expected_speedup(&speedups) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HullSolver {
    /// Hull vertex speedups, strictly ascending.
    xs: Vec<f64>,
    /// Hull vertex powers.
    ys: Vec<f64>,
    /// Original configuration index of each hull vertex.
    idx: Vec<usize>,
    /// The plateau clamp of the *full* table.
    clamp: Clamp,
}

impl HullSolver {
    /// Build the lower convex envelope of `(speedups[i], powers[i])`.
    /// `O(N log N)`. Returns `None` when the inputs are empty,
    /// mismatched, or contain non-finite values — the same rejections
    /// as [`two_point::optimize`](crate::two_point::optimize).
    pub fn new(speedups: &[f64], powers: &[f64]) -> Option<Self> {
        let n = speedups.len();
        if n == 0
            || powers.len() != n
            || speedups.iter().chain(powers.iter()).any(|v| !v.is_finite())
        {
            return None;
        }

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
            clamp: Clamp::new(speedups, powers),
        })
    }

    /// Original configuration indices of the envelope vertices, in
    /// ascending speedup order.
    pub fn vertices(&self) -> &[usize] {
        &self.idx
    }

    /// Minimum-energy schedule delivering `target_speedup` over
    /// `period_s` seconds: `O(log H)`. Energy-equal to
    /// [`two_point::optimize`](crate::two_point::optimize) on every
    /// input (differentially tested); `None` only for non-finite or
    /// non-positive `target_speedup`/`period_s`.
    pub fn solve(&self, target_speedup: f64, period_s: f64) -> Option<Schedule> {
        if !period_s.is_finite() || period_s <= 0.0 || !target_speedup.is_finite() {
            return None;
        }

        if let Some(sched) = self.clamp.apply(target_speedup, period_s) {
            return Some(sched);
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
            return Some(Schedule::single(self.idx[0], self.ys[0], period_s));
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn duplicate_speedups_keep_the_cheapest() {
        let s = [1.0, 1.0, 3.0];
        let p = [2.0, 1.0, 3.0];
        let hull = HullSolver::new(&s, &p).unwrap();
        // Vertex at speedup 1.0 must be config 1 (power 1.0).
        assert_eq!(hull.vertices()[0], 1);
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
