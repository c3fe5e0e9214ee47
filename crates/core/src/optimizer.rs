//! The energy optimizer: the LP of paper Eqns. 4–7 over a profile table.

use asgov_linprog::{gradient, HullSolver};
use asgov_profiler::{Config, ProfileTable};
use std::sync::Arc;

/// Minimum-energy configuration selection over an offline profile.
///
/// Caches the speedup (𝕊) and power (ℙ) vectors of the profile table and
/// answers "which ≤ 2 configurations, for how long each, deliver average
/// speedup `s_n` over the next 𝕋 seconds at minimum energy".
///
/// # Example
///
/// ```
/// # use asgov_core::EnergyOptimizer;
/// # use asgov_profiler::{Config, ProfileEntry, ProfileTable};
/// # use asgov_soc::{BwIndex, FreqIndex};
/// # let entry = |f, s, p| ProfileEntry {
/// #     config: Config::new(FreqIndex(f), BwIndex(0)),
/// #     speedup: s, power_w: p, measured: true,
/// # };
/// let table = ProfileTable {
///     app: "demo".into(),
///     base_gips: 0.2,
///     entries: vec![entry(0, 1.0, 1.5), entry(4, 1.8, 2.2), entry(9, 2.6, 3.4)],
/// };
/// let optimizer = EnergyOptimizer::new(&table);
/// let plan = optimizer.solve(2.0, 2.0).expect("finite target");
/// // At most two configurations, bracketing the target speedup.
/// assert!(plan.speedup_lower <= 2.0 && plan.speedup_upper >= 2.0);
/// assert!((plan.tau_lower + plan.tau_upper - 2.0).abs() < 1e-9);
/// ```
///
/// The tables are immutable after construction and shared: a clone
/// bumps at most four reference counts and copies three scalars, so
/// every controller of one profile plans over the same tables.
#[derive(Debug, Clone)]
pub struct EnergyOptimizer {
    speedups: Arc<[f64]>,
    powers: Arc<[f64]>,
    configs: Arc<[Config]>,
    /// Lower convex envelope, precomputed once at construction; makes
    /// every [`solve`](EnergyOptimizer::solve) `O(log N)` instead of
    /// `O(N²)`. `None` only when the table contains non-finite values
    /// (then every solve returns `None`, as the brute force would).
    hull: Option<Arc<HullSolver>>,
    /// Smallest and largest speedup and the index of the largest,
    /// folded once at construction.
    min_speedup: f64,
    max_speedup: f64,
    max_speedup_index: usize,
}

/// A solved control input `u_n`: two dwell intervals (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Configuration applied first (speedup ≤ target).
    pub lower: Config,
    /// Configuration applied second (speedup ≥ target).
    pub upper: Config,
    /// Dwell in `lower`, seconds.
    pub tau_lower: f64,
    /// Dwell in `upper`, seconds.
    pub tau_upper: f64,
    /// Profiled speedup of `lower`.
    pub speedup_lower: f64,
    /// Profiled speedup of `upper`.
    pub speedup_upper: f64,
    /// Average speedup the plan delivers.
    pub speedup: f64,
    /// Predicted energy over the cycle, joules.
    pub energy_j: f64,
}

impl EnergyOptimizer {
    /// Build an optimizer from a profile table. Everything a solve or
    /// a controller build reads is derived here, once, so one optimizer
    /// can be cloned into many controllers of the same profile (see
    /// [`ControllerBuilder::with_optimizer`](crate::ControllerBuilder::with_optimizer)).
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn new(table: &ProfileTable) -> Self {
        assert!(!table.is_empty(), "profile table must not be empty");
        let speedups = table.speedups();
        let powers = table.powers();
        let hull = HullSolver::new(&speedups, &powers).map(Arc::new);
        Self {
            configs: (0..table.len()).map(|i| table.config(i)).collect(),
            min_speedup: speedups.iter().copied().fold(f64::INFINITY, f64::min),
            max_speedup: speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            max_speedup_index: speedups
                .iter()
                .enumerate()
                .fold((0, f64::NEG_INFINITY), |(bi, bs), (i, &s)| {
                    if s > bs {
                        (i, s)
                    } else {
                        (bi, bs)
                    }
                })
                .0,
            speedups: speedups.into(),
            powers: powers.into(),
            hull,
        }
    }

    /// Number of configurations (N).
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Is the table empty? (Never true — construction requires rows.)
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Smallest available speedup.
    pub fn min_speedup(&self) -> f64 {
        self.min_speedup
    }

    /// Largest available speedup.
    pub fn max_speedup(&self) -> f64 {
        self.max_speedup
    }

    /// Solve for the minimum-energy plan delivering `target_speedup`
    /// over `period_s` seconds. Returns `None` only for non-finite or
    /// non-positive inputs.
    ///
    /// Runs on the precomputed convex hull: `O(log N)` per call. The
    /// unit tests check it against the `O(N²)` brute force
    /// (`asgov_linprog::two_point`) for equal-energy plans.
    pub fn solve(&self, target_speedup: f64, period_s: f64) -> Option<Plan> {
        let sched = self.hull.as_ref()?.solve(target_speedup, period_s)?;
        Some(self.plan_from(sched))
    }

    /// Solve with the CoScale-style greedy search instead of the LP
    /// (paper §VI comparison): a single configuration, found by local
    /// descent from `start` (e.g. the previously applied index).
    pub fn solve_gradient(&self, target_speedup: f64, period_s: f64, start: usize) -> Option<Plan> {
        let sched = gradient::descend(
            &self.speedups,
            &self.powers,
            target_speedup,
            period_s,
            start.min(self.configs.len().saturating_sub(1)),
        )?;
        Some(self.plan_from(sched))
    }

    /// Index of the configuration equal to `config`, if present.
    pub fn index_of(&self, config: Config) -> Option<usize> {
        self.configs.iter().position(|&c| c == config)
    }

    /// The configuration at `index` (panics if out of range).
    pub fn config(&self, index: usize) -> Config {
        // asgov-analyze: allow(hot-path-index): documented panicking accessor; callers pass indices produced by this table
        self.configs[index]
    }

    /// The profiled speedup at `index` (panics if out of range).
    pub fn speedup_at(&self, index: usize) -> f64 {
        // asgov-analyze: allow(hot-path-index): documented panicking accessor; callers pass indices produced by this table
        self.speedups[index]
    }

    /// The profiled power draw at `index` (panics if out of range).
    fn power_at(&self, index: usize) -> f64 {
        // asgov-analyze: allow(hot-path-index): documented panicking accessor; callers pass indices produced by this table
        self.powers[index]
    }

    /// Index of the maximum-speedup configuration. This is the
    /// degradation ladder's *safe configuration*: pinning it can cost
    /// energy but never performance, so a degraded controller that has
    /// lost trust in its measurements falls back to it.
    pub fn max_speedup_index(&self) -> usize {
        self.max_speedup_index
    }

    /// A degenerate single-configuration plan pinning `index` for the
    /// whole period (used by the degraded controller, which suspends
    /// optimization).
    pub fn pinned_plan(&self, index: usize, period_s: f64) -> Plan {
        let i = index.min(self.configs.len() - 1);
        Plan {
            lower: self.config(i),
            upper: self.config(i),
            tau_lower: period_s,
            tau_upper: 0.0,
            speedup_lower: self.speedup_at(i),
            speedup_upper: self.speedup_at(i),
            speedup: self.speedup_at(i),
            energy_j: self.power_at(i) * period_s,
        }
    }

    fn plan_from(&self, sched: asgov_linprog::Schedule) -> Plan {
        Plan {
            lower: self.config(sched.lower),
            upper: self.config(sched.upper),
            tau_lower: sched.tau_lower,
            tau_upper: sched.tau_upper,
            speedup_lower: self.speedup_at(sched.lower),
            speedup_upper: self.speedup_at(sched.upper),
            speedup: sched.expected_speedup(&self.speedups),
            energy_j: sched.energy_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_profiler::ProfileEntry;
    use asgov_soc::{BwIndex, FreqIndex};

    fn table() -> ProfileTable {
        let mk = |f: usize, b: usize, s: f64, p: f64| ProfileEntry {
            config: Config::new(FreqIndex(f), BwIndex(b)),
            speedup: s,
            power_w: p,
            measured: true,
        };
        ProfileTable {
            app: "test".into(),
            base_gips: 0.2,
            entries: vec![
                mk(0, 0, 1.0, 1.5),
                mk(2, 0, 1.6, 1.9),
                mk(4, 0, 2.1, 2.4),
                mk(4, 12, 2.6, 3.0),
                mk(8, 12, 3.4, 4.2),
            ],
        }
    }

    #[test]
    fn plan_brackets_and_fills_period() {
        let opt = EnergyOptimizer::new(&table());
        let plan = opt.solve(2.0, 2.0).unwrap();
        assert!((plan.tau_lower + plan.tau_upper - 2.0).abs() < 1e-9);
        assert!((plan.speedup - 2.0).abs() < 1e-9);
        assert!(plan.energy_j > 0.0);
    }

    #[test]
    fn extremes_clamp() {
        let opt = EnergyOptimizer::new(&table());
        assert_eq!(opt.min_speedup(), 1.0);
        assert_eq!(opt.max_speedup(), 3.4);
        let low = opt.solve(0.2, 2.0).unwrap();
        assert_eq!(low.lower, low.upper);
        assert_eq!(low.lower.freq, FreqIndex(0));
        let high = opt.solve(99.0, 2.0).unwrap();
        assert_eq!(high.upper.freq, FreqIndex(8));
    }

    #[test]
    fn energy_increases_with_target() {
        let opt = EnergyOptimizer::new(&table());
        let mut prev = 0.0;
        for t in [1.0, 1.5, 2.0, 2.5, 3.0, 3.4] {
            let e = opt.solve(t, 2.0).unwrap().energy_j;
            assert!(e >= prev - 1e-9, "energy not monotone at target {t}");
            prev = e;
        }
    }

    #[test]
    fn hull_and_exhaustive_agree() {
        let t = table();
        let (speedups, powers) = (t.speedups(), t.powers());
        let opt = EnergyOptimizer::new(&t);
        for k in 0..=50 {
            let target = 0.5 + k as f64 * 0.08; // spans below..above range
            let exhaustive = asgov_linprog::two_point::optimize(&speedups, &powers, target, 2.0);
            match (opt.solve(target, 2.0), exhaustive) {
                (Some(a), Some(b)) => {
                    assert!(
                        (a.energy_j - b.energy_j).abs() < 1e-9,
                        "target {target}: hull {} vs exhaustive {}",
                        a.energy_j,
                        b.energy_j
                    );
                    assert!((a.speedup - b.expected_speedup(&speedups)).abs() < 1e-9);
                }
                (a, b) => panic!("solvers disagree at {target}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_table_rejected() {
        let t = ProfileTable {
            app: "x".into(),
            base_gips: 1.0,
            entries: vec![],
        };
        let _ = EnergyOptimizer::new(&t);
    }
}
