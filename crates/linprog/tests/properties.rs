//! Property-based tests of the LP substrate: the specialized
//! two-configuration solver must agree with the general simplex solver
//! on every well-formed instance, its schedules must satisfy the
//! paper's constraints exactly, and the convex-hull solver must agree
//! with the brute-force pair search on every table shape.
//!
//! Randomized inputs come from a seeded [`asgov_util::Rng`] so every
//! run exercises the same cases (the hermetic stand-in for proptest).

#[path = "support/simplex.rs"]
mod simplex;

use asgov_linprog::hull::PLATEAU_TOL;
use asgov_linprog::{two_point, HullSolver};
use asgov_util::Rng;

/// A random profile table of 2–40 configurations with positive
/// speedups and powers, plus a target inside the achievable range.
fn instance(rng: &mut Rng) -> (Vec<f64>, Vec<f64>, f64) {
    let n = rng.gen_range_usize(2..40);
    let speedups: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..5.0)).collect();
    let powers: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..6.0)).collect();
    let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let target = lo + rng.gen_range(0.0..1.0) * (hi - lo);
    (speedups, powers, target)
}

/// The schedule always fills the control period exactly and never
/// uses negative dwell times.
#[test]
fn schedule_fills_period() {
    let mut rng = Rng::seed_from_u64(0x19_0001);
    for case in 0..256 {
        let (speedups, powers, target) = instance(&mut rng);
        let period = 2.0;
        let sched = two_point::optimize(&speedups, &powers, target, period)
            .expect("well-formed instance must be solvable");
        assert!(sched.tau_lower >= -1e-12, "case {case}");
        assert!(sched.tau_upper >= -1e-12, "case {case}");
        assert!(
            (sched.tau_lower + sched.tau_upper - period).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// The delivered speedup matches the target (up to the plateau
/// tolerance clamping at the extremes).
#[test]
fn schedule_meets_target() {
    let mut rng = Rng::seed_from_u64(0x19_0002);
    for case in 0..256 {
        let (speedups, powers, target) = instance(&mut rng);
        let sched = two_point::optimize(&speedups, &powers, target, 2.0).unwrap();
        let achieved = sched.expected_speedup(&speedups);
        let hi = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        // Interior targets are met exactly; extreme targets clamp within
        // the plateau tolerance.
        let tol = (hi - lo).max(1.0) * PLATEAU_TOL + 1e-9;
        assert!(
            (achieved - target).abs() <= tol.max(hi * PLATEAU_TOL),
            "case {case}: target {target}, achieved {achieved}"
        );
    }
}

/// The chosen pair brackets the target: 𝕊(l) ≤ s ≤ 𝕊(h) (within the
/// plateau tolerance at the extremes).
#[test]
fn schedule_brackets_target() {
    let mut rng = Rng::seed_from_u64(0x19_0003);
    for case in 0..256 {
        let (speedups, powers, target) = instance(&mut rng);
        let sched = two_point::optimize(&speedups, &powers, target, 2.0).unwrap();
        let hi = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let slack = hi * PLATEAU_TOL + 1e-9;
        assert!(speedups[sched.lower] <= target + slack, "case {case}");
        assert!(speedups[sched.upper] >= target - slack, "case {case}");
    }
}

/// The specialized solver is optimal: it never does worse than the
/// general simplex solver on the same LP (and never better, either,
/// apart from plateau-tolerance clamping). Case 0 is a fixed
/// profile-like shape, the rest are random.
#[test]
fn two_point_matches_simplex() {
    let mut rng = Rng::seed_from_u64(0x19_0004);
    let fixed = (
        vec![1.0, 1.3, 1.9, 2.4, 3.1, 3.8],
        vec![1.5, 1.7, 2.4, 2.9, 3.8, 5.0],
        2.0,
    );
    let cases = std::iter::once(fixed).chain((0..128).map(|_| instance(&mut rng)));
    for (case, (speedups, powers, target)) in cases.enumerate() {
        let period = 2.0;
        let sched = two_point::optimize(&speedups, &powers, target, period).unwrap();

        let a = vec![speedups.clone(), vec![1.0; speedups.len()]];
        let b = vec![target * period, period];
        let lp = simplex::solve(&a, &b, &powers).expect("interior target is feasible");

        // Clamped (plateau) schedules may deliver a slightly different
        // speedup; compare only when the schedule met the target exactly.
        let achieved = sched.expected_speedup(&speedups);
        if (achieved - target).abs() < 1e-9 {
            assert!(
                (sched.energy_j - lp.objective).abs() < 1e-6 * lp.objective.max(1.0),
                "case {case}: two-point {} vs simplex {}",
                sched.energy_j,
                lp.objective
            );
        }
    }
}

/// Simplex solutions satisfy their constraints.
#[test]
fn simplex_feasible() {
    let mut rng = Rng::seed_from_u64(0x19_0005);
    for case in 0..128 {
        let (speedups, powers, target) = instance(&mut rng);
        let period = 2.0;
        let a = vec![speedups.clone(), vec![1.0; speedups.len()]];
        let b = vec![target * period, period];
        let lp = simplex::solve(&a, &b, &powers).unwrap();
        let perf: f64 = lp.x.iter().zip(&speedups).map(|(u, s)| u * s).sum();
        let time: f64 = lp.x.iter().sum();
        assert!(lp.x.iter().all(|&u| u >= -1e-9), "case {case}");
        assert!((perf - target * period).abs() < 1e-6, "case {case}");
        assert!((time - period).abs() < 1e-6, "case {case}");
    }
}

/// Energy is monotone in the target: asking for more speedup never
/// costs less (on monotone-power tables).
#[test]
fn energy_monotone_in_target() {
    let mut rng = Rng::seed_from_u64(0x19_0006);
    for case in 0..256 {
        let n = rng.gen_range_usize(3..20);
        let wiggle_seed = rng.gen_range(0.0..1000.0);
        // Build a monotone (speedup, power) table deterministically.
        let mut speedups = Vec::new();
        let mut powers = Vec::new();
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            let wiggle = ((wiggle_seed * 0.37 + i as f64).sin() + 1.0) * 0.05;
            speedups.push(1.0 + 2.0 * x + wiggle * 0.1);
            powers.push(1.0 + 3.0 * x * x + wiggle);
        }
        speedups.sort_by(f64::total_cmp);
        powers.sort_by(f64::total_cmp);
        let lo = speedups[0];
        let hi = speedups[n - 1];
        let mut prev = 0.0;
        for k in 0..10 {
            let target = lo + (hi - lo) * k as f64 / 9.0;
            let e = two_point::optimize(&speedups, &powers, target, 2.0)
                .unwrap()
                .energy_j;
            assert!(
                e >= prev - 1e-9,
                "case {case}: energy regressed at target {target}"
            );
            prev = e;
        }
    }
}

// ---------------------------------------------------------------------
// Differential testing: hull solver vs brute-force oracle.
// ---------------------------------------------------------------------

/// Table shapes the hull solver must handle identically to the brute
/// force: speedup-sorted, randomly ordered, plateaued (duplicated and
/// near-equal speedups), and the single-entry degenerate case.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Sorted,
    Unsorted,
    Plateaued,
    Single,
}

fn random_table(rng: &mut Rng, shape: Shape) -> (Vec<f64>, Vec<f64>) {
    match shape {
        Shape::Single => (vec![rng.gen_range(0.5..5.0)], vec![rng.gen_range(0.5..6.0)]),
        Shape::Sorted => {
            let n = rng.gen_range_usize(2..40);
            let mut speedups: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..5.0)).collect();
            let mut powers: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..6.0)).collect();
            speedups.sort_by(f64::total_cmp);
            powers.sort_by(f64::total_cmp);
            (speedups, powers)
        }
        Shape::Unsorted => {
            let n = rng.gen_range_usize(2..40);
            (
                (0..n).map(|_| rng.gen_range(0.5..5.0)).collect(),
                (0..n).map(|_| rng.gen_range(0.5..6.0)).collect(),
            )
        }
        Shape::Plateaued => {
            // A few distinct speedup levels, each shared by several
            // configurations (exactly equal or within the 0.5 %
            // plateau tolerance), with random powers.
            let levels = rng.gen_range_usize(1..5);
            let level_speedups: Vec<f64> = (0..levels).map(|_| rng.gen_range(0.8..4.5)).collect();
            let n = rng.gen_range_usize(2..30);
            let mut speedups = Vec::with_capacity(n);
            let mut powers = Vec::with_capacity(n);
            for _ in 0..n {
                let base = level_speedups[rng.gen_range_usize(0..levels)];
                let s = if rng.gen_bool(0.5) {
                    base // exact duplicate
                } else {
                    base * (1.0 + rng.gen_range(-0.004..0.004)) // near-tie
                };
                speedups.push(s);
                powers.push(rng.gen_range(0.5..6.0));
            }
            (speedups, powers)
        }
    }
}

/// Targets stressing every solve path: far below/above range, at the
/// extremes, exactly on table entries, and spread through the interior.
fn targets_for(rng: &mut Rng, speedups: &[f64]) -> Vec<f64> {
    let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut targets = vec![lo * 0.5, lo, hi, hi * 1.5];
    for _ in 0..6 {
        targets.push(lo + rng.gen_range(0.0..1.0) * (hi - lo));
    }
    // Exact table entries (single-configuration optima).
    targets.push(speedups[rng.gen_range_usize(0..speedups.len())]);
    targets
}

/// The plateau clamp's thresholds: `s_min·(1+PLATEAU_TOL)`, the speedup
/// of the cheapest low-plateau configuration, and `s_max·(1−PLATEAU_TOL)`.
fn clamp_thresholds(speedups: &[f64], powers: &[f64]) -> [f64; 3] {
    let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let cutoff = lo * (1.0 + PLATEAU_TOL);
    let low_s = (0..speedups.len())
        .filter(|&i| speedups[i] <= cutoff)
        .min_by(|&a, &b| powers[a].total_cmp(&powers[b]))
        .map_or(lo, |i| speedups[i]);
    [cutoff, low_s, hi * (1.0 - PLATEAU_TOL)]
}

/// The hull solver and the brute-force pair search are the same
/// function: same solvability, same energy (±1e-9 J), same delivered
/// speedup, on >1000 random tables across all four shapes. At the
/// plateau clamp's thresholds, where both solvers share one clamp, the
/// chosen configurations and the energy bits are equal too.
#[test]
fn hull_matches_two_point_exhaustively() {
    const TABLES_PER_SHAPE: usize = 300; // 4 shapes × 300 = 1200 tables
    let period = 2.0;
    let mut rng = Rng::seed_from_u64(0x19_0007);
    let mut solved = 0usize;
    for shape in [
        Shape::Sorted,
        Shape::Unsorted,
        Shape::Plateaued,
        Shape::Single,
    ] {
        for case in 0..TABLES_PER_SHAPE {
            let (speedups, powers) = random_table(&mut rng, shape);
            let hull =
                HullSolver::new(&speedups, &powers).expect("finite tables always build a hull");
            let random = targets_for(&mut rng, &speedups).into_iter();
            let thresholds = clamp_thresholds(&speedups, &powers).into_iter();
            for (target, exact) in random
                .map(|t| (t, false))
                .chain(thresholds.map(|t| (t, true)))
            {
                let fast = hull.solve(target, period);
                let oracle = two_point::optimize(&speedups, &powers, target, period);
                match (fast, oracle) {
                    (Some(a), Some(b)) => {
                        if exact {
                            assert_eq!(
                                (a.lower, a.upper, a.energy_j.to_bits()),
                                (b.lower, b.upper, b.energy_j.to_bits()),
                                "{shape:?} case {case} threshold {target}"
                            );
                        }
                        assert!(
                            (a.energy_j - b.energy_j).abs() < 1e-9,
                            "{shape:?} case {case} target {target}: \
                             hull energy {} vs oracle {}",
                            a.energy_j,
                            b.energy_j
                        );
                        let sa = a.expected_speedup(&speedups);
                        let sb = b.expected_speedup(&speedups);
                        assert!(
                            (sa - sb).abs() < 1e-9,
                            "{shape:?} case {case} target {target}: \
                             hull speedup {sa} vs oracle {sb}"
                        );
                        assert!(a.tau_lower >= -1e-12 && a.tau_upper >= -1e-12);
                        assert!((a.tau_lower + a.tau_upper - period).abs() < 1e-9);
                        solved += 1;
                    }
                    (None, None) => {}
                    (a, b) => panic!(
                        "{shape:?} case {case} target {target}: \
                         solvability disagrees (hull {a:?}, oracle {b:?})"
                    ),
                }
            }
        }
    }
    assert!(solved > 10_000, "only {solved} solves exercised");
}
