//! Dense two-phase simplex solver for small linear programs.
//!
//! Solves the standard-form problem
//!
//! ```text
//! min  cᵀx   s.t.  A·x = b,  x ≥ 0
//! ```
//!
//! with Bland's anti-cycling pivot rule. Designed for the optimizer's
//! problem sizes (a handful of constraints, tens of variables); clarity
//! over asymptotics. Test support only: the general LP the property
//! tests check the two-configuration solver against.

use std::error::Error;
use std::fmt;

/// Failure modes of [`solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// Dimensions of `a`, `b`, `c` are inconsistent or empty.
    BadShape(String),
    /// No feasible point satisfies the constraints.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::BadShape(why) => write!(f, "malformed linear program: {why}"),
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
        }
    }
}

impl Error for LpError {}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable values.
    pub x: Vec<f64>,
    /// Optimal objective value `cᵀx`.
    pub objective: f64,
}

const EPS: f64 = 1e-9;

/// Solve `min cᵀx s.t. A·x = b, x ≥ 0` by two-phase simplex.
///
/// `a` is row-major with `b.len()` rows of `c.len()` columns.
///
/// # Errors
///
/// Returns [`LpError::BadShape`] on dimension mismatch,
/// [`LpError::Infeasible`] or [`LpError::Unbounded`] as appropriate.
// Indexed loops keep the tableau arithmetic legible; iterator forms of
// these row operations obscure which column is being priced.
#[allow(clippy::needless_range_loop, clippy::manual_memcpy)]
pub fn solve(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> Result<LpSolution, LpError> {
    let m = b.len();
    let n = c.len();
    if m == 0 || n == 0 {
        return Err(LpError::BadShape("empty constraint or variable set".into()));
    }
    if a.len() != m || a.iter().any(|row| row.len() != n) {
        return Err(LpError::BadShape(format!(
            "A must be {m}×{n} to match b and c"
        )));
    }

    // Normalize rows so b ≥ 0.
    let mut a: Vec<Vec<f64>> = a.to_vec();
    let mut b: Vec<f64> = b.to_vec();
    for i in 0..m {
        if b[i] < 0.0 {
            b[i] = -b[i];
            for v in &mut a[i] {
                *v = -*v;
            }
        }
    }

    // Phase 1 tableau: variables x (n) + artificials (m).
    // tableau rows: m constraint rows + 1 objective row.
    // columns: n + m variables + 1 rhs.
    let cols = n + m + 1;
    let mut t = vec![vec![0.0; cols]; m + 1];
    for i in 0..m {
        t[i][..n].copy_from_slice(&a[i]);
        t[i][n + i] = 1.0;
        t[i][cols - 1] = b[i];
    }
    // Phase-1 objective: minimize sum of artificials. Express objective
    // row in terms of non-basic variables (reduced costs).
    for j in 0..cols {
        let s: f64 = (0..m).map(|i| t[i][j]).sum();
        t[m][j] = -s;
    }
    for i in 0..m {
        t[m][n + i] = 0.0;
    }
    let mut basis: Vec<usize> = (n..n + m).collect();

    run_simplex(&mut t, &mut basis, n + m)?;

    let phase1_obj = -t[m][cols - 1];
    if phase1_obj > 1e-7 {
        return Err(LpError::Infeasible);
    }

    // Drive any artificial variables out of the basis (degenerate case).
    for i in 0..m {
        if basis[i] >= n {
            if let Some(j) = (0..n).find(|&j| t[i][j].abs() > EPS) {
                pivot(&mut t, &mut basis, i, j);
            }
            // If no pivot column exists the row is all-zero: redundant
            // constraint, harmless to leave.
        }
    }

    // Phase 2: replace objective row with real costs (reduced form).
    for j in 0..cols {
        t[m][j] = 0.0;
    }
    for j in 0..n {
        t[m][j] = c[j];
    }
    // Subtract c_B * rows to express in reduced costs.
    for i in 0..m {
        if basis[i] < n {
            let cb = c[basis[i]];
            if cb != 0.0 {
                for j in 0..cols {
                    t[m][j] -= cb * t[i][j];
                }
            }
        }
    }

    run_simplex(&mut t, &mut basis, n)?; // artificials excluded from pricing

    let mut x = vec![0.0; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][cols - 1];
        }
    }
    let objective = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
    Ok(LpSolution { x, objective })
}

/// Run simplex iterations on the tableau until optimal. `price_cols`
/// limits which columns may enter the basis (used to exclude
/// artificials in phase 2). Uses Bland's rule.
#[allow(clippy::needless_range_loop)]
fn run_simplex(t: &mut [Vec<f64>], basis: &mut [usize], price_cols: usize) -> Result<(), LpError> {
    let m = basis.len();
    let cols = t[0].len();
    let max_iters = 10_000;
    for _ in 0..max_iters {
        // Entering variable: first column with negative reduced cost.
        let Some(enter) = (0..price_cols).find(|&j| t[m][j] < -EPS) else {
            return Ok(());
        };
        // Leaving variable: min-ratio test, Bland tie-break on basis idx.
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for i in 0..m {
            if t[i][enter] > EPS {
                let ratio = t[i][cols - 1] / t[i][enter];
                if ratio < best - EPS
                    || (ratio < best + EPS && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return Err(LpError::Unbounded);
        };
        pivot_slice(t, basis, leave, enter);
    }
    Err(LpError::Unbounded) // cycling failsafe; unreachable with Bland
}

fn pivot(t: &mut Vec<Vec<f64>>, basis: &mut Vec<usize>, row: usize, col: usize) {
    pivot_slice(t.as_mut_slice(), basis.as_mut_slice(), row, col);
}

#[allow(clippy::needless_range_loop)]
fn pivot_slice(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize) {
    let cols = t[0].len();
    let piv = t[row][col];
    debug_assert!(piv.abs() > EPS);
    for j in 0..cols {
        t[row][j] /= piv;
    }
    for i in 0..t.len() {
        if i != row && t[i][col].abs() > EPS {
            let factor = t[i][col];
            for j in 0..cols {
                t[i][j] -= factor * t[row][j];
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn solves_trivial_equality() {
        // min x0 + 2 x1  s.t.  x0 + x1 = 1  → x = (1, 0), obj 1.
        let sol = solve(&[vec![1.0, 1.0]], &[1.0], &[1.0, 2.0]).unwrap();
        assert_close(sol.objective, 1.0);
        assert_close(sol.x[0], 1.0);
        assert_close(sol.x[1], 0.0);
    }

    #[test]
    fn solves_the_papers_optimizer_shape() {
        // Two constraints: Σ s_i u_i = s·T and Σ u_i = T.
        let speedups = [1.0, 2.0, 4.0];
        let powers = [1.0, 3.0, 5.0];
        let (s_target, t_period) = (3.0, 2.0);
        let a = vec![speedups.to_vec(), vec![1.0; 3]];
        let b = vec![s_target * t_period, t_period];
        let sol = solve(&a, &b, &powers).unwrap();
        // Optimal: mix configs 1 (s=2) and 2 (s=4) equally (τ=1 each):
        // energy = 3 + 5 = 8. Mixing 0 and 2 gives (2/3)·1+(4/3)·5 = 7.33
        // which is cheaper! Check the solver finds the true optimum.
        assert!(sol.objective <= 7.34);
        let perf: f64 = sol.x.iter().zip(&speedups).map(|(u, s)| u * s).sum();
        assert_close(perf, s_target * t_period);
        let time: f64 = sol.x.iter().sum();
        assert_close(time, t_period);
    }

    #[test]
    fn infeasible_detected() {
        // x0 = 1 and x0 = 2 simultaneously.
        let err = solve(&[vec![1.0], vec![1.0]], &[1.0, 2.0], &[1.0]).unwrap_err();
        assert_eq!(err, LpError::Infeasible);
    }

    #[test]
    fn negative_rhs_normalized() {
        // -x0 = -1 → x0 = 1.
        let sol = solve(&[vec![-1.0]], &[-1.0], &[1.0]).unwrap();
        assert_close(sol.x[0], 1.0);
    }

    #[test]
    fn bad_shapes_rejected() {
        assert!(matches!(solve(&[], &[], &[1.0]), Err(LpError::BadShape(_))));
        assert!(matches!(
            solve(&[vec![1.0, 2.0]], &[1.0], &[1.0]),
            Err(LpError::BadShape(_))
        ));
    }

    #[test]
    fn at_most_two_nonzeros_for_two_constraints() {
        // Basic optimal solutions of an LP with 2 equality constraints
        // have ≤ 2 nonzero variables — the theorem behind the paper's
        // two-configuration schedule.
        let speedups = [1.0, 1.3, 1.9, 2.4, 3.1, 3.8];
        let powers = [1.5, 1.7, 2.4, 2.9, 3.8, 5.0];
        let a = vec![speedups.to_vec(), vec![1.0; 6]];
        let b = vec![2.0 * 2.0, 2.0];
        let sol = solve(&a, &b, &powers).unwrap();
        let nonzero = sol.x.iter().filter(|&&v| v > 1e-7).count();
        assert!(nonzero <= 2, "basic solution has {nonzero} nonzeros");
    }
}
