//! Small statistics helpers for multi-run experiment reporting.
//!
//! The paper averages three runs per number; these helpers add the
//! spread so readers can judge which differences are real.

/// Mean and sample standard deviation of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub std: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize a series.
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                std: 0.0,
                n: 0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let std = if n < 2 {
            0.0
        } else {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
            var.sqrt()
        };
        Self { mean, std, n }
    }

    /// Format as `mean ± std`.
    pub fn display(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - 2.138).abs() < 0.01);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn degenerate_series() {
        assert_eq!(Summary::of(&[]).n, 0);
        let one = Summary::of(&[3.0]);
        assert_eq!(one.mean, 3.0);
        assert_eq!(one.std, 0.0);
    }

    #[test]
    fn display_rounds() {
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!(s.display(1), "1.5 ± 0.7");
    }
}
