//! Load-parameterized profile generation (paper §V-C, future work).
//!
//! The paper observes that a profile taken under the baseline load
//! loses accuracy when the runtime background load differs, and
//! envisions "a power and performance model which uses the system load
//! as the variable parameter", so the controller "can track the
//! background load and, using the models, generate power and
//! performance data for different configurations" without re-profiling.
//!
//! [`LoadModel`] implements that idea: it holds the same application's
//! profile taken under two or more known background-load intensities
//! and linearly interpolates (or clamps) every row's speedup and power
//! to the load measured at runtime.

use crate::table::{ProfileEntry, ProfileTable};
use std::error::Error;
use std::fmt;

/// A scalar background-load signature. The paper's BL/NL/HL scenarios
/// differ mostly in memory pressure, but CPU utilization is the
/// signature a controller can read cheaply from `/proc`, so the model
/// is parameterized by it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSignature {
    /// Mean background CPU utilization (0–1).
    pub cpu_util: f64,
    /// Mean background bus traffic, MBps.
    pub traffic_mbps: f64,
}

impl LoadSignature {
    /// Scalar interpolation key: utilization dominates, traffic breaks
    /// ties (normalized to the bandwidth floor of 762 MBps).
    fn key(&self) -> f64 {
        self.cpu_util + self.traffic_mbps / 762.0 * 0.1
    }
}

/// Errors constructing or evaluating a [`LoadModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModelError {
    /// Fewer than two anchor profiles were supplied.
    TooFewAnchors,
    /// Anchor profiles cover different configuration sets or apps.
    MismatchedProfiles,
    /// The interpolation key derived from a [`LoadSignature`] cannot be
    /// bracketed by the anchor set — e.g. the signature is NaN, or the
    /// anchor table has a hole. The controller should keep its current
    /// profile rather than crash.
    UnresolvableSignature {
        /// The interpolation key that could not be bracketed.
        key: f64,
    },
}

impl fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadModelError::TooFewAnchors => {
                write!(f, "a load model needs at least two anchor profiles")
            }
            LoadModelError::MismatchedProfiles => write!(
                f,
                "anchor profiles must describe the same application and configurations"
            ),
            LoadModelError::UnresolvableSignature { key } => write!(
                f,
                "load signature key {key} cannot be bracketed by the anchor profiles"
            ),
        }
    }
}

impl Error for LoadModelError {}

/// Profiles of one application under several background loads, with
/// interpolation to unseen loads.
#[derive(Debug, Clone)]
pub struct LoadModel {
    anchors: Vec<(LoadSignature, ProfileTable)>,
}

impl LoadModel {
    /// Build a model from `(signature, profile)` anchors (order free).
    ///
    /// # Errors
    ///
    /// [`LoadModelError::TooFewAnchors`] for fewer than two anchors;
    /// [`LoadModelError::MismatchedProfiles`] if the anchors don't share
    /// an application name and configuration list.
    pub fn new(mut anchors: Vec<(LoadSignature, ProfileTable)>) -> Result<Self, LoadModelError> {
        if anchors.len() < 2 {
            return Err(LoadModelError::TooFewAnchors);
        }
        let first = &anchors[0].1;
        for (_, t) in &anchors[1..] {
            if t.app != first.app
                || t.len() != first.len()
                || (0..t.len()).any(|i| t.config(i) != first.config(i))
            {
                return Err(LoadModelError::MismatchedProfiles);
            }
        }
        anchors.sort_by(|a, b| a.0.key().total_cmp(&b.0.key()));
        Ok(Self { anchors })
    }

    /// Generate the profile predicted for `sig`: linear interpolation of
    /// every row's speedup and power between the two bracketing anchors
    /// (clamped at the extremes). The base speed is interpolated too.
    ///
    /// # Errors
    ///
    /// [`LoadModelError::UnresolvableSignature`] when the signature's
    /// interpolation key cannot be bracketed by the anchors — a NaN
    /// signature, or an anchor set with a hole. Callers should treat
    /// this as "no better profile available" and keep the current one.
    pub fn table_for(&self, sig: &LoadSignature) -> Result<ProfileTable, LoadModelError> {
        let k = sig.key();
        if !k.is_finite() {
            return Err(LoadModelError::UnresolvableSignature { key: k });
        }
        // asgov-analyze: allow(hot-path-transitive): new() rejects anchor sets with fewer than two entries, so [0], [len-1], and the bracketing pair around hi_idx >= 1 are always in bounds
        let first = &self.anchors[0];
        let last = &self.anchors[self.anchors.len() - 1];
        if k <= first.0.key() {
            return Ok(first.1.clone());
        }
        if k >= last.0.key() {
            return Ok(last.1.clone());
        }
        // Find the bracketing pair.
        let hi_idx = self
            .anchors
            .iter()
            .position(|(s, _)| s.key() >= k)
            .ok_or(LoadModelError::UnresolvableSignature { key: k })?;
        let (lo_sig, lo_tab) = &self.anchors[hi_idx - 1];
        let (hi_sig, hi_tab) = &self.anchors[hi_idx];
        let span = (hi_sig.key() - lo_sig.key()).max(f64::EPSILON);
        let t = (k - lo_sig.key()) / span;

        let entries = lo_tab
            .entries
            .iter()
            .zip(&hi_tab.entries)
            .map(|(lo, hi)| ProfileEntry {
                config: lo.config,
                speedup: lo.speedup + t * (hi.speedup - lo.speedup),
                power_w: lo.power_w + t * (hi.power_w - lo.power_w),
                measured: false,
            })
            .collect();
        Ok(ProfileTable {
            app: lo_tab.app.clone(),
            base_gips: lo_tab.base_gips + t * (hi_tab.base_gips - lo_tab.base_gips),
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Config;
    use asgov_soc::{BwIndex, FreqIndex};

    fn table(app: &str, base: f64, bump: f64) -> ProfileTable {
        ProfileTable {
            app: app.into(),
            base_gips: base,
            entries: (0..4)
                .map(|i| ProfileEntry {
                    config: Config {
                        freq: FreqIndex(i),
                        bw: BwIndex(0),
                        gpu: None,
                    },
                    speedup: 1.0 + i as f64 * 0.5 + bump,
                    power_w: 1.5 + i as f64 * 0.3 + bump,
                    measured: true,
                })
                .collect(),
        }
    }

    fn sig(util: f64) -> LoadSignature {
        LoadSignature {
            cpu_util: util,
            traffic_mbps: 0.0,
        }
    }

    #[test]
    fn interpolates_between_anchors() {
        let model = LoadModel::new(vec![
            (sig(0.0), table("a", 0.2, 0.0)),
            (sig(0.2), table("a", 0.1, -0.2)),
        ])
        .unwrap();
        let mid = model.table_for(&sig(0.1)).unwrap();
        assert!((mid.base_gips - 0.15).abs() < 1e-12);
        assert!((mid.entries[0].speedup - 0.9).abs() < 1e-12);
        assert!(!mid.entries[0].measured, "interpolated rows are marked");
    }

    #[test]
    fn clamps_outside_anchor_range() {
        let model = LoadModel::new(vec![
            (sig(0.05), table("a", 0.2, 0.0)),
            (sig(0.2), table("a", 0.1, -0.2)),
        ])
        .unwrap();
        assert_eq!(model.table_for(&sig(0.0)).unwrap(), table("a", 0.2, 0.0));
        assert_eq!(model.table_for(&sig(0.9)).unwrap(), table("a", 0.1, -0.2));
    }

    #[test]
    fn rejects_single_anchor() {
        let err = LoadModel::new(vec![(sig(0.0), table("a", 0.2, 0.0))]).unwrap_err();
        assert_eq!(err, LoadModelError::TooFewAnchors);
    }

    #[test]
    fn rejects_mismatched_profiles() {
        let mut other = table("a", 0.2, 0.0);
        other.entries.pop();
        let err =
            LoadModel::new(vec![(sig(0.0), table("a", 0.2, 0.0)), (sig(0.2), other)]).unwrap_err();
        assert_eq!(err, LoadModelError::MismatchedProfiles);
        let err = LoadModel::new(vec![
            (sig(0.0), table("a", 0.2, 0.0)),
            (sig(0.2), table("b", 0.2, 0.0)),
        ])
        .unwrap_err();
        assert_eq!(err, LoadModelError::MismatchedProfiles);
    }

    #[test]
    fn anchor_order_does_not_matter() {
        let m1 = LoadModel::new(vec![
            (sig(0.0), table("a", 0.2, 0.0)),
            (sig(0.2), table("a", 0.1, -0.2)),
        ])
        .unwrap();
        let m2 = LoadModel::new(vec![
            (sig(0.2), table("a", 0.1, -0.2)),
            (sig(0.0), table("a", 0.2, 0.0)),
        ])
        .unwrap();
        assert_eq!(
            m1.table_for(&sig(0.1)).unwrap(),
            m2.table_for(&sig(0.1)).unwrap()
        );
    }

    #[test]
    fn nan_signature_degrades_to_an_error_not_a_panic() {
        let model = LoadModel::new(vec![
            (sig(0.0), table("a", 0.2, 0.0)),
            (sig(0.2), table("a", 0.1, -0.2)),
        ])
        .unwrap();
        let err = model
            .table_for(&LoadSignature {
                cpu_util: f64::NAN,
                traffic_mbps: 0.0,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            LoadModelError::UnresolvableSignature { key } if key.is_nan()
        ));
    }
}
