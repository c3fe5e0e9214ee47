//! Hardened-runtime building blocks: the perf-sample sanity gate, the
//! Kalman divergence guard and the degradation ladder.
//!
//! The paper's controller assumes a cooperative device: sysfs writes
//! land, `perf` readings are sane and nothing else touches the
//! governors. Real Androids violate all three (thermal engines, OEM
//! daemons, hotplug drivers, flaky PMU reads). These pieces let
//! [`crate::EnergyController`] keep its loop stable under such faults
//! and degrade *predictably* instead of mis-actuating:
//!
//! ```text
//! Full ──K failed cycles──► SafeConfig ──K──► FallbackGovernor
//!   ▲                          │  ▲                │
//!   └──────── probation ───────┘  └── probation ───┘
//! ```
//!
//! `Full` is the paper's two-configuration schedule; `SafeConfig` pins
//! the profile's maximum-speedup configuration (never costs
//! performance, only energy); `FallbackGovernor` hands the device back
//! to the stock governors and probes each cycle for recovery.

use asgov_soc::DegradationLevel;

// The controller's fixed tunings of the resilience layer. They are
// deliberately conservative: a healthy run never trips any of them,
// which is what keeps the hardened controller bit-identical to the
// original on a fault-free device. The component constructors below
// still take their values as parameters, so their unit tests can
// exercise other settings.

/// Backed-off retries per rejected actuation before the cycle is
/// declared failed.
pub(crate) const MAX_RETRIES: u32 = 3;
/// Base backoff, ms (doubles per attempt).
pub(crate) const BACKOFF_BASE_MS: u64 = 10;
/// Perf readings above `OUTLIER_FACTOR ×` the plausible maximum
/// (profiled base × maximum speedup, or the target if larger) are
/// rejected as corrupt.
pub(crate) const OUTLIER_FACTOR: f64 = 8.0;
/// Consecutive cycles without one accepted perf reading before the
/// cycle is treated as failed (measurement drought).
pub(crate) const DROUGHT_CYCLES: u64 = 2;
/// The base-speed estimate is re-seeded when it strays beyond
/// `DIVERGENCE_FACTOR ×` (or below `1/factor ×`) the profiled base.
pub(crate) const DIVERGENCE_FACTOR: f64 = 50.0;
/// Consecutive failed cycles per step *down* the ladder (the module
/// diagram's K).
pub(crate) const DEGRADE_AFTER: u64 = 3;
/// Consecutive clean cycles per step *up* the ladder (probation).
pub(crate) const PROBATION_CYCLES: u64 = 2;

/// Sanity gate on raw perf readings: rejects non-finite, negative and
/// implausibly large samples, holding the last good value instead.
#[derive(Debug, Clone)]
pub struct PerfGate {
    outlier_factor: f64,
    plausible_max: f64,
    rejected: u64,
}

impl PerfGate {
    /// Gate with the given outlier factor around `plausible_max` GIPS —
    /// the largest value the plant can physically produce (profiled
    /// base × maximum speedup), with noise headroom.
    pub fn new(outlier_factor: f64, plausible_max: f64) -> Self {
        Self {
            outlier_factor: outlier_factor.max(1.0),
            plausible_max: plausible_max.max(1e-9),
            rejected: 0,
        }
    }

    /// `Some(gips)` if the sample is plausible, `None` if rejected.
    pub fn accept(&mut self, gips: f64) -> Option<f64> {
        if gips.is_finite() && gips >= 0.0 && gips <= self.outlier_factor * self.plausible_max {
            Some(gips)
        } else {
            self.rejected += 1;
            None
        }
    }

    /// Samples rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Restore the rejected-sample counter from a checkpoint so health
    /// reports keep counting across a supervised restart.
    pub fn restore_rejected(&mut self, rejected: u64) {
        self.rejected = rejected;
    }
}

/// Watches the Kalman base-speed estimate and flags divergence (the
/// filter wandered off after a stream of corrupt measurements slipped
/// through, or its covariance collapsed onto a wrong value).
#[derive(Debug, Clone)]
pub struct DivergenceGuard {
    factor: f64,
    reference: f64,
    reseeds: u64,
}

impl DivergenceGuard {
    /// Guard around the profiled base speed `reference` GIPS.
    pub fn new(factor: f64, reference: f64) -> Self {
        Self {
            factor: factor.max(2.0),
            reference: reference.max(1e-9),
            reseeds: 0,
        }
    }

    /// `true` when `estimate` has diverged and the filter must be
    /// re-seeded (the caller performs the reseed; this only decides and
    /// counts).
    pub fn diverged(&mut self, estimate: f64) -> bool {
        let bad = !estimate.is_finite()
            || estimate <= 0.0
            || estimate > self.factor * self.reference
            || estimate < self.reference / self.factor;
        if bad {
            self.reseeds += 1;
        }
        bad
    }

    /// Reseeds forced so far.
    pub fn reseeds(&self) -> u64 {
        self.reseeds
    }

    /// Restore the reseed counter from a checkpoint so health reports
    /// keep counting across a supervised restart.
    pub fn restore_reseeds(&mut self, reseeds: u64) {
        self.reseeds = reseeds;
    }
}

/// A transition taken by [`DegradationLadder::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderEvent {
    /// No level change this cycle.
    None,
    /// Stepped down to the contained level.
    Down(DegradationLevel),
    /// Stepped up to the contained level.
    Up(DegradationLevel),
}

/// The degradation state machine: K consecutive failed cycles step the
/// controller down one level; a probation of clean cycles steps it back
/// up. Tracks the recovery latency the chaos suite asserts on.
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    degrade_after: u64,
    probation_cycles: u64,
    level: DegradationLevel,
    cycle: u64,
    consecutive_failed: u64,
    consecutive_clean: u64,
    failed_cycles: u64,
    degradations: u64,
    recoveries: u64,
    last_failed_cycle: Option<u64>,
    /// First failed cycle of the fault episode in progress. Set when a
    /// failure arrives with no episode open; deliberately *not*
    /// cleared by clean probation cycles mid-ladder, so the episode
    /// spans from first failure all the way to the return to `Full`.
    episode_start: Option<u64>,
    recovery_latency: Option<u64>,
    climb_latency: Option<u64>,
}

impl DegradationLadder {
    /// Ladder with the given step-down threshold and probation length.
    pub fn new(degrade_after: u64, probation_cycles: u64) -> Self {
        Self {
            degrade_after: degrade_after.max(1),
            probation_cycles: probation_cycles.max(1),
            level: DegradationLevel::Full,
            cycle: 0,
            consecutive_failed: 0,
            consecutive_clean: 0,
            failed_cycles: 0,
            degradations: 0,
            recoveries: 0,
            last_failed_cycle: None,
            episode_start: None,
            recovery_latency: None,
            climb_latency: None,
        }
    }

    /// Current level.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Cycles classified as failed so far.
    pub fn failed_cycles(&self) -> u64 {
        self.failed_cycles
    }

    /// Steps taken down.
    pub fn degradations(&self) -> u64 {
        self.degradations
    }

    /// Steps taken up.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Cycles from the *first* failed cycle of the most recent fault
    /// episode to the return to `Full` — the full time the episode kept
    /// the controller away from closed-loop control (`None` if never
    /// degraded or not yet recovered). Clean probation cycles inside
    /// the episode do not reset this accounting.
    pub fn recovery_latency(&self) -> Option<u64> {
        self.recovery_latency
    }

    /// Cycles from the *last* failed cycle to the most recent return to
    /// `Full` — the climb-out time once the fault cleared. This is the
    /// quantity the chaos suite bounds by M = 5.
    pub fn climb_latency(&self) -> Option<u64> {
        self.climb_latency
    }

    /// Record one control cycle's outcome and take any transition.
    pub fn observe(&mut self, failed: bool) -> LadderEvent {
        self.cycle += 1;
        if failed {
            self.failed_cycles += 1;
            self.last_failed_cycle = Some(self.cycle);
            if self.episode_start.is_none() {
                self.episode_start = Some(self.cycle);
            }
            self.consecutive_clean = 0;
            self.consecutive_failed += 1;
            if self.consecutive_failed >= self.degrade_after
                && self.level != DegradationLevel::FallbackGovernor
            {
                self.consecutive_failed = 0;
                self.level = self.level.down();
                self.degradations += 1;
                return LadderEvent::Down(self.level);
            }
        } else {
            self.consecutive_failed = 0;
            if self.level != DegradationLevel::Full {
                self.consecutive_clean += 1;
                if self.consecutive_clean >= self.probation_cycles {
                    self.consecutive_clean = 0;
                    self.level = self.level.up();
                    self.recoveries += 1;
                    if self.level == DegradationLevel::Full {
                        if let Some(first) = self.episode_start {
                            self.recovery_latency = Some(self.cycle - first);
                        }
                        if let Some(last) = self.last_failed_cycle {
                            self.climb_latency = Some(self.cycle - last);
                        }
                        self.episode_start = None;
                    }
                    return LadderEvent::Up(self.level);
                }
            } else {
                // Clean at Full: any failures seen never degraded us,
                // so the episode (if one was opened) is over.
                self.episode_start = None;
            }
        }
        LadderEvent::None
    }

    crate::snapshot_fields! {
        /// The ladder's mutable state. The thresholds are construction
        /// parameters and are not written.
        pub(crate) fn write_fields(&self, w);
        /// Reads back what [`write_fields`](Self::write_fields) wrote.
        pub(crate) fn read_fields(&mut self, r);

        level: DegradationLevel,
        cycle: u64,
        consecutive_failed: u64,
        consecutive_clean: u64,
        failed_cycles: u64,
        degradations: u64,
        recoveries: u64,
        last_failed_cycle: Option<u64>,
        episode_start: Option<u64>,
        recovery_latency: Option<u64>,
        climb_latency: Option<u64>,
    }

    /// Force the ladder to a level, resetting the consecutive counters
    /// so the new level must serve a full probation before climbing.
    /// Used by cold restarts, which discard the fault history and start
    /// over from the safe configuration.
    pub fn force_level(&mut self, level: DegradationLevel) {
        self.level = level;
        self.consecutive_failed = 0;
        self.consecutive_clean = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::persist::{self, arbitrary, SnapshotError, SnapshotReader, SnapshotWriter};
    use asgov_util::Rng;

    /// Fill every persisted field of `l` from `rng`.
    pub(crate) fn fill(l: &mut DegradationLadder, rng: &mut Rng) {
        l.level = arbitrary::pick(rng, &DegradationLevel::ALL).unwrap_or_default();
        l.cycle = arbitrary::u64(rng);
        l.consecutive_failed = arbitrary::u64(rng);
        l.consecutive_clean = arbitrary::u64(rng);
        l.failed_cycles = arbitrary::u64(rng);
        l.degradations = arbitrary::u64(rng);
        l.recoveries = arbitrary::u64(rng);
        l.last_failed_cycle = arbitrary::opt_u64(rng);
        l.episode_start = arbitrary::opt_u64(rng);
        l.recovery_latency = arbitrary::opt_u64(rng);
        l.climb_latency = arbitrary::opt_u64(rng);
    }

    #[test]
    fn random_ladder_state_round_trips() {
        let mut rng = Rng::seed_from_u64(0x1add_e201);
        for case in 0..200 {
            let mut l = DegradationLadder::new(3, 2);
            fill(&mut l, &mut rng);
            let frame = state_frame(&l);
            let back = decoded(&frame).expect("restorable");
            assert_eq!(format!("{back:?}"), format!("{l:?}"), "case {case}");
            assert_eq!(state_frame(&back), frame, "case {case}: re-encoded");
        }
    }

    #[test]
    fn gate_rejects_nan_negative_and_outliers() {
        let mut g = PerfGate::new(8.0, 0.5);
        assert_eq!(g.accept(0.4), Some(0.4));
        assert_eq!(g.accept(0.0), Some(0.0), "zero is a legal idle reading");
        assert_eq!(g.accept(f64::NAN), None);
        assert_eq!(g.accept(f64::INFINITY), None);
        assert_eq!(g.accept(-0.1), None);
        assert_eq!(g.accept(100.0), None, "outlier beyond 8 × 0.5");
        assert_eq!(g.accept(3.9), Some(3.9), "inside the headroom");
        assert_eq!(g.rejected(), 4);
    }

    #[test]
    fn guard_flags_only_divergence() {
        let mut d = DivergenceGuard::new(50.0, 0.2);
        assert!(!d.diverged(0.2));
        assert!(!d.diverged(5.0));
        assert!(!d.diverged(0.01));
        assert!(d.diverged(0.2 * 51.0));
        assert!(d.diverged(0.2 / 51.0));
        assert!(d.diverged(f64::NAN));
        assert!(d.diverged(0.0));
        assert_eq!(d.reseeds(), 4);
    }

    #[test]
    fn ladder_degrades_after_k_and_recovers_after_probation() {
        let mut l = DegradationLadder::new(3, 2);
        for _ in 0..2 {
            assert_eq!(l.observe(true), LadderEvent::None);
        }
        assert_eq!(
            l.observe(true),
            LadderEvent::Down(DegradationLevel::SafeConfig)
        );
        // One clean cycle is not enough (probation is 2)...
        assert_eq!(l.observe(false), LadderEvent::None);
        // ...and a failure resets the probation count.
        assert_eq!(l.observe(true), LadderEvent::None);
        assert_eq!(l.observe(false), LadderEvent::None);
        assert_eq!(l.observe(false), LadderEvent::Up(DegradationLevel::Full));
        assert_eq!(l.degradations(), 1);
        assert_eq!(l.recoveries(), 1);
        // Episode opened at cycle 1, recovery at cycle 7: the whole
        // episode kept the controller degraded for 6 cycles. The
        // climb-out from the last failure (cycle 5) took 2.
        assert_eq!(l.recovery_latency(), Some(6));
        assert_eq!(l.climb_latency(), Some(2));
    }

    #[test]
    fn episode_accounting_survives_clean_probation_cycles() {
        // Regression (scripted fault window): a clean probation cycle
        // mid-SafeConfig must not reset the episode clock. Window:
        // cycles 1–3 fail (degrade), 4 clean, 5 fail, 6 clean, 7 clean
        // (back to Full).
        let mut l = DegradationLadder::new(3, 2);
        let script = [true, true, true, false, true, false, false];
        for failed in script {
            l.observe(failed);
        }
        assert_eq!(l.level(), DegradationLevel::Full);
        // First failure cycle 1 → Full again at cycle 7, not the 2
        // cycles the old last-failure accounting reported.
        assert_eq!(l.recovery_latency(), Some(6));
        assert_eq!(l.climb_latency(), Some(2));

        // Failures that never degrade the controller (shorter than K)
        // close their episode on the next clean cycle at Full and do
        // not leak into a later episode's latency.
        let mut l = DegradationLadder::new(3, 2);
        for failed in [true, true, false] {
            l.observe(failed);
        }
        for failed in [true, true, true, false, false] {
            l.observe(failed);
        }
        assert_eq!(l.level(), DegradationLevel::Full);
        // Second episode: first failure at cycle 4, Full at cycle 8.
        assert_eq!(l.recovery_latency(), Some(4));
        assert_eq!(l.climb_latency(), Some(2));
    }

    #[test]
    fn ladder_bottoms_out_and_climbs_within_bound() {
        let mut l = DegradationLadder::new(3, 2);
        for _ in 0..6 {
            l.observe(true);
        }
        assert_eq!(l.level(), DegradationLevel::FallbackGovernor);
        // Keep failing: stays at the bottom, no panic or wrap.
        for _ in 0..10 {
            l.observe(true);
        }
        assert_eq!(l.level(), DegradationLevel::FallbackGovernor);
        // Worst-case climb back: 2 + 2 = 4 clean cycles ≤ the M = 5
        // bound the chaos suite enforces.
        let mut cycles = 0;
        while l.level() != DegradationLevel::Full {
            l.observe(false);
            cycles += 1;
            assert!(cycles <= 5, "recovery must fit the M=5 bound");
        }
        assert_eq!(cycles, 4);
        // Climb-out: 4 cycles from the last failure. The episode as a
        // whole spanned 16 failed cycles + 3 clean before Full.
        assert_eq!(l.climb_latency(), Some(4));
        assert_eq!(l.recovery_latency(), Some(19));
    }

    /// `l`'s state, framed alone.
    fn state_frame(l: &DegradationLadder) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        l.write_fields(&mut w).expect("fixed-size fields");
        w.finish().expect("small frame")
    }

    /// A fresh (3, 2) ladder decoded from `frame`.
    fn decoded(frame: &[u8]) -> Result<DegradationLadder, SnapshotError> {
        let mut l = DegradationLadder::new(3, 2);
        let mut r = SnapshotReader::new(frame)?;
        l.read_fields(&mut r)?;
        r.finish()?;
        Ok(l)
    }

    #[test]
    fn ladder_state_round_trips_and_force_level_resets_counters() {
        let mut l = DegradationLadder::new(3, 2);
        for failed in [true, true, true, false, true] {
            l.observe(failed);
        }
        let frame = state_frame(&l);
        let mut fresh = decoded(&frame).expect("restorable");
        assert_eq!(format!("{fresh:?}"), format!("{l:?}"));
        // Identical futures after restore.
        for failed in [false, false, false] {
            assert_eq!(l.observe(failed), fresh.observe(failed));
        }
        assert_eq!(state_frame(&fresh), state_frame(&l));

        // An unknown level code (the payload's first byte, CRC
        // re-sealed) is refused.
        let mut bad = frame;
        bad[persist::HEADER_LEN] = 7;
        let crc = persist::crc32(&bad[persist::HEADER_LEN..]);
        bad[12..16].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decoded(&bad).map(|_| ()), Err(SnapshotError::Corrupt));

        // force_level discards probation progress: a cold restart at
        // SafeConfig must serve the full probation before climbing.
        let mut l = DegradationLadder::new(3, 2);
        l.observe(false);
        l.force_level(DegradationLevel::SafeConfig);
        assert_eq!(l.level(), DegradationLevel::SafeConfig);
        assert_eq!(l.observe(false), LadderEvent::None);
        assert_eq!(l.observe(false), LadderEvent::Up(DegradationLevel::Full));
    }

    #[test]
    fn counter_restores_resume_counting() {
        let mut g = PerfGate::new(8.0, 0.5);
        g.restore_rejected(7);
        assert_eq!(g.accept(f64::NAN), None);
        assert_eq!(g.rejected(), 8);
        let mut d = DivergenceGuard::new(50.0, 0.2);
        d.restore_reseeds(3);
        assert!(d.diverged(f64::NAN));
        assert_eq!(d.reseeds(), 4);
    }

    #[test]
    fn defaults_are_the_documented_ones() {
        assert_eq!(MAX_RETRIES, 3);
        assert_eq!(DEGRADE_AFTER, 3);
        assert_eq!(PROBATION_CYCLES, 2);
        const { assert!(OUTLIER_FACTOR > 1.0) };
    }
}
