//! A simple battery drain model.
//!
//! The paper's motivation is battery life: energy (not power) correlates
//! with it. The battery integrates true (noise-free) device power and
//! reports remaining charge, letting examples demonstrate battery-life
//! extensions from energy savings.

/// Battery with a fixed energy capacity, drained by the device.
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    drained_j: f64,
}

impl Battery {
    /// A battery holding `capacity_j` joules. The Nexus 6 ships a
    /// 3220 mAh / 3.8 V pack ≈ 44 kJ; see [`Battery::nexus6`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j` is not positive.
    pub fn new(capacity_j: f64) -> Self {
        assert!(capacity_j > 0.0, "battery capacity must be positive");
        Self {
            capacity_j,
            drained_j: 0.0,
        }
    }

    /// The Nexus 6 battery (3220 mAh at 3.8 V nominal ≈ 44 050 J).
    pub fn nexus6() -> Self {
        Self::new(3.220 * 3.8 * 3600.0)
    }

    /// Drain `joules` of charge (saturates at empty).
    #[inline]
    pub fn drain(&mut self, joules: f64) {
        debug_assert!(joules >= 0.0);
        self.drained_j = (self.drained_j + joules).min(self.capacity_j);
    }

    /// Drain `joules` per millisecond for `n` milliseconds, leaving the
    /// same bits as `n` calls to [`Battery::drain`].
    ///
    /// The drained total is always at most the capacity (only `drain`
    /// and this method move it, and both clamp), so the per-millisecond
    /// clamp can only bind on the way up, and the clamped sequence
    /// equals one `min(capacity)` on the unclamped sum: f64 addition of
    /// `x ≥ 0` rounds monotonically, and once a partial sum reaches the
    /// capacity the clamped one sits at the capacity (`C + x ≥ C`) while
    /// the unclamped one never falls back below it.
    #[inline]
    pub(crate) fn drain_span(&mut self, joules: f64, n: u64) {
        debug_assert!(joules >= 0.0);
        let mut drained = self.drained_j;
        for _ in 0..n {
            drained += joules;
        }
        self.drained_j = drained.min(self.capacity_j);
    }

    /// Total capacity, joules.
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Energy drained so far, joules.
    pub fn drained_j(&self) -> f64 {
        self.drained_j
    }

    /// Remaining charge, joules.
    pub fn remaining_j(&self) -> f64 {
        self.capacity_j - self.drained_j
    }

    /// State of charge in [0, 1].
    pub fn soc(&self) -> f64 {
        self.remaining_j() / self.capacity_j
    }

    /// Is the battery empty?
    pub fn empty(&self) -> bool {
        self.remaining_j() <= 0.0
    }
}

impl Default for Battery {
    fn default() -> Self {
        Self::nexus6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nexus6_capacity_is_about_44_kj() {
        let b = Battery::nexus6();
        assert!((b.capacity_j() - 44050.0).abs() < 100.0);
    }

    #[test]
    fn drain_reduces_soc() {
        let mut b = Battery::new(100.0);
        assert_eq!(b.soc(), 1.0);
        b.drain(25.0);
        assert_eq!(b.remaining_j(), 75.0);
        assert!((b.soc() - 0.75).abs() < 1e-12);
        assert!(!b.empty());
    }

    #[test]
    fn drain_saturates_at_empty() {
        let mut b = Battery::new(10.0);
        b.drain(25.0);
        assert_eq!(b.remaining_j(), 0.0);
        assert!(b.empty());
    }

    /// `n` single drains from `drained`, the reference for `drain_span`.
    fn drained_by_steps(capacity: f64, drained: f64, joules: f64, n: u64) -> f64 {
        let mut b = Battery::new(capacity);
        b.drain(drained);
        for _ in 0..n {
            b.drain(joules);
        }
        b.drained_j()
    }

    fn drained_by_span(capacity: f64, drained: f64, joules: f64, n: u64) -> f64 {
        let mut b = Battery::new(capacity);
        b.drain(drained);
        b.drain_span(joules, n);
        b.drained_j()
    }

    /// Clamping once per span leaves the bits of clamping every
    /// millisecond, over random start levels, per-ms drains, span
    /// lengths and capacities (many of which cross the capacity).
    #[test]
    fn drain_span_is_bit_identical_to_repeated_drains() {
        let mut rng = asgov_util::Rng::seed_from_u64(0xba77);
        for case in 0..2_000 {
            let capacity = rng.gen_range(1e-3..50.0);
            let drained = capacity * rng.gen_range(0.0..1.2);
            let joules = match case % 4 {
                0 => 0.0,
                1 => rng.gen_range(0.0..1e-3),
                _ => rng.gen_range(0.0..capacity / 8.0),
            };
            let n = rng.gen_range_usize(0..400) as u64;
            assert_eq!(
                drained_by_span(capacity, drained, joules, n).to_bits(),
                drained_by_steps(capacity, drained, joules, n).to_bits(),
                "case {case}: capacity {capacity}, drained {drained}, {joules} J x {n}"
            );
        }
    }

    #[test]
    fn drain_span_edges_match_repeated_drains() {
        let cases = [
            // Crosses the capacity mid-span.
            (10.0, 9.0, 0.3, 7),
            // Starts at the capacity.
            (10.0, 10.0, 0.3, 7),
            // A zero drain, at rest and at the capacity.
            (10.0, 4.0, 0.0, 50),
            (10.0, 10.0, 0.0, 50),
            // An empty span.
            (10.0, 4.0, 0.3, 0),
            // The Nexus 6 pack at a q20 span's per-ms drain.
            (Battery::nexus6().capacity_j(), 1234.5, 2.1e-3, 19),
        ];
        for (capacity, drained, joules, n) in cases {
            assert_eq!(
                drained_by_span(capacity, drained, joules, n).to_bits(),
                drained_by_steps(capacity, drained, joules, n).to_bits(),
                "capacity {capacity}, drained {drained}, {joules} J x {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Battery::new(0.0);
    }
}
