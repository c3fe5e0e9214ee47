//! Seeded pseudo-random number generation (xoshiro256++).
//!
//! The simulator needs *deterministic, seedable* randomness — every
//! run derives its stream from an explicit `u64` seed so experiments
//! replay bit-exactly (see `tests/determinism.rs` at the workspace
//! root). Statistical quality requirements are mild (measurement noise,
//! frame jitter, Poisson touches), which xoshiro256++ exceeds by a wide
//! margin while being four shifts and an add per draw.
//!
//! Algorithms: Blackman & Vigna, "Scrambled linear pseudorandom number
//! generators" (xoshiro256++), seeded through Steele et al.'s
//! splitmix64 so that similar seeds yield uncorrelated states.

use std::ops::Range;

/// A small, fast, seedable PRNG (xoshiro256++ core, splitmix64 seeding).
///
/// # Example
///
/// ```
/// use asgov_util::Rng;
///
/// let mut rng = Rng::seed_from_u64(42);
/// let x = rng.gen_range(-0.5..0.5);
/// assert!((-0.5..0.5).contains(&x));
/// // Same seed, same stream.
/// assert_eq!(Rng::seed_from_u64(7).next_u64(), Rng::seed_from_u64(7).next_u64());
/// ```
/// The four xoshiro256++ state words are named rather than held in a
/// `[u64; 4]`: every access is a field, so the generator — which sits
/// under every fault-injection and demand draw on the fleet's hot
/// path — contains no indexing that could ever panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s0: u64,
    s1: u64,
    s2: u64,
    s3: u64,
}

impl Rng {
    /// Build a generator whose state is expanded from `seed` with
    /// splitmix64 (so nearby seeds give unrelated streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        Self {
            s0: next(),
            s1: next(),
            s2: next(),
            s3: next(),
        }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self
            .s0
            .wrapping_add(self.s3)
            .rotate_left(23)
            .wrapping_add(self.s0);
        let t = self.s1 << 17;
        self.s2 ^= self.s0;
        self.s3 ^= self.s1;
        self.s1 ^= self.s2;
        self.s0 ^= self.s3;
        self.s2 ^= t;
        self.s3 = self.s3.rotate_left(45);
        out
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits of randomness).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or either bound is non-finite.
    #[inline]
    pub fn gen_range(&mut self, range: Range<f64>) -> f64 {
        assert!(
            range.start.is_finite() && range.end.is_finite() && range.start < range.end,
            "gen_range needs a non-empty finite range, got {range:?}"
        );
        let span = range.end - range.start;
        // next_f64 < 1, and `start + span·u` rounds at most up to `end`;
        // clamp the half-open contract against that rounding.
        let v = range.start + span * self.next_f64();
        if v >= range.end {
            range.end - span * f64::EPSILON
        } else {
            v
        }
    }

    /// A uniform `usize` in `[range.start, range.end)`, unbiased via
    /// rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range_usize(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = (range.end - range.start) as u64;
        // Rejection zone keeps the modulo unbiased.
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let raw = self.next_u64();
            if raw < zone {
                return range.start + (raw % span) as usize;
            }
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Keep the stream advancing the same way for all p.
            self.next_f64();
            false
        } else if p >= 1.0 {
            self.next_f64();
            true
        } else {
            self.next_f64() < p
        }
    }

    /// A standard-normal draw (Box–Muller, cosine branch): the product
    /// of [`Rng::gen_normal_factors`].
    #[inline]
    pub fn gen_normal(&mut self) -> f64 {
        let (radius, cosine) = self.gen_normal_factors();
        radius * cosine
    }

    /// The two Box–Muller factors of one standard-normal draw, the
    /// radius `√(−2 ln u₁)` and the cosine `cos 2πu₂`, from one uniform
    /// pair. A caller that scales the draw by `σ` and must round as
    /// `(σ · radius) · cosine` multiplies them itself; everyone else
    /// calls [`Rng::gen_normal`].
    #[inline]
    pub fn gen_normal_factors(&mut self) -> (f64, f64) {
        let u1 = self.gen_range(f64::EPSILON..1.0);
        let u2 = self.next_f64();
        (
            (-2.0_f64 * u1.ln()).sqrt(),
            (2.0 * std::f64::consts::PI * u2).cos(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(123);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(123);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = Rng::seed_from_u64(124).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn matches_reference_xoshiro256pp() {
        // Reference vector: xoshiro256++ from state {1, 2, 3, 4}
        // (Blackman & Vigna's public-domain C source).
        let mut r = Rng {
            s0: 1,
            s1: 2,
            s2: 3,
            s3: 4,
        };
        let expect: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expect {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = r.gen_range(-0.25..0.75);
            assert!((-0.25..0.75).contains(&v), "{v} out of range");
        }
        for _ in 0..10_000 {
            let v = r.gen_range_usize(3..17);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn range_mean_is_centered() {
        let mut r = Rng::seed_from_u64(77);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen_range(0.0..2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "uniform mean drifted: {mean}");
    }

    #[test]
    fn bool_frequency_tracks_p() {
        let mut r = Rng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "p=0.3 but freq {freq}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from_u64(31);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| r.gen_normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "normal variance {var}");
    }

    #[test]
    #[should_panic(expected = "non-empty finite range")]
    fn empty_float_range_panics() {
        Rng::seed_from_u64(0).gen_range(1.0..1.0);
    }
}
