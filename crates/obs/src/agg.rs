//! Columnar streaming aggregation for fleet-scale runs.
//!
//! [`FleetStats`] digests millions of per-device samples into a fixed
//! struct-of-arrays footprint: one column entry per *stream* (the
//! fleet uses one stream per app and one per fault class) holding
//! count / excluded-count / exact fixed-point moment sums / min / max,
//! plus a shared-bounds log histogram row per stream. Recording and
//! merging never allocate, so shards can fold into it from the hot
//! loop without materializing per-device rows.
//!
//! # Exact, order-fixed merging
//!
//! `merge` must be **associative and commutative down to the bit** so
//! a fleet run can merge each shard's epochs first (shard-major) and
//! still produce the bit-identical report an epoch-at-a-time `step`
//! loop (epoch-major) does. Floating-point addition
//! is not associative, so the moment sums are kept as **Q32 signed
//! fixed-point integers** (`i128`, value × 2³²): integer addition is
//! exact, hence associative; histogram bucket counts are `u64` adds;
//! min/max over `f64` are associative and commutative as-is. Means,
//! M2 and standard deviations are *derived at read time* from the
//! exact sums, so every grouping of merges reads back identically.
//!
//! Samples outside the representable window (`|v| > 2⁶²/2³²`, i.e.
//! ~4.6 × 10¹⁸) or non-finite are counted as *excluded* — same policy
//! as a degenerate baseline — rather than poisoning the sums.

/// Q32 fixed-point scale for the exact moment sums.
const Q32: f64 = 4_294_967_296.0; // 2^32

/// Largest magnitude a sample may have and still enter the moment
/// sums exactly (|v|² must fit Q32 in an i128 across ~10²² samples).
const SAMPLE_LIMIT: f64 = 1.0e9;

/// Layout mismatch between two [`FleetStats`] (different stream count
/// or bucket bounds); merging such aggregates would be meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutMismatch;

impl std::fmt::Display for LayoutMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FleetStats layout mismatch (streams or bounds differ)")
    }
}

impl std::error::Error for LayoutMismatch {}

/// A columnar, allocation-free (after construction) streaming
/// aggregator over a fixed set of streams. See the module docs for
/// the exactness contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Shared ascending histogram bucket upper bounds; values above
    /// the last bound (or excluded) land in the trailing overflow
    /// bucket. Identical for every stream, so merge is positional.
    bounds: Vec<f64>,
    /// Samples per stream (including excluded ones).
    count: Vec<u64>,
    /// Excluded samples per stream (degenerate / non-finite / out of
    /// range) — counted, but absent from moments and min/max.
    excluded: Vec<u64>,
    /// Exact Q32 sum of included samples, per stream.
    sum_q32: Vec<i128>,
    /// Exact Q32 sum of squared included samples, per stream.
    sumsq_q32: Vec<i128>,
    /// Smallest included sample per stream (+∞ when none).
    min: Vec<f64>,
    /// Largest included sample per stream (−∞ when none).
    max: Vec<f64>,
    /// Row-major bucket counts: `streams × (bounds.len() + 1)`.
    hist: Vec<u64>,
}

impl FleetStats {
    /// An aggregator over `streams` streams with the given shared
    /// ascending bucket bounds.
    pub fn with_bounds(streams: usize, bounds: Vec<f64>) -> Self {
        let row = bounds.len() + 1;
        Self {
            bounds,
            count: vec![0; streams],
            excluded: vec![0; streams],
            sum_q32: vec![0; streams],
            sumsq_q32: vec![0; streams],
            min: vec![f64::INFINITY; streams],
            max: vec![f64::NEG_INFINITY; streams],
            hist: vec![0; streams * row],
        }
    }

    /// An aggregator shaped for energy-savings percentages: symmetric
    /// log buckets from ±0.1 % to ±1000 % around zero (regressions are
    /// negative savings, so the negative side matters as much as the
    /// positive one).
    pub fn savings_pct(streams: usize) -> Self {
        let magnitudes = [
            0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0,
        ];
        let mut bounds: Vec<f64> = magnitudes.iter().rev().map(|m| -m).collect();
        bounds.extend(magnitudes);
        Self::with_bounds(streams, bounds)
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.count.len()
    }

    /// Record one sample into `stream`. Out-of-range streams are
    /// ignored (the fleet's stream layout is static, so this is a
    /// can't-happen guard, not a silent API).
    pub fn record(&mut self, stream: usize, v: f64) {
        if stream >= self.streams() {
            return;
        }
        if !v.is_finite() || v.abs() > SAMPLE_LIMIT {
            self.record_excluded(stream);
            return;
        }
        if let Some(c) = self.count.get_mut(stream) {
            *c += 1;
        }
        if let Some(s) = self.sum_q32.get_mut(stream) {
            *s += q32(v);
        }
        if let Some(s) = self.sumsq_q32.get_mut(stream) {
            *s += q32(v * v);
        }
        if let Some(m) = self.min.get_mut(stream) {
            *m = m.min(v);
        }
        if let Some(m) = self.max.get_mut(stream) {
            *m = m.max(v);
        }
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.bump_bucket(stream, idx);
    }

    /// Record an excluded sample (degenerate baseline): counted, lands
    /// in the overflow bucket, absent from moments and min/max.
    pub fn record_excluded(&mut self, stream: usize) {
        if stream >= self.streams() {
            return;
        }
        if let Some(c) = self.count.get_mut(stream) {
            *c += 1;
        }
        if let Some(c) = self.excluded.get_mut(stream) {
            *c += 1;
        }
        self.bump_bucket(stream, self.bounds.len());
    }

    fn bump_bucket(&mut self, stream: usize, idx: usize) {
        let row = self.bounds.len() + 1;
        if let Some(c) = self.hist.get_mut(stream * row + idx) {
            *c += 1;
        }
    }

    /// Reset every column to empty, keeping the layout (for scratch
    /// reuse across batches — no allocation).
    pub fn reset(&mut self) {
        self.count.fill(0);
        self.excluded.fill(0);
        self.sum_q32.fill(0);
        self.sumsq_q32.fill(0);
        self.min.fill(f64::INFINITY);
        self.max.fill(f64::NEG_INFINITY);
        self.hist.fill(0);
    }

    /// Fold `other` into `self`. Exactly associative and commutative:
    /// any merge tree over the same multiset of recorded samples
    /// yields bit-identical state (see module docs).
    ///
    /// # Errors
    ///
    /// [`LayoutMismatch`] if stream counts or bucket bounds differ
    /// (`self` is left unchanged).
    pub fn merge(&mut self, other: &FleetStats) -> Result<(), LayoutMismatch> {
        let same_bounds = self.bounds.len() == other.bounds.len()
            && self
                .bounds
                .iter()
                .zip(&other.bounds)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bounds || self.streams() != other.streams() {
            return Err(LayoutMismatch);
        }
        for (a, b) in self.count.iter_mut().zip(&other.count) {
            *a += b;
        }
        for (a, b) in self.excluded.iter_mut().zip(&other.excluded) {
            *a += b;
        }
        for (a, b) in self.sum_q32.iter_mut().zip(&other.sum_q32) {
            *a += b;
        }
        for (a, b) in self.sumsq_q32.iter_mut().zip(&other.sumsq_q32) {
            *a += b;
        }
        for (a, b) in self.min.iter_mut().zip(&other.min) {
            *a = a.min(*b);
        }
        for (a, b) in self.max.iter_mut().zip(&other.max) {
            *a = a.max(*b);
        }
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
        Ok(())
    }

    /// Total samples recorded into `stream` (including excluded).
    pub fn count(&self, stream: usize) -> u64 {
        self.count.get(stream).copied().unwrap_or(0)
    }

    /// Excluded samples recorded into `stream`.
    pub fn excluded(&self, stream: usize) -> u64 {
        self.excluded.get(stream).copied().unwrap_or(0)
    }

    /// Included (non-excluded) samples in `stream`.
    pub fn included(&self, stream: usize) -> u64 {
        self.count(stream).saturating_sub(self.excluded(stream))
    }

    /// Mean of the included samples (0 when none).
    pub fn mean(&self, stream: usize) -> f64 {
        let n = self.included(stream);
        if n == 0 {
            return 0.0;
        }
        let sum = self.sum_q32.get(stream).copied().unwrap_or(0);
        (sum as f64 / Q32) / n as f64
    }

    /// Population standard deviation of the included samples, derived
    /// from the exact sums (0 when fewer than 2).
    pub fn std(&self, stream: usize) -> f64 {
        let n = self.included(stream);
        if n < 2 {
            return 0.0;
        }
        let sum = self.sum_q32.get(stream).copied().unwrap_or(0) as f64 / Q32;
        let sumsq = self.sumsq_q32.get(stream).copied().unwrap_or(0) as f64 / Q32;
        let m2 = (sumsq - sum * sum / n as f64).max(0.0);
        (m2 / n as f64).sqrt()
    }

    /// Smallest included sample, if any.
    pub fn min(&self, stream: usize) -> Option<f64> {
        let m = self.min.get(stream).copied()?;
        m.is_finite().then_some(m)
    }

    /// Largest included sample, if any.
    pub fn max(&self, stream: usize) -> Option<f64> {
        let m = self.max.get(stream).copied()?;
        m.is_finite().then_some(m)
    }

    /// Upper bound of the bucket containing quantile `q` of `stream`'s
    /// samples (bucket-exact; excluded samples sit in overflow).
    pub fn quantile(&self, stream: usize, q: f64) -> Option<f64> {
        let total = self.count(stream);
        if total == 0 {
            return None;
        }
        let row = self.bounds.len() + 1;
        let counts = self.hist.get(stream * row..(stream + 1) * row)?;
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        None
    }

    /// The non-empty buckets of `stream` as `(upper_bound, count)`;
    /// overflow reports `f64::INFINITY`.
    pub fn buckets(&self, stream: usize) -> impl Iterator<Item = (f64, u64)> + '_ {
        let row = self.bounds.len() + 1;
        let counts = self
            .hist
            .get(stream * row..(stream + 1) * row)
            .unwrap_or(&[]);
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(counts.iter().copied())
            .filter(|(_, c)| *c > 0)
    }

    /// Serialize the full columnar state to a self-describing word
    /// stream (for checkpoint codecs): layout header, bounds bits,
    /// then every column. Exact — `deserialize_words` round-trips
    /// bit-identically.
    pub fn serialize_words(&self) -> Vec<u64> {
        let mut w =
            Vec::with_capacity(2 + self.bounds.len() + self.streams() * 8 + self.hist.len());
        w.push(self.streams() as u64);
        w.push(self.bounds.len() as u64);
        w.extend(self.bounds.iter().map(|b| b.to_bits()));
        w.extend(self.count.iter().copied());
        w.extend(self.excluded.iter().copied());
        for s in &self.sum_q32 {
            let u = *s as u128;
            w.push((u >> 64) as u64);
            w.push(u as u64);
        }
        for s in &self.sumsq_q32 {
            let u = *s as u128;
            w.push((u >> 64) as u64);
            w.push(u as u64);
        }
        w.extend(self.min.iter().map(|v| v.to_bits()));
        w.extend(self.max.iter().map(|v| v.to_bits()));
        w.extend(self.hist.iter().copied());
        w
    }

    /// Rebuild an aggregator from [`FleetStats::serialize_words`]
    /// output. Returns `None` on any shape inconsistency (truncated or
    /// oversized stream, impossible header) — never panics.
    pub fn deserialize_words(words: &[u64]) -> Option<Self> {
        let mut it = words.iter().copied();
        let streams = usize::try_from(it.next()?).ok()?;
        let nbounds = usize::try_from(it.next()?).ok()?;
        // Cheap sanity cap: the fleet's layouts are tiny; refuse
        // headers that would allocate absurd columns from a corrupt
        // frame.
        if streams > 1 << 20 || nbounds > 1 << 20 {
            return None;
        }
        let expect = 2 + nbounds + streams * 8 + streams * (nbounds + 1);
        if words.len() != expect {
            return None;
        }
        let bounds: Vec<f64> = (&mut it).take(nbounds).map(f64::from_bits).collect();
        let count: Vec<u64> = (&mut it).take(streams).collect();
        let excluded: Vec<u64> = (&mut it).take(streams).collect();
        let take_i128s = |n: usize, it: &mut dyn Iterator<Item = u64>| -> Option<Vec<i128>> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let hi = it.next()?;
                let lo = it.next()?;
                out.push((((hi as u128) << 64) | lo as u128) as i128);
            }
            Some(out)
        };
        let sum_q32 = take_i128s(streams, &mut it)?;
        let sumsq_q32 = take_i128s(streams, &mut it)?;
        let min: Vec<f64> = (&mut it).take(streams).map(f64::from_bits).collect();
        let max: Vec<f64> = (&mut it).take(streams).map(f64::from_bits).collect();
        let hist: Vec<u64> = (&mut it).take(streams * (nbounds + 1)).collect();
        if bounds.len() != nbounds
            || count.len() != streams
            || excluded.len() != streams
            || min.len() != streams
            || max.len() != streams
            || hist.len() != streams * (nbounds + 1)
            || it.next().is_some()
        {
            return None;
        }
        Some(Self {
            bounds,
            count,
            excluded,
            sum_q32,
            sumsq_q32,
            min,
            max,
            hist,
        })
    }
}

/// Exact Q32 fixed-point conversion. `v` is pre-checked finite and
/// within [`SAMPLE_LIMIT`], so the product fits i128 comfortably.
fn q32(v: f64) -> i128 {
    (v * Q32).round() as i128
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64, i: u64) -> f64 {
        // Deterministic pseudo-random savings-like values in ±150.
        let z = (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((z >> 11) as f64 / (1u64 << 53) as f64) * 300.0 - 150.0
    }

    #[test]
    fn moments_match_direct_computation() {
        let mut s = FleetStats::savings_pct(1);
        let vals = [10.0, -5.0, 30.0, 0.25, 99.5];
        for v in vals {
            s.record(0, v);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!((s.mean(0) - mean).abs() < 1e-6);
        assert!((s.std(0) - var.sqrt()).abs() < 1e-5);
        assert_eq!(s.min(0), Some(-5.0));
        assert_eq!(s.max(0), Some(99.5));
        assert_eq!(s.count(0), 5);
        assert_eq!(s.excluded(0), 0);
    }

    #[test]
    fn excluded_samples_count_but_do_not_poison() {
        let mut s = FleetStats::savings_pct(2);
        s.record(0, 50.0);
        s.record_excluded(0);
        s.record(0, f64::NAN);
        s.record(0, 1.0e12);
        assert_eq!(s.count(0), 4);
        assert_eq!(s.excluded(0), 3);
        assert!((s.mean(0) - 50.0).abs() < 1e-9);
        assert_eq!(s.count(1), 0, "streams are independent");
    }

    #[test]
    fn merge_is_bit_exactly_associative_and_commutative() {
        // Three partials merged in every grouping/order must agree
        // down to the serialized bit.
        let parts: Vec<FleetStats> = (0..3)
            .map(|p| {
                let mut s = FleetStats::savings_pct(4);
                for i in 0..500 {
                    let v = sample(p * 7 + 1, i);
                    s.record((i % 4) as usize, v);
                    if i % 97 == 0 {
                        s.record_excluded((i % 4) as usize);
                    }
                }
                s
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = FleetStats::savings_pct(4);
            for &i in order {
                acc.merge(&parts[i]).expect("same layout");
            }
            acc.serialize_words()
        };
        let left = fold(&[0, 1, 2]);
        // Right-assoc tree: (1 ⊕ 2) folded into 0.
        let mut right = parts[0].clone();
        let mut tail = parts[1].clone();
        tail.merge(&parts[2]).expect("same layout");
        right.merge(&tail).expect("same layout");
        assert_eq!(left, fold(&[2, 0, 1]), "commutative");
        assert_eq!(left, right.serialize_words(), "associative");
    }

    #[test]
    fn merge_rejects_layout_mismatch() {
        let mut a = FleetStats::savings_pct(2);
        let b = FleetStats::savings_pct(3);
        assert_eq!(a.merge(&b), Err(LayoutMismatch));
        let c = FleetStats::with_bounds(2, vec![1.0, 2.0]);
        assert_eq!(a.merge(&c), Err(LayoutMismatch));
    }

    #[test]
    fn merge_equals_direct_recording() {
        let mut direct = FleetStats::savings_pct(2);
        let mut a = FleetStats::savings_pct(2);
        let mut b = FleetStats::savings_pct(2);
        for i in 0..1000 {
            let v = sample(42, i);
            direct.record((i % 2) as usize, v);
            if i < 400 {
                a.record((i % 2) as usize, v);
            } else {
                b.record((i % 2) as usize, v);
            }
        }
        a.merge(&b).expect("same layout");
        assert_eq!(a.serialize_words(), direct.serialize_words());
    }

    #[test]
    fn reset_restores_empty_without_reallocating() {
        let mut s = FleetStats::savings_pct(3);
        for i in 0..100 {
            s.record((i % 3) as usize, sample(7, i));
        }
        s.reset();
        assert_eq!(
            s.serialize_words(),
            FleetStats::savings_pct(3).serialize_words()
        );
    }

    #[test]
    fn words_round_trip_bit_identically() {
        let mut s = FleetStats::savings_pct(5);
        for i in 0..2000 {
            s.record((i % 5) as usize, sample(3, i));
        }
        s.record_excluded(4);
        let words = s.serialize_words();
        let back = FleetStats::deserialize_words(&words).expect("clean stream");
        assert_eq!(back.serialize_words(), words);
        assert_eq!(back, s);
    }

    #[test]
    fn corrupt_word_streams_are_rejected_not_panicked() {
        let mut s = FleetStats::savings_pct(2);
        s.record(0, 5.0);
        let words = s.serialize_words();
        assert!(FleetStats::deserialize_words(&words[..words.len() - 1]).is_none());
        let mut huge = words.clone();
        huge[0] = u64::MAX;
        assert!(FleetStats::deserialize_words(&huge).is_none());
        assert!(FleetStats::deserialize_words(&[]).is_none());
    }

    #[test]
    fn quantiles_and_buckets_reflect_the_distribution() {
        let mut s = FleetStats::savings_pct(1);
        for _ in 0..90 {
            s.record(0, 0.05); // ≤ 0.1 bucket
        }
        for _ in 0..10 {
            s.record(0, 80.0); // ≤ 100 bucket
        }
        assert_eq!(s.quantile(0, 0.5), Some(0.1));
        assert_eq!(s.quantile(0, 0.95), Some(100.0));
        let total: u64 = s.buckets(0).map(|(_, c)| c).sum();
        assert_eq!(total, 100);
    }
}
