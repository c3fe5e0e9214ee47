//! Background-load scenarios (paper §III-A and §V-C).
//!
//! The paper profiles every application under a *baseline load* (BL:
//! WiFi on, e-mail synchronization enabled, Spotify minimized) and then
//! stresses the controller under *no load* (NL) and *heavier load* (HL:
//! Gallery, eBook reader, Chrome, Facebook, e-mail, MX Player and
//! Spotify all minimized; 134 MB free memory). The dominant difference
//! between the scenarios is memory pressure; CPU load averages are
//! similar (6.3 / 6.7 / 6.6 in `/proc/loadavg`).

use asgov_soc::BackgroundDemand;
use asgov_util::Rng;
use std::fmt;

/// The three load scenarios of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadLevel {
    /// Baseline load (BL): the profiling environment.
    Baseline,
    /// No load (NL): only the controlled application runs.
    None,
    /// Heavier load (HL): seven extra applications minimized.
    Heavy,
}

impl LoadLevel {
    /// The three levels, in Table IV order.
    pub const ALL: [LoadLevel; 3] = [LoadLevel::Baseline, LoadLevel::None, LoadLevel::Heavy];

    /// Short label used in reports ("BL" / "NL" / "HL").
    pub fn label(self) -> &'static str {
        match self {
            LoadLevel::Baseline => "BL",
            LoadLevel::None => "NL",
            LoadLevel::Heavy => "HL",
        }
    }

    /// The level whose [`label`](Self::label) is `label`; `None` for
    /// any other string.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|level| level.label() == label)
    }
}

impl fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A background-load generator: steady CPU/bus/power draw plus periodic
/// synchronization bursts (e-mail fetch, streaming buffer refills) and
/// slow stochastic wander.
#[derive(Debug, Clone)]
pub struct BackgroundLoad {
    level: LoadLevel,
    base_util: f64,
    base_traffic_mbps: f64,
    base_power_w: f64,
    sync_period_ms: u64,
    sync_duration_ms: u64,
    sync_util: f64,
    sync_traffic_mbps: f64,
    sync_power_w: f64,
    rng: Rng,
    seed: u64,
    wander: f64,
    /// The window length `step_scale` was computed for, ms.
    step_window_ms: u64,
    /// √`step_window_ms`, the wander step's scale.
    step_scale: f64,
}

impl BackgroundLoad {
    /// The baseline load (BL): WiFi on, e-mail sync every 45 s, Spotify
    /// minimized (≈ 500 MB free memory in the paper).
    pub fn baseline(seed: u64) -> Self {
        Self {
            level: LoadLevel::Baseline,
            base_util: 0.055,
            base_traffic_mbps: 18.0,
            base_power_w: 0.16,
            sync_period_ms: 45_000,
            sync_duration_ms: 2_000,
            sync_util: 0.18,
            sync_traffic_mbps: 80.0,
            sync_power_w: 0.30,
            rng: Rng::seed_from_u64(seed ^ 0xb1),
            seed: seed ^ 0xb1,
            wander: 0.0,
            step_window_ms: 1,
            step_scale: 1.0,
        }
    }

    /// No load (NL): only the controlled application runs (≈ 1 GB free).
    pub fn none(seed: u64) -> Self {
        Self {
            level: LoadLevel::None,
            base_util: 0.008,
            base_traffic_mbps: 4.0,
            base_power_w: 0.02,
            sync_period_ms: u64::MAX,
            sync_duration_ms: 0,
            sync_util: 0.0,
            sync_traffic_mbps: 0.0,
            sync_power_w: 0.0,
            rng: Rng::seed_from_u64(seed ^ 0x17),
            seed: seed ^ 0x17,
            wander: 0.0,
            step_window_ms: 1,
            step_scale: 1.0,
        }
    }

    /// Heavier load (HL): seven extra applications minimized, heavy
    /// memory pressure (≈ 134 MB free → paging traffic), sync bursts
    /// every 20 s.
    pub fn heavy(seed: u64) -> Self {
        Self {
            level: LoadLevel::Heavy,
            base_util: 0.16,
            base_traffic_mbps: 180.0,
            base_power_w: 0.38,
            sync_period_ms: 20_000,
            sync_duration_ms: 3_000,
            sync_util: 0.25,
            sync_traffic_mbps: 260.0,
            sync_power_w: 0.35,
            rng: Rng::seed_from_u64(seed ^ 0x41),
            seed: seed ^ 0x41,
            wander: 0.0,
            step_window_ms: 1,
            step_scale: 1.0,
        }
    }

    /// Construct by level.
    pub fn with_level(level: LoadLevel, seed: u64) -> Self {
        match level {
            LoadLevel::Baseline => Self::baseline(seed),
            LoadLevel::None => Self::none(seed),
            LoadLevel::Heavy => Self::heavy(seed),
        }
    }

    /// Which scenario this generator models.
    pub fn level(&self) -> LoadLevel {
        self.level
    }

    /// Background demand over the window `[now_ms, now_ms + window_ms)`:
    /// one wander draw per window (step scaled by √window so the
    /// random walk diffuses as a per-ms walk would), and sync bursts
    /// contribute pro rata to their overlap with the window. A 1 ms
    /// window is the per-millisecond model: the step is scaled by
    /// exactly 1 and a burst is fully in or out.
    pub fn demand_window(&mut self, now_ms: u64, window_ms: u64) -> BackgroundDemand {
        let window_ms = window_ms.max(1);
        if window_ms != self.step_window_ms {
            self.step_window_ms = window_ms;
            self.step_scale = (window_ms as f64).sqrt();
        }
        // Slow random wander (±20 % of base) so load is not constant.
        let step: f64 = self.rng.gen_range(-0.002..0.002) * self.step_scale;
        self.wander = (self.wander + step).clamp(-0.2, 0.2);
        let scale = 1.0 + self.wander;

        // A burst's share of the window; a 1 ms window is wholly in or
        // out of a burst, so it takes no division.
        let frac = match self.sync_overlap_ms(now_ms, window_ms) {
            0 => 0.0,
            overlap if overlap == window_ms => 1.0,
            overlap => overlap as f64 / window_ms as f64,
        };
        BackgroundDemand {
            cpu_util: (self.base_util * scale + self.sync_util * frac).clamp(0.0, 0.9),
            traffic_mbps: (self.base_traffic_mbps * scale + self.sync_traffic_mbps * frac).max(0.0),
            power_w: (self.base_power_w * scale + self.sync_power_w * frac).max(0.0),
        }
    }

    /// Milliseconds of `[a, a + len)` that fall inside a sync burst.
    fn sync_overlap_ms(&self, a: u64, len: u64) -> u64 {
        if self.sync_period_ms == u64::MAX || self.sync_duration_ms == 0 {
            return 0;
        }
        let p = self.sync_period_ms;
        let d = self.sync_duration_ms.min(p);
        let r = a % p;
        match r.checked_add(len) {
            // The window ends inside the period it starts in.
            Some(e) if e <= p => e.min(d) - r.min(d),
            _ => {
                // Count of t in [0, x) with t % p < d.
                let burst_ms_before = |x: u64| (x / p) * d + (x % p).min(d);
                burst_ms_before(a.saturating_add(len)) - burst_ms_before(a)
            }
        }
    }

    /// Restart the generator: replays the exact same sequence.
    pub fn reset(&mut self) {
        self.rng = Rng::seed_from_u64(self.seed);
        self.wander = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_by_pressure() {
        let mut nl = BackgroundLoad::none(1);
        let mut bl = BackgroundLoad::baseline(1);
        let mut hl = BackgroundLoad::heavy(1);
        // Average over time to smooth sync bursts and wander.
        let avg = |l: &mut BackgroundLoad| {
            let mut u = 0.0;
            let mut t = 0.0;
            let mut p = 0.0;
            let n = 100_000;
            for ms in 0..n {
                let d = l.demand_window(ms, 1);
                u += d.cpu_util;
                t += d.traffic_mbps;
                p += d.power_w;
            }
            (u / n as f64, t / n as f64, p / n as f64)
        };
        let (nu, nt, np) = avg(&mut nl);
        let (bu, bt, bp) = avg(&mut bl);
        let (hu, ht, hp) = avg(&mut hl);
        assert!(nu < bu && bu < hu, "util: {nu} {bu} {hu}");
        assert!(nt < bt && bt < ht, "traffic: {nt} {bt} {ht}");
        assert!(np < bp && bp < hp, "power: {np} {bp} {hp}");
    }

    #[test]
    fn baseline_has_sync_bursts() {
        let mut bl = BackgroundLoad::baseline(7);
        let mut in_burst = 0;
        let mut out_burst = 0;
        for ms in 0..90_000u64 {
            let d = bl.demand_window(ms, 1);
            if d.cpu_util > 0.12 {
                in_burst += 1;
            } else {
                out_burst += 1;
            }
        }
        assert!(in_burst > 1000, "sync bursts present ({in_burst} ms)");
        assert!(out_burst > 60_000, "mostly quiet ({out_burst} ms)");
    }

    #[test]
    fn none_never_bursts() {
        let mut nl = BackgroundLoad::none(7);
        for ms in 0..60_000u64 {
            let d = nl.demand_window(ms, 1);
            assert!(d.cpu_util < 0.02);
        }
    }

    #[test]
    fn window_demand_matches_per_ms_on_average() {
        // Quantized windows must conserve the long-run averages of the
        // per-ms model (same base draw, pro-rata sync bursts).
        let q = 16u64;
        let horizon = 360_000u64;
        let mut per_ms = BackgroundLoad::baseline(3);
        let mut windowed = BackgroundLoad::baseline(3);
        let mut a = (0.0, 0.0, 0.0);
        for ms in 0..horizon {
            let d = per_ms.demand_window(ms, 1);
            a = (a.0 + d.cpu_util, a.1 + d.traffic_mbps, a.2 + d.power_w);
        }
        let mut b = (0.0, 0.0, 0.0);
        let mut now = 0;
        while now < horizon {
            let d = windowed.demand_window(now, q);
            let w = q as f64;
            b = (
                b.0 + d.cpu_util * w,
                b.1 + d.traffic_mbps * w,
                b.2 + d.power_w * w,
            );
            now += q;
        }
        let n = horizon as f64;
        assert!(
            (a.0 / n - b.0 / n).abs() < 0.01,
            "util {} vs {}",
            a.0 / n,
            b.0 / n
        );
        assert!((a.1 / n - b.1 / n).abs() / (a.1 / n) < 0.1, "traffic");
        assert!((a.2 / n - b.2 / n).abs() < 0.05, "power");
    }

    #[test]
    fn window_demand_is_deterministic_and_burst_fractional() {
        let mut x = BackgroundLoad::heavy(9);
        let mut y = BackgroundLoad::heavy(9);
        for i in 0..100u64 {
            let a = x.demand_window(i * 50, 50);
            let b = y.demand_window(i * 50, 50);
            assert_eq!(a, b);
        }
        // A window strictly inside a sync burst sees the full burst
        // contribution; one strictly outside sees none.
        let mut z = BackgroundLoad::heavy(9);
        let inside = z.demand_window(20_000, 100); // burst at 20 s lasts 3 s
        let mut z2 = BackgroundLoad::heavy(9);
        let outside = z2.demand_window(10_000, 100);
        assert!(inside.traffic_mbps > outside.traffic_mbps + 100.0);
    }

    #[test]
    fn labels() {
        assert_eq!(LoadLevel::Baseline.label(), "BL");
        assert_eq!(LoadLevel::None.label(), "NL");
        assert_eq!(LoadLevel::Heavy.label(), "HL");
        for level in LoadLevel::ALL {
            assert_eq!(LoadLevel::from_label(level.label()), Some(level));
        }
        for other in ["", "bl", "XL", "BL "] {
            assert_eq!(LoadLevel::from_label(other), None, "{other:?}");
        }
    }
}
