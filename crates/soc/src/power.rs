//! The whole-device power model.
//!
//! The paper measures *whole-device* power with a Monsoon monitor (the
//! Snapdragon 805 has no energy counters), so this model produces total
//! device watts as the sum of component contributions:
//!
//! ```text
//! P = P_screen + P_wifi + P_rest + P_soc_static
//!   + P_cpu(f, V(f), busy_cores)          (leakage + dynamic CV²f)
//!   + P_mem(bw_setting, traffic)          (frequency floor + traffic)
//!   + P_extra (camera / ads / decoder) + P_background
//! ```
//!
//! The constants are calibrated so that the simulated device sits in the
//! 1.2 W (idle, screen on) … 6 W (peak with ads) band the paper reports.

use crate::dvfs::{BwIndex, DvfsTable, FreqIndex};

/// Tunable constants of the power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModelParams {
    /// Screen at the paper's fixed lowest brightness, watts.
    pub screen_w: f64,
    /// WiFi idle/associated power, watts.
    pub wifi_w: f64,
    /// Everything else on the board (PMIC, sensors, RAM refresh), watts.
    pub rest_w: f64,
    /// SoC static power independent of DVFS state, watts.
    pub soc_static_w: f64,
    /// CPU leakage coefficient per online core, W/V.
    pub cpu_leak_w_per_v: f64,
    /// CPU dynamic coefficient: W per (V² · GHz · busy-core).
    pub cpu_dyn_w_per_v2ghz: f64,
    /// Uncore (L2, interconnect, clock tree) power that scales with the
    /// CPU operating point but not with utilization, W per (V² · GHz).
    /// This is why merely *sitting* at a high frequency wastes energy —
    /// the waste the paper's Fig. 1 e-book experiment exposes.
    pub cpu_uncore_w_per_v2ghz: f64,
    /// Memory controller static power at the lowest bandwidth, watts.
    pub mem_static_w: f64,
    /// Memory power per MBps of *configured* bandwidth (bus/controller
    /// clock scales with the bandwidth setting), W/MBps.
    pub mem_bw_w_per_mbps: f64,
    /// Memory power per MBps of *actual* traffic, W/MBps.
    pub mem_traffic_w_per_mbps: f64,
}

impl Default for PowerModelParams {
    fn default() -> Self {
        Self::nexus6()
    }
}

impl PowerModelParams {
    /// Constants calibrated for the Nexus 6 envelope.
    pub fn nexus6() -> Self {
        Self {
            screen_w: 0.42,
            wifi_w: 0.06,
            rest_w: 0.20,
            soc_static_w: 0.14,
            cpu_leak_w_per_v: 0.045,
            cpu_dyn_w_per_v2ghz: 0.40,
            cpu_uncore_w_per_v2ghz: 0.20,
            mem_static_w: 0.05,
            mem_bw_w_per_mbps: 7.0e-5,
            mem_traffic_w_per_mbps: 6.0e-5,
        }
    }
}

/// Per-component power for one tick, watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Screen + WiFi + rest-of-board + SoC static.
    pub base_w: f64,
    /// CPU leakage + dynamic.
    pub cpu_w: f64,
    /// Memory controller + traffic.
    pub mem_w: f64,
    /// GPU (leakage + render).
    pub gpu_w: f64,
    /// Application events (camera, ads, hardware decoder).
    pub extra_w: f64,
    /// Background activity.
    pub background_w: f64,
}

impl PowerBreakdown {
    /// Total device power, watts.
    pub fn total_w(&self) -> f64 {
        self.base_w + self.cpu_w + self.mem_w + self.gpu_w + self.extra_w + self.background_w
    }
}

/// The operating-point-dependent terms of [`PowerModel::power`] at one
/// `(freq, bw)` pair, cached by the device so the per-span power
/// evaluation does no table lookups. Each term is the exact left-to-right
/// prefix of the corresponding expression in [`PowerModel::power`], so
/// [`PowerModel::power_at`] reproduces it bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpPoint {
    /// CPU clock, Hz.
    pub(crate) f_hz: f64,
    /// Configured bus bandwidth, bytes/s.
    pub(crate) bw_bps: f64,
    /// `cpu_leak_w_per_v · v`, per online core.
    leak_w_per_core: f64,
    /// `cpu_dyn_w_per_v2ghz · v · v · f_ghz`, per busy core.
    dyn_w_per_busy_core: f64,
    /// `cpu_uncore_w_per_v2ghz · v · v · f_ghz`.
    uncore_w: f64,
    /// `mem_static_w + mem_bw_w_per_mbps · bw_mbps`.
    mem_fixed_w: f64,
    /// `screen_w + wifi_w + rest_w + soc_static_w`.
    base_w: f64,
}

/// The whole-device power model. See the module docs for the equation.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    params: PowerModelParams,
}

impl PowerModel {
    /// Create a model with the given constants.
    pub fn new(params: PowerModelParams) -> Self {
        Self { params }
    }

    /// Access the model constants.
    pub fn params(&self) -> &PowerModelParams {
        &self.params
    }

    /// Compute the device power breakdown for one tick.
    ///
    /// * `busy_cores` — number of cores' worth of busy time this tick
    ///   (0.0 – 4.0), memory stalls included.
    /// * `traffic_mbps` — achieved bus traffic rate this tick.
    /// * `extra_w` / `background_w` — pass-through event power.
    // One argument per physical signal; bundling them into a struct
    // would just move the names one level down.
    #[allow(clippy::too_many_arguments)]
    pub fn power(
        &self,
        table: &DvfsTable,
        freq: FreqIndex,
        bw: BwIndex,
        online_cores: f64,
        busy_cores: f64,
        traffic_mbps: f64,
        extra_w: f64,
        background_w: f64,
    ) -> PowerBreakdown {
        let p = &self.params;
        let v = table.voltage(freq);
        let f_ghz = table.freq(freq).0;
        let bw_mbps = table.bw(bw).0;

        let cpu_leak = p.cpu_leak_w_per_v * v * online_cores;
        let cpu_uncore = p.cpu_uncore_w_per_v2ghz * v * v * f_ghz;
        let cpu_dyn = p.cpu_dyn_w_per_v2ghz * v * v * f_ghz * busy_cores + cpu_uncore;
        let mem = p.mem_static_w
            + p.mem_bw_w_per_mbps * bw_mbps
            + p.mem_traffic_w_per_mbps * traffic_mbps;

        PowerBreakdown {
            base_w: p.screen_w + p.wifi_w + p.rest_w + p.soc_static_w,
            cpu_w: cpu_leak + cpu_dyn,
            mem_w: mem,
            gpu_w: 0.0, // filled in by the device, which owns the GPU
            extra_w,
            background_w,
        }
    }

    /// The cached terms of [`PowerModel::power`] at `(freq, bw)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of the table's range.
    pub(crate) fn op_point(&self, table: &DvfsTable, freq: FreqIndex, bw: BwIndex) -> OpPoint {
        let p = &self.params;
        let v = table.voltage(freq);
        let f = table.freq(freq);
        let b = table.bw(bw);
        OpPoint {
            f_hz: f.hz(),
            bw_bps: b.bytes_per_sec(),
            leak_w_per_core: p.cpu_leak_w_per_v * v,
            dyn_w_per_busy_core: p.cpu_dyn_w_per_v2ghz * v * v * f.0,
            uncore_w: p.cpu_uncore_w_per_v2ghz * v * v * f.0,
            mem_fixed_w: p.mem_static_w + p.mem_bw_w_per_mbps * b.0,
            base_w: p.screen_w + p.wifi_w + p.rest_w + p.soc_static_w,
        }
    }

    /// [`PowerModel::power`] at a cached operating point `op` (built by
    /// [`PowerModel::op_point`] from this model), bit for bit.
    #[inline]
    pub(crate) fn power_at(
        &self,
        op: &OpPoint,
        online_cores: f64,
        busy_cores: f64,
        traffic_mbps: f64,
        extra_w: f64,
        background_w: f64,
    ) -> PowerBreakdown {
        let cpu_leak = op.leak_w_per_core * online_cores;
        let cpu_dyn = op.dyn_w_per_busy_core * busy_cores + op.uncore_w;
        PowerBreakdown {
            base_w: op.base_w,
            cpu_w: cpu_leak + cpu_dyn,
            mem_w: op.mem_fixed_w + self.params.mem_traffic_w_per_mbps * traffic_mbps,
            gpu_w: 0.0,
            extra_w,
            background_w,
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::new(PowerModelParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (PowerModel, DvfsTable) {
        (PowerModel::default(), DvfsTable::nexus6())
    }

    #[test]
    fn idle_device_sits_near_one_watt() {
        let (m, t) = model();
        let p = m
            .power(&t, FreqIndex(0), BwIndex(0), 4.0, 0.0, 0.0, 0.0, 0.0)
            .total_w();
        assert!(p > 0.8 && p < 1.3, "idle power {p} W out of band");
    }

    #[test]
    fn busy_max_config_is_in_multi_watt_band() {
        let (m, t) = model();
        let p = m
            .power(&t, FreqIndex(17), BwIndex(12), 4.0, 4.0, 8000.0, 0.0, 0.0)
            .total_w();
        assert!(p > 3.0 && p < 10.0, "peak power {p} W out of band");
    }

    #[test]
    fn power_monotone_in_frequency() {
        let (m, t) = model();
        let mut prev = 0.0;
        for i in t.freq_indices() {
            let p = m
                .power(&t, i, BwIndex(0), 4.0, 2.0, 500.0, 0.0, 0.0)
                .total_w();
            assert!(p > prev, "power not increasing at {i}");
            prev = p;
        }
    }

    #[test]
    fn power_monotone_in_bandwidth_setting() {
        let (m, t) = model();
        let mut prev = 0.0;
        for i in t.bw_indices() {
            let p = m
                .power(&t, FreqIndex(9), i, 4.0, 2.0, 500.0, 0.0, 0.0)
                .total_w();
            assert!(p > prev, "power not increasing at {i}");
            prev = p;
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let (m, t) = model();
        let b = m.power(&t, FreqIndex(9), BwIndex(6), 4.0, 1.5, 800.0, 0.5, 0.1);
        let sum = b.base_w + b.cpu_w + b.mem_w + b.extra_w + b.background_w;
        assert!((sum - b.total_w()).abs() < 1e-12);
        assert_eq!(b.extra_w, 0.5);
        assert_eq!(b.background_w, 0.1);
    }

    #[test]
    fn dynamic_power_scales_with_busy_cores() {
        let (m, t) = model();
        let p1 = m.power(&t, FreqIndex(9), BwIndex(0), 4.0, 1.0, 0.0, 0.0, 0.0);
        let p2 = m.power(&t, FreqIndex(9), BwIndex(0), 4.0, 2.0, 0.0, 0.0, 0.0);
        let d1 = p1.cpu_w;
        let d2 = p2.cpu_w;
        // Leakage part identical; dynamic part doubles.
        assert!(d2 > d1 * 1.4 && d2 < d1 * 2.0);
    }

    /// The field-for-field bit pattern of a breakdown, plus its total.
    fn bits(b: &PowerBreakdown) -> [u64; 7] {
        [
            b.base_w,
            b.cpu_w,
            b.mem_w,
            b.gpu_w,
            b.extra_w,
            b.background_w,
            b.total_w(),
        ]
        .map(f64::to_bits)
    }

    /// The device's cached operating point evaluates to exactly
    /// `PowerModel::power`: every (freq, bw) pair of the Nexus 6 table,
    /// over a seeded grid of per-tick signals, bit for bit.
    #[test]
    fn cached_op_point_matches_power_bit_for_bit() {
        let (m, t) = model();
        let mut rng = asgov_util::Rng::seed_from_u64(0x0b9_7041);
        for f in t.freq_indices() {
            for b in t.bw_indices() {
                let op = m.op_point(&t, f, b);
                assert_eq!(op.f_hz.to_bits(), t.freq(f).hz().to_bits(), "{f} {b}");
                assert_eq!(op.bw_bps.to_bits(), t.bw(b).bytes_per_sec().to_bits());
                for _ in 0..64 {
                    let online = rng.gen_range(1.0..4.0);
                    let effective = online - rng.gen_range(0.0..online);
                    let busy = rng.gen_range(0.0..online);
                    let traffic = rng.gen_range(0.0..16_000.0);
                    let extra = rng.gen_range(0.0..2.0);
                    let background = rng.gen_range(0.0..0.5);
                    for cores in [online, effective] {
                        let cached = m.power_at(&op, cores, busy, traffic, extra, background);
                        let oracle = m.power(&t, f, b, cores, busy, traffic, extra, background);
                        assert_eq!(bits(&cached), bits(&oracle), "{f} {b}");
                    }
                }
            }
        }
    }
}
