//! Network radio model (WiFi) with a controllable packet-rate setting —
//! the paper's other named future-work axis (§VII: "include GPU
//! frequencies, network packet rate, etc. into the control system
//! framework").
//!
//! The tunable is the *packet service rate*: how often the radio wakes
//! to move packets. A high rate gives low latency at high idle/poll
//! power; a low rate coalesces packets cheaply but throttles
//! packet-rate-hungry traffic (video calls, aggressive streaming).

/// The packet service-rate ladder, packets per second.
pub const PACKET_RATES_PPS: [f64; 5] = [100.0, 500.0, 1_000.0, 5_000.0, 10_000.0];

/// Index into the packet-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetRateIndex(pub usize);

impl std::fmt::Display for NetRateIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0 + 1)
    }
}

/// The radio: ladder, current setting, and power model.
#[derive(Debug, Clone, PartialEq)]
pub struct Radio {
    rates_pps: &'static [f64],
    cur: NetRateIndex,
    /// Poll power per packet-per-second of the *setting*, watts.
    poll_w_per_pps: f64,
    /// Energy per actually-serviced packet, joules.
    energy_per_packet_j: f64,
    serviced_packets: f64,
}

impl Radio {
    /// A Nexus 6-like WiFi radio.
    pub fn wifi() -> Self {
        Self {
            rates_pps: &PACKET_RATES_PPS,
            cur: NetRateIndex(2),
            poll_w_per_pps: 2.0e-5,
            energy_per_packet_j: 8.0e-6,
            serviced_packets: 0.0,
        }
    }

    /// Number of rate settings.
    pub fn num_rates(&self) -> usize {
        self.rates_pps.len()
    }

    /// Rate at `idx`, packets per second.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn rate_pps(&self, idx: NetRateIndex) -> f64 {
        // asgov-analyze: allow(hot-path-index): documented panicking accessor; indices come from this ladder
        self.rates_pps[idx.0]
    }

    /// Current setting.
    pub fn rate(&self) -> NetRateIndex {
        self.cur
    }

    /// Set the packet service rate.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_rate(&mut self, idx: NetRateIndex) {
        assert!(idx.0 < self.rates_pps.len(), "rate index out of range");
        self.cur = idx;
    }

    /// Total packets serviced (for rate managers sampling demand).
    pub fn serviced_packets(&self) -> f64 {
        self.serviced_packets
    }

    /// Service one tick of traffic demanding `offered_pps` packets per
    /// second. Returns `(fraction, power_w)`: the fraction of offered
    /// packets serviced this tick (1.0 when the setting suffices) and
    /// the radio power.
    pub fn tick(&mut self, offered_pps: f64) -> (f64, f64) {
        let rate = self.evaluate(offered_pps);
        self.accumulate(rate, 1);
        (rate.fraction, rate.power_w)
    }

    /// The per-tick rates at the current setting under `offered_pps`;
    /// pure, so a span evaluates it once.
    pub(crate) fn evaluate(&self, offered_pps: f64) -> RadioRate {
        let cap = self.rate_pps(self.cur);
        let serviced_pps = offered_pps.min(cap);
        let fraction = if offered_pps <= 0.0 {
            1.0
        } else {
            serviced_pps / offered_pps
        };
        let power_w = self.poll_w_per_pps * cap + self.energy_per_packet_j * serviced_pps;
        RadioRate {
            serviced_pps,
            fraction,
            power_w,
        }
    }

    /// Book `span_ms` ticks at `rate`: the serviced-packet accumulator
    /// receives the same per-millisecond additions `span_ms` calls to
    /// [`Radio::tick`] would make. An idle radio's `+ 0.0` is idempotent
    /// (for either sign of zero), so one add books the whole span.
    pub(crate) fn accumulate(&mut self, rate: RadioRate, span_ms: u64) {
        // Packets serviced per 1 ms tick.
        let per_ms = rate.serviced_pps * 1e-3;
        // asgov-analyze: allow(float-eq): exact test for the idempotent `+ 0.0`, not a tolerance comparison
        let adds = if per_ms == 0.0 {
            span_ms.min(1)
        } else {
            span_ms
        };
        for _ in 0..adds {
            self.serviced_packets += per_ms;
        }
    }
}

/// One tick's radio rates (see [`Radio::evaluate`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RadioRate {
    /// Packets per second serviced.
    serviced_pps: f64,
    /// Fraction of offered packets serviced (1.0 when the setting
    /// suffices).
    pub(crate) fraction: f64,
    /// Radio power, watts.
    pub(crate) power_w: f64,
}

impl Default for Radio {
    fn default() -> Self {
        Self::wifi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_increasing() {
        let r = Radio::wifi();
        for i in 1..r.num_rates() {
            assert!(r.rate_pps(NetRateIndex(i)) > r.rate_pps(NetRateIndex(i - 1)));
        }
    }

    #[test]
    fn services_within_the_setting() {
        let mut r = Radio::wifi();
        r.set_rate(NetRateIndex(0)); // 100 pps
        let (fraction, _) = r.tick(50.0);
        assert_eq!(fraction, 1.0);
        let (fraction, _) = r.tick(400.0);
        assert!((fraction - 0.25).abs() < 1e-12, "100 of 400 pps serviced");
    }

    #[test]
    fn higher_settings_cost_more_poll_power() {
        let mut lo = Radio::wifi();
        lo.set_rate(NetRateIndex(0));
        let mut hi = Radio::wifi();
        hi.set_rate(NetRateIndex(4));
        let (_, p_lo) = lo.tick(50.0);
        let (_, p_hi) = hi.tick(50.0);
        assert!(
            p_hi > p_lo + 0.1,
            "idle poll power dominates at high settings: {p_lo} vs {p_hi}"
        );
    }

    #[test]
    fn serviced_counter_accumulates() {
        let mut r = Radio::wifi();
        r.set_rate(NetRateIndex(2));
        for _ in 0..1000 {
            r.tick(800.0);
        }
        assert!((r.serviced_packets() - 800.0).abs() < 1e-6);
    }
}
