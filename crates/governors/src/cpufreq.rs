//! CPU-frequency (`cpufreq`) governors.

use asgov_soc::{Device, FreqIndex, Policy};

/// Shared load-sampling helper: computes average CPU load since the
/// previous sample from the device's cumulative busy-time counter.
#[derive(Debug, Clone, Default)]
struct LoadSampler {
    last_ms: u64,
    last_busy_ms: f64,
}

impl LoadSampler {
    fn reset(&mut self, device: &Device) {
        self.last_ms = device.now_ms();
        self.last_busy_ms = device.busy_ms();
    }

    /// Load in [0, 1] over the window since the last call; `None` until
    /// at least 1 ms has elapsed.
    fn sample(&mut self, device: &Device) -> Option<f64> {
        let now = device.now_ms();
        let dt = now.saturating_sub(self.last_ms);
        if dt == 0 {
            return None;
        }
        let busy = device.busy_ms();
        let load = ((busy - self.last_busy_ms) / dt as f64).clamp(0.0, 1.0);
        self.last_ms = now;
        self.last_busy_ms = busy;
        Some(load)
    }
}

/// The Android default CPU governor.
///
/// Every `timer_rate` it samples CPU load. Crossing `go_hispeed_load`
/// jumps to `hispeed_freq` immediately; sustained high load then scales
/// further up toward the frequency that would bring load down to
/// `target_load`. Ramping down is damped by `min_sample_time`. This is
/// deliberately responsive — and, as the paper observes, deliberately
/// performance-first rather than energy-optimal. The tunings are the
/// Nexus 6 defaults, named after the sysfs files of the AOSP
/// implementation.
///
/// # Example
///
/// ```
/// use asgov_governors::Interactive;
/// use asgov_soc::{sim, ConstantWorkload, Device, DeviceConfig};
///
/// let mut device = Device::new(DeviceConfig::nexus6());
/// let mut governor = Interactive::default();
/// // A heavy compute workload: the governor ramps to the maximum.
/// let mut app = ConstantWorkload::new("busy", 10.0, 1.5, 0.1);
/// sim::run(&mut device, &mut app, &mut [&mut governor], 2_000);
/// assert_eq!(device.freq(), device.table().max_freq());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interactive {
    sampler: LoadSampler,
    next_sample_ms: u64,
    floor_until_ms: u64,
    hispeed_since_ms: Option<u64>,
}

impl Interactive {
    /// Load-sampling period, ms (`timer_rate`).
    const TIMER_RATE_MS: u64 = 20;
    /// Load at which the governor jumps straight to `HISPEED_FREQ`.
    const GO_HISPEED_LOAD: f64 = 0.90;
    /// The frequency index jumped to on high load. On the Nexus 6 this
    /// is 1 497 600 kHz — the paper's frequency №10 — which is why the
    /// default governor parks there 12.7–27.9 % of the time (Fig. 4).
    const HISPEED_FREQ: FreqIndex = FreqIndex(9);
    /// Load the governor tries to hold when scaling proportionally.
    const TARGET_LOAD: f64 = 0.90;
    /// Minimum time at a frequency before ramping *down*, ms
    /// (`min_sample_time`).
    const MIN_SAMPLE_TIME_MS: u64 = 80;
    /// Time the governor must observe high load above `HISPEED_FREQ`
    /// before exceeding it, ms (`above_hispeed_delay`).
    const ABOVE_HISPEED_DELAY_MS: u64 = 20;
    /// Maximum ladder steps the governor descends per down-ramp. AOSP
    /// `interactive` ramps *up* in one jump but releases frequency in a
    /// staircase, which is why the Nexus 6 spends so much accumulated
    /// time at elevated frequencies (paper Figs. 1 and 4).
    const MAX_DOWN_STEPS: usize = 2;
    /// Hold time between consecutive *down* steps, ms (shorter than
    /// `MIN_SAMPLE_TIME_MS`, which gates the first release after a
    /// ramp).
    const DOWN_STEP_HOLD_MS: u64 = 40;
}

impl Policy for Interactive {
    fn name(&self) -> &str {
        "interactive"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_cpu_governor("interactive");
        self.sampler.reset(device);
        self.next_sample_ms = device.now_ms() + Self::TIMER_RATE_MS;
        self.floor_until_ms = 0;
        self.hispeed_since_ms = None;
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms || device.cpu_governor() != "interactive" {
            return;
        }
        self.next_sample_ms = device.now_ms() + Self::TIMER_RATE_MS;
        let Some(load) = self.sampler.sample(device) else {
            return;
        };
        let now = device.now_ms();
        let cur = device.freq();
        let cur_ghz = device.table().freq(cur).0;
        let max_idx = device.table().max_freq();

        // Frequency that would bring load down to target_load.
        let scaled = device
            .table()
            .freq_at_least(cur_ghz * load / Self::TARGET_LOAD);

        let target = if load >= Self::GO_HISPEED_LOAD {
            let boosted = scaled.max(Self::HISPEED_FREQ);
            if boosted > Self::HISPEED_FREQ {
                // Exceeding hispeed requires sustained high load.
                match self.hispeed_since_ms {
                    Some(t0) if now.saturating_sub(t0) >= Self::ABOVE_HISPEED_DELAY_MS => boosted,
                    Some(_) => Self::HISPEED_FREQ.max(cur),
                    None => {
                        self.hispeed_since_ms = Some(now);
                        Self::HISPEED_FREQ.max(cur)
                    }
                }
            } else {
                boosted
            }
        } else {
            self.hispeed_since_ms = None;
            scaled
        };
        let target = target.min(max_idx);

        if target > cur {
            device.set_cpu_freq(target);
            self.floor_until_ms = now + Self::MIN_SAMPLE_TIME_MS;
        } else if target < cur && now >= self.floor_until_ms {
            // Staircase release: at most `MAX_DOWN_STEPS` per hold
            // window.
            let stepped = FreqIndex(cur.0.saturating_sub(Self::MAX_DOWN_STEPS).max(target.0));
            device.set_cpu_freq(stepped);
            self.floor_until_ms = now + Self::DOWN_STEP_HOLD_MS;
        }
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        if device.cpu_governor() != "interactive" {
            u64::MAX
        } else {
            self.next_sample_ms.max(device.now_ms() + 1)
        }
    }
}

/// The classic Linux `ondemand` governor: periodically checks CPU load;
/// above `up_threshold` it jumps straight to the maximum frequency,
/// below it it scales the frequency proportionally so that the load
/// would sit just under the threshold.
#[derive(Debug, Clone, Default)]
pub struct Ondemand {
    sampler: LoadSampler,
    next_sample_ms: u64,
}

impl Ondemand {
    /// Sampling period, ms.
    const SAMPLING_RATE_MS: u64 = 100;
    /// Load above which the governor jumps to the maximum frequency.
    const UP_THRESHOLD: f64 = 0.80;
}

impl Policy for Ondemand {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_cpu_governor("ondemand");
        self.sampler.reset(device);
        self.next_sample_ms = device.now_ms() + Self::SAMPLING_RATE_MS;
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms || device.cpu_governor() != "ondemand" {
            return;
        }
        self.next_sample_ms = device.now_ms() + Self::SAMPLING_RATE_MS;
        let Some(load) = self.sampler.sample(device) else {
            return;
        };
        if load >= Self::UP_THRESHOLD {
            device.set_cpu_freq(device.table().max_freq());
        } else {
            let cur_ghz = device.table().freq(device.freq()).0;
            let target = device
                .table()
                .freq_at_least(cur_ghz * load / Self::UP_THRESHOLD);
            device.set_cpu_freq(target);
        }
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        if device.cpu_governor() != "ondemand" {
            u64::MAX
        } else {
            self.next_sample_ms.max(device.now_ms() + 1)
        }
    }
}

/// The `conservative` governor: like `ondemand` but moves one ladder
/// step at a time (up above 80 % load, down below 30 %).
#[derive(Debug, Clone, Default)]
pub struct Conservative {
    sampler: LoadSampler,
    next_sample_ms: u64,
}

impl Policy for Conservative {
    fn name(&self) -> &str {
        "conservative"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_cpu_governor("conservative");
        self.sampler.reset(device);
        self.next_sample_ms = device.now_ms() + 100;
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms || device.cpu_governor() != "conservative" {
            return;
        }
        self.next_sample_ms = device.now_ms() + 100;
        let Some(load) = self.sampler.sample(device) else {
            return;
        };
        let cur = device.freq();
        if load > 0.80 && cur < device.table().max_freq() {
            device.set_cpu_freq(FreqIndex(cur.0 + 1));
        } else if load < 0.30 && cur.0 > 0 {
            device.set_cpu_freq(FreqIndex(cur.0 - 1));
        }
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        if device.cpu_governor() != "conservative" {
            u64::MAX
        } else {
            self.next_sample_ms.max(device.now_ms() + 1)
        }
    }
}

/// The modern `schedutil` governor (not yet mainline at the paper's
/// Linux 3.10, provided as an additional comparison baseline): selects
/// `f = 1.25 · f_cur · util`, ramping both directions quickly with a
/// short down-rate limit.
#[derive(Debug, Clone, Default)]
pub struct Schedutil {
    sampler: LoadSampler,
    next_sample_ms: u64,
    floor_until_ms: u64,
}

impl Schedutil {
    /// Sampling period, ms (scheduler-tick driven in real kernels).
    const SAMPLE_MS: u64 = 10;
    /// Headroom factor: `f_next = HEADROOM · f_cur · util`.
    const HEADROOM: f64 = 1.25;
    /// Minimum time before reducing frequency, ms (`down_rate_limit`).
    const DOWN_RATE_LIMIT_MS: u64 = 20;
}

impl Policy for Schedutil {
    fn name(&self) -> &str {
        "schedutil"
    }

    fn start(&mut self, device: &mut Device) {
        // schedutil is not in the Nexus 6 governor list; it registers
        // as `userspace` at the sysfs level and drives the frequency
        // through the driver path, which is adequate for baselining.
        device.set_cpu_governor("userspace");
        self.sampler.reset(device);
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
    }

    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.next_sample_ms {
            return;
        }
        self.next_sample_ms = device.now_ms() + Self::SAMPLE_MS;
        let Some(load) = self.sampler.sample(device) else {
            return;
        };
        let cur = device.freq();
        let cur_ghz = device.table().freq(cur).0;
        let target = device
            .table()
            .freq_at_least(Self::HEADROOM * cur_ghz * load);
        let now = device.now_ms();
        if target > cur {
            device.set_cpu_freq(target);
            self.floor_until_ms = now + Self::DOWN_RATE_LIMIT_MS;
        } else if target < cur && now >= self.floor_until_ms {
            device.set_cpu_freq(target);
        }
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        self.next_sample_ms.max(device.now_ms() + 1)
    }
}

/// The `performance` governor: pins the maximum frequency.
#[derive(Debug, Clone, Default)]
pub struct PerformanceCpu;

impl Policy for PerformanceCpu {
    fn name(&self) -> &str {
        "performance"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_cpu_governor("performance");
    }

    fn tick(&mut self, _device: &mut Device) {}

    fn next_event_ms(&self, _device: &Device) -> u64 {
        // `tick` is a no-op: the event engine never needs to wake us.
        u64::MAX
    }
}

/// The `powersave` governor: pins the minimum frequency.
#[derive(Debug, Clone, Default)]
pub struct PowersaveCpu;

impl Policy for PowersaveCpu {
    fn name(&self) -> &str {
        "powersave"
    }

    fn start(&mut self, device: &mut Device) {
        device.set_cpu_governor("powersave");
    }

    fn tick(&mut self, _device: &mut Device) {}

    fn next_event_ms(&self, _device: &Device) -> u64 {
        // `tick` is a no-op: the event engine never needs to wake us.
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::{sim, ConstantWorkload, Demand, DeviceConfig, Executed, Workload};

    fn device() -> Device {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        Device::new(cfg)
    }

    /// Heavy unbounded compute workload.
    struct Heavy;
    impl Workload for Heavy {
        fn name(&self) -> &str {
            "heavy"
        }
        fn demand(&mut self, _now_ms: u64) -> Demand {
            Demand {
                ipc0: 1.5,
                bytes_per_instr: 0.2,
                desired_gips: None,
                active_cores: 4.0,
                ..Demand::default()
            }
        }
        fn deliver(&mut self, _now_ms: u64, _executed: Executed) {}
        fn reset(&mut self) {}
    }

    #[test]
    fn interactive_ramps_to_max_under_sustained_load() {
        let mut dev = device();
        let mut gov = Interactive::default();
        let mut app = Heavy;
        sim::run(&mut dev, &mut app, &mut [&mut gov], 2_000);
        assert_eq!(dev.freq(), dev.table().max_freq());
    }

    #[test]
    fn interactive_visits_hispeed_on_the_way_up() {
        let mut dev = device();
        let mut gov = Interactive::default();
        let mut app = Heavy;
        let report = sim::run(&mut dev, &mut app, &mut [&mut gov], 2_000);
        assert!(
            report.stats.time_in_freq_ms[9] > 0,
            "hispeed_freq (f10) must be visited: {:?}",
            report.stats.time_in_freq_ms
        );
    }

    #[test]
    fn interactive_settles_low_for_light_load() {
        let mut dev = device();
        let mut gov = Interactive::default();
        // 0.05 GIPS of light work: base config delivers ~0.3+ GIPS.
        let mut app = ConstantWorkload::new("light", 0.05, 1.5, 0.5);
        sim::run(&mut dev, &mut app, &mut [&mut gov], 5_000);
        assert!(
            dev.freq().0 <= 2,
            "light load should settle at a low frequency, got {}",
            dev.freq()
        );
    }

    #[test]
    fn interactive_min_sample_time_damps_downward_ramps() {
        let mut dev = device();
        let mut gov = Interactive::default();
        gov.start(&mut dev);
        // Burst load to push frequency up.
        let mut app = Heavy;
        for _ in 0..200 {
            let now = dev.now_ms();
            let d = app.demand(now);
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        let peak = dev.freq();
        assert!(peak.0 > 5);
        // Go idle: frequency must NOT collapse within min_sample_time.
        let idle = Demand::idle();
        for _ in 0..19 {
            dev.tick(&idle);
            gov.tick(&mut dev);
        }
        assert!(
            dev.freq().0 >= peak.0.saturating_sub(3),
            "dropped too fast: {} -> {}",
            peak,
            dev.freq()
        );
        // But it does come down eventually (staircase release: at most
        // two ladder steps per 80 ms min_sample_time).
        for _ in 0..1500 {
            dev.tick(&idle);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(0));
    }

    #[test]
    fn ondemand_jumps_to_max_and_decays_proportionally() {
        let mut dev = device();
        let mut gov = Ondemand::default();
        gov.start(&mut dev);
        let mut app = Heavy;
        for _ in 0..300 {
            let now = dev.now_ms();
            let d = app.demand(now);
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.freq(), dev.table().max_freq(), "jump-to-max on load");
        let idle = Demand::idle();
        for _ in 0..600 {
            dev.tick(&idle);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(0), "decay to min when idle");
    }

    #[test]
    fn conservative_moves_one_step_at_a_time() {
        let mut dev = device();
        let mut gov = Conservative::default();
        gov.start(&mut dev);
        let mut app = Heavy;
        let mut last = dev.freq().0;
        for _ in 0..1000 {
            let now = dev.now_ms();
            let d = app.demand(now);
            dev.tick(&d);
            gov.tick(&mut dev);
            let cur = dev.freq().0;
            assert!(cur.abs_diff(last) <= 1, "jumped more than one step");
            last = cur;
        }
        assert!(dev.freq().0 >= 8, "should have climbed under load");
    }

    #[test]
    fn schedutil_tracks_load_both_ways() {
        let mut dev = device();
        let mut gov = Schedutil::default();
        gov.start(&mut dev);
        let mut app = Heavy;
        for _ in 0..1_000 {
            let now = dev.now_ms();
            let d = app.demand(now);
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.freq(), dev.table().max_freq(), "ramps up under load");
        let idle = Demand::idle();
        for _ in 0..500 {
            dev.tick(&idle);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(0), "collapses quickly when idle");
    }

    #[test]
    fn governors_are_inert_when_not_selected() {
        let mut dev = device();
        let mut gov = Ondemand::default();
        gov.start(&mut dev);
        // Another agent takes over (the paper's controller does this).
        dev.set_cpu_governor("userspace");
        dev.set_cpu_freq(FreqIndex(5));
        let mut app = Heavy;
        for _ in 0..300 {
            let now = dev.now_ms();
            let d = app.demand(now);
            dev.tick(&d);
            gov.tick(&mut dev);
        }
        assert_eq!(dev.freq(), FreqIndex(5), "ondemand must not act");
    }

    #[test]
    fn performance_and_powersave_pin() {
        let mut dev = device();
        PerformanceCpu.start(&mut dev);
        assert_eq!(dev.freq(), dev.table().max_freq());
        PowersaveCpu.start(&mut dev);
        assert_eq!(dev.freq(), FreqIndex(0));
    }
}
