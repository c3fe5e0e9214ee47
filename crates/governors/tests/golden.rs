//! Golden digests of every stock governor.
//!
//! Each policy drives a noisy Nexus 6 over one seeded random demand
//! sequence (CPU, memory, GPU and core-count demand), and the
//! run is folded into an FNV-1a digest of the measured energy's
//! `to_bits`, the CPU-frequency, bandwidth and GPU-frequency residency,
//! the transition counts and the online cores. A
//! refactor of a governor's tunings or sampling loop that moves a
//! single decision or ulp fails here. The measured energy carries the
//! power monitor's noise, so its normal draw is pinned too.
//!
//! On a deliberate model change, rerun with `--nocapture` and copy the
//! printed digests.

use asgov_governors::{
    AdrenoTz, Conservative, CpubwHwmon, Interactive, MpDecision, Ondemand, PerformanceBw,
    PerformanceCpu, PowersaveBw, PowersaveCpu, Schedutil,
};
use asgov_soc::{Demand, Device, DeviceConfig, Policy};
use asgov_util::Rng;

/// FNV-1a over 64-bit words.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn counts(&mut self, xs: &[u64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x);
        }
    }
}

fn random_demand(rng: &mut Rng) -> Demand {
    Demand {
        ipc0: rng.gen_range(0.3..2.0),
        bytes_per_instr: rng.gen_range(0.05..3.0),
        desired_gips: if rng.gen_bool(0.25) {
            None
        } else {
            Some(rng.gen_range(0.0..4.0))
        },
        active_cores: rng.gen_range(0.3..4.0),
        gpu_work: rng.gen_range(0.0..1.0),
        ..Demand::default()
    }
}

/// One demand sequence shared by every policy: 48 random demands, each
/// held for 150 ms so every sampling period sees it.
fn demands() -> Vec<Demand> {
    let mut rng = Rng::seed_from_u64(0x601d);
    (0..48).map(|_| random_demand(&mut rng)).collect()
}

fn run_digest(policy: &mut dyn Policy, demands: &[Demand]) -> u64 {
    let mut dev = Device::new(DeviceConfig::nexus6().with_seed(7));
    policy.start(&mut dev);
    for d in demands {
        for _ in 0..150 {
            dev.tick(d);
            policy.tick(&mut dev);
        }
    }
    policy.finish(&mut dev);
    let stats = dev.stats();
    let mut d = Digest::default();
    d.word(stats.elapsed_ms);
    d.f(stats.energy_j);
    d.f(stats.instructions);
    d.counts(&stats.time_in_freq_ms);
    d.counts(&stats.time_in_bw_ms);
    d.counts(dev.gpu().time_in_freq_ms());
    d.word(stats.freq_transitions);
    d.word(stats.bw_transitions);
    d.f(dev.online_cores());
    d.word(dev.freq().0 as u64);
    d.word(dev.bw().0 as u64);
    d.word(dev.gpu().freq().0 as u64);
    d.0
}

fn digests() -> Vec<(&'static str, u64)> {
    let demands = demands();
    let policies: Vec<(&'static str, Box<dyn Policy>)> = vec![
        ("interactive", Box::new(Interactive::default())),
        ("ondemand", Box::new(Ondemand::default())),
        ("conservative", Box::new(Conservative::default())),
        ("schedutil", Box::new(Schedutil::default())),
        ("performance cpu", Box::new(PerformanceCpu)),
        ("powersave cpu", Box::new(PowersaveCpu)),
        ("cpubw_hwmon", Box::new(CpubwHwmon::default())),
        ("performance bw", Box::new(PerformanceBw)),
        ("powersave bw", Box::new(PowersaveBw)),
        ("msm-adreno-tz", Box::new(AdrenoTz::default())),
        ("mpdecision", Box::new(MpDecision::default())),
    ];
    policies
        .into_iter()
        .map(|(name, mut policy)| (name, run_digest(policy.as_mut(), &demands)))
        .collect()
}

/// One digest per stock governor, printed by the test on failure.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("interactive", 0xd17fdab864216443),
    ("ondemand", 0x15ebc63ef8462280),
    ("conservative", 0xa8db6fe6e096fe84),
    ("schedutil", 0x5aede193b3f222de),
    ("performance cpu", 0x62e386a170421fdf),
    ("powersave cpu", 0x951a949a0f7a209c),
    ("cpubw_hwmon", 0x9b9e1444f4837815),
    ("performance bw", 0xb9d04ed32252a318),
    ("powersave bw", 0x951a949a0f7a209c),
    ("msm-adreno-tz", 0xd120fcf065807e2d),
    ("mpdecision", 0x86aa747db76c5fbb),
];

#[test]
fn governor_runs_match_golden_digests() {
    let got = digests();
    for (name, digest) in &got {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    assert_eq!(got, GOLDEN);
}
