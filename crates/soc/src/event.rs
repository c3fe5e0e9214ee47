//! The simulation engine: next-event time advance over the device model.
//!
//! The controller of the paper acts only at 200 ms dwell boundaries and
//! 2 s control periods, and sampling governors every 10–100 ms, so
//! asking every workload and policy what it wants on every millisecond
//! wastes almost all of the work. The engine instead merges four *clock
//! domains* into a single next-event horizon each iteration:
//!
//! 1. the workload's next demand change ([`Workload::next_event_ms`]),
//! 2. every policy's next non-trivial tick ([`Policy::next_event_ms`] —
//!    governor sampling deadlines, dwell boundaries, control periods),
//! 3. the fault plan's next window start or end, or the next
//!    millisecond after a fault changed device state
//!    ([`Device::next_fault_boundary_ms`]), and
//! 4. the end of the run,
//!
//! and executes the whole span to that horizon in one
//! [`Device::tick_span`] call, which evaluates the contention / roofline
//! / power model once and replays only the per-millisecond accumulator
//! additions. Every hook defaults to "the very next millisecond", so
//! any workload or policy that has not opted in runs on a 1 ms
//! schedule: demand, tick, deliver and every policy tick, each
//! millisecond.
//!
//! # Bit-identity
//!
//! [`run`] produces a [`RunReport`] bit-identical to a 1 ms loop over
//! the same device, workload and policies, for *any* combination of
//! workloads, policies and fault plans, by construction:
//!
//! - a source that keeps the default hook forces 1 ms spans, i.e. the
//!   1 ms loop's exact call sequence;
//! - a source that advertises a longer horizon contracts that it is a
//!   pure no-op (no state change, no RNG draws, constant demand) at
//!   every interior millisecond, so skipping those calls is unobservable;
//! - [`Device::tick_span`] preserves the exact floating-point addition
//!   order of every per-millisecond accumulator (f64 addition is not
//!   associative, so sums are replayed, not hoisted), including the
//!   power monitor's per-sample noise draws;
//! - spans never cross a fault window edge. Inside an active window a
//!   span is cut to 1 ms only where the fault changes device state on
//!   the tick: an unfired one-shot, a thermal clamp's first millisecond,
//!   a hotplug window's first millisecond and the one past its end (see
//!   [`FaultInjector::next_event_ms`](crate::faults::FaultInjector::next_event_ms)).
//!   Every other active millisecond is a no-op in the per-tick hook,
//!   and call-triggered faults draw only inside policy ticks, which are
//!   span ends, so injection behaviour (and its RNG stream) is
//!   untouched.
//!
//! A span is at least 1 ms, so once one source has put the horizon at
//! `now + 1` or earlier the engine polls no further sources: the hooks
//! take `&self` and are pure, so skipping them cannot be observed. The
//! workload is polled first, since batch apps sit at `now + 1` every
//! millisecond.
//!
//! The differential suites (`event.rs` unit tests, `tests/event_core.rs`
//! at the workspace root) check this against a forced-1 ms oracle: a
//! test-only workload wrapper that keeps the default hooks, so the
//! engine takes 1 ms spans. They assert `RunReport` equality — energy
//! bits, instruction bits, histograms, health — across apps, governors,
//! the hardened controller, fault plans and seeds, and golden pins
//! captured from the original 1 ms loop anchor both sides.

use crate::device::Device;
use crate::sim::{collect_report, RunReport};
use crate::workload::Workload;
use crate::Policy;

/// Counters describing how much coalescing the engine achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Engine iterations executed (one `tick_span` each).
    pub events: u64,
    /// Simulated milliseconds covered by those events.
    pub simulated_ms: u64,
}

impl EngineStats {
    /// Mean span length in simulated milliseconds per event.
    pub fn mean_span_ms(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.simulated_ms as f64 / self.events as f64
        }
    }
}

/// Run `workload` on `device` under `policies` for at most `max_ms`
/// simulated milliseconds (stopping earlier if the workload finishes),
/// using next-event time advance. Re-exported as [`crate::sim::run`].
///
/// Device statistics are reset at the start of the run, so the returned
/// report covers exactly this run. Policies receive `start`, one `tick`
/// after each span (every millisecond unless every clock domain
/// advertises a longer horizon; see the module docs) and `finish`.
pub fn run(
    device: &mut Device,
    workload: &mut dyn Workload,
    policies: &mut [&mut dyn Policy],
    max_ms: u64,
) -> RunReport {
    run_counted(device, workload, policies, max_ms).0
}

/// [`run`], additionally reporting the engine's event counters (used by
/// the bench harness to derive `events_per_sec`).
pub fn run_counted(
    device: &mut Device,
    workload: &mut dyn Workload,
    policies: &mut [&mut dyn Policy],
    max_ms: u64,
) -> (RunReport, EngineStats) {
    for p in policies.iter_mut() {
        p.start(device);
    }
    device.reset_stats();
    let start_ms = device.now_ms();
    let end_ms = start_ms.saturating_add(max_ms);

    let mut engine = EngineStats::default();
    let mut completed = false;
    while device.now_ms() < end_ms {
        let now = device.now_ms();
        let demand = workload.demand(now);

        // Merge the clock domains into the next-event horizon. Sources
        // are re-polled every iteration, so a policy whose deadline
        // moved (governor handoff, controller degradation) is always
        // honoured from the next event on. A horizon at or before
        // `now + 1` gives a 1 ms span whatever the other sources say, so
        // they are not polled once it is that low.
        let floor = now + 1;
        let mut horizon = end_ms.min(workload.next_event_ms(now));
        if horizon > floor {
            horizon = horizon.min(device.next_fault_boundary_ms(now));
        }
        for p in policies.iter() {
            if horizon <= floor {
                break;
            }
            horizon = horizon.min(p.next_event_ms(device));
        }
        let span = horizon.saturating_sub(now).clamp(1, end_ms - now);

        let outcome = device.tick_span(&demand, span);
        workload.deliver_span(now, outcome.executed, span);
        for p in policies.iter_mut() {
            p.tick(device);
        }
        engine.events += 1;
        engine.simulated_ms += span;
        if workload.finished() {
            completed = true;
            break;
        }
    }

    (
        collect_report(device, workload, policies, max_ms, completed),
        engine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::dvfs::FreqIndex;
    use crate::faults::{FaultInjector, FaultKind, FaultPlan};
    use crate::workload::{ConstantWorkload, Demand, Executed};

    /// A sampling policy that steps the frequency every `period_ms`,
    /// advertising its deadline to the event engine.
    struct Stepper {
        period_ms: u64,
        next_ms: u64,
        up: bool,
    }
    impl Stepper {
        fn new(period_ms: u64) -> Self {
            Self {
                period_ms,
                next_ms: 0,
                up: true,
            }
        }
    }
    impl Policy for Stepper {
        fn name(&self) -> &str {
            "stepper"
        }
        fn start(&mut self, device: &mut Device) {
            device.set_cpu_governor("userspace");
            self.next_ms = device.now_ms() + self.period_ms;
        }
        fn tick(&mut self, device: &mut Device) {
            if device.now_ms() < self.next_ms {
                return;
            }
            self.next_ms = device.now_ms() + self.period_ms;
            let cur = device.freq().0;
            let max = device.table().num_freqs() - 1;
            if cur == 0 {
                self.up = true;
            } else if cur == max {
                self.up = false;
            }
            let next = if self.up {
                (cur + 1).min(max)
            } else {
                cur.saturating_sub(1)
            };
            device.set_cpu_freq(FreqIndex(next));
        }
        fn next_event_ms(&self, device: &Device) -> u64 {
            self.next_ms.max(device.now_ms() + 1)
        }
    }

    /// A per-millisecond policy that keeps the conservative default
    /// hook (forces the engine down to 1 ms spans).
    struct EveryMs {
        ticks: u64,
    }
    impl Policy for EveryMs {
        fn name(&self) -> &str {
            "every-ms"
        }
        fn tick(&mut self, _device: &mut Device) {
            self.ticks += 1;
        }
    }

    /// The forced-1 ms oracle: forwards every call to the wrapped
    /// workload but keeps the default `next_event_ms`/`deliver_span`
    /// hooks, so the engine takes 1 ms spans — the exact call sequence
    /// of a 1 ms tick loop.
    struct PerMs<'a>(&'a mut dyn Workload);
    impl Workload for PerMs<'_> {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn demand(&mut self, now_ms: u64) -> Demand {
            self.0.demand(now_ms)
        }
        fn deliver(&mut self, now_ms: u64, executed: Executed) {
            self.0.deliver(now_ms, executed);
        }
        fn finished(&self) -> bool {
            self.0.finished()
        }
        fn reset(&mut self) {
            self.0.reset();
        }
    }

    /// Fixed-work workload with the default (1 ms) hooks.
    struct Batch {
        remaining: f64,
    }
    impl Workload for Batch {
        fn name(&self) -> &str {
            "batch"
        }
        fn demand(&mut self, _now_ms: u64) -> Demand {
            Demand {
                ipc0: 1.5,
                bytes_per_instr: 0.1,
                desired_gips: None,
                active_cores: 2.0,
                ..Demand::default()
            }
        }
        fn deliver(&mut self, _now_ms: u64, executed: Executed) {
            self.remaining -= executed.instructions;
        }
        fn finished(&self) -> bool {
            self.remaining <= 0.0
        }
        fn reset(&mut self) {
            self.remaining = 1e9;
        }
    }

    fn fault_plans() -> Vec<FaultPlan> {
        vec![
            FaultPlan::new(),
            FaultPlan::new()
                .window(500, 1_500, FaultKind::ThermalClamp(4))
                .and_then(|p| p.window(2_000, 2_600, FaultKind::Hotplug(2.0)))
                .expect("valid windows"),
            FaultPlan::new()
                .window_p(300, 2_800, 0.8, FaultKind::SysfsBusy)
                .and_then(|p| p.window(1_000, 1_001, FaultKind::GovernorReset("userspace".into())))
                .expect("valid windows"),
        ]
    }

    /// Noise on: the monitor's per-sample RNG stream must survive span
    /// coalescing bit-for-bit, against the forced-1 ms oracle.
    #[test]
    fn event_core_matches_tick_core_with_noise_and_faults() {
        for (i, plan) in fault_plans().into_iter().enumerate() {
            for seed in [1u64, 2, 3] {
                let mut cfg = DeviceConfig::nexus6();
                cfg.seed = seed;
                let mk = |plan: &FaultPlan| {
                    let mut d = Device::new(cfg.clone());
                    if !plan.is_empty() {
                        d.install_faults(FaultInjector::new(plan.clone(), 0x5eed ^ seed));
                    }
                    d
                };

                let mut app = ConstantWorkload::new("toy", 0.6, 1.5, 1.0);
                let mut dev_tick = mk(&plan);
                let mut stepper = Stepper::new(50);
                let tick = run(
                    &mut dev_tick,
                    &mut PerMs(&mut app),
                    &mut [&mut stepper],
                    3_000,
                );

                let mut app = ConstantWorkload::new("toy", 0.6, 1.5, 1.0);
                let mut dev_event = mk(&plan);
                let mut stepper = Stepper::new(50);
                let (event, engine) =
                    run_counted(&mut dev_event, &mut app, &mut [&mut stepper], 3_000);

                assert_eq!(tick, event, "plan {i} seed {seed}");
                assert_eq!(
                    tick.energy_j.to_bits(),
                    event.energy_j.to_bits(),
                    "plan {i} seed {seed}: energy must be bit-identical"
                );
                assert_eq!(engine.simulated_ms, 3_000);
                if i == 0 {
                    // Without fault windows the engine must actually
                    // coalesce (50 ms sampling period ⇒ ~60 events).
                    assert!(
                        engine.events < 100,
                        "expected coalescing, got {} events",
                        engine.events
                    );
                }
            }
        }
    }

    #[test]
    fn default_hooks_degrade_to_tick_schedule() {
        let cfg = DeviceConfig::nexus6();

        let mut app = ConstantWorkload::new("toy", 0.3, 1.5, 1.0);
        let mut dev_tick = Device::new(cfg.clone());
        let mut per_ms = EveryMs { ticks: 0 };
        let tick = run(
            &mut dev_tick,
            &mut PerMs(&mut app),
            &mut [&mut per_ms],
            1_000,
        );
        let tick_ticks = per_ms.ticks;

        let mut app = ConstantWorkload::new("toy", 0.3, 1.5, 1.0);
        let mut dev_event = Device::new(cfg);
        let mut per_ms = EveryMs { ticks: 0 };
        let (event, engine) = run_counted(&mut dev_event, &mut app, &mut [&mut per_ms], 1_000);

        assert_eq!(tick, event);
        assert_eq!(per_ms.ticks, tick_ticks, "default hook ⇒ a tick every ms");
        assert_eq!(engine.events, 1_000);
    }

    #[test]
    fn finishing_workload_completes_identically() {
        let cfg = DeviceConfig::nexus6();

        let mut app = Batch { remaining: 1e9 };
        let mut dev_tick = Device::new(cfg.clone());
        let tick = run(&mut dev_tick, &mut PerMs(&mut app), &mut [], 60_000);
        assert!(tick.completed);

        app.reset();
        let mut dev_event = Device::new(cfg);
        let event = run(&mut dev_event, &mut app, &mut [], 60_000);
        assert_eq!(tick, event);
        assert!(event.completed && event.duration_ms < event.max_ms);
    }

    #[test]
    fn bare_steady_run_is_one_event() {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        let mut app = ConstantWorkload::new("steady", 0.5, 1.5, 1.0);
        let mut device = Device::new(cfg);
        let (report, engine) = run_counted(&mut device, &mut app, &mut [], 20_000);
        assert_eq!(engine.events, 1, "no clock domain fires before the end");
        assert_eq!(report.duration_ms, 20_000);
        assert!(report.energy_j > 0.0);
    }

    /// Exact event counts pin the fault clock domain: a 1000 ms
    /// policy-free run with one window costs the window's two edges,
    /// plus one 1 ms span per millisecond at which the fault changes
    /// device state on the tick.
    #[test]
    fn fault_windows_cut_spans_only_where_they_act() {
        let events = |end_ms, kind: FaultKind| {
            let plan = FaultPlan::new()
                .window(100, end_ms, kind)
                .expect("valid window");
            let mut device = Device::new(DeviceConfig::nexus6());
            device.install_faults(FaultInjector::new(plan, 7));
            let mut app = ConstantWorkload::new("steady", 0.5, 1.5, 1.0);
            let (report, engine) = run_counted(&mut device, &mut app, &mut [], 1_000);
            assert_eq!(report.duration_ms, 1_000);
            engine.events
        };
        for kind in [
            FaultKind::SysfsBusy,
            FaultKind::PerfDropout,
            FaultKind::PerfNan,
            FaultKind::PerfZero,
            FaultKind::PerfSpike(4.0),
            FaultKind::CheckpointCorrupt,
            FaultKind::ClockJump,
        ] {
            assert_eq!(events(900, kind.clone()), 3, "{}", kind.label());
        }
        assert_eq!(events(900, FaultKind::ThermalClamp(4)), 4, "clamp");
        assert_eq!(events(900, FaultKind::Hotplug(2.0)), 5, "hotplug");
        assert_eq!(events(300, FaultKind::ControllerKill), 4, "kill");
        assert_eq!(
            events(300, FaultKind::GovernorReset("interactive".into())),
            4,
            "governor reset"
        );
    }
}
