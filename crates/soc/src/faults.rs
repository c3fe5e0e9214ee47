//! Deterministic fault injection for the simulated device.
//!
//! The paper's controller runs as a userspace daemon on a rooted phone
//! and the device is *not* cooperative: sysfs writes get transiently
//! rejected, other agents (an updater, `thermal-engine`, a curious
//! user) reset the cpufreq governor, `perf` drops or corrupts samples,
//! `msm-thermal` silently clamps `scaling_setspeed`, and `mpdecision`
//! hotplugs cores. This module models those pathologies as a
//! [`FaultPlan`] — a set of time windows, each injecting one
//! [`FaultKind`] — executed by a [`FaultInjector`] that is installed
//! into a [`Device`](crate::Device) with
//! [`Device::install_faults`](crate::Device::install_faults).
//!
//! Everything is **replayable bit-for-bit from `(seed, plan)`**: all
//! stochastic decisions draw from one vendored [`asgov_util::Rng`]
//! owned by the injector, in device-tick order. A device with no
//! injector — or an injector with an empty plan — behaves *identically*
//! to one built before this module existed: the fault layer draws no
//! randomness and intercepts nothing unless a window is configured.
//!
//! # Example
//!
//! ```
//! use asgov_soc::faults::{FaultInjector, FaultKind, FaultPlan};
//! use asgov_soc::{Device, DeviceConfig};
//!
//! // Between t = 5 s and t = 8 s, every sysfs write fails with EBUSY.
//! let plan = FaultPlan::new()
//!     .window(5_000, 8_000, FaultKind::SysfsBusy)
//!     .expect("valid window");
//! let mut device = Device::new(DeviceConfig::nexus6());
//! device.install_faults(FaultInjector::new(plan, 0xfau64));
//! ```

use crate::error::SocError;

use asgov_util::Rng;

/// What a fault window injects while active.
///
/// Each kind acts either **on the tick** (the device's per-millisecond
/// fault hook changes state) or **on a call** (it draws only when a
/// sysfs write, perf poll, checkpoint or restore happens). The event
/// engine's fault clock domain follows from that split: see
/// [`FaultInjector::next_event_ms`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Every sysfs write fails with [`SocError::Busy`] (the kernel's
    /// transient `-EBUSY`), subject to the window's probability. Acts on
    /// a call: each sysfs write.
    SysfsBusy,
    /// One-shot: at the window start an external agent writes this
    /// governor into `scaling_governor`, kicking the controller off the
    /// `userspace` policy (e.g. `"interactive"`). Acts on the tick, once:
    /// the first active millisecond fires it, and the window is inert
    /// afterwards.
    GovernorReset(String),
    /// Perf readings are lost (the sampling window closes with no
    /// sample delivered). Acts on a call: each perf poll.
    PerfDropout,
    /// Perf readings come back NaN (a torn read of the counter file).
    /// Acts on a call: each perf poll.
    PerfNan,
    /// Perf readings come back zero (counter reset underneath the
    /// reader). Acts on a call: each perf poll.
    PerfZero,
    /// Perf readings are multiplied by this factor (wrap/scaling bug;
    /// use a large factor for spikes, a tiny one for dips). Acts on a
    /// call: each perf poll.
    PerfSpike(f64),
    /// msm-thermal-style mitigation: the CPU frequency is silently
    /// clamped to at most this frequency *index*; `scaling_setspeed`
    /// writes still report success. Acts on the tick at the window's
    /// first millisecond; afterwards every `set_cpu_freq` applies the
    /// ceiling itself, so later ticks change nothing.
    ThermalClamp(usize),
    /// mpdecision-style hotplug: the online core count is forced to
    /// this value while the window is active and restored afterwards.
    /// Acts on the tick at the window's first millisecond and at the
    /// first one past it; ticks in between re-apply the same count.
    Hotplug(f64),
    /// Process-level: the controller daemon is killed (LMK/OOM kill,
    /// app-triggered restart). One-shot per window, fired at the window
    /// start subject to the window's probability; the device latches it
    /// and a supervising harness consumes it through
    /// [`Device::take_pending_kill`](crate::Device::take_pending_kill).
    /// The device hardware itself keeps running with whatever
    /// configuration the dead controller last applied. Acts on the tick,
    /// once, like [`FaultKind::GovernorReset`].
    ControllerKill,
    /// Level-triggered: checkpoint images written while the window is
    /// active are corrupted (torn write / bad flash block). Queried by
    /// the supervisor through
    /// [`Device::draw_checkpoint_corrupt`](crate::Device::draw_checkpoint_corrupt)
    /// at each checkpoint write, subject to the window's probability.
    /// Acts on a call: each checkpoint write.
    CheckpointCorrupt,
    /// Level-triggered: the wall clock jumped (NTP step, timezone
    /// change, suspend/resume drift) while the window is active, so
    /// checkpoint timestamps cannot be trusted; a supervisor must
    /// refuse warm restore and fall back to a cold restart. Queried
    /// through [`Device::draw_clock_jump`](crate::Device::draw_clock_jump).
    /// Acts on a call: each restore attempt.
    ClockJump,
}

impl FaultKind {
    /// Short machine-readable class label (used by fault-matrix
    /// reports).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SysfsBusy => "sysfs-busy",
            FaultKind::GovernorReset(_) => "governor-reset",
            FaultKind::PerfDropout => "perf-dropout",
            FaultKind::PerfNan => "perf-nan",
            FaultKind::PerfZero => "perf-zero",
            FaultKind::PerfSpike(_) => "perf-spike",
            FaultKind::ThermalClamp(_) => "thermal-clamp",
            FaultKind::Hotplug(_) => "hotplug",
            FaultKind::ControllerKill => "controller-kill",
            FaultKind::CheckpointCorrupt => "checkpoint-corrupt",
            FaultKind::ClockJump => "clock-jump",
        }
    }
}

/// One fault, active over `[start_ms, end_ms)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// First active millisecond.
    pub start_ms: u64,
    /// First millisecond *past* the window.
    pub end_ms: u64,
    /// Per-opportunity firing probability in `[0, 1]`. `1.0` fires on
    /// every opportunity (deterministic scheduling); lower values fire
    /// stochastically from the injector's seeded RNG. Ignored by
    /// [`FaultKind::ThermalClamp`] and [`FaultKind::Hotplug`], which
    /// are level-triggered states rather than discrete events.
    pub probability: f64,
    /// The fault injected.
    pub kind: FaultKind,
}

/// A [`FaultPlan`] construction error. Invalid windows used to be
/// accepted silently (an inverted window simply never fired); they are
/// now rejected at build time with a `Result`.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// `start_ms >= end_ms`: the window could never become active.
    InvertedWindow {
        /// The window's first active millisecond.
        start_ms: u64,
        /// The window's (not-after-start) end millisecond.
        end_ms: u64,
    },
    /// Windows must be appended in non-decreasing `start_ms` order:
    /// overlapping windows draw injector randomness in vector order, so
    /// an out-of-order plan replays a different RNG stream than its
    /// sorted twin while describing the same schedule.
    OutOfOrder {
        /// Start of the previously appended window.
        prev_start_ms: u64,
        /// Start of the offending (earlier) window.
        start_ms: u64,
    },
    /// The firing probability is NaN or infinite.
    BadProbability(f64),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::InvertedWindow { start_ms, end_ms } => {
                write!(f, "inverted fault window [{start_ms}, {end_ms}) ms")
            }
            FaultPlanError::OutOfOrder {
                prev_start_ms,
                start_ms,
            } => write!(
                f,
                "fault window starting at {start_ms} ms appended after one starting at \
                 {prev_start_ms} ms (windows must be in non-decreasing start order)"
            ),
            FaultPlanError::BadProbability(p) => {
                write!(f, "fault probability {p} is not finite")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A declarative, replayable set of fault windows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The fault windows, in non-decreasing `start_ms` order.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan has no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Add a window that always fires while active.
    ///
    /// # Errors
    ///
    /// Rejects inverted (`start_ms >= end_ms`) windows and windows
    /// appended out of `start_ms` order — see [`FaultPlanError`].
    pub fn window(
        self,
        start_ms: u64,
        end_ms: u64,
        kind: FaultKind,
    ) -> Result<Self, FaultPlanError> {
        self.window_p(start_ms, end_ms, 1.0, kind)
    }

    /// Add a window firing with the given per-opportunity probability
    /// (clamped to `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Rejects inverted (`start_ms >= end_ms`) windows, windows
    /// appended out of `start_ms` order, and non-finite probabilities —
    /// see [`FaultPlanError`].
    pub fn window_p(
        mut self,
        start_ms: u64,
        end_ms: u64,
        probability: f64,
        kind: FaultKind,
    ) -> Result<Self, FaultPlanError> {
        if start_ms >= end_ms {
            return Err(FaultPlanError::InvertedWindow { start_ms, end_ms });
        }
        if !probability.is_finite() {
            return Err(FaultPlanError::BadProbability(probability));
        }
        if let Some(prev) = self.windows.last() {
            if start_ms < prev.start_ms {
                return Err(FaultPlanError::OutOfOrder {
                    prev_start_ms: prev.start_ms,
                    start_ms,
                });
            }
        }
        self.windows.push(FaultWindow {
            start_ms,
            end_ms,
            probability: probability.clamp(0.0, 1.0),
            kind,
        });
        Ok(self)
    }

    /// Validate a hand-assembled plan (the `windows` field is public, so
    /// the builder checks can be bypassed) against the same invariants
    /// [`FaultPlan::window_p`] enforces.
    ///
    /// # Errors
    ///
    /// The first [`FaultPlanError`] found, scanning in vector order.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let mut prev_start: Option<u64> = None;
        for w in &self.windows {
            if w.start_ms >= w.end_ms {
                return Err(FaultPlanError::InvertedWindow {
                    start_ms: w.start_ms,
                    end_ms: w.end_ms,
                });
            }
            if !w.probability.is_finite() {
                return Err(FaultPlanError::BadProbability(w.probability));
            }
            if let Some(prev) = prev_start {
                if w.start_ms < prev {
                    return Err(FaultPlanError::OutOfOrder {
                        prev_start_ms: prev,
                        start_ms: w.start_ms,
                    });
                }
            }
            prev_start = Some(w.start_ms);
        }
        Ok(())
    }
}

/// Cumulative injection counters (what the injector actually did).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Sysfs writes rejected with [`SocError::Busy`].
    pub sysfs_busy: u64,
    /// Governor-reset events fired.
    pub governor_resets: u64,
    /// Perf readings dropped.
    pub perf_dropouts: u64,
    /// Perf readings corrupted (NaN, zero or spike).
    pub perf_corrupted: u64,
    /// `set_cpu_freq` requests clamped by the thermal ceiling.
    pub thermal_clamps: u64,
    /// Hotplug transitions applied (enter + leave).
    pub hotplug_changes: u64,
    /// Controller-kill events fired.
    pub controller_kills: u64,
    /// Checkpoint writes corrupted.
    pub checkpoint_corruptions: u64,
    /// Clock jumps observed by a restore attempt.
    pub clock_jumps: u64,
}

/// A perf-reading fault drawn for one sample (consumed by
/// [`PerfReader::poll`](crate::PerfReader::poll)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerfFault {
    /// Lose the reading.
    Dropout,
    /// Replace the reading with NaN.
    Nan,
    /// Replace the reading with zero.
    Zero,
    /// Multiply the reading by the factor.
    Spike(f64),
}

/// Side effects the injector asks the device to apply on a tick.
#[derive(Debug, Clone, Default)]
pub(crate) struct TickActions {
    /// Write this governor into `scaling_governor` (one-shot reset).
    pub governor_reset: Option<String>,
    /// Force the online core count to this value.
    pub set_cores: Option<f64>,
    /// All hotplug windows just ended: restore the configured count.
    pub restore_cores: bool,
    /// Active thermal ceiling; the device pulls the current frequency
    /// down to it if necessary.
    pub thermal_ceiling: Option<usize>,
    /// The controller process is killed on this tick (one-shot); the
    /// device latches it until a supervisor consumes it.
    pub controller_kill: bool,
}

/// Executes a [`FaultPlan`] against a device, deterministically from
/// `(seed, plan)`. Install with
/// [`Device::install_faults`](crate::Device::install_faults).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    windows: Vec<FaultWindow>,
    /// Parallel to `windows`: one-shot windows that already fired.
    fired: Vec<bool>,
    rng: Rng,
    stats: FaultStats,
    hotplug_was_active: bool,
}

impl FaultInjector {
    /// Build an injector for `plan`, with its own RNG stream seeded
    /// from `seed` (independent of the device's measurement-noise
    /// streams, so installing an injector never perturbs them).
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let n = plan.windows.len();
        Self {
            windows: plan.windows,
            fired: vec![false; n],
            rng: Rng::seed_from_u64(seed),
            stats: FaultStats::default(),
            hotplug_was_active: false,
        }
    }

    /// Whether the plan is empty (the injector can never do anything).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// What the injector has injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Earliest millisecond after `now_ms` at which injection behaviour
    /// may change: the event engine's fault clock domain, read through
    /// [`Device::next_fault_boundary_ms`](crate::Device::next_fault_boundary_ms),
    /// or [`u64::MAX`] for an empty or exhausted plan.
    ///
    /// Window starts and ends are always horizons. Beyond those, only a
    /// millisecond at which the per-tick hook changes device state
    /// forces the very next millisecond, so policies re-poll right after
    /// the change, as a 1 ms loop would (see [`FaultKind`]):
    ///
    /// - one-shots (`GovernorReset`, `ControllerKill`): every active
    ///   millisecond until the window has fired, then never;
    /// - `ThermalClamp`: the window's first millisecond (later ones
    ///   re-apply a ceiling that `set_cpu_freq` already enforces);
    /// - `Hotplug`: the first millisecond and the first one past the
    ///   window (where the core count is set and restored);
    /// - call-triggered kinds: never. They draw only inside a sysfs
    ///   write, perf poll, checkpoint or restore, which happen in policy
    ///   ticks, and those are span ends already.
    pub fn next_event_ms(&self, now_ms: u64) -> u64 {
        let mut next = u64::MAX;
        for (w, &fired) in self.windows.iter().zip(&self.fired) {
            let acts_now = match w.kind {
                FaultKind::GovernorReset(_) | FaultKind::ControllerKill => {
                    !fired && Self::active(w, now_ms)
                }
                FaultKind::ThermalClamp(_) => now_ms == w.start_ms,
                FaultKind::Hotplug(_) => now_ms == w.start_ms || now_ms == w.end_ms,
                FaultKind::SysfsBusy
                | FaultKind::PerfDropout
                | FaultKind::PerfNan
                | FaultKind::PerfZero
                | FaultKind::PerfSpike(_)
                | FaultKind::CheckpointCorrupt
                | FaultKind::ClockJump => false,
            };
            if acts_now {
                return now_ms.saturating_add(1);
            }
            if w.start_ms > now_ms {
                next = next.min(w.start_ms);
            }
            if w.end_ms > now_ms {
                next = next.min(w.end_ms);
            }
        }
        next
    }

    fn active(w: &FaultWindow, now_ms: u64) -> bool {
        (w.start_ms..w.end_ms).contains(&now_ms)
    }

    /// Per-tick state changes (called by `Device::tick_span` at the
    /// start of each span).
    pub(crate) fn on_tick(&mut self, now_ms: u64) -> TickActions {
        let mut actions = TickActions::default();
        let mut hotplug_active = false;
        for (w, fired) in self.windows.iter().zip(self.fired.iter_mut()) {
            if !Self::active(w, now_ms) {
                continue;
            }
            match &w.kind {
                FaultKind::GovernorReset(gov) if !*fired => {
                    *fired = true;
                    if w.probability >= 1.0 || self.rng.gen_bool(w.probability) {
                        actions.governor_reset = Some(gov.clone());
                        self.stats.governor_resets += 1;
                    }
                }
                FaultKind::ControllerKill if !*fired => {
                    *fired = true;
                    if w.probability >= 1.0 || self.rng.gen_bool(w.probability) {
                        actions.controller_kill = true;
                        self.stats.controller_kills += 1;
                    }
                }
                FaultKind::ThermalClamp(ceiling) => {
                    let c = actions
                        .thermal_ceiling
                        .map_or(*ceiling, |p| p.min(*ceiling));
                    actions.thermal_ceiling = Some(c);
                }
                FaultKind::Hotplug(cores) => {
                    hotplug_active = true;
                    actions.set_cores = Some(*cores);
                    if !self.hotplug_was_active {
                        self.stats.hotplug_changes += 1;
                    }
                }
                _ => {}
            }
        }
        if self.hotplug_was_active && !hotplug_active {
            actions.restore_cores = true;
            self.stats.hotplug_changes += 1;
        }
        self.hotplug_was_active = hotplug_active;
        actions
    }

    /// Intercept a sysfs write: `Some(err)` rejects the write before it
    /// reaches the virtual tree.
    pub(crate) fn intercept_write(&mut self, now_ms: u64, path: &str) -> Option<SocError> {
        for w in &self.windows {
            if matches!(w.kind, FaultKind::SysfsBusy)
                && Self::active(w, now_ms)
                && (w.probability >= 1.0 || self.rng.gen_bool(w.probability))
            {
                self.stats.sysfs_busy += 1;
                return Some(SocError::Busy(path.to_string()));
            }
        }
        None
    }

    /// The thermal frequency ceiling active at `now_ms`, if any
    /// (lowest across overlapping clamp windows).
    pub(crate) fn thermal_ceiling(&self, now_ms: u64) -> Option<usize> {
        self.windows
            .iter()
            .filter(|w| Self::active(w, now_ms))
            .filter_map(|w| match w.kind {
                FaultKind::ThermalClamp(c) => Some(c),
                _ => None,
            })
            .min()
    }

    /// Record one request clamped by the ceiling.
    pub(crate) fn note_thermal_clamp(&mut self) {
        self.stats.thermal_clamps += 1;
    }

    /// Whether a checkpoint image written at `now_ms` gets corrupted
    /// (probability-gated per active [`FaultKind::CheckpointCorrupt`]
    /// window; draws from the injector's RNG stream, so call it only
    /// when a checkpoint is actually being written).
    pub(crate) fn checkpoint_corrupt(&mut self, now_ms: u64) -> bool {
        for w in &self.windows {
            if matches!(w.kind, FaultKind::CheckpointCorrupt)
                && Self::active(w, now_ms)
                && (w.probability >= 1.0 || self.rng.gen_bool(w.probability))
            {
                self.stats.checkpoint_corruptions += 1;
                return true;
            }
        }
        false
    }

    /// Whether a restore attempted at `now_ms` observes a clock jump
    /// (probability-gated per active [`FaultKind::ClockJump`] window;
    /// draws from the injector's RNG stream, so call it only when a
    /// restore is actually being attempted).
    pub(crate) fn clock_jump(&mut self, now_ms: u64) -> bool {
        for w in &self.windows {
            if matches!(w.kind, FaultKind::ClockJump)
                && Self::active(w, now_ms)
                && (w.probability >= 1.0 || self.rng.gen_bool(w.probability))
            {
                self.stats.clock_jumps += 1;
                return true;
            }
        }
        false
    }

    /// Draw the fault (if any) afflicting a perf reading at `now_ms`.
    pub(crate) fn perf_fault(&mut self, now_ms: u64) -> Option<PerfFault> {
        for w in &self.windows {
            if !Self::active(w, now_ms) {
                continue;
            }
            let fault = match w.kind {
                FaultKind::PerfDropout => PerfFault::Dropout,
                FaultKind::PerfNan => PerfFault::Nan,
                FaultKind::PerfZero => PerfFault::Zero,
                FaultKind::PerfSpike(k) => PerfFault::Spike(k),
                _ => continue,
            };
            if w.probability >= 1.0 || self.rng.gen_bool(w.probability) {
                match fault {
                    PerfFault::Dropout => self.stats.perf_dropouts += 1,
                    _ => self.stats.perf_corrupted += 1,
                }
                return Some(fault);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::new(), 1);
        assert!(inj.is_empty());
        for t in 0..100 {
            let a = inj.on_tick(t);
            assert!(a.governor_reset.is_none());
            assert!(a.set_cores.is_none());
            assert!(a.thermal_ceiling.is_none());
            assert!(!a.restore_cores);
            assert!(!a.controller_kill);
            assert!(inj.intercept_write(t, "/sys/x").is_none());
            assert!(inj.perf_fault(t).is_none());
            assert!(!inj.checkpoint_corrupt(t));
            assert!(!inj.clock_jump(t));
        }
        assert_eq!(*inj.stats(), FaultStats::default());
    }

    #[test]
    fn busy_window_rejects_only_inside() {
        let plan = FaultPlan::new()
            .window(10, 20, FaultKind::SysfsBusy)
            .expect("valid window");
        let mut inj = FaultInjector::new(plan, 7);
        assert!(inj.intercept_write(9, "/sys/x").is_none());
        assert!(matches!(
            inj.intercept_write(10, "/sys/x"),
            Some(SocError::Busy(_))
        ));
        assert!(matches!(
            inj.intercept_write(19, "/sys/x"),
            Some(SocError::Busy(_))
        ));
        assert!(inj.intercept_write(20, "/sys/x").is_none());
        assert_eq!(inj.stats().sysfs_busy, 2);
    }

    #[test]
    fn governor_reset_fires_once() {
        let plan = FaultPlan::new()
            .window(50, 60, FaultKind::GovernorReset("interactive".into()))
            .expect("valid window");
        let mut inj = FaultInjector::new(plan, 7);
        let mut resets = 0;
        for t in 0..100 {
            if inj.on_tick(t).governor_reset.is_some() {
                resets += 1;
            }
        }
        assert_eq!(resets, 1);
        assert_eq!(inj.stats().governor_resets, 1);
    }

    #[test]
    fn thermal_ceiling_takes_the_minimum() {
        let plan = FaultPlan::new()
            .window(0, 100, FaultKind::ThermalClamp(9))
            .and_then(|p| p.window(50, 100, FaultKind::ThermalClamp(4)))
            .expect("valid windows");
        let inj = FaultInjector::new(plan, 7);
        assert_eq!(inj.thermal_ceiling(10), Some(9));
        assert_eq!(inj.thermal_ceiling(60), Some(4));
        assert_eq!(inj.thermal_ceiling(100), None);
    }

    #[test]
    fn hotplug_sets_and_restores() {
        let plan = FaultPlan::new()
            .window(10, 20, FaultKind::Hotplug(2.0))
            .expect("valid window");
        let mut inj = FaultInjector::new(plan, 7);
        assert!(inj.on_tick(5).set_cores.is_none());
        assert_eq!(inj.on_tick(10).set_cores, Some(2.0));
        assert_eq!(inj.on_tick(19).set_cores, Some(2.0));
        let a = inj.on_tick(20);
        assert!(a.set_cores.is_none());
        assert!(a.restore_cores);
        assert!(!inj.on_tick(21).restore_cores);
        assert_eq!(inj.stats().hotplug_changes, 2);
    }

    #[test]
    fn perf_faults_map_to_kinds() {
        let plan = FaultPlan::new()
            .window(0, 10, FaultKind::PerfNan)
            .and_then(|p| p.window(10, 20, FaultKind::PerfZero))
            .and_then(|p| p.window(20, 30, FaultKind::PerfSpike(10.0)))
            .and_then(|p| p.window(30, 40, FaultKind::PerfDropout))
            .expect("valid windows");
        let mut inj = FaultInjector::new(plan, 7);
        assert_eq!(inj.perf_fault(5), Some(PerfFault::Nan));
        assert_eq!(inj.perf_fault(15), Some(PerfFault::Zero));
        assert_eq!(inj.perf_fault(25), Some(PerfFault::Spike(10.0)));
        assert_eq!(inj.perf_fault(35), Some(PerfFault::Dropout));
        assert_eq!(inj.perf_fault(45), None);
        assert_eq!(inj.stats().perf_corrupted, 3);
        assert_eq!(inj.stats().perf_dropouts, 1);
    }

    #[test]
    fn stochastic_faults_replay_per_seed() {
        let plan = || {
            FaultPlan::new()
                .window_p(0, 1000, 0.5, FaultKind::SysfsBusy)
                .expect("valid window")
        };
        let run = |seed| {
            let mut inj = FaultInjector::new(plan(), seed);
            (0..1000)
                .map(|t| inj.intercept_write(t, "/sys/x").is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        // p = 0.5 actually fires about half the time.
        let hits = run(3).iter().filter(|&&b| b).count();
        assert!((300..700).contains(&hits), "p=0.5 fired {hits}/1000");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::SysfsBusy.label(), "sysfs-busy");
        assert_eq!(
            FaultKind::GovernorReset("x".into()).label(),
            "governor-reset"
        );
        assert_eq!(FaultKind::ThermalClamp(3).label(), "thermal-clamp");
        assert_eq!(FaultKind::Hotplug(2.0).label(), "hotplug");
        assert_eq!(FaultKind::ControllerKill.label(), "controller-kill");
        assert_eq!(FaultKind::CheckpointCorrupt.label(), "checkpoint-corrupt");
        assert_eq!(FaultKind::ClockJump.label(), "clock-jump");
    }

    #[test]
    fn controller_kill_fires_once_at_window_start() {
        let plan = FaultPlan::new()
            .window(50, 60, FaultKind::ControllerKill)
            .expect("valid window");
        let mut inj = FaultInjector::new(plan, 7);
        let mut kills = vec![];
        for t in 0..100 {
            if inj.on_tick(t).controller_kill {
                kills.push(t);
            }
        }
        assert_eq!(kills, vec![50], "one-shot at the window start");
        assert_eq!(inj.stats().controller_kills, 1);
    }

    #[test]
    fn improbable_controller_kill_may_not_fire() {
        let plan = FaultPlan::new()
            .window_p(10, 20, 0.0, FaultKind::ControllerKill)
            .expect("valid window");
        let mut inj = FaultInjector::new(plan, 7);
        for t in 0..50 {
            assert!(!inj.on_tick(t).controller_kill);
        }
        assert_eq!(inj.stats().controller_kills, 0);
    }

    #[test]
    fn checkpoint_corrupt_and_clock_jump_are_window_scoped() {
        let plan = FaultPlan::new()
            .window(10, 20, FaultKind::CheckpointCorrupt)
            .and_then(|p| p.window(30, 40, FaultKind::ClockJump))
            .expect("valid windows");
        let mut inj = FaultInjector::new(plan, 7);
        assert!(!inj.checkpoint_corrupt(9));
        assert!(inj.checkpoint_corrupt(10));
        assert!(inj.checkpoint_corrupt(19));
        assert!(!inj.checkpoint_corrupt(20));
        assert!(!inj.clock_jump(29));
        assert!(inj.clock_jump(30));
        assert!(!inj.clock_jump(40));
        assert_eq!(inj.stats().checkpoint_corruptions, 2);
        assert_eq!(inj.stats().clock_jumps, 1);
    }

    #[test]
    fn inverted_window_is_rejected() {
        let err = FaultPlan::new()
            .window(20, 10, FaultKind::SysfsBusy)
            .expect_err("inverted window must be rejected");
        assert_eq!(
            err,
            FaultPlanError::InvertedWindow {
                start_ms: 20,
                end_ms: 10
            }
        );
        // An empty window (start == end) is equally impossible.
        let err = FaultPlan::new()
            .window(10, 10, FaultKind::SysfsBusy)
            .expect_err("empty window must be rejected");
        assert!(matches!(err, FaultPlanError::InvertedWindow { .. }));
    }

    #[test]
    fn out_of_order_windows_are_rejected() {
        let err = FaultPlan::new()
            .window(100, 200, FaultKind::SysfsBusy)
            .and_then(|p| p.window(50, 80, FaultKind::PerfDropout))
            .expect_err("out-of-order windows must be rejected");
        assert_eq!(
            err,
            FaultPlanError::OutOfOrder {
                prev_start_ms: 100,
                start_ms: 50
            }
        );
        // Equal starts are fine (overlap in declaration order).
        assert!(FaultPlan::new()
            .window(100, 200, FaultKind::SysfsBusy)
            .and_then(|p| p.window(100, 150, FaultKind::PerfDropout))
            .is_ok());
    }

    #[test]
    fn non_finite_probability_is_rejected() {
        for p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = FaultPlan::new()
                .window_p(0, 10, p, FaultKind::SysfsBusy)
                .expect_err("non-finite probability must be rejected");
            assert!(matches!(err, FaultPlanError::BadProbability(_)));
        }
        // In-range finite values still clamp rather than error.
        let plan = FaultPlan::new()
            .window_p(0, 10, 7.5, FaultKind::SysfsBusy)
            .expect("finite probability clamps");
        assert!((plan.windows[0].probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_checks_hand_built_plans() {
        let ok = FaultPlan {
            windows: vec![
                FaultWindow {
                    start_ms: 0,
                    end_ms: 10,
                    probability: 1.0,
                    kind: FaultKind::SysfsBusy,
                },
                FaultWindow {
                    start_ms: 5,
                    end_ms: 30,
                    probability: 0.5,
                    kind: FaultKind::PerfDropout,
                },
            ],
        };
        assert!(ok.validate().is_ok());

        let inverted = FaultPlan {
            windows: vec![FaultWindow {
                start_ms: 10,
                end_ms: 10,
                probability: 1.0,
                kind: FaultKind::SysfsBusy,
            }],
        };
        assert!(matches!(
            inverted.validate(),
            Err(FaultPlanError::InvertedWindow { .. })
        ));

        let unordered = FaultPlan {
            windows: vec![
                FaultWindow {
                    start_ms: 50,
                    end_ms: 60,
                    probability: 1.0,
                    kind: FaultKind::SysfsBusy,
                },
                FaultWindow {
                    start_ms: 0,
                    end_ms: 10,
                    probability: 1.0,
                    kind: FaultKind::SysfsBusy,
                },
            ],
        };
        assert!(matches!(
            unordered.validate(),
            Err(FaultPlanError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn kill_window_is_an_event_boundary() {
        let plan = FaultPlan::new()
            .window(500, 510, FaultKind::ControllerKill)
            .expect("valid window");
        let mut inj = FaultInjector::new(plan, 7);
        assert_eq!(inj.next_event_ms(0), 500);
        assert_eq!(inj.next_event_ms(500), 501, "unfired kill ⇒ 1 ms span");
        assert!(inj.on_tick(500).controller_kill);
        assert_eq!(inj.next_event_ms(501), 510, "fired kill is inert");
        assert_eq!(inj.next_event_ms(510), u64::MAX);
    }
}
